"""ResultCache integrity: corruption recovery, format refusal, concurrency."""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro.cli import main as cli_main
from repro.experiments import (
    ResultCache,
    RunResult,
    load_results,
    verify_cache,
)
from repro.experiments.harness import _to_jsonable
from repro.models import generate_traces, random_chain
from repro.profiles import ingest_traces
from repro.profiles.ingest import TraceLog
from repro.testing import Fault, faults

INF = float("inf")


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


def mk(i: int, status: str = "ok") -> RunResult:
    return RunResult(
        network=f"net{i}",
        n_procs=2,
        memory_gb=4.0,
        bandwidth_gbps=12.0,
        algorithm="madpipe",
        dp_period=0.5 + i,
        valid_period=0.6 + i,
        n_stages=2,
        runtime_s=0.1,
        sequential=2.0,
        status=status,
        failure=None if status == "ok" else "why",
    )


def fill(path, n=4, **kw) -> ResultCache:
    cache = ResultCache(path, **kw)
    for i in range(n):
        cache.put(mk(i))
    cache.flush()
    return cache


class TestTruncation:
    def test_truncated_final_line_recovers_prefix(self, tmp_path):
        path = tmp_path / "c.jsonl"
        fill(path, 4)
        text = path.read_text()
        path.write_text(text[: len(text) - 25])  # tear the last record

        cache = ResultCache(path)
        assert len(cache) == 3
        assert len(cache.quarantined) == 1
        sidecar = tmp_path / "c.jsonl.quarantine"
        assert sidecar.exists() and "line 4" in sidecar.read_text()

        # the next flush rewrites the file clean
        cache.put(mk(9))
        cache.flush()
        report = verify_cache(path)
        assert report["clean"] and report["records"] == 4

    def test_torn_line_after_blank_and_corrupt_lines_keeps_its_number(self, tmp_path):
        # the loader streams the file: blank lines still count, and the
        # torn final line (no terminator) is quarantined under its own number
        path = tmp_path / "c.jsonl"
        fill(path, 3)
        first, second, third = path.read_text().splitlines()
        torn = third[:-25]
        path.write_text(f"{first}\n\n{second}\n{{not json\n{torn}")

        cache = ResultCache(path)
        assert len(cache) == 2
        assert [(n, line) for n, _, line in cache.quarantined] == [
            (4, "{not json"),
            (5, torn),
        ]
        sidecar = (tmp_path / "c.jsonl.quarantine").read_text()
        assert "# line 4: " in sidecar and "# line 5: " in sidecar
        assert sidecar.endswith(torn + "\n")

        cache.put(mk(9))
        cache.flush()  # the torn tail forces one clean rewrite
        report = verify_cache(path)
        assert report["clean"] and report["records"] == 3

    @pytest.mark.faultinject
    def test_injected_torn_write_then_reload(self, tmp_path):
        path = tmp_path / "c.jsonl"
        faults.install(
            [Fault(site="cache_flush", action="truncate", times=1, param=17)],
            tmp_path / "state",
        )
        fill(path, 3, flush_every=10)  # single flush, torn 17 bytes short
        faults.clear()
        assert not path.read_text().endswith("\n")

        cache = ResultCache(path)
        assert len(cache) == 2  # last record lost to the tear
        cache.put(mk(7))
        cache.flush()
        assert verify_cache(path)["clean"]

    def test_interrupted_rewrite_leaves_original_valid(self, tmp_path):
        # a stale temp file from a killed repair rewrite must not break
        # loads, nor the next rewrite, which reuses its name
        path = tmp_path / "c.jsonl"
        fill(path, 2)
        path.write_text(path.read_text()[:-1])  # no trailing newline: next flush rewrites
        (tmp_path / f"c.jsonl.tmp{os.getpid()}").write_text('{"half": ')
        cache = ResultCache(path)
        assert len(cache) == 2
        cache.put(mk(2))
        cache.flush()
        assert len(ResultCache(path)) == 3 and verify_cache(path)["clean"]
        assert not list(tmp_path.glob("*.tmp*"))

    def test_missing_trailing_newline_never_concatenates(self, tmp_path):
        path = tmp_path / "c.jsonl"
        fill(path, 2)
        with path.open() as fh:
            lines = fh.read()
        path.write_text(lines.rstrip("\n"))  # parseable, but unterminated

        cache = ResultCache(path)
        assert len(cache) == 2  # nothing lost...
        cache.put(mk(5))
        cache.flush()  # ...and the append did not glue two records together
        assert verify_cache(path)["clean"]
        assert len(load_results(path)) == 3


class TestQuarantineSidecar:
    """Re-reading a damaged file must not duplicate its sidecar entries."""

    def test_result_cache_reloads_quarantine_once(self, tmp_path):
        path = tmp_path / "c.jsonl"
        fill(path, 2)
        with path.open("a") as fh:
            fh.write("{broken\n")
        for _ in range(3):
            assert len(ResultCache(path).quarantined) == 1
        sidecar = tmp_path / "c.jsonl.quarantine"
        assert sidecar.read_text().count("# line") == 1

    def test_trace_log_rereads_quarantine_once(self, tmp_path):
        path = tmp_path / "run0.jsonl"
        path.write_text("{broken\n")
        for _ in range(2):
            assert len(TraceLog(path).quarantined) == 1
        assert (tmp_path / "run0.jsonl.quarantine").read_text().count("# line") == 1

    def test_reingest_keeps_jsonl_and_csv_sidecars(self, tmp_path):
        d = tmp_path / "traces"
        generate_traces(random_chain(5, seed=1, name="t5"), d, runs=4, seed=11,
                        corrupt_lines=2, csv_runs=1)
        first = ingest_traces(d)
        sidecars = sorted(d.glob("*.quarantine"))
        before = {p.name: p.read_text() for p in sidecars}
        again = ingest_traces(d)
        assert again.quarantined == first.quarantined
        assert {p.name: p.read_text() for p in sidecars} == before
        assert sum(t.count("# line") for t in before.values()) == first.n_quarantined


class TestJsonArray:
    def test_json_array_refused_untouched(self, tmp_path, capsys):
        # the format before 3.0.0: loading it line by line would
        # quarantine every line and the next flush would overwrite it
        path = tmp_path / "c.json"
        path.write_text(json.dumps([_to_jsonable(mk(0)), _to_jsonable(mk(1))], indent=1))
        before = path.read_bytes()
        with pytest.raises(ValueError, match="JSON array"):
            ResultCache(path)
        with pytest.raises(ValueError, match="JSON array") as refused:
            load_results(path)
        assert cli_main(["cache", "verify", str(path), "--fix"]) == 2
        assert cli_main(["sweep", "--networks", "toy6", "--procs", "2",
                         "--memories", "1", "--bandwidths", "12", "--out", str(path)]) == 2
        assert capsys.readouterr().out.count("JSON array") == 2
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]  # no sidecar, no temp

        # the conversion the error names yields the same records as JSONL
        code = str(refused.value).split('python -c "', 1)[1].split('"', 1)[0]
        converted = tmp_path / "c.jsonl"
        converted.write_text(subprocess.run(
            [sys.executable, "-c", code, str(path)],
            capture_output=True, text=True, check=True,
        ).stdout)
        assert load_results(converted) == [mk(0), mk(1)]
        assert verify_cache(converted)["clean"]


class TestDuplicates:
    def test_duplicate_keys_last_write_wins(self, tmp_path):
        path = tmp_path / "c.jsonl"
        first, second = mk(0), mk(0)
        second.valid_period = 9.9
        with path.open("w") as fh:
            fh.write(json.dumps(_to_jsonable(first)) + "\n")
            fh.write(json.dumps(_to_jsonable(second)) + "\n")
        cache = ResultCache(path)
        assert len(cache) == 1
        assert cache.get(first.key).valid_period == 9.9
        assert verify_cache(path)["duplicate_keys"] == 1

    def test_overwrite_rewrites_instead_of_duplicating(self, tmp_path):
        path = tmp_path / "c.jsonl"
        fill(path, 2)
        cache = ResultCache(path)
        updated = mk(0)
        updated.valid_period = 7.7
        cache.put(updated)
        cache.flush()
        report = verify_cache(path)
        assert report["duplicate_keys"] == 0 and report["clean"]
        assert ResultCache(path).get(updated.key).valid_period == 7.7


class TestConcurrency:
    @staticmethod
    def _worker(path, offset, n):
        cache = ResultCache(path, flush_every=1)
        for i in range(offset, offset + n):
            cache.put(mk(i))
        cache.flush()

    def test_concurrent_appends_lose_nothing(self, tmp_path):
        path = tmp_path / "c.jsonl"
        procs = [
            multiprocessing.Process(target=self._worker, args=(path, k * 10, 5))
            for k in range(3)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
            assert p.exitcode == 0
        report = verify_cache(path)
        assert report["clean"] and report["records"] == 15
        assert len(ResultCache(path)) == 15


class TestStrictParsing:
    def test_load_results_rejects_nan(self, tmp_path):
        path = tmp_path / "c.jsonl"
        d = _to_jsonable(mk(0))
        d["dp_period"] = float("nan")
        path.write_text(json.dumps(d) + "\n")  # json emits bare NaN
        with pytest.raises(ValueError, match="NaN|non-finite|finite"):
            load_results(path)

    def test_load_results_names_the_bad_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = json.dumps(_to_jsonable(mk(0)))
        path.write_text(good + "\n{broken\n" + good + "\n")
        with pytest.raises(ValueError, match=r":2"):
            load_results(path)

    def test_cache_quarantines_nan(self, tmp_path):
        path = tmp_path / "c.jsonl"
        d = _to_jsonable(mk(0))
        d["valid_period"] = float("nan")
        path.write_text(json.dumps(d) + "\n" + json.dumps(_to_jsonable(mk(1))) + "\n")
        cache = ResultCache(path)
        assert len(cache) == 1
        assert len(cache.quarantined) == 1

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        d = _to_jsonable(mk(0))
        del d["sequential"]
        path.write_text(json.dumps(d) + "\n")
        with pytest.raises(ValueError, match="sequential"):
            load_results(path)

    def test_unknown_status_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        d = _to_jsonable(mk(0))
        d["status"] = "mostly_fine"
        path.write_text(json.dumps(d) + "\n")
        with pytest.raises(ValueError, match="mostly_fine"):
            load_results(path)

    def test_legacy_records_default_status(self, tmp_path):
        # records written before the taxonomy existed have no status field
        path = tmp_path / "c.jsonl"
        ok, infeasible = _to_jsonable(mk(0)), _to_jsonable(mk(1))
        for d in (ok, infeasible):
            del d["status"], d["failure"]
        infeasible["valid_period"] = None  # inf ⇒ infeasible
        path.write_text(json.dumps(ok) + "\n" + json.dumps(infeasible) + "\n")
        loaded = load_results(path)
        assert loaded[0].status == "ok"
        assert loaded[1].status == "infeasible" and loaded[1].valid_period == INF


class TestVerifyCLI:
    def test_verify_clean(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        fill(path, 2)
        assert cli_main(["cache", "verify", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_verify_dirty_then_fix(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        fill(path, 3)
        text = path.read_text()
        path.write_text(text[:-20])  # tear the tail

        assert cli_main(["cache", "verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert "corrupt line" in out

        assert cli_main(["cache", "verify", str(path), "--fix"]) == 0
        out = capsys.readouterr().out
        assert "repaired" in out
        assert verify_cache(path)["clean"]
        assert cli_main(["cache", "verify", str(path)]) == 0

    def test_verify_missing_file(self, tmp_path, capsys):
        assert cli_main(["cache", "verify", str(tmp_path / "nope.jsonl")]) == 1
