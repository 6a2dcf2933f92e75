#!/usr/bin/env python
"""Scheduling a user-supplied profile (the intended production flow).

In practice one profiles each layer of the real model on the real GPU
(e.g. with PyTorch hooks), dumps a JSON file, and feeds it to MadPipe.
This example writes such a JSON profile by hand, loads it back through
the public API, schedules it, and prints the decisions — no model zoo
involved.

Run:  python examples/custom_profile.py
"""

import json
import tempfile
from pathlib import Path

from repro import Discretization, Platform
from repro.algorithms import madpipe
from repro.profiling import load_chain

# A hand-written profile: times in seconds, sizes in bytes, as a real
# profiler would emit.  `activation` is the layer's output tensor for the
# profiled mini-batch; `weights` is a single copy of its parameters.
PROFILE = {
    "name": "my-transformer-encoder",
    "input_activation": 64e6,
    "layers": [
        {"name": "embed", "u_f": 0.004, "u_b": 0.006, "weights": 180e6, "activation": 64e6},
        *[
            {
                "name": f"block{i}",
                "u_f": 0.011,
                "u_b": 0.022,
                "weights": 42e6,
                "activation": 64e6,
            }
            for i in range(12)
        ],
        {"name": "head", "u_f": 0.006, "u_b": 0.010, "weights": 210e6, "activation": 2e6},
    ],
}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "profile.json"
        path.write_text(json.dumps(PROFILE))
        chain = load_chain(path)

    print(f"loaded {chain.name}: {chain.L} layers, U = {chain.total_compute() * 1e3:.1f} ms")
    platform = Platform.of(n_procs=4, memory_gb=2, bandwidth_gbps=24)
    result = madpipe(chain, platform, grid=Discretization.default(), ilp_time_limit=30)

    if not result.feasible:
        print("no memory-feasible schedule — add GPUs or memory")
        return
    print(
        f"schedule found: period {result.period * 1e3:.2f} ms "
        f"({1 / result.period:.0f} batches/s), {result.notes[-1]}"
    )
    for i, (stage, proc) in enumerate(
        zip(result.allocation.stages, result.allocation.procs)
    ):
        names = [chain.layer(l).name for l in (stage.start, stage.end)]
        print(
            f"  stage {i}: {names[0]} .. {names[1]} "
            f"(layers {stage.start}-{stage.end}) -> GPU {proc}"
        )


if __name__ == "__main__":
    main()
