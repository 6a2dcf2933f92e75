"""Profile persistence: save/load chains as JSON.

The optimization is meant to run once per (network, machine) pair; storing
the profiled chain lets later runs skip the model zoo entirely — and lets
users plug in *measured* profiles (e.g. from a real PyTorch run) in the
same format.

Profiles are untrusted input: hand-edited files, partial downloads and
mis-generated exports all reach :func:`load_chain`.  Every failure mode —
malformed JSON, a missing or mistyped field, a NaN/Infinity constant, a
negative duration — surfaces as one typed :class:`ProfileError` naming
the offending file and field, never a raw ``KeyError`` or
``json.JSONDecodeError`` traceback.  :class:`ProfileError` subclasses
``ValueError``, so existing ``except ValueError`` call sites (the serve
request parser, the ingestion quarantine) keep working unchanged.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..core.chain import Chain, LayerProfile
from ..jsonl import strict_loads

__all__ = [
    "ProfileError",
    "chain_from_dict",
    "save_chain",
    "load_chain",
    "dumps_chain",
    "loads_chain",
]

#: Fields every serialized layer must carry (matching ``Chain.to_dict``).
_LAYER_FIELDS = ("name", "u_f", "u_b", "weights", "activation")


class ProfileError(ValueError):
    """A chain profile failed to parse or validate.

    The message always names the source (file path or ``<string>``) and,
    when one is identifiable, the offending field — the debugging
    information a raw ``KeyError`` would bury.
    """

    def __init__(self, message: str, *, source: str = "<string>", field: str | None = None):
        where = source if field is None else f"{source}: field {field!r}"
        super().__init__(f"{where}: {message}")
        self.source = source
        self.field = field


def chain_from_dict(data: object, *, source: str = "<string>") -> Chain:
    """Strictly validate and build a :class:`Chain` from its dict form.

    Raises :class:`ProfileError` (naming ``source`` and the field) on any
    structural problem; value-level validation (negative durations,
    non-finite sizes) is delegated to :class:`Chain` /
    :class:`LayerProfile` and re-raised as :class:`ProfileError` too.
    """
    if not isinstance(data, dict):
        raise ProfileError(
            f"profile must be a JSON object, got {type(data).__name__}",
            source=source,
        )
    for key in ("layers", "input_activation"):
        if key not in data:
            raise ProfileError("missing required field", source=source, field=key)
    raw_layers = data["layers"]
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ProfileError(
            "must be a non-empty array of layer objects",
            source=source,
            field="layers",
        )
    name = data.get("name", "chain")
    if not isinstance(name, str):
        raise ProfileError("must be a string", source=source, field="name")
    layers: list[LayerProfile] = []
    for i, obj in enumerate(raw_layers):
        if not isinstance(obj, dict):
            raise ProfileError(
                f"must be an object, got {type(obj).__name__}",
                source=source,
                field=f"layers[{i}]",
            )
        missing = [k for k in _LAYER_FIELDS if k not in obj]
        if missing:
            raise ProfileError(
                f"missing {missing}", source=source, field=f"layers[{i}]"
            )
        unknown = sorted(set(obj) - set(_LAYER_FIELDS))
        if unknown:
            raise ProfileError(
                f"unknown keys {unknown}", source=source, field=f"layers[{i}]"
            )
        try:
            layers.append(LayerProfile(**obj))
        except (ValueError, TypeError) as exc:
            raise ProfileError(
                str(exc), source=source, field=f"layers[{i}]"
            ) from None
    try:
        return Chain(
            layers=layers,
            input_activation=data["input_activation"],
            name=name,
        )
    except (ValueError, TypeError) as exc:
        raise ProfileError(str(exc), source=source) from None


def dumps_chain(chain: Chain) -> str:
    """Serialize a chain to a JSON string."""
    return json.dumps(chain.to_dict(), indent=2)


def loads_chain(text: str, *, source: str = "<string>") -> Chain:
    """Deserialize a chain from a JSON string.

    Raises :class:`ProfileError` on malformed JSON, NaN/Infinity
    constants, missing/unknown fields or invalid values.
    """
    try:
        data = strict_loads(text)
    except ValueError as exc:  # json.JSONDecodeError included
        raise ProfileError(f"invalid JSON: {exc}", source=source) from None
    return chain_from_dict(data, source=source)


def save_chain(chain: Chain, path: str | Path) -> None:
    """Write a chain profile to ``path`` as JSON."""
    Path(path).write_text(dumps_chain(chain))


def load_chain(path: str | Path) -> Chain:
    """Read a chain profile written by :func:`save_chain`.

    File-system errors propagate as ``OSError``; anything wrong with the
    *content* raises :class:`ProfileError` naming the file.
    """
    return loads_chain(Path(path).read_text(), source=str(path))
