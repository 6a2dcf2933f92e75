"""Measured-profile ingestion: traces → calibrated chains + fitted noise.

The trusted-ingestion subsystem.  Raw per-layer timing/memory traces —
JSONL or CSV, schema-versioned, multi-run — enter
through :func:`ingest_traces`, which validates every record against
:mod:`~repro.profiles.schema` and quarantines corruption to sidecar
files instead of crashing.  :func:`calibrate` then turns the surviving
samples into a calibrated :class:`~repro.core.chain.Chain` (robust
medians) and a fitted heteroscedastic
:class:`~repro.profiling.LayerNoiseModel`, with an explicit coverage
report and a ``degraded`` flag whenever anything fell back to the
synthetic baseline.  ``repro ingest`` and ``repro certify --traces``
are the CLI front ends.
"""

from .calibrate import (
    CalibrationResult,
    LayerCoverage,
    calibrate,
    fit_lognormal_sigma,
    mad_filter,
)
from .ingest import TraceLog, TraceSet, ingest_traces
from .schema import (
    SCHEMA_VERSION,
    TIME_UNITS,
    TraceRecord,
    parse_record,
    record_from_csv_row,
)

__all__ = [
    "SCHEMA_VERSION",
    "TIME_UNITS",
    "TraceRecord",
    "parse_record",
    "record_from_csv_row",
    "TraceLog",
    "TraceSet",
    "ingest_traces",
    "LayerCoverage",
    "CalibrationResult",
    "calibrate",
    "mad_filter",
    "fit_lognormal_sigma",
]
