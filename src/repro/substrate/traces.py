"""Convergence trace artifacts: one JSON file per statistical fingerprint.

Trace schema (version 1)::

    {
      "schema": 1,
      "stat_hash": "<16 hex chars>",           # fingerprint_hash(stat_fingerprint)
      "stat_fingerprint": { ...convergence-relevant config fields... },
      "reduce": "mean" | "sum",
      "ranks": [                               # one entry per worker rank
        {
          "epochs_per_round": float,
          "round_work": [instances, iterations],
          "eval_work": [instances, iterations],
          "losses": [float, ...],              # local loss per evaluation,
                                               # in call order (init first)
          "rounds": int,                       # total communication rounds
          "epochs": float,                     # final epoch_float
          "final_loss": float                  # final *global* loss seen
        }, ...
      ],
      "final_accuracy": float | null,
      "meta": {                                # non-deterministic bookkeeping
        "engine_version": "...",
        "recorded_config_hash": "<hash of the config that recorded it>",
        "compute_seconds": float               # host seconds of numpy work
      }
    }

Everything outside ``meta`` is a pure function of the statistical
fingerprint: any config sharing the fingerprint must record the same
trace bit for bit (the substrate tests assert exactly that), which is
why one trace can be replayed across a whole systems grid.

Traces live in the shared record store (:mod:`repro.utils.records`),
like sweep artifacts: an interrupted phase-0 recording never leaves a
half-written ``traces/<stat_hash>.json``.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.errors import SubstrateError
from repro.utils.records import check_record, read_record, scan_records, write_record

TRACE_SCHEMA_VERSION = 1

_SHAPE = {
    "stat_hash": str, "stat_fingerprint": dict, "reduce": str,
    "ranks": list, "meta": dict,
}

_RANK_KEYS = {
    "epochs_per_round", "round_work", "eval_work",
    "losses", "rounds", "epochs", "final_loss",
}


class TraceError(SubstrateError):
    """A convergence trace is corrupt, partial, or from another schema."""


def trace_path(traces_dir: str | os.PathLike, stat_hash: str) -> Path:
    return Path(traces_dir) / f"{stat_hash}.json"


def write_trace(traces_dir: str | os.PathLike, trace: dict) -> Path:
    """Atomically persist a trace as ``<stat_hash>.json``."""
    return write_record(traces_dir, trace["stat_hash"], trace)


def validate_trace(trace: dict, expected_hash: str | None = None) -> dict:
    """Check schema, shape, and hash integrity; raise TraceError."""
    check_record(
        trace, error=TraceError, schemas=(TRACE_SCHEMA_VERSION,), shape=_SHAPE,
        hash_key="stat_hash", fingerprint_key="stat_fingerprint",
        expected_hash=expected_hash,
    )
    if not trace["ranks"]:
        raise TraceError("trace has no per-rank records")
    for rank, record in enumerate(trace["ranks"]):
        if not isinstance(record, dict) or not _RANK_KEYS <= record.keys():
            raise TraceError(f"rank {rank} record is missing keys")
    return trace


def load_trace(path: str | os.PathLike, expected_hash: str | None = None) -> dict:
    """Load + validate one trace file; TraceError when unusable."""
    return validate_trace(read_record(path, TraceError), expected_hash)


def scan_traces(traces_dir: str | os.PathLike) -> tuple[dict[str, dict], list[Path]]:
    """Index a trace directory: ``(stat_hash -> trace, corrupt paths)``."""
    return scan_records(traces_dir, load_trace)
