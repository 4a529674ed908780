"""The one record store: atomic, validated JSON files named by their key.

Sweep artifacts, convergence traces, fuzz corpus entries, service
reports and serving reports are each one ``<dir>/<name>.json`` file
written, read, checked and scanned here. A kind keeps only what makes
it different: its error class, shape, schema versions and extra checks.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import ReproError
from repro.utils.hashing import fingerprint_hash


def write_record(directory: str | os.PathLike, name: str, doc: dict) -> Path:
    """Atomically persist ``doc`` as ``<directory>/<name>.json`` (tmp + rename)."""
    path = Path(directory) / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return path


def read_record(path: str | os.PathLike, error: type[Exception]):
    """Parse one record file; ``error`` naming it when unreadable or partial."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise error(f"{path}: unreadable/partial JSON ({exc})") from exc


def check_record(
    doc, *, error, schemas, shape, hash_key, fingerprint_key, expected_hash
):
    """Check a parsed record; raise ``error`` when it is unusable.

    ``shape`` maps required keys to types. With ``fingerprint_key``,
    ``doc[fingerprint_key]`` must hash to ``doc[hash_key]``; with
    ``expected_hash`` (the name it is filed under), ``doc[hash_key]``
    must equal it.
    """
    if not isinstance(doc, dict):
        raise error(f"record is {type(doc).__name__}, not an object")
    if doc.get("schema") not in schemas:
        raise error(f"schema {doc.get('schema')!r} not in {schemas}")
    missing = shape.keys() - doc.keys()
    if missing:
        raise error(f"missing keys: {sorted(missing)}")
    for key, kind in shape.items():
        if not isinstance(doc[key], kind):
            raise error(f"{key!r} is {type(doc[key]).__name__}, not {kind.__name__}")
    if fingerprint_key is not None:
        recomputed = fingerprint_hash(doc[fingerprint_key])
        if recomputed != doc[hash_key]:
            raise error(
                f"{hash_key.replace('_', ' ')} mismatch: recorded {doc[hash_key]}, "
                f"{fingerprint_key} hashes to {recomputed} (stale or tampered record)"
            )
    if expected_hash is not None and doc[hash_key] != expected_hash:
        raise error(f"record {doc[hash_key]} filed under {expected_hash}")
    return doc


def scan_records(directory: str | os.PathLike, load) -> tuple[dict, list[Path]]:
    """Index ``*.json`` files: ``(name -> record, corrupt paths)``.

    ``load(path, name)`` must raise a ReproError unless the file is a
    usable record filed under ``name``, its stem.
    """
    completed: dict = {}
    corrupt: list[Path] = []
    if Path(directory).is_dir():
        for path in sorted(Path(directory).glob("*.json")):
            try:
                completed[path.stem] = load(path, path.stem)
            except ReproError:
                corrupt.append(path)
    return completed, corrupt
