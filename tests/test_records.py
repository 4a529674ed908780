"""The record store (``repro.utils.records``) under all five record kinds.

Sweep artifacts, convergence traces, fuzz corpus entries, service
reports and serving reports are all written, read, checked and scanned
by the same four functions. Each kind below is exercised through its
own public entry points, so one parametrized suite pins the shared
rules for all of them:

* write -> load -> write is byte-exact, and leaves no ``.tmp`` behind;
* a partial file raises the kind's own error;
* a file filed under the wrong name is corrupt, not loaded;
* scans ignore foreign and ``.tmp`` files.

The facade tests at the end pin the other policy: a partial or edited
persisted report makes ``Service.run`` / ``ServingSession.run`` refuse
with ``SimulationError`` instead of crashing or silently loading it.
"""

from __future__ import annotations

import json
import re
import shutil
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.api import Service, ServiceConfig, ServingConfig, ServingSession
from repro.core.driver import train
from repro.errors import FuzzError, SimulationError
from repro.fuzz.corpus import CorpusEntry, load_entry, save_entry, scan_corpus
from repro.service.metrics import validate_report
from repro.serving.metrics import validate_serving_report
from repro.substrate import RecordingSubstrate
from repro.substrate.traces import TraceError, load_trace, scan_traces, write_trace
from repro.sweep.artifacts import (
    ArtifactError,
    artifact_from_result,
    load_artifact,
    scan_artifacts,
    write_artifact,
)
from repro.sweep.study import get_study
from repro.utils.records import read_record, scan_records, write_record


def fast_service() -> ServiceConfig:
    return ServiceConfig(
        rate=3600.0, tenants=2, accounts=2, max_concurrent=2,
        model="lr", dataset="higgs", workers=4, max_epochs=1.0,
        data_scale=1000, channel="s3", seed=11,
    )


def small_serving() -> ServingConfig:
    return ServingConfig(
        model="lr", dataset="higgs", data_scale=2000, requests=30,
        traffic="bursty", platform="faas", autoscaler="concurrency",
    )


@dataclass(frozen=True)
class Kind:
    """One record kind, through its own write/load/scan entry points."""

    error: type[Exception]
    write: Callable  # (directory, doc) -> path
    load: Callable  # (path) -> doc
    scan: Callable  # (directory) -> (completed, corrupt)
    doc: Callable  # (request) -> a real document of this kind


def _report_kind(validate, hash_key: str, root_fixture: str, subdir: str) -> Kind:
    def load(path, expected_hash=None):
        return validate(read_record(path, SimulationError), expected_hash=expected_hash)

    def doc(request):
        root = request.getfixturevalue(root_fixture)
        (path,) = (root / subdir).glob("*.json")
        return json.loads(path.read_text())

    return Kind(
        error=SimulationError,
        write=lambda directory, report: write_record(directory, report[hash_key], report),
        load=load,
        scan=lambda directory: scan_records(directory, load),
        doc=doc,
    )


KINDS = {
    "artifact": Kind(
        ArtifactError, write_artifact, load_artifact, scan_artifacts,
        lambda request: request.getfixturevalue("training")[0],
    ),
    "trace": Kind(
        TraceError, write_trace, load_trace, scan_traces,
        lambda request: request.getfixturevalue("training")[1],
    ),
    "corpus": Kind(
        FuzzError, save_entry, load_entry, scan_corpus,
        lambda request: CorpusEntry(
            invariant="completes", config_kwargs={"workers": 3},
            scenario_id="0:5", message="it broke", shrunk_fields=["workers"],
        ),
    ),
    "service": _report_kind(validate_report, "service_hash", "service_root", "service"),
    "serving": _report_kind(
        validate_serving_report, "serving_hash", "serving_root", "serving"
    ),
}


@pytest.fixture(scope="module")
def training():
    """A real (artifact, trace) pair from one recorded smoke point."""
    point = get_study("smoke").points()[0]
    recorder = RecordingSubstrate()
    result = train(point.config(), substrate=recorder)
    return artifact_from_result(point, result), recorder.trace


@pytest.fixture(scope="module")
def service_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("service_root")
    Service(root, arrivals=fast_service()).run()
    return root


@pytest.fixture(scope="module")
def serving_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("serving_root")
    ServingSession(root, config=small_serving()).run()
    return root


@pytest.fixture(params=sorted(KINDS))
def case(request):
    kind = KINDS[request.param]
    return kind, kind.doc(request)


class TestEveryKind:
    def test_roundtrip_is_byte_exact(self, case, tmp_path):
        kind, doc = case
        path = kind.write(tmp_path / "a", doc)
        loaded = kind.load(path)
        assert loaded == doc
        again = kind.write(tmp_path / "b", loaded)
        assert again.name == path.name
        assert again.read_bytes() == path.read_bytes()
        assert kind.scan(tmp_path / "a") == ({path.stem: loaded}, [])

    def test_no_tmp_file_left_behind(self, case, tmp_path):
        kind, doc = case
        path = kind.write(tmp_path, doc)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_partial_json_raises_the_kinds_error(self, case, tmp_path):
        kind, doc = case
        path = kind.write(tmp_path, doc)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(kind.error, match=f"{re.escape(path.name)}.*partial"):
            kind.load(path)
        assert kind.scan(tmp_path) == ({}, [path])

    def test_misfiled_record_is_corrupt(self, case, tmp_path):
        kind, doc = case
        path = kind.write(tmp_path, doc)
        misfiled = path.with_name("completes-9-9.json")
        path.rename(misfiled)
        assert kind.scan(tmp_path) == ({}, [misfiled])

    def test_scan_ignores_foreign_and_tmp_files(self, case, tmp_path):
        kind, doc = case
        path = kind.write(tmp_path, doc)
        (tmp_path / "notes.txt").write_text("not a record")
        (tmp_path / "deadbeef.json.tmp").write_text("{")
        completed, corrupt = kind.scan(tmp_path)
        assert list(completed) == [path.stem] and corrupt == []

    def test_missing_directory_scans_empty(self, case, tmp_path):
        kind, _ = case
        assert kind.scan(tmp_path / "nowhere") == ({}, [])


# ----------------------------------------------------------------------
# The report facades refuse unusable reports
# ----------------------------------------------------------------------
FACADES = {
    "service": (
        "service_root", "service", "max_concurrent",
        lambda root: Service(root, arrivals=fast_service()).run(),
    ),
    "serving": (
        "serving_root", "serving", "requests",
        lambda root: ServingSession(root, config=small_serving()).run(),
    ),
}


@pytest.fixture(params=sorted(FACADES))
def filed_report(request, tmp_path):
    """A copy of a real persisted report, alone under a fresh root."""
    root_fixture, subdir, field, run = FACADES[request.param]
    (source,) = (request.getfixturevalue(root_fixture) / subdir).glob("*.json")
    path = tmp_path / subdir / source.name
    path.parent.mkdir()
    shutil.copyfile(source, path)
    return path, subdir, field, lambda: run(tmp_path)


def test_filed_report_resumes(filed_report):
    path, _, _, run = filed_report
    before = path.read_bytes()
    outcome = run()
    assert outcome.path == path and path.read_bytes() == before


def test_partial_report_is_refused_naming_the_file(filed_report):
    path, _, _, run = filed_report
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(SimulationError, match=re.escape(path.name)):
        run()


def test_edited_fingerprint_is_refused(filed_report):
    path, subdir, field, run = filed_report
    report = json.loads(path.read_text())
    report[subdir][field] += 1  # the hash key stays as it was
    path.write_text(json.dumps(report))
    with pytest.raises(SimulationError, match="hash mismatch"):
        run()
