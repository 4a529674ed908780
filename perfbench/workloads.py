"""The benchmark's workloads: the commands of one run and their checks.

A workload is one or more *passes*, each a separate process started
through ``shim.py``: ``("cli", ARGS)`` runs ``python -m repro.cli ARGS``
and ``("exchange", ARGS)`` runs the exchange client. ``check`` reads
what the passes wrote and returns ``(digest, problems)``: the digest is
a SHA-256 over the simulated results only (no host times), so it must
not change when the simulator gets faster; ``problems`` lists every
seed-independent check that failed.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

EXCHANGE_WORKERS = 256
EXCHANGE_ROUNDS = 3
EXCHANGE_LENGTH = 4096  # physical surrogate vector, as in measure_exchange
EXCHANGE_LOGICAL_NBYTES = 400_000  # LR/RCV1-sized model on the simulated wire
INFER_REQUESTS = 20000


def make_inputs(seed: int, rounds: int, workers: int, length: int) -> np.ndarray:
    """Exchange inputs, shape (rounds, workers, length), drawn from `seed`."""
    return np.random.default_rng(seed).standard_normal((rounds, workers, length))


def rank_order_mean(vectors: np.ndarray) -> np.ndarray:
    """Sequential mean in rank order: the fold every aggregation path uses."""
    acc = np.array(vectors[0], dtype=np.float64, copy=True)
    for vector in vectors[1:]:
        acc += vector
    acc /= len(vectors)
    return acc


def _sha(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def file_hashes(root: Path) -> dict[str, str]:
    """Relative path -> SHA-256 of every file under `root`."""
    return {
        str(path.relative_to(root)): _sha(path.read_bytes())
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class Exchange:
    """``exchange_w256``: ScatterReduce rounds through the public engine API."""

    name = "exchange_w256"

    def __init__(self, workers: int = EXCHANGE_WORKERS, rounds: int = EXCHANGE_ROUNDS):
        self.workers = workers
        self.rounds = rounds

    def passes(self, seed: int, out: Path) -> list[tuple[str, list[str]]]:
        return [(
            "exchange",
            ["--seed", str(seed), "--out", str(out), "--workers", str(self.workers),
             "--rounds", str(self.rounds)],
        )]

    def check(self, seed: int, out: Path, stdouts: list[str], hashes) -> tuple[str, list[str]]:
        problems = []
        result = json.loads((out / "result.json").read_text())
        merged = np.load(out / "merged.npy")
        inputs = make_inputs(seed, self.rounds, self.workers, EXCHANGE_LENGTH)
        if merged.shape != inputs.shape:
            return "", [f"merged vectors have shape {merged.shape}, not {inputs.shape}"]
        for index in range(self.rounds):
            expected = rank_order_mean(inputs[index])
            wrong = [r for r in range(self.workers) if not np.array_equal(merged[index, r], expected)]
            if wrong:
                problems.append(
                    f"round {index}: {len(wrong)} rank(s) differ from the rank-order mean"
                )
        if len(result["per_worker"]) != self.workers:
            problems.append(f"{len(result['per_worker'])} worker results, not {self.workers}")
        if not result["clock"] > 0:
            problems.append(f"simulated clock is {result['clock']}")
        return _sha(_canonical(result), merged.tobytes()), problems


class SweepFigR:
    """``sweep_figR``: the Figure-R reliability sweep, then its resume."""

    name = "sweep_figR"
    points = 18

    def __init__(self, max_epochs: float | None = None):
        self.max_epochs = max_epochs

    def passes(self, seed: int, out: Path) -> list[tuple[str, list[str]]]:
        args = ["sweep", "--experiment", "figR", "--substrate", "auto", "--jobs", "2",
                "--out", str(out), "--seed", str(seed)]
        if self.max_epochs is not None:
            args += ["--max-epochs", str(self.max_epochs)]
        return [("cli", args), ("cli", args + ["--resume"])]

    def check(self, seed: int, out: Path, stdouts: list[str], hashes) -> tuple[str, list[str]]:
        problems = []
        pattern = re.compile(
            r"sweep figR: (\d+) point\(s\) run, (\d+) skipped via resume, (\d+) corrupt"
            r".*\[auto: \d+ unique stat fingerprint\(s\), (\d+) recorded, (\d+) replayed, "
            r"(\d+) exact\]"
        )
        expected = [(self.points, 0, 0, 1, self.points - 1, 0), (0, self.points, 0, 0, 0, 0)]
        for label, stdout, want in zip(("fresh", "resume"), stdouts, expected):
            found = pattern.search(stdout)
            got = tuple(int(g) for g in found.groups()) if found else None
            if got != want:
                problems.append(
                    f"{label} pass: (run, resumed, corrupt, recorded, replayed, exact) "
                    f"= {got}, expected {want}"
                )
        fresh, resumed = hashes
        if fresh != resumed:
            problems.append("the resume pass changed the sweep directory's bytes")
        artifacts = sorted(out.glob("*.json"))
        traces = sorted((out / "traces").glob("*.json"))
        if (len(artifacts), len(traces)) != (self.points, 1):
            problems.append(f"{len(artifacts)} artifacts and {len(traces)} traces on disk")
        simulated = []
        for path in artifacts + traces:
            document = json.loads(path.read_text())
            document.pop("meta", None)  # host wall and compute seconds
            simulated.append(_canonical(document))
        return _sha(*simulated), problems


class InferBursty:
    """``infer_bursty``: a train-then-serve pipeline, then its resume."""

    name = "infer_bursty"

    def __init__(self, requests: int = INFER_REQUESTS):
        self.requests = requests

    def passes(self, seed: int, out: Path) -> list[tuple[str, list[str]]]:
        args = ["infer", "--platform", "faas", "--traffic", "bursty",
                "--autoscaler", "concurrency", "--requests", str(self.requests),
                "--rate-rps", "50", "--max-replicas", "64", "--seed", str(seed),
                "--out", str(out)]
        return [("cli", args), ("cli", args)]

    def check(self, seed: int, out: Path, stdouts: list[str], hashes) -> tuple[str, list[str]]:
        problems = []
        fresh, resumed = (s.strip().splitlines()[-1] if s.strip() else "" for s in stdouts)
        if f": {self.requests} request(s) simulated" not in fresh:
            problems.append(f"fresh pass did not simulate {self.requests} requests: {fresh!r}")
        if "report resumed, 0 request(s) re-simulated" not in resumed:
            problems.append(f"resume pass re-simulated requests: {resumed!r}")
        if hashes[0] != hashes[1]:
            problems.append("the resume pass changed the pipeline directory's bytes")
        reports = sorted((out / "serving").glob("*.json"))
        models = sorted((out / "models").glob("*.json"))
        if (len(reports), len(models)) != (1, 1):
            return "", problems + [f"{len(reports)} reports and {len(models)} models on disk"]
        report = json.loads(reports[0].read_text())
        requests = report["requests"]
        completed = sum(
            1 for r in requests
            if r["arrival_s"] <= r["start_s"] <= r["completion_s"] and r["latency_s"] >= 0
        )
        rejected = report["metrics"].get("rejected", 0)
        if not len(requests) == completed + rejected == self.requests:
            problems.append(
                f"arrived {len(requests)}, completed {completed}, rejected {rejected}; "
                f"expected {self.requests} = completed + rejected"
            )
        if report["metrics"]["requests"] != self.requests:
            problems.append(f"report counts {report['metrics']['requests']} requests")
        model = json.loads(models[0].read_text())
        model.pop("meta", None)  # host wall and compute seconds
        return _sha(_canonical(report), _canonical(model)), problems


WORKLOADS = {w.name: w for w in (Exchange(), SweepFigR(), InferBursty())}
