"""Layer-ledger benchmark: run one workload, time it, check it, report it.

    python3 perfbench/run.py --workload sweep_figR --seed 20210620 \\
        --seconds 36 --trace 0

Run from the repository root. Each iteration starts the workload's
passes as separate processes (``shim.py``), the way a user runs them,
with single-thread BLAS as CI pins it, and repeats until ``--seconds``
of measuring have passed (to the nearest whole iteration). Every
iteration's outputs are checked; one whose process crashed, timed out
or failed a check counts as failed.

``--trace 0`` reports the end-to-end metrics as medians over the
iterations. ``--trace 1`` runs the workload once untraced and once
with per-layer spans (``tracer.py``) and reports the per-layer metrics
and ``trace_overhead``, the traced wall over the untraced wall; the two
runs must produce identical simulated results.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).
``ledger.json`` documents the workloads, metrics and layers, and pins
the digest of each workload's simulated results at the default seed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, file_hashes

BENCH = Path(__file__).resolve().parent
LEDGER = json.loads((BENCH / "ledger.json").read_text())
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0  # the whole run, set-up included, ends before this

SELF_TIME_LAYERS = (
    "simulation", "storage", "comm", "utils.serialization", "simulation.tracing",
    "pricing", "core", "faas", "iaas", "substrate", "models", "optim", "data",
    "faults", "sweep", "api", "serving",
)
COUNTS = (
    "storage.ops", "storage.puts", "storage.gets", "storage.polls", "comm.steps",
    "utils.serialization.calls", "simulation.tracing.adds", "pricing.calls",
    "substrate.recorded", "substrate.replayed", "faults.crashes",
    "sweep.points_planned", "sweep.points_run", "sweep.points_resumed",
    "sweep.artifact_writes", "sweep.artifact_reads", "serving.requests",
    "serving.autoscale_calls",
)


@dataclass
class Sample:
    """One iteration of a workload: its passes, timings and check result."""

    wall_s: float = 0.0  # summed over the passes
    setup_s: float | None = None
    peak_rss_mb: float = 0.0
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    layers: dict | None = None  # per-layer metrics of a traced iteration


def environment(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_pass(command, env, cwd: Path, logs: Path, timeout: float):
    """Run one process; returns (wall seconds, rusage, exit code, stdout).

    The process leads its own session, so a timeout kills it together
    with any pool children; ``wait4`` reports the peak RSS of the
    process and of every descendant it waited for.
    """
    with open(logs / "stdout", "wb") as out, open(logs / "stderr", "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(
            command, stdout=out, stderr=err, env=env, cwd=cwd, start_new_session=True
        )
        timer = threading.Timer(max(timeout, 0.0), os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # stragglers of the session, if any
    except ProcessLookupError:
        pass
    return wall, usage, proc.returncode, (logs / "stdout").read_text()


def run_once(
    workload, seed: int, root: Path, work: Path, traced: bool, deadline: float,
    keep: bool = False,
) -> Sample:
    """Run every pass of `workload` once in a fresh `work` directory and check it.

    `work` is removed afterwards unless `keep` is set.
    """
    out, marks, spans, logs = (work / name for name in ("out", "marks", "spans", "logs"))
    for directory in (out, marks, spans, logs):
        directory.mkdir(parents=True)
    sample = Sample()
    env = environment(root)
    stdouts, hashes = [], []
    first_start = None
    for index, (target, args) in enumerate(workload.passes(seed, out)):
        command = [sys.executable, str(BENCH / "shim.py"), "--marks", str(marks)]
        if traced:
            command += ["--spans", str(spans)]
        command += [target, "--", *args]
        if first_start is None:
            first_start = time.monotonic()
        wall, usage, code, stdout = run_pass(
            command, env, root, logs, deadline - time.monotonic()
        )
        sample.wall_s += wall
        sample.peak_rss_mb = max(sample.peak_rss_mb, usage.ru_maxrss / 1024.0)
        if code != 0:
            tail = (logs / "stderr").read_text().strip().splitlines()[-3:]
            sample.problems.append(f"pass {index} exited with code {code}: {' | '.join(tail)}")
            break
        stdouts.append(stdout)
        hashes.append(file_hashes(out))
    starts = [float(path.read_text()) for path in marks.iterdir()]
    if starts:
        sample.setup_s = min(starts) - first_start
    else:
        sample.problems.append("no process of the run entered Engine.run")
    if not sample.problems:
        try:
            sample.digest, problems = workload.check(seed, out, stdouts, hashes)
        except Exception as exc:  # a malformed output is a failed check
            problems = [f"output check crashed: {type(exc).__name__}: {exc}"]
        sample.problems += problems
    if traced:
        sample.layers = layer_metrics(spans)
    if not keep:
        shutil.rmtree(work)
    return sample


def layer_metrics(spans: Path) -> dict[str, tuple[float, str]]:
    """Sum every process's spans into the per-layer metrics."""
    self_s: Counter = Counter()
    counts: Counter = Counter()
    events = batches = peak_heap = 0
    io_s = import_s = 0.0
    for path in spans.glob("spans-*.json"):
        record = json.loads(path.read_text())
        self_s.update(record["self_s"])
        counts.update(record["counts"])
        events += record["engine"]["events"]
        batches += record["engine"]["batches"]
        peak_heap = max(peak_heap, record["engine"]["peak_heap"])
        io_s += record["io_s"]
        import_s += record["import_s"]  # one entry module import per pass
    metrics = {f"{layer}.self_s": (float(self_s[layer]), "s") for layer in SELF_TIME_LAYERS}
    metrics.update({name: (counts[name], "count") for name in COUNTS})
    metrics["simulation.events"] = (events, "count")
    metrics["simulation.events_per_batch"] = (events / batches if batches else 0.0, "event/batch")
    metrics["simulation.peak_heap"] = (peak_heap, "count")
    ops = counts["storage.ops"]
    metrics["storage.us_per_op"] = (1e6 * self_s["storage"] / ops if ops else 0.0, "us")
    metrics["sweep.io_s"] = (io_s, "s")
    metrics["sweep.pool_wait_s"] = (float(self_s["sweep.pool_wait"]), "s")
    metrics["cli.import_s"] = (import_s, "s")
    return metrics


def check_digests(workload_name: str, seed: int, samples: list[Sample]) -> None:
    """Simulated results must repeat exactly, and match the pin at its seed."""
    pinned = LEDGER["pinned_digests"]
    expected = pinned["workloads"].get(workload_name) if seed == pinned["seed"] else None
    reference = next((s.digest for s in samples if s.digest), None)
    for sample in samples:
        if not sample.digest:
            continue
        if expected is not None and sample.digest != expected:
            sample.problems.append(
                f"simulated results digest {sample.digest[:16]} != pinned {expected[:16]}"
            )
        elif sample.digest != reference:
            sample.problems.append("simulated results differ between iterations")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=LEDGER["pinned_digests"]["seed"])
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program to benchmark: {root}/src/repro is missing "
              "(run from the repository root)", file=sys.stderr)
        return 2
    # Build step: byte-compile once so no timed process pays for it.
    compileall.compile_dir(root / "src", quiet=1)
    compileall.compile_dir(BENCH, quiet=1, maxlevels=0)

    workload = WORKLOADS[args.workload]
    work = root / ".bench_work" / f"{workload.name}-{os.getpid()}"
    samples: list[Sample] = []
    try:
        if args.trace:
            samples.append(run_once(workload, args.seed, root, work / "0", False, deadline))
            samples.append(run_once(workload, args.seed, root, work / "1", True, deadline))
        else:
            # Iterate while the next iteration would end closer to the
            # measuring target than half an iteration past it.
            measuring = time.monotonic()
            while True:
                samples.append(run_once(
                    workload, args.seed, root, work / str(len(samples)), False, deadline
                ))
                now = time.monotonic()
                per_iteration = (now - measuring) / len(samples)
                if (now + per_iteration / 2 >= measuring + args.seconds
                        or now + 1.5 * per_iteration > deadline):
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    check_digests(workload.name, args.seed, samples)

    timed = [s for s in samples if s.setup_s is not None] or samples
    for index, sample in enumerate(samples):
        state = "ok" if not sample.problems else "FAILED: " + "; ".join(sample.problems)
        setup = "-" if sample.setup_s is None else f"{sample.setup_s:.3f}"
        print(f"{workload.name} seed={args.seed} iteration {index}: "
              f"wall {sample.wall_s:.3f} s, setup {setup} s, "
              f"peak RSS {sample.peak_rss_mb:.1f} MB, digest {sample.digest or '-'}, {state}")
    failed = sum(1 for s in samples if s.problems)
    if args.trace:
        metrics = dict(samples[1].layers)
        metrics["trace_overhead"] = (samples[1].wall_s / samples[0].wall_s, "ratio")
    else:
        metrics = {
            "wall_s": (statistics.median(s.wall_s for s in timed), "s"),
            "setup_s": (statistics.median(s.setup_s or 0.0 for s in timed), "s"),
            "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in timed), "MB"),
        }
        print(f"{workload.name}: medians of {len(timed)} iteration(s); "
              f"fail_ratio {failed}/{len(samples)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
