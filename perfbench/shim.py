"""Start one workload process: the program's own entry point, plus marks.

    python perfbench/shim.py --marks DIR [--spans DIR] cli|exchange -- ARGS...

``cli`` runs ``repro.cli.main(ARGS)``, exactly what ``python -m
repro.cli ARGS`` runs; ``exchange`` runs the benchmark's exchange client.
The shim always notes when each process first enters ``Engine.run`` (a
file per process in ``--marks``), which ends the run's set-up. With
``--spans`` it also installs the per-layer tracer and
``engine.capture_stats``, and every process of the run writes its spans
there. Without it nothing else is wrapped, so the timed program is the
one users run.
"""

from __future__ import annotations

import functools
import os
import sys
import time


def install_setup_marker(marks_dir: str) -> None:
    """Note when each process first enters ``Engine.run``."""
    from repro.simulation.engine import Engine

    run = Engine.run
    marked_pid = [None]

    @functools.wraps(run)
    def marked_run(self, *args, **kwargs):
        if marked_pid[0] != os.getpid():  # a forked child marks on its own
            now = time.monotonic()
            marked_pid[0] = os.getpid()
            path = os.path.join(marks_dir, f"setup-{os.getpid()}")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(repr(now))
        return run(self, *args, **kwargs)

    Engine.run = marked_run


def main(argv: list[str]) -> int:
    split = argv.index("--")
    options, program_args = argv[:split], argv[split + 1:]
    target = options.pop()
    opts = dict(zip(options[::2], options[1::2]))

    start = time.perf_counter()
    if target == "cli":
        import repro.cli as program
    else:
        import exchange as program
    import_s = time.perf_counter() - start

    install_setup_marker(opts["--marks"])
    spans_dir = opts.get("--spans")
    if spans_dir is None:
        return program.main(program_args)

    import tracer
    from repro.simulation.engine import capture_stats

    recorder = tracer.Recorder(spans_dir)
    recorder.import_s = import_s
    tracer.install(recorder)
    try:
        with capture_stats(recorder.engine_stats):
            return program.main(program_args)
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
