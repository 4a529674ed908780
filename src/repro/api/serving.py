"""ServingSession: the facade for train-then-serve pipelines.

Shaped like :class:`repro.api.Service`: a :class:`ServingSession` owns
a report root and runs the whole pipeline declared by one
:class:`~repro.serving.config.ServingConfig` —

1. train the model (an ordinary content-addressed sweep artifact under
   ``<root>/models``, shared with any other sweep against that root);
2. register it into the serving tier (size → load time, final loss →
   quality tag, training cost → the end-to-end dollar axis);
3. replay the config's seeded traffic against the autoscaled replica
   pool and persist the serving report.

Everything is content-addressed and resume-by-default: the report is
keyed by the hash of the full ServingConfig, so a second ``run()``
against the same root loads the persisted report and re-simulates
nothing. ``repro.cli infer`` is a thin wrapper over this class.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.api.service import resume_or_run
from repro.core.config import TrainingConfig
from repro.errors import ConfigurationError
from repro.serving.config import ServingConfig, serving_fingerprint, serving_hash
from repro.serving.metrics import (
    build_serving_report,
    format_serving_report,
    validate_serving_report,
)
from repro.serving.registry import ModelRegistry
from repro.serving.runtime import ServingRuntime
from repro.sweep.grid import SweepPoint


@dataclass
class ServingOutcome:
    """What ``ServingSession.run`` returns: report + orchestration counters.

    ``ran_requests`` is how many requests were actually simulated this
    call — zero when the run resumed from a persisted report. It lives
    outside the report document so resumed and fresh outcomes stay
    byte-equal on disk.
    """

    data: dict  # the (persisted) serving report document
    ran_requests: int
    path: Path | None = None  # where the report lives, if rooted

    @property
    def metrics(self) -> dict:
        return self.data["metrics"]

    @property
    def end_to_end_dollars(self) -> float:
        return self.data["end_to_end_dollars"]

    def report(self) -> str:
        """The rendered serving scorecard + end-to-end summary."""
        return format_serving_report(self.data)


class ServingSession:
    """Report root + one declarative train-then-serve pipeline."""

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        *,
        config: ServingConfig,
        jobs: int = 1,
        substrate: str = "auto",
        resume: bool = True,
        progress=None,
    ) -> None:
        if substrate not in ("auto", "exact"):
            raise ConfigurationError(
                f"serving substrate must be 'auto' or 'exact', not {substrate!r}"
            )
        self.root = None if root is None else Path(root)
        self.config = config
        self.jobs = jobs
        self.substrate = substrate
        self.resume = resume and root is not None
        self.progress = progress

    @classmethod
    def from_config(
        cls,
        config: ServingConfig,
        root: str | os.PathLike | None = None,
        **kwargs,
    ) -> ServingSession:
        """The CLI entry point: the whole pipeline from one config."""
        return cls(root, config=config, **kwargs)

    # -- internals ---------------------------------------------------------
    def _train(self) -> dict:
        """The training leg, as a persisted (or in-memory) artifact."""
        training = TrainingConfig(**self.config.train_kwargs())
        point = SweepPoint(
            "serving",
            f"model {training.model}/{training.dataset},W={training.workers}",
            config_kwargs=self.config.train_kwargs(),
            tags={"series": "serving"},
        )
        if self.root is None:
            from repro.core.driver import train
            from repro.sweep.artifacts import artifact_from_result

            return artifact_from_result(point, train(training))
        from repro.sweep.orchestrator import run_sweep

        return run_sweep(
            [point],
            out_dir=self.root / "models",
            jobs=self.jobs,
            resume=self.resume,
            substrate=self.substrate,
            traces_dir=self.root / "traces",
            progress=self.progress,
        ).artifacts[0]

    # -- the verb ----------------------------------------------------------
    def run(self) -> ServingOutcome:
        """Train, register, serve (or load the persisted report)."""
        pipeline_hash = serving_hash(self.config)

        def build() -> dict:
            entry = ModelRegistry().register_artifact("pipeline", self._train())
            records, pool = ServingRuntime(self.config, entry).run()
            fingerprint = serving_fingerprint(self.config)
            return build_serving_report(
                pipeline_hash, fingerprint, entry.as_dict(), records, pool
            )

        directory = None if self.root is None else self.root / "serving"
        report, path, built = resume_or_run(
            directory, pipeline_hash, self.resume, validate_serving_report, build
        )
        ran = len(report["requests"]) if built else 0
        return ServingOutcome(data=report, ran_requests=ran, path=path)
