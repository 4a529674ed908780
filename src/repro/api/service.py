"""Service: the facade for multi-tenant workloads, shaped like Session.

A :class:`Service` owns a report root and a substrate policy and exposes
the service verbs::

    from repro.api import Scenario, Service, ServiceConfig

    svc = Service("results", arrivals=ServiceConfig(rate=6.0, tenants=12),
                  scheduler="fair_share")
    svc.submit(Scenario.workload("lr", "rcv1").tenant("acme", priority=1.0),
               arrival_s=30.0)
    outcome = svc.run()
    print(outcome.report())

Like ``Session``, everything is content-addressed and resume-by-default:
the report is keyed by a hash of the *resolved workload* (every request's
arrival instant, tenant and full training config, plus the scheduler and
concurrency limit), so a second ``run()`` against the same root loads
the persisted report and re-runs zero jobs. Isolated baselines are
ordinary sweep artifacts under ``<root>/baselines`` (with replay traces
under ``<root>/traces``), shared with any other sweep against that root.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.config import DEFAULT_SEED
from repro.core.config import TrainingConfig
from repro.errors import ConfigurationError, SimulationError
from repro.api.scenario import Scenario
from repro.service.arrivals import JobRequest, build_requests
from repro.service.config import ServiceConfig, service_fingerprint
from repro.service.metrics import (
    build_report,
    format_service_report,
    validate_report,
)
from repro.service.runtime import BaselineProvider, ServiceRuntime
from repro.service.schedulers import make_scheduler
from repro.utils.hashing import fingerprint_hash
from repro.utils.records import read_record, write_record


@dataclass
class ServiceOutcome:
    """What ``Service.run`` returns: the report + orchestration counters.

    ``ran_jobs`` is how many jobs were actually simulated this call —
    zero when the run resumed from a persisted report. It lives outside
    the report document so resumed and fresh outcomes stay byte-equal
    on disk.
    """

    data: dict  # the (persisted) service report document
    ran_jobs: int
    path: Path | None = None  # where the report lives, if rooted

    @property
    def metrics(self) -> dict:
        return self.data["metrics"]

    @property
    def tenants(self) -> list[dict]:
        return self.data["tenants"]

    def report(self) -> str:
        """The rendered per-job table + service scorecard."""
        return format_service_report(self.data)


def resume_or_run(
    directory: Path | None, report_hash: str, resume: bool, validate, build
) -> tuple[dict, Path | None, bool]:
    """Load and validate the filed report, or build, validate and file it.

    Returns ``(report, path, built)``. The report facades share this
    path; a partial or tampered report raises SimulationError.
    """
    path = None if directory is None else directory / f"{report_hash}.json"
    if resume and path is not None and path.exists():
        report = read_record(path, SimulationError)
        return validate(report, expected_hash=report_hash), path, False
    report = validate(build(), expected_hash=report_hash)
    if directory is not None:
        write_record(directory, report_hash, report)
    return report, path, True


def _workload_fingerprint(
    scheduler: str, max_concurrent: int, requests: list[JobRequest]
) -> dict:
    """The resolved workload, for content addressing.

    Hashing the request list (not the generating ServiceConfig) means a
    trace file edit, a submitted scenario, or a scheduler change each
    re-key the report, while re-generating the identical workload from
    a different spelling resumes cleanly.
    """
    return {
        "scheduler": scheduler,
        "max_concurrent": max_concurrent,
        "requests": [
            {
                "job": r.job,
                "tenant": r.tenant,
                "arrival_s": r.arrival_s,
                "priority": r.priority,
                "config": {k: r.config_kwargs[k] for k in sorted(r.config_kwargs)},
            }
            for r in requests
        ],
    }


class Service:
    """Report root + scheduler + arrivals + the submit/run verbs."""

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        *,
        arrivals: ServiceConfig | None = None,
        scheduler: str | None = None,
        max_concurrent: int | None = None,
        jobs: int = 1,
        substrate: str = "auto",
        resume: bool = True,
        seed: int | None = None,
        progress=None,
    ) -> None:
        if substrate not in ("auto", "exact"):
            raise ConfigurationError(
                f"service substrate must be 'auto' or 'exact', not {substrate!r}"
            )
        self.root = None if root is None else Path(root)
        self.config = arrivals
        # Explicit arguments win; an arrivals config fills the gaps.
        self.scheduler = scheduler or (arrivals.scheduler if arrivals else "fifo")
        self.max_concurrent = (
            max_concurrent
            if max_concurrent is not None
            else (arrivals.max_concurrent if arrivals else 4)
        )
        self.seed = (
            seed
            if seed is not None
            else (arrivals.seed if arrivals else DEFAULT_SEED)
        )
        self.jobs = jobs
        self.substrate = substrate
        self.resume = resume and root is not None
        self.progress = progress
        self._submitted: list[JobRequest] = []

    @classmethod
    def from_config(
        cls,
        config: ServiceConfig,
        root: str | os.PathLike | None = None,
        **kwargs,
    ) -> Service:
        """The CLI entry point: the whole service from one declarative config."""
        return cls(root, arrivals=config, **kwargs)

    # -- workload assembly -------------------------------------------------
    def submit(
        self,
        scenario,
        *,
        arrival_s: float = 0.0,
        job: str | None = None,
    ) -> JobRequest:
        """Queue one scenario as a service job (on top of any arrivals).

        Tenant identity and priority come from ``Scenario.tenant(...)``
        tags; an untagged scenario bills to the ``"default"`` account.
        """
        if not isinstance(scenario, Scenario):
            scenario = Scenario(dict(scenario))
        request = JobRequest(
            job=job or f"s{len(self._submitted):03d}",
            tenant=scenario.tags.get("tenant", "default"),
            arrival_s=float(arrival_s),
            config_kwargs=dict(scenario.kwargs),
            priority=float(scenario.tags.get("priority", 0.0)),
        )
        self._submitted.append(request)
        return request

    def requests(self) -> list[JobRequest]:
        """The resolved workload: generated arrivals + submissions."""
        generated = build_requests(self.config) if self.config is not None else []
        requests = sorted(
            generated + self._submitted, key=lambda r: (r.arrival_s, r.job)
        )
        if not requests:
            raise ConfigurationError(
                "service has no jobs: pass arrivals=ServiceConfig(...) "
                "or submit() at least one scenario"
            )
        jobs = [r.job for r in requests]
        if len(set(jobs)) != len(jobs):
            raise ConfigurationError("service workload has duplicate job ids")
        return requests

    # -- internals ---------------------------------------------------------
    def _baselines(self, requests: list[JobRequest]) -> BaselineProvider:
        """An isolated-run provider, primed from disk when rooted.

        The distinct submitted configs go through the ordinary sweep
        orchestrator first (parallel, resumable, trace-recording), so
        baselines are shared artifacts; only scheduler-shrunk variants
        are computed lazily inside the service run.
        """
        provider = BaselineProvider(
            policy=self.substrate,
            artifacts_dir=None if self.root is None else self.root / "baselines",
        )
        from repro.sweep.grid import config_hash

        configs = {}
        for request in requests:
            config = TrainingConfig(**request.config_kwargs)
            configs.setdefault(config_hash(config), config)
        if self.root is not None:
            from repro.substrate.traces import scan_traces
            from repro.sweep.artifacts import scan_artifacts
            from repro.sweep.orchestrator import run_sweep

            run_sweep(
                [BaselineProvider.baseline_point(c) for c in configs.values()],
                out_dir=self.root / "baselines",
                jobs=self.jobs,
                resume=self.resume,
                substrate=self.substrate,
                traces_dir=self.root / "traces",
                progress=self.progress,
            )
            artifacts, _ = scan_artifacts(self.root / "baselines")
            provider.prime(artifacts)
            traces, _ = scan_traces(self.root / "traces")
            provider.prime_traces(traces)
        return provider

    # -- the verb ----------------------------------------------------------
    def run(self) -> ServiceOutcome:
        """Simulate the workload (or load the persisted report)."""
        requests = self.requests()
        fingerprint = _workload_fingerprint(
            self.scheduler, self.max_concurrent, requests
        )
        if self.config is not None:
            fingerprint["service"] = service_fingerprint(self.config)
        workload_hash = fingerprint_hash(fingerprint)

        def build() -> dict:
            runtime = ServiceRuntime(
                requests, make_scheduler(self.scheduler), self.max_concurrent,
                self._baselines(requests),
            )
            return build_report(workload_hash, fingerprint, runtime.run())

        directory = None if self.root is None else self.root / "service"
        report, path, built = resume_or_run(
            directory, workload_hash, self.resume, validate_report, build
        )
        ran = len(report["tenants"]) if built else 0
        return ServiceOutcome(data=report, ran_jobs=ran, path=path)
