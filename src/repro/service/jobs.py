"""Job specifications and structured job outcomes.

A :class:`JobSpec` is one community-detection request: a graph plus the
engine parameters that determine its result (engine, workers, seed,
tau, level/pass caps, chunk) and the serving parameters that determine
how it is run (priority, deadline, cache participation, chaos plan).
Specs are immutable and self-validating — :meth:`JobSpec.validate`
raises ``ValueError`` with a human-readable reason, which the
scheduler's admission control converts into a structured rejection
instead of letting it escape a batch.

A :class:`JobResult` is the *only* way the service reports an outcome:
completed, failed, cancelled, and rejected jobs all come back as
results with a ``status`` and (on the failure paths) an ``error``
string — the service never raises for a job-level problem, so one bad
job cannot take down a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.faults import FaultPlan
from repro.core.infomap import BATCHED_ENGINES, validate_engine_args
from repro.graph.csr import CSRGraph
from repro.service.delta import Delta

__all__ = [
    "ENGINES",
    "STATUS_PENDING",
    "STATUS_COMPLETED",
    "STATUS_FAILED",
    "STATUS_CANCELLED",
    "STATUS_REJECTED",
    "JobSpec",
    "JobResult",
]

#: engines a job may request — the batched ones; ``parallel`` is the one
#: the warm pools amortize (the others have no fork cost to skip)
ENGINES = BATCHED_ENGINES

STATUS_PENDING = "pending"
STATUS_COMPLETED = "completed"
STATUS_FAILED = "failed"
STATUS_CANCELLED = "cancelled"
STATUS_REJECTED = "rejected"


@dataclass(frozen=True)
class JobSpec:
    """One community-detection request.

    Result-determining parameters (everything the cache key hashes):
    ``graph``, ``engine``, ``workers``, ``seed``, ``tau``,
    ``max_levels``, ``max_passes_per_level``, ``chunk``,
    ``accumulator``, plus — for delta jobs — ``delta`` and
    ``base_key``.  Serving
    parameters (never part of the cache key): ``priority``,
    ``deadline``, ``use_cache``, ``fault_plan``, ``worker_timeout``,
    ``label``.
    """

    graph: CSRGraph
    engine: str = "parallel"
    workers: int = 2
    seed: int = 0
    tau: float = 0.15
    max_levels: int = 20
    max_passes_per_level: int = 10
    chunk: int | None = None
    #: candidate-accumulation strategy for the best-move sweep
    #: (``"reduceat"`` | ``"bounded"`` | ``"auto"``); every strategy is
    #: bit-identical, so it is hashed into the cache key only for
    #: byte-exact replay bookkeeping (see :mod:`repro.core.accumulate`)
    accumulator: str = "reduceat"
    #: higher runs first; ties break FIFO by submission order
    priority: int = 0
    #: wall-clock budget in seconds (every engine); a job past it is
    #: cancelled at the next barrier and reported, not raised
    deadline: float | None = None
    #: opt out of the result cache for this job (chaos jobs skip it
    #: automatically)
    use_cache: bool = True
    #: chaos injection (``parallel`` only), see :mod:`repro.core.faults`
    fault_plan: FaultPlan | str | None = None
    #: supervisor reply deadline per worker (``parallel`` only)
    worker_timeout: float | None = None
    #: free-form tag echoed into the result (for batch reports)
    label: str = ""
    #: edge delta applied to ``graph`` before an incremental refresh —
    #: makes this a *delta job* (see :mod:`repro.service.delta`); the
    #: result is keyed under the ``delta/v1`` cache key
    delta: Delta | None = None
    #: explicit cache key of the base partition to warm-start from
    #: (delta jobs only).  ``None`` derives it from this spec's own
    #: graph+params; an explicit key that is not in the cache rejects
    #: the job structurally at execution time, while a derived key that
    #: misses falls back to a full from-scratch run.
    base_key: str | None = None

    def validate(self) -> None:
        """Raise ``ValueError`` describing the first invalid field."""
        if not isinstance(self.graph, CSRGraph):
            raise ValueError(
                f"graph must be a CSRGraph, got {type(self.graph).__name__}"
            )
        validate_engine_args(
            self.engine,
            engines=ENGINES,
            workers=self.workers,
            accumulator=self.accumulator,
            chunk=self.chunk,
            fault_plan=self.fault_plan,
            worker_timeout=self.worker_timeout,
            deadline=self.deadline,
        )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError("seed must be an int")
        if not (0.0 < self.tau < 1.0):
            raise ValueError("tau must be in (0, 1)")
        if self.max_levels < 1 or self.max_passes_per_level < 1:
            raise ValueError(
                "max_levels and max_passes_per_level must be >= 1"
            )
        if self.delta is not None:
            if not isinstance(self.delta, Delta):
                raise ValueError(
                    f"delta must be a Delta, got {type(self.delta).__name__}"
                )
            self.delta.validate(self.graph.num_vertices)
            if self.fault_plan is not None:
                raise ValueError(
                    "fault_plan is not supported for delta jobs (chaos "
                    "runs have no warm-partition determinism proof yet)"
                )
        if self.base_key is not None:
            if self.delta is None:
                raise ValueError("base_key requires a delta")
            if not isinstance(self.base_key, str) or not self.base_key:
                raise ValueError("base_key must be a non-empty string")

    @property
    def cacheable(self) -> bool:
        """Whether this job may read/write the result cache.

        Chaos jobs are excluded: their results are proven bit-identical
        to clean runs, but a cache should never depend on that proof.
        """
        return self.use_cache and self.fault_plan is None

    def describe(self) -> str:
        tag = self.label or self.graph.name
        return (
            f"{tag}[{self.engine}"
            f"{f' x{self.workers}' if self.engine != 'vectorized' else ''}"
            f", seed={self.seed}]"
        )


@dataclass
class JobResult:
    """Structured outcome of one job — the service's only failure channel."""

    job_id: int
    status: str
    label: str = ""
    engine: str = ""
    workers: int = 0
    seed: int = 0
    #: final flat partition (``None`` unless completed)
    modules: np.ndarray | None = None
    num_modules: int = 0
    codelength: float = math.nan
    levels: int = 0
    #: served straight from the ResultCache (no workers touched)
    cache_hit: bool = False
    #: executed on a pre-existing warm pool (fork+handshake skipped)
    warm_pool: bool = False
    #: workers respawned by the supervisor during this job
    respawns: int = 0
    #: seconds between submission and execution start
    queue_seconds: float = 0.0
    #: seconds spent executing (0 for rejected jobs)
    run_seconds: float = 0.0
    #: delta jobs: vertices the refresh seeded for re-examination
    touched_vertices: int = 0
    #: delta jobs: the refresh fell back to a full from-scratch run
    full_rerun: bool = False
    #: why the job failed / was cancelled / was rejected
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_COMPLETED

    def summary(self) -> str:
        head = f"job {self.job_id} [{self.label}] {self.status}"
        if self.ok:
            src = (
                "cache" if self.cache_hit
                else ("warm pool" if self.warm_pool else "cold")
            )
            return (
                f"{head}: {self.num_modules} modules, "
                f"L={self.codelength:.4f} bits via {src} "
                f"in {self.run_seconds * 1e3:.1f} ms"
            )
        return f"{head}: {self.error}"
