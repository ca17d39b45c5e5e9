"""One run identity: the fields that determine a partition.

A :class:`RunSpec` holds the result-determining fields of one Infomap
run and owns what every layer used to spell out on its own: the one
field check (:meth:`RunSpec.check_fields`, behind ``run_infomap``,
``JobSpec.validate``, ``warm_refresh`` and ``repro run``), the canonical
config (:meth:`RunSpec.config`, built from :func:`dataclasses.fields`
so no field can be left out) and its :func:`repro.obs.ledger.run_key`
(:meth:`RunSpec.identity`) — the result-cache key and the ledger
``run_key`` are one string.  :class:`~repro.service.jobs.JobSpec` is a
``RunSpec`` plus a graph and serving fields, which never reach the key.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.accumulate import validate_accumulator
from repro.graph.csr import CSRGraph, graph_digest
from repro.obs.ledger import run_key
from repro.util.validation import is_finite_real, is_int, require

__all__ = [
    "ENGINES",
    "BATCHED_ENGINES",
    "SERVING_ENGINES",
    "RunSpec",
    "check_count",
    "check_tau",
]

#: every engine :func:`repro.core.infomap.run_infomap` dispatches to
ENGINES = ("sequential", "vectorized", "multicore", "parallel")
#: the engines that run the shared BSP schedule (:mod:`repro.core.bsp`)
BATCHED_ENGINES = ("vectorized", "multicore", "parallel")
#: the engines a served job may request; ``multicore`` replays the
#: paper's cycle model and returns ``parallel(P)``'s partition, so it
#: stays with the harness and the conformance grid
SERVING_ENGINES = ("vectorized", "parallel")
#: the engines that take ``workers > 1``
_MULTI_RANK = ("multicore", "parallel")


def check_tau(tau) -> None:
    require(is_finite_real(tau) and 0.0 < tau < 1.0,
            "tau must be in (0, 1)", tau)


def check_count(name: str, value) -> None:
    require(is_int(value) and value >= 1, f"{name} must be an int >= 1", value)


@dataclass(frozen=True, kw_only=True)
class RunSpec:
    """The result-determining fields of one Infomap run."""

    engine: str = "parallel"
    workers: int = 2
    #: conflict-backoff seed of the BSP schedule (vertex order for the
    #: sequential engine)
    seed: int = 0
    tau: float = 0.15
    max_levels: int = 20
    max_passes_per_level: int = 10
    #: vertices per shard per commit round; ``None`` is whole shards
    chunk: int | None = None
    #: candidate-accumulation strategy; every strategy is bit-identical,
    #: but it is keyed so a ledger row names its exact configuration
    accumulator: str = "reduceat"

    @classmethod
    def resolve(cls, engine: str, *, workers: int | None = None,
                seed: int | None = None,
                max_passes_per_level: int | None = None,
                **fields) -> "RunSpec":
        """The spec of a :func:`~repro.core.infomap.run_infomap` call:
        ``None`` picks the engine's default (2 workers on the
        multi-rank engines, 1 elsewhere; seed 0; 30 passes per level for
        ``vectorized``, 10 elsewhere)."""
        if workers is None:
            workers = 2 if engine in _MULTI_RANK else 1
        if max_passes_per_level is None:
            max_passes_per_level = 30 if engine == "vectorized" else 10
        return cls(engine=engine, workers=workers,
                   seed=0 if seed is None else seed,
                   max_passes_per_level=max_passes_per_level, **fields)

    def check_fields(
        self, engines: tuple[str, ...] = SERVING_ENGINES
    ) -> None:
        """Raise ``ValueError`` naming the first field that cannot run;
        ``engines`` is the entry point's accepted engine names."""
        if self.engine not in engines:
            raise ValueError(
                f"unknown engine {self.engine!r}: choose from {engines}"
            )
        check_count("workers", self.workers)
        if self.engine not in _MULTI_RANK and self.workers != 1:
            raise ValueError(
                f"engine {self.engine!r} is single-rank: workers must be 1 "
                f"(workers= applies to 'multicore' and 'parallel')"
            )
        require(is_int(self.seed) and self.seed >= 0,
                "seed must be an int >= 0", self.seed)
        check_tau(self.tau)
        check_count("max_levels", self.max_levels)
        check_count("max_passes_per_level", self.max_passes_per_level)
        if self.chunk is not None:
            check_count("chunk", self.chunk)
        validate_accumulator(self.accumulator)
        if self.engine not in BATCHED_ENGINES and (
            self.accumulator != "reduceat" or self.chunk is not None
        ):
            raise ValueError(
                f"accumulator= and chunk= apply to the batched engines "
                f"{BATCHED_ENGINES}, not {self.engine!r}; the sequential "
                f"engine accumulates through its backend= instead"
            )

    def run_fields(self) -> dict:
        """The result-determining fields by name (a plain dict)."""
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(RunSpec)}

    def infomap_kwargs(self) -> dict:
        """The fields as :func:`repro.core.infomap.run_infomap` keywords
        (which spells ``seed`` as ``shuffle_seed``)."""
        kwargs = self.run_fields()
        kwargs["shuffle_seed"] = kwargs.pop("seed")
        return kwargs

    def config(self, graph: CSRGraph, delta: str | None = None,
               base_key: str | None = None) -> dict:
        """The ledger config of this run on ``graph``: its digest and
        every field, plus — for a delta job — the op digest
        (:meth:`repro.service.delta.Delta.digest`) and ``base_key``."""
        config = {"graph": graph_digest(graph), **self.run_fields()}
        if delta is not None:
            config["delta"] = delta
            config["base_key"] = base_key
        return config

    def identity(self, graph: CSRGraph, delta: str | None = None,
                 base_key: str | None = None) -> str:
        """Content address of this run: ``run_key(config(...))``."""
        return run_key(self.config(graph, delta, base_key))
