"""Sequential instrumented Infomap engine.

Runs the full multilevel schedule on one simulated core:

1. **PageRank** — build the level-0 flow network;
2. repeat per level:
   a. **FindBestCommunity** passes until no vertex moves (or the pass cap);
   b. **UpdateMembers** — fold the level assignment into the per-vertex map;
   c. **Convert2SuperNode** — coarsen and continue on the supernode graph;
3. stop when a level produces no merges.

All hardware events land in a :class:`~repro.sim.counters.KernelStats`,
from which :class:`InfomapResult` derives the per-kernel timing breakdown
(Fig 2), architectural metrics (Fig 8), and per-iteration runtimes
(Tables III/IV).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.accum.factory import make_accumulator
from repro.core.accumulate import validate_accumulator
from repro.core.bsp import active_neighborhood
from repro.core.faults import FaultPlan
from repro.core.findbest import find_best_pass
from repro.core.flow import FlowNetwork
from repro.core.partition import Partition
from repro.core.supernode import convert_to_supernodes
from repro.core.update import update_members
from repro.graph.csr import CSRGraph
from repro.obs.logging import get_logger
from repro.obs.spans import trace_span
from repro.obs.telemetry import (
    ConvergenceTelemetry,
    TelemetryRecorder,
    publish_run_metrics,
)
from repro.sim.branch import BranchSite
from repro.sim.context import HardwareContext
from repro.sim.costmodel import CycleBreakdown, CycleModel
from repro.sim.counters import Counters, KernelStats
from repro.sim.machine import MachineConfig, asa_machine, baseline_machine
from repro.util.rng import make_rng

log = get_logger("core.infomap")

__all__ = [
    "ENGINES",
    "BATCHED_ENGINES",
    "run_infomap",
    "validate_engine_args",
    "InfomapResult",
    "IterationRecord",
]

#: HyPC-Map runs its PageRank kernel by power iteration regardless of
#: directedness (Section II-C).  For undirected networks our flow model is
#: exact (no iteration needed functionally), but the kernel's hardware cost
#: is charged as if the power method ran its typical iteration count, so
#: the Fig 2a kernel breakdown keeps the right proportions.
UNDIRECTED_PAGERANK_COST_ITERS = 30


@dataclass(frozen=True)
class IterationRecord:
    """One FindBestCommunity pass: what Tables III/IV time per iteration."""

    iteration: int
    level: int
    pass_in_level: int
    nodes: int
    moves: int
    codelength: float
    seconds: float


@dataclass
class InfomapResult:
    """Outcome of one instrumented Infomap run."""

    modules: np.ndarray
    num_modules: int
    codelength: float
    one_level_codelength: float
    levels: int
    iterations: list[IterationRecord]
    stats: KernelStats
    machine: MachineConfig
    backend: str
    #: vertices whose ASA accumulation overflowed the CAM (0 for softhash)
    overflowed_vertices: int = 0
    pagerank_iterations: int = 0
    #: measured-wall-time convergence record (see repro.obs.telemetry)
    telemetry: ConvergenceTelemetry | None = None

    # ------------------------------------------------------------------
    def cycle_model(self) -> CycleModel:
        return CycleModel(self.machine)

    def breakdown(self, counters: Counters) -> CycleBreakdown:
        return self.cycle_model().cycles(counters)

    def kernel_seconds(self) -> dict[str, float]:
        """Per-kernel simulated seconds (the Fig 2a bars)."""
        cm = self.cycle_model()
        return {
            name: cm.cycles(c).seconds for name, c in self.stats.components().items()
        }

    @property
    def total_seconds(self) -> float:
        return self.breakdown(self.stats.total).seconds

    @property
    def findbest_seconds(self) -> float:
        return self.breakdown(self.stats.findbest).seconds

    @property
    def hash_seconds(self) -> float:
        """Time in hash operations incl. overflow handling (Table V)."""
        return self.breakdown(self.stats.findbest_hash_total).seconds

    @property
    def overflow_seconds(self) -> float:
        return self.breakdown(self.stats.findbest_overflow).seconds

    @property
    def effective_codelength_bits(self) -> float:
        return self.codelength

    def summary(self) -> str:
        return (
            f"InfomapResult({self.backend}: {self.num_modules} modules, "
            f"L={self.codelength:.4f} bits, {self.levels} levels, "
            f"{len(self.iterations)} passes, {self.total_seconds:.3f} sim-s)"
        )


#: every engine :func:`run_infomap` dispatches to
ENGINES = ("sequential", "vectorized", "multicore", "parallel")
#: the engines that run the shared BSP schedule (:mod:`repro.core.bsp`)
BATCHED_ENGINES = ("vectorized", "multicore", "parallel")


def validate_engine_args(
    engine: str,
    *,
    engines: tuple[str, ...] = ENGINES,
    workers: int | None = None,
    accumulator: str = "reduceat",
    chunk: int | None = None,
    warm_start: bool = False,
    fault_plan=None,
    worker_timeout: float | None = None,
    pool=None,
    deadline: float | None = None,
) -> None:
    """Raise ``ValueError`` for the first engine argument that cannot run.

    The one check behind every engine entry point: :func:`run_infomap`,
    :meth:`repro.service.jobs.JobSpec.validate`,
    :func:`repro.core.dynamic.warm_refresh` and ``repro run``.
    ``engines`` narrows the accepted names (the serving and refresh
    layers take the batched engines only); ``workers=None`` means the
    engine's default, and the single-rank engines accept only ``1``.
    """
    if engine not in engines:
        raise ValueError(f"unknown engine {engine!r}: choose from {engines}")
    if workers is not None:
        if not isinstance(workers, int) or workers < 1:
            raise ValueError("workers must be an int >= 1")
        if engine not in ("multicore", "parallel") and workers != 1:
            raise ValueError(
                f"engine {engine!r} is single-rank: workers must be 1 "
                f"(workers= applies to 'multicore' and 'parallel')"
            )
    validate_accumulator(accumulator)
    if engine not in BATCHED_ENGINES and (
        accumulator != "reduceat" or chunk is not None or warm_start
        or deadline is not None
    ):
        raise ValueError(
            f"accumulator=, chunk=, init_module=, init_active= and "
            f"deadline= apply to the batched engines {BATCHED_ENGINES}, "
            f"not {engine!r}; the sequential engine accumulates through "
            f"its backend= instead"
        )
    if chunk is not None and chunk < 1:
        raise ValueError("chunk must be >= 1 (or None for whole shards)")
    if deadline is not None and not (
        isinstance(deadline, (int, float)) and 0 < deadline < math.inf
    ):
        raise ValueError("deadline must be positive finite seconds")
    for name, value in (
        ("fault_plan", fault_plan),
        ("worker_timeout", worker_timeout),
        ("pool", pool),
    ):
        if value is not None and engine != "parallel":
            raise ValueError(f"{name} requires engine 'parallel', not {engine!r}")
    if isinstance(fault_plan, str):
        FaultPlan.parse(fault_plan, workers=workers or 2)
    elif fault_plan is not None and not isinstance(fault_plan, FaultPlan):
        raise ValueError("fault_plan must be a FaultPlan or its string spelling")
    if worker_timeout is not None and worker_timeout <= 0:
        raise ValueError("worker_timeout must be positive seconds")


def run_infomap(
    graph: CSRGraph,
    backend: str = "plain",
    machine: MachineConfig | None = None,
    ctx: HardwareContext | None = None,
    tau: float = 0.15,
    max_levels: int = 20,
    max_passes_per_level: int | None = None,
    shuffle_seed: int | None = None,
    worklist: bool = True,
    accumulator_kwargs: dict | None = None,
    engine: str = "sequential",
    workers: int | None = None,
    fault_plan=None,
    worker_timeout: float | None = None,
    pool=None,
    deadline: float | None = None,
    accumulator: str = "reduceat",
    chunk: int | None = None,
    init_module: np.ndarray | None = None,
    init_active: np.ndarray | None = None,
):
    """Run multilevel Infomap on ``graph`` — the single engine entry point.

    Every caller that picks an engine by name — the CLI, the job service
    (:mod:`repro.service`) and the incremental refresh
    (:mod:`repro.core.dynamic`) — dispatches here, behind
    :func:`validate_engine_args`.

    Parameters
    ----------
    engine:
        ``"sequential"`` (default) runs the instrumented one-core engine
        with full hardware accounting and returns an
        :class:`InfomapResult`.  ``"vectorized"`` dispatches to the
        batched numpy fast path
        (:func:`repro.core.vectorized.run_infomap_vectorized`) and
        returns a :class:`~repro.core.vectorized.VectorizedResult` — no
        hardware accounting, but 1–2 orders of magnitude faster wall
        clock, which is what the CLI and harness want on large graphs.
        ``"multicore"`` runs the HyPC-Map-style engine on ``workers``
        *simulated* cores with per-core hardware accounting
        (:func:`repro.core.multicore.run_infomap_multicore`, a
        :class:`~repro.core.multicore.MulticoreResult`).  ``"parallel"``
        runs the same barrier-synchronous schedule on ``workers`` *real*
        worker processes over shared memory
        (:func:`repro.core.parallel.run_infomap_parallel`, a
        :class:`~repro.core.parallel.ParallelResult`) — bit-identical
        partitions to ``multicore`` at equal worker count and seed.
        All engines minimize the same map equation; partitions can
        differ slightly across *schedules* (sequential vs batched).
    workers:
        Core/worker count for the ``multicore`` and ``parallel`` engines
        (default 2).  The single-rank engines accept only ``1``.
    max_passes_per_level:
        Pass cap per level; ``None`` (default) is the engine's own
        default (30 for ``vectorized``, 10 for the others).
    fault_plan, worker_timeout, pool:
        ``parallel`` engine only (rejected elsewhere): a
        :class:`repro.core.faults.FaultPlan` (or its string spelling)
        injecting worker failures, the supervisor's reply deadline in
        seconds, and a warm worker pool to run on instead of forking a
        fresh one (borrowed, never closed).  See
        :func:`repro.core.parallel.run_infomap_parallel`.
    deadline:
        Batched engines only: a wall-clock budget in seconds after which
        the run is cancelled at the next barrier with
        :class:`repro.core.bsp.DeadlineExceeded`.  The job service drives
        runs through this.
    chunk, init_module, init_active:
        Batched engines only: round granularity and warm start of the
        shared BSP schedule (see :func:`repro.core.bsp.run_bsp_infomap`).
    accumulator:
        Candidate-accumulation strategy for the batched engines'
        best-move sweeps: ``"reduceat"`` (sort + segment sums, the
        default), ``"bounded"`` (capacity-bounded CAM-style table with
        overflow spill, the paper's ASA analogue), or ``"auto"``
        (per-level choice from the degree distribution).  All
        strategies produce bit-identical results
        (:mod:`repro.core.accumulate`).  Rejected for the
        ``sequential`` engine, which accumulates per vertex through
        its :mod:`repro.accum` backend instead.
    backend:
        ``"plain"`` (uninstrumented dict), ``"softhash"`` (the paper's
        Baseline), or ``"asa"``.  Instrumented engines (``sequential``,
        ``multicore``) only: the batched engines perform the paper's
        hash accumulation as whole-sweep numpy segment sums instead of
        per-vertex :class:`~repro.accum.base.Accumulator` calls.
    machine:
        Machine configuration; defaults to the Table II Baseline machine
        (ASA-augmented when ``backend == "asa"``).
    ctx:
        Externally owned core context (the multicore engine passes one per
        core); created internally by default.
    shuffle_seed:
        When given, vertices are visited in a seeded random order per pass
        instead of natural order.  For the batch-synchronous engines
        (``vectorized``, ``multicore``, ``parallel``) this seeds the
        conflict-backoff RNG instead.
    worklist:
        Sequential engine: HyPC-Map's active-set optimization — after
        the first pass, only vertices adjacent to a move are revisited.
        Successive iterations get progressively cheaper (the decaying
        per-iteration runtimes of Tables III/IV).  Disable to sweep
        every vertex every pass.

    Returns
    -------
    InfomapResult | VectorizedResult | MulticoreResult | ParallelResult
        Per the ``engine`` choice; all expose ``modules``,
        ``num_modules``, ``codelength``, and ``telemetry``.
    """
    validate_engine_args(
        engine,
        workers=workers,
        accumulator=accumulator,
        chunk=chunk,
        warm_start=init_module is not None or init_active is not None,
        fault_plan=fault_plan,
        worker_timeout=worker_timeout,
        pool=pool,
        deadline=deadline,
    )
    if engine == "sequential":
        with trace_span("infomap.run", engine="sequential", backend=backend):
            return _run_infomap(
                graph, backend, machine, ctx, tau, max_levels,
                10 if max_passes_per_level is None else max_passes_per_level,
                shuffle_seed, worklist, accumulator_kwargs,
            )
    batched = dict(
        tau=tau,
        max_levels=max_levels,
        seed=shuffle_seed if shuffle_seed is not None else 0,
        chunk=chunk,
        accumulator=accumulator,
        init_module=init_module,
        init_active=init_active,
        deadline=deadline,
    )
    if engine == "vectorized":
        # looked up at call time, so a wrapped module attribute is honoured
        from repro.core import vectorized

        if max_passes_per_level is not None:
            batched["max_rounds_per_level"] = max_passes_per_level
        return vectorized.run_infomap_vectorized(graph, **batched)
    if max_passes_per_level is not None:
        batched["max_passes_per_level"] = max_passes_per_level
    workers = workers if workers is not None else 2
    if engine == "multicore":
        from repro.core.multicore import run_infomap_multicore

        return run_infomap_multicore(
            graph,
            num_cores=workers,
            backend=backend if backend != "plain" else "softhash",
            machine=machine,
            **batched,
        )
    from repro.core.parallel import run_infomap_parallel

    return run_infomap_parallel(
        graph,
        workers=workers,
        fault_plan=fault_plan,
        worker_timeout=worker_timeout,
        pool=pool,
        **batched,
    )


def _run_infomap(
    graph: CSRGraph,
    backend: str,
    machine: MachineConfig | None,
    ctx: HardwareContext | None,
    tau: float,
    max_levels: int,
    max_passes_per_level: int,
    shuffle_seed: int | None,
    worklist: bool,
    accumulator_kwargs: dict | None,
) -> InfomapResult:
    if machine is None:
        machine = asa_machine() if backend == "asa" else baseline_machine()
    if ctx is None:
        ctx = HardwareContext(machine)

    recorder = TelemetryRecorder("sequential", backend=backend)
    stats = KernelStats()
    with trace_span("pagerank", vertices=graph.num_vertices), \
            recorder.kernel("pagerank"):
        net = FlowNetwork.from_graph(graph, tau=tau)
        pagerank_iters = net.pagerank_iterations
        _charge_pagerank(ctx, stats, net)

    accumulator = make_accumulator(
        backend,
        ctx,
        stats.findbest_hash,
        stats.findbest_overflow,
        **(accumulator_kwargs or {}),
    )

    cm = CycleModel(machine)
    n0 = graph.num_vertices
    mapping = np.arange(n0, dtype=np.int64)
    rng = make_rng(shuffle_seed) if shuffle_seed is not None else None

    iterations: list[IterationRecord] = []
    levels = 0
    iteration_no = 0
    from repro.core.mapequation import MapEquation

    partition = Partition(net)
    one_level = MapEquation.one_level_codelength(net.node_flow)
    # Σ plogp(p_α) over original vertices: converts supernode-level
    # codelengths back to true flat-partition codelengths
    node_flow_log0 = -one_level

    converged = False
    for level in range(max_levels):
        levels = level + 1
        partition = Partition(net)
        recorder.begin_level(level, net.num_vertices)
        active: np.ndarray | None = None  # None = all vertices (first pass)
        for pass_idx in range(max_passes_per_level):
            order = active
            if order is None and rng is not None:
                order = rng.permutation(net.num_vertices).astype(np.int64)
            elif order is not None and rng is not None:
                order = rng.permutation(order)
            before = cm.cycles(stats.findbest).seconds
            wall0 = time.perf_counter()
            with trace_span("findbest", level=level, pass_=pass_idx):
                moves, moved = find_best_pass(
                    partition, accumulator, ctx, stats, order
                )
            wall = time.perf_counter() - wall0
            after = cm.cycles(stats.findbest).seconds
            codelength = partition.flat_codelength(node_flow_log0)
            recorder.record_kernel("findbest", wall)
            recorder.record_pass(
                level=level,
                pass_in_level=pass_idx,
                active_vertices=net.num_vertices if order is None else len(order),
                moves=moves,
                num_modules=partition.num_modules,
                codelength=codelength,
                wall_seconds=wall,
            )
            iteration_no += 1
            iterations.append(
                IterationRecord(
                    iteration=iteration_no,
                    level=level,
                    pass_in_level=pass_idx,
                    nodes=net.num_vertices if order is None else len(order),
                    moves=moves,
                    codelength=codelength,
                    seconds=after - before,
                )
            )
            if moves == 0:
                break
            if worklist:
                active = active_neighborhood(net, np.asarray(moved, np.int64))
            else:
                active = None

        dense, k = partition.dense_assignment()
        recorder.end_level(k, partition.flat_codelength(node_flow_log0))
        log.debug(
            "level %d: %d -> %d modules, L=%.4f bits",
            level, net.num_vertices, k,
            partition.flat_codelength(node_flow_log0),
        )
        if k == net.num_vertices:
            converged = True
            break  # nothing merged: converged
        with trace_span("updatemembers", level=level), \
                recorder.kernel("updatemembers"):
            mapping = update_members(mapping, dense, ctx, stats)
        with trace_span("convert2supernode", level=level, modules=k), \
                recorder.kernel("convert2supernode"):
            net = convert_to_supernodes(net, dense, k, ctx, stats)

    final_modules, num_modules = _densify(mapping, partition)
    overflowed = getattr(accumulator, "overflowed_vertices", 0)

    telemetry = recorder.finish(converged)
    publish_run_metrics(
        telemetry,
        overflow_evictions=getattr(accumulator, "total_evictions", 0),
        rehashes=getattr(accumulator, "total_rehashes", 0),
    )
    log.debug("run done: %s", telemetry.summary())

    return InfomapResult(
        modules=final_modules,
        num_modules=num_modules,
        codelength=partition.flat_codelength(node_flow_log0),
        one_level_codelength=one_level,
        levels=levels,
        iterations=iterations,
        stats=stats,
        machine=machine,
        backend=backend,
        overflowed_vertices=overflowed,
        pagerank_iterations=pagerank_iters,
        telemetry=telemetry,
    )


def _densify(
    mapping: np.ndarray, partition: Partition
) -> tuple[np.ndarray, int]:
    """Compose the final level's assignment and densify labels."""
    level_dense, _k = partition.dense_assignment()
    final = level_dense[mapping]
    uniq, dense = np.unique(final, return_inverse=True)
    return dense.astype(np.int64), len(uniq)


def _charge_pagerank(
    ctx: HardwareContext, stats: KernelStats, net: FlowNetwork
) -> None:
    """Bulk hardware accounting for the PageRank kernel."""
    kc = ctx.machine.kernel
    iters = net.pagerank_iterations or UNDIRECTED_PAGERANK_COST_ITERS
    arcs = net.num_arcs
    n = net.num_vertices
    ctx.use(stats.pagerank)
    ctx.instr(
        int_alu=iters * (arcs * kc.pagerank_int_alu + n),
        float_alu=iters * (arcs * kc.pagerank_float_alu + n * 2),
        load=iters * arcs * kc.pagerank_load,
        store=iters * n * kc.pagerank_store_per_vertex,
        branch=iters * arcs,
    )
    ctx.branch_agg(BranchSite.LOOP_BACK, iters * arcs, iters * arcs - 1)
    ctx.mem_agg(iters * arcs * kc.pagerank_load, footprint_bytes=0, streaming=True)
    ctx.mem_agg(iters * n, footprint_bytes=n * 8)
