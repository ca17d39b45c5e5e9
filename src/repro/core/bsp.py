"""Shared barrier-synchronous (BSP) Infomap schedule — the one multilevel driver.

Every batched engine executes the *same* deterministic two-phase
schedule, defined once here: the vectorized engine
(:mod:`repro.core.vectorized`, one in-process shard, every vertex swept
every pass), the simulated multicore engine (:mod:`repro.core.multicore`)
and the real process-parallel engine (:mod:`repro.core.parallel`):

1. **propose** — vertices are sharded across ``P`` cores by arc count
   (:func:`edge_balanced_blocks`); each core computes the best improving
   move of every vertex in its shard against the snapshot of module state
   taken at the start of the round, using the shard-restricted batched
   sweep (:meth:`repro.core.vectorized.Workspace.best_moves` with
   ``verts=``).  Where that computation *executes* — in-process on
   simulated cores, or on real worker processes over shared memory — is
   the only thing an engine supplies.
2. **commit** — the driver merges proposals in core order behind a
   barrier: apply all of them at once, update the module state, accept
   if the codelength improved, otherwise deterministically halve the
   move set with the seeded RNG and retry (:func:`commit_proposals`).
   The update is incremental and exact (:func:`apply_moves`): the
   driver keeps a per-level cross-arc mask beside
   ``(module, enter, exit, flow)`` (:class:`ModuleState`), re-evaluates
   it only on arcs incident to the movers and sums exit/enter flow over
   the cross arcs alone, in ascending arc order — bit-identical to a
   from-scratch :meth:`~repro.core.vectorized.Workspace.module_state`.

Because every quantity that feeds a decision — shard boundaries, snapshot
state, proposal math, merge order, backoff RNG stream — lives in this
module and is a pure function of ``(graph, num_cores, seed, chunk)``, two
engines running this schedule produce **bit-identical partitions** at
equal core counts and seeds.  ``tests/test_engine_conformance.py``
enforces exactly that for ``parallel(P=k)`` vs ``multicore(P=k)``.

Engines participate through a :class:`ProposeBackend`: the vectorized
engine proposes in-process (:class:`InprocessSweep`); the multicore
engine adds a per-core hardware-accounting sweep (the paper's simulated
counters) around the authoritative propose; the parallel engine ships the
propose to worker processes.  The commit/merge itself is driver-side and
is deliberately *not* charged to the simulated cores — it models
HyPC-Map's cheap deterministic merge at the barrier.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.flow import FlowNetwork
from repro.core.mapequation import MapEquation
from repro.core.supernode import convert_to_supernodes
from repro.core.vectorized import MIN_IMPROVEMENT, Workspace
from repro.graph.csr import CSRGraph
from repro.obs.spans import trace_span
from repro.obs.telemetry import TelemetryRecorder, publish_run_metrics
from repro.util.rng import make_rng

__all__ = [
    "DeadlineExceeded",
    "ProposeBackend",
    "InprocessSweep",
    "BSPOutcome",
    "BSPPassRecord",
    "edge_balanced_blocks",
    "active_neighborhood",
    "split_active_by_block",
    "ModuleState",
    "level_state",
    "apply_moves",
    "commit_proposals",
    "run_bsp_infomap",
]

#: commit retries: halve the proposal set at most this many times before
#: declaring the round a wash (same constant as the vectorized engine)
BACKOFF_TRIES = 6


def edge_balanced_blocks(net: FlowNetwork, num_cores: int) -> list[np.ndarray]:
    """Split vertices into contiguous blocks with ~equal arc counts.

    HyPC-Map's static edge-balanced distribution: block boundaries are
    chosen on the cumulative out-degree so every core sweeps a similar
    number of arcs.
    """
    if num_cores == 1:
        return [np.arange(net.num_vertices, dtype=np.int64)]
    arcs = np.diff(net.indptr)
    cum = np.cumsum(arcs)
    total = cum[-1] if len(cum) else 0
    bounds = [0]
    for p in range(1, num_cores):
        target = total * p / num_cores
        bounds.append(int(np.searchsorted(cum, target)))
    bounds.append(net.num_vertices)
    blocks = []
    for p in range(num_cores):
        lo, hi = bounds[p], max(bounds[p], bounds[p + 1])
        blocks.append(np.arange(lo, hi, dtype=np.int64))
    return blocks


def _row_arcs(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions of every arc in the CSR rows ``rows``, row by row.

    O(arcs of those rows): each row's ``[indptr[r], indptr[r + 1])``
    range, concatenated without a Python loop.
    """
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    ends = np.cumsum(lens)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - ends + lens, lens) + np.arange(total)


def active_neighborhood(net: FlowNetwork, moved: np.ndarray) -> np.ndarray:
    """Vertices to revisit next pass: movers plus their neighbourhoods.

    Vectorized equivalent of the sequential engine's ``_active_set``,
    shared by every BSP engine so their worklists are identical.  Flags
    the movers and the targets of their CSR rows (and of their
    transpose rows when the network is directed) in a length-``n`` mask
    and returns its sorted nonzeros — O(n + mover arcs), no sort or hash
    over the concatenated neighbour lists.
    """
    if len(moved) == 0:
        return np.empty(0, dtype=np.int64)
    flags = np.zeros(net.num_vertices, dtype=bool)
    flags[moved] = True
    flags[net.indices[_row_arcs(net.indptr, moved)]] = True
    if net.directed:
        flags[net.t_indices[_row_arcs(net.t_indptr, moved)]] = True
    return np.flatnonzero(flags)


def split_active_by_block(
    active: np.ndarray, blocks: list[np.ndarray]
) -> list[np.ndarray]:
    """Each core revisits its contiguous block's share of the active set."""
    out: list[np.ndarray] = []
    for block in blocks:
        if len(block):
            lo, hi = block[0], block[-1]
            out.append(active[(active >= lo) & (active <= hi)])
        else:
            out.append(np.empty(0, dtype=np.int64))
    return out


class DeadlineExceeded(RuntimeError):
    """The run's job deadline lapsed before the schedule finished.

    Raised master-side by :func:`run_bsp_infomap` at a barrier (and by
    the parallel engine's supervision loop at a poll quantum), so the run
    unwinds at a barrier boundary.  No recovery is attempted — the caller
    decides what to do with the cancelled run, which is how the job
    service cancels a job on any batched engine.
    """


class ModuleState(NamedTuple):
    """One level's partition state between barriers.

    ``enter``/``exit``/``flow`` are the per-module flows of
    :meth:`repro.core.vectorized.Workspace.module_state`, ``cross`` the
    per-arc mask ``module[src] != module[dst]`` over the workspace's
    full arc list (the arcs whose flow is exit/enter flow) and
    ``length`` the level codelength of the partition.
    """

    module: np.ndarray
    enter: np.ndarray
    exit: np.ndarray
    flow: np.ndarray
    cross: np.ndarray
    length: float


def level_state(
    ws: Workspace, net: FlowNetwork, module: np.ndarray, node_flow_log: float
) -> ModuleState:
    """A level's initial state, computed from scratch (once per level)."""
    enter, exit_, flow = ws.module_state(module, net.num_vertices)
    cross = module[ws.src_all] != module[ws.dst_all]
    return ModuleState(
        module, enter, exit_, flow, cross,
        MapEquation.level_codelength(enter, exit_, flow, node_flow_log),
    )


def apply_moves(
    ws: Workspace,
    net: FlowNetwork,
    state: ModuleState,
    movers: np.ndarray,
    targets: np.ndarray,
    node_flow_log: float,
) -> ModuleState:
    """``state`` with ``movers`` moved to ``targets``, updated incrementally.

    Only arcs that start or end at a mover can change their cross
    status, so the mask is re-evaluated on those arcs alone (the movers'
    CSR rows plus the arcs whose destination is a mover).  Exit and
    enter flow are then summed over the ascending cross-arc ids only.
    ``np.bincount(idx, weights=w)`` adds into each bin in input order
    from +0.0, and the ascending id list hands every bin exactly the
    summands of :meth:`~repro.core.vectorized.Workspace.module_state`'s
    masked full pass in the same order — so the result is bit-identical
    to recomputing from scratch.  ``state`` is not modified.
    """
    n = net.num_vertices
    src, dst = ws.src_all, ws.dst_all
    module = state.module.copy()
    module[movers] = targets
    moved = np.zeros(n, dtype=bool)
    moved[movers] = True
    touched = np.take(moved, dst)
    touched[_row_arcs(net.indptr, movers)] = True
    ids = np.flatnonzero(touched)
    cross = state.cross.copy()
    cross[ids] = module[src[ids]] != module[dst[ids]]
    ids = np.flatnonzero(cross)
    w = net.arc_flow[ids]
    exit_ = np.bincount(module[src[ids]], weights=w, minlength=n)
    enter = np.bincount(module[dst[ids]], weights=w, minlength=n)
    flow = np.bincount(module, weights=net.node_flow, minlength=n)
    return ModuleState(
        module, enter, exit_, flow, cross,
        MapEquation.level_codelength(enter, exit_, flow, node_flow_log),
    )


def commit_proposals(
    ws: Workspace,
    net: FlowNetwork,
    state: ModuleState,
    verts: np.ndarray,
    targets: np.ndarray,
    rng: np.random.Generator,
    node_flow_log: float,
) -> tuple[ModuleState, np.ndarray]:
    """The deterministic merge behind the barrier.

    Applies all proposed moves at once (:func:`apply_moves`: O(mover
    arcs + cross arcs) index work plus a flag gather and two nonzero
    scans of byte masks over the arcs, instead of a full recompute) and
    accepts the batch iff the codelength strictly improved; otherwise
    the proposal set is halved with the seeded RNG and retried (at most
    :data:`BACKOFF_TRIES` times).  Returns ``(state, applied_verts)`` —
    after a failed commit, the caller's own ``state`` (cross mask
    included) unchanged.

    This is a pure function of its inputs plus the RNG stream — the
    determinism anchor of the whole schedule.
    """
    accepted = np.ones(len(verts), dtype=bool)
    for _backoff in range(BACKOFF_TRIES):
        trial = apply_moves(
            ws, net, state, verts[accepted], targets[accepted],
            node_flow_log,
        )
        if trial.length < state.length - MIN_IMPROVEMENT:
            return trial, verts[accepted]
        # conflicting simultaneous moves: keep a random half and retry
        keep = rng.random(len(verts)) < 0.5
        accepted &= keep
        if not np.any(accepted):
            break
    return state, np.empty(0, dtype=np.int64)


class ProposeBackend:
    """What an engine plugs into the shared schedule.

    The driver calls the hooks in this order per run::

        on_flow(net)                          # once, after PageRank
        for level:
            begin_level(net, level, blocks, ws)
            for pass:
                begin_pass(module)
                on_pass_orders(core_orders)    # each core's full pass order
                for round:                     # chunk slices of each order
                    on_barrier(level, pass, round, barrier)
                    propose(shards, module, enter, exit, flow)
                    on_commit(applied_verts)   # after the merge
                end_pass(rounds) -> sim seconds | None
            on_update_members(mapping, dense) -> mapping
            coarsen(net, dense, k, ws) -> coarser net
        close()

    Only :meth:`propose` is mandatory; the accounting hooks default to
    no-ops so the parallel engine implements nothing but the propose.
    ``propose`` receives ``shards`` as ``[(core_id, vertex_array), ...]``
    in ascending core order and must return ``(verts, targets)``
    concatenated in that order — the merge order the commit relies on.

    :meth:`on_pass_orders` exists so a backend can amortize per-round
    traffic: the driver slices each core's order *sequentially* from
    offset 0, so a backend that ships the whole order up front can
    address every subsequent round as a plain ``[lo, hi)`` window into
    it (what the parallel engine's chunked commit rounds do).  The
    hook changes *where bytes travel*, never what is computed — shards
    passed to :meth:`propose` stay authoritative.
    """

    #: engine label for telemetry/metrics
    engine = "bsp"

    def on_flow(self, net: FlowNetwork) -> None:  # pragma: no cover - hook
        pass

    def begin_level(
        self,
        net: FlowNetwork,
        level: int,
        blocks: list[np.ndarray],
        ws: Workspace,
    ) -> None:
        pass

    def begin_pass(self, module: np.ndarray) -> None:
        pass

    def on_pass_orders(self, core_orders: list[np.ndarray]) -> None:
        """Each core's full vertex order for the coming pass.

        Called once per pass, after :meth:`begin_pass`; every round's
        shard for core ``p`` is the next ``chunk``-sized slice of
        ``core_orders[p]``, taken in order from offset 0.
        """
        pass

    def on_barrier(
        self, level: int, pass_idx: int, round_idx: int, barrier: int
    ) -> None:
        """Called immediately before each propose round.

        ``barrier`` is the global 0-based propose-round counter across
        the whole run — the coordinate a
        :class:`repro.core.faults.FaultPlan` addresses, and the unit the
        supervisor's recovery replays.  ``round_idx`` is the 0-based
        round within the current pass.
        """
        pass

    def propose(
        self,
        shards: list[tuple[int, np.ndarray]],
        module: np.ndarray,
        enter: np.ndarray,
        exit_: np.ndarray,
        flow: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def end_pass(self, rounds: int) -> float | None:
        """Simulated pass seconds (multicore) or ``None`` for wall time."""
        return None

    def on_commit(self, applied: np.ndarray) -> None:
        pass

    def on_update_members(
        self, mapping: np.ndarray, dense: np.ndarray
    ) -> np.ndarray:
        return dense[mapping]

    def coarsen(
        self, net: FlowNetwork, dense: np.ndarray, k: int, ws: Workspace
    ) -> FlowNetwork:
        return convert_to_supernodes(net, dense, k, src=ws.src_all)

    def metrics_kwargs(self) -> dict:
        """Extra key/values for :func:`publish_run_metrics`."""
        return {}

    def close(self) -> None:
        pass


class InprocessSweep(ProposeBackend):
    """The in-process backend: every shard's batched sweep, in order.

    What ``engine="vectorized"`` runs on (one shard, no accounting), and
    the propose the simulated-multicore backend extends with its per-core
    hardware accounting (:meth:`account`).  Sweeps go through the
    driver's own :class:`~repro.core.vectorized.Workspace`; a single
    shard holding the whole level (shards hold distinct vertices) is
    swept unrestricted (``verts=None``), which returns the same rows
    without the per-pair shard filter.
    """

    engine = "vectorized"
    ws: Workspace | None = None

    def begin_level(self, net, level, blocks, ws) -> None:
        self.ws = ws

    def account(self, core: int, shard: np.ndarray) -> None:
        """Per-shard hook run before the shard's sweep (no-op here)."""

    def propose(self, shards, module, enter, exit_, flow):
        if len(shards) == 1 and len(shards[0][1]) == self.ws.n:
            # the whole level on one shard (the vectorized engine's cold
            # pass): sweep it unrestricted, nothing to merge
            self.account(*shards[0])
            v, t, _ = self.ws.best_moves(module, enter, exit_, flow)
            return v, t
        verts_parts: list[np.ndarray] = []
        targ_parts: list[np.ndarray] = []
        for p, shard in shards:
            if len(shard) == 0:
                continue
            self.account(p, shard)
            v, t, _ = self.ws.best_moves(
                module, enter, exit_, flow, verts=shard
            )
            verts_parts.append(v)
            targ_parts.append(t)
        if not verts_parts:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        return np.concatenate(verts_parts), np.concatenate(targ_parts)


@dataclass(frozen=True)
class BSPPassRecord:
    """One barrier-synchronous pass (telemetry-grade record)."""

    level: int
    pass_in_level: int
    vertices: int  #: (super)nodes at this level
    rounds: int
    active_vertices: int
    proposed: int
    applied: int
    codelength: float
    wall_seconds: float
    seconds: float  #: simulated parallel seconds (multicore) or wall


@dataclass
class BSPOutcome:
    """What :func:`run_bsp_infomap` hands back to the engine wrapper."""

    modules: np.ndarray
    num_modules: int
    codelength: float
    one_level_codelength: float
    levels: int
    passes: list[BSPPassRecord] = field(default_factory=list)
    telemetry: object = None
    pagerank_iterations: int = 0
    #: bounded-table pairs resolved in-slot / spilled over the whole run
    bounded_hits: int = 0
    bounded_spills: int = 0


def run_bsp_infomap(
    graph: CSRGraph,
    backend: ProposeBackend,
    num_cores: int,
    seed: int = 0,
    tau: float = 0.15,
    max_levels: int = 20,
    max_passes_per_level: int = 10,
    chunk: int | None = None,
    recorder: TelemetryRecorder | None = None,
    accumulator: str = "reduceat",
    init_module: np.ndarray | None = None,
    init_active: np.ndarray | None = None,
    worklist: bool = True,
    deadline_at: float | None = None,
) -> BSPOutcome:
    """Run the shared multilevel BSP schedule.

    Parameters
    ----------
    backend:
        Engine-specific :class:`ProposeBackend` (where propose executes).
    num_cores:
        Shard count ``P``.  Partitions are a function of ``P`` — the
        conformance contract is *equal engines at equal P/seed/chunk*,
        not equality across different ``P``.
    seed:
        Seeds the commit's conflict-backoff RNG.  Same seed (and same
        ``P``/``chunk``) ⇒ identical partition, for every BSP engine.
    chunk:
        Round granularity: each round every core proposes over its next
        ``chunk`` shard vertices, then the merge commits.  ``None``
        (default) processes each core's whole shard per round — one
        barrier per pass, the standard batch-parallel schedule.  Small
        chunks emulate a finer-grained concurrent interleaving (more
        commits per pass) at higher merge cost.
    accumulator:
        Pair-accumulation strategy of the driver workspace (see
        :mod:`repro.core.accumulate`).  The multicore backend proposes
        through this workspace, so it inherits the strategy directly;
        the parallel backend configures its workers to match.  All
        strategies are bit-identical, so partitions never depend on it.
    init_module:
        Optional warm-start assignment for level 0 (one label per
        vertex, labels in ``[0, num_vertices)``; densified here).  When
        given, level 0 optimizes from this partition instead of the
        all-singletons one — the incremental-recompute entry point
        (:mod:`repro.core.dynamic`).  Later levels are unaffected.
        ``None`` keeps the cold schedule byte-identical to before.
    init_active:
        Optional restriction of level 0's *first* pass to these
        vertices (sorted/uniqued here; each core sweeps its block's
        share).  Subsequent passes grow the worklist from the movers
        exactly as the cold schedule does, so the restriction composes
        with the standard convergence rule.  Only meaningful at level
        0; requires nothing of ``init_module`` but is normally paired
        with it (warm labels + dirty frontier).
    worklist:
        ``True`` (default) revisits only the movers and their
        neighbourhoods after each pass (HyPC-Map's active set).
        ``False`` re-sweeps every vertex of the level every pass — the
        vectorized engine's cold schedule.
    deadline_at:
        Optional :func:`time.monotonic` instant; the driver raises
        :class:`DeadlineExceeded` at the first barrier past it.
    """
    if num_cores < 1:
        raise ValueError("num_cores must be >= 1")
    if chunk is not None and chunk < 1:
        raise ValueError("chunk must be >= 1 (or None for whole shards)")
    n0_check = graph.num_vertices
    if init_module is not None:
        init_module = np.asarray(init_module, dtype=np.int64)
        if init_module.shape != (n0_check,):
            raise ValueError(
                f"init_module must have shape ({n0_check},), "
                f"got {init_module.shape}"
            )
        uniq0 = np.unique(init_module)
        if len(uniq0) and (uniq0[0] < 0 or uniq0[-1] >= n0_check):
            raise ValueError(
                "init_module labels must lie in [0, num_vertices)"
            )
        init_module = np.searchsorted(uniq0, init_module).astype(np.int64)
    if init_active is not None:
        init_active = np.unique(np.asarray(init_active, dtype=np.int64))
        if len(init_active) and (
            init_active[0] < 0 or init_active[-1] >= n0_check
        ):
            raise ValueError(
                "init_active vertices must lie in [0, num_vertices)"
            )

    rng = make_rng(seed)
    if recorder is None:
        recorder = TelemetryRecorder(backend.engine, num_cores=num_cores)
    ws = Workspace(accumulator=accumulator)
    #: per-level bounded-path (hits, spills) deltas of the driver ws
    accum_levels: dict[int, list[int]] = {}

    with trace_span("pagerank", vertices=graph.num_vertices), \
            recorder.kernel("pagerank"):
        net = FlowNetwork.from_graph(graph, tau=tau)
        backend.on_flow(net)
    pagerank_iterations = net.pagerank_iterations

    one_level = MapEquation.one_level_codelength(net.node_flow)
    node_flow_log0 = -one_level
    n0 = graph.num_vertices
    mapping = np.arange(n0, dtype=np.int64)

    passes: list[BSPPassRecord] = []
    levels = 0
    flat_length = one_level
    converged = False
    barrier = 0  # global propose-round counter (FaultPlan coordinate)

    for level in range(max_levels):
        levels = level + 1
        n = net.num_vertices
        ws.bind(net)
        _, lvl_h0, lvl_s0 = ws.accum_stats.snapshot()
        blocks = edge_balanced_blocks(net, num_cores)
        backend.begin_level(net, level, blocks, ws)
        recorder.begin_level(level, n)
        node_flow_log = MapEquation.node_flow_log(net.node_flow)
        flat_offset = node_flow_log - node_flow_log0

        if level == 0 and init_module is not None:
            module = init_module.copy()
        else:
            module = np.arange(n, dtype=np.int64)
        state = level_state(ws, net, module, node_flow_log)

        active_sets: list[np.ndarray | None] = [None] * num_cores
        if level == 0 and init_active is not None:
            active_sets = list(split_active_by_block(init_active, blocks))
        for pass_idx in range(max_passes_per_level):
            wall0 = time.perf_counter()
            backend.begin_pass(state.module)
            core_orders = [
                blocks[p] if active_sets[p] is None else active_sets[p]
                for p in range(num_cores)
            ]
            backend.on_pass_orders(core_orders)
            active_count = sum(map(len, core_orders))
            longest = max(map(len, core_orders))
            # round r covers [r*step, (r+1)*step) of every core's order
            step = longest if chunk is None else chunk
            rounds = -(-longest // step) if longest else 0
            proposed_total = 0
            applied_all: list[np.ndarray] = []
            with trace_span("findbest", level=level, pass_=pass_idx):
                for r in range(rounds):
                    lo = r * step
                    shards = [
                        (p, order[lo:lo + step])
                        for p, order in enumerate(core_orders)
                    ]
                    if (
                        deadline_at is not None
                        and time.monotonic() >= deadline_at
                    ):
                        raise DeadlineExceeded(
                            f"job deadline lapsed at barrier {barrier}"
                        )
                    backend.on_barrier(level, pass_idx, r, barrier)
                    barrier += 1
                    verts, targets = backend.propose(
                        shards, state.module, state.enter, state.exit,
                        state.flow,
                    )
                    proposed_total += len(verts)
                    if len(verts) == 0:
                        continue
                    state, applied = commit_proposals(
                        ws, net, state, verts, targets, rng, node_flow_log
                    )
                    if len(applied):
                        applied_all.append(applied)
                        backend.on_commit(applied)
            wall = time.perf_counter() - wall0
            sim = backend.end_pass(rounds)
            movers = (
                np.concatenate(applied_all)
                if applied_all
                else np.empty(0, dtype=np.int64)
            )
            recorder.record_kernel("findbest", wall)
            recorder.record_pass(
                level=level,
                pass_in_level=pass_idx,
                active_vertices=active_count,
                moves=len(movers),
                num_modules=ws.num_modules(state.module),
                codelength=state.length + flat_offset,
                wall_seconds=wall,
            )
            passes.append(
                BSPPassRecord(
                    level=level,
                    pass_in_level=pass_idx,
                    vertices=n,
                    rounds=rounds,
                    active_vertices=active_count,
                    proposed=proposed_total,
                    applied=len(movers),
                    codelength=state.length + flat_offset,
                    wall_seconds=wall,
                    seconds=sim if sim is not None else wall,
                )
            )
            if len(movers) == 0:
                break
            if worklist:
                active = active_neighborhood(net, movers)
                active_sets = list(split_active_by_block(active, blocks))
            else:
                active_sets = [None] * num_cores

        flat_length = state.length + flat_offset
        _, lvl_h, lvl_s = ws.accum_stats.snapshot()
        if (lvl_h - lvl_h0) + (lvl_s - lvl_s0):
            accum_levels[level] = [lvl_h - lvl_h0, lvl_s - lvl_s0]
        uniq, dense = np.unique(state.module, return_inverse=True)
        k = len(uniq)
        dense = dense.astype(np.int64)
        recorder.end_level(k, flat_length)
        if k == n:
            converged = True
            break
        with trace_span("updatemembers", level=level), \
                recorder.kernel("updatemembers"):
            mapping = backend.on_update_members(mapping, dense)
        with trace_span("convert2supernode", level=level, modules=k), \
                recorder.kernel("convert2supernode"):
            net = backend.coarsen(net, dense, k, ws)

    telemetry = recorder.finish(converged)
    # merge driver-workspace bounded tallies (the multicore backend
    # proposes through the driver ws) with backend-reported ones (the
    # parallel backend's workers report theirs over the reply pipe) —
    # exactly one of the two is nonzero for any given engine
    kw = backend.metrics_kwargs()
    for lvl, (h, s) in kw.pop("bounded_level_stats", {}).items():
        ah, as_ = accum_levels.setdefault(lvl, [0, 0])
        accum_levels[lvl] = [ah + h, as_ + s]
    _, hits, spills = ws.accum_stats.snapshot()
    kw["bounded_hits"] = hits + kw.get("bounded_hits", 0)
    kw["bounded_spills"] = spills + kw.get("bounded_spills", 0)
    kw["bounded_coverage_by_level"] = [
        (lvl, h / (h + s))
        for lvl, (h, s) in sorted(accum_levels.items())
        if h + s
    ]
    publish_run_metrics(telemetry, **kw)

    uniq, final = np.unique(mapping, return_inverse=True)
    return BSPOutcome(
        modules=final.astype(np.int64),
        num_modules=len(uniq),
        codelength=flat_length,
        one_level_codelength=one_level,
        levels=levels,
        passes=passes,
        telemetry=telemetry,
        pagerank_iterations=pagerank_iterations,
        bounded_hits=kw["bounded_hits"],
        bounded_spills=kw["bounded_spills"],
    )
