"""Batch-synchronous vectorized Infomap engine (no hardware accounting).

Pure-numpy engine for running Infomap at scales where the instrumented
per-operation engine would be too slow (quality studies, the LFR sweep,
examples on 100k+ edge graphs).

The engine has no loop of its own: :func:`run_infomap_vectorized` runs
the shared BSP schedule (:func:`repro.core.bsp.run_bsp_infomap`) at
``P=1`` on one in-process shard, sweeping every vertex every pass.  Each
pass evaluates the best move of *every* vertex against the current
partition simultaneously (vectorized over all (vertex, candidate-module)
pairs) and applies all improving moves at once — the batch-synchronous
relaxation that parallel Infomap implementations (GossipMap, HyPC-Map) use
across workers.  Because simultaneous moves can conflict, the driver
recomputes the true codelength after applying and backs off (random halving
of the move set) if the batch made things worse; this guarantees monotone
codelength improvement and hence termination.  What this module owns is
the sweep itself, :class:`Workspace`.

Batched hot-path formulation
----------------------------
The paper's thesis is that FindBestCommunity is dominated by sparse
accumulation: summing each vertex's arc flows by neighbouring module.
The sequential engines route that accumulation through a pluggable
:class:`~repro.accum.base.Accumulator` (hash table or CAM); this engine
instead performs the *whole sweep's* accumulation as one segment-sum:

1. every non-loop arc ``(v, u)`` becomes a pair key ``v * n + module[u]``
   (directed graphs append the transpose arcs with separate out/in
   weights, so one grouping aligns both flow directions on identical
   keys);
2. a single stable integer argsort groups equal keys contiguously —
   numpy's radix path, the batched analogue of hash-bucket grouping;
3. ``np.add.reduceat`` over the group boundaries produces the per
   (vertex, candidate-module) flows — the sparse accumulation itself;
4. map-equation deltas are evaluated for all pairs at once, gathering
   per-module ``plogp`` terms from tables precomputed once per sweep
   (O(n)) instead of recomputing ``x log2 x`` per pair;
5. the per-vertex best candidate is selected with a segmented argmin
   (``np.minimum.reduceat`` over the vertex group boundaries), not a
   sort.

All sweep-sized scratch lives in a :class:`Workspace` that survives
across passes *and* levels, so steady-state sweeps allocate only the
(data-dependent) group-boundary index arrays.  The unbatched reference
formulation is kept as :func:`_best_moves` / :func:`_module_state`;
parity tests (``tests/test_hotpath_parity.py``) assert the two paths
produce identical moves, and ``benchmarks/bench_vectorized_hotpath.py``
gates the speedup of batched over reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.accumulate import (
    DEFAULT_CAM_CAPACITY,
    AccumStats,
    bounded_group_sums,
    resolve_strategy,
    validate_accumulator,
)
from repro.core.flow import FlowNetwork
# re-exported: benchmark tracing wraps ``vectorized.convert_to_supernodes``
from repro.core.supernode import convert_to_supernodes  # noqa: F401
from repro.graph.csr import CSRGraph
from repro.obs.spans import trace_span
from repro.obs.telemetry import ConvergenceTelemetry
from repro.util.entropy import plogp_array, plogp, plogp_unchecked

__all__ = ["run_infomap_vectorized", "VectorizedResult", "Workspace"]

#: moves must improve the codelength by at least this much
MIN_IMPROVEMENT = 1e-12

_EMPTY_MOVES = (
    np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
)


@dataclass
class VectorizedResult:
    """Outcome of a vectorized Infomap run."""

    modules: np.ndarray
    num_modules: int
    codelength: float
    one_level_codelength: float
    levels: int
    rounds: int
    #: measured-wall-time convergence record (see repro.obs.telemetry)
    telemetry: ConvergenceTelemetry | None = None
    #: requested accumulation strategy ("reduceat" | "bounded" | "auto")
    accumulator: str = "reduceat"
    #: bounded-table pairs resolved in-slot / spilled to the sort path
    #: (both 0 when every level ran the reduceat strategy)
    bounded_hits: int = 0
    bounded_spills: int = 0

    @property
    def bounded_coverage(self) -> float | None:
        """In-table fraction of bounded-path pairs (the Fig. 5 analogue)."""
        total = self.bounded_hits + self.bounded_spills
        return self.bounded_hits / total if total else None

    def summary(self) -> str:
        return (
            f"VectorizedResult({self.num_modules} modules, "
            f"L={self.codelength:.4f} bits, {self.levels} levels, "
            f"{self.rounds} rounds)"
        )


class Workspace:
    """Reusable scratch for the batched hot path.

    One Workspace serves a whole multilevel run (and can be bound to
    *many* networks in turn, e.g. a parameter sweep over same-scale
    graphs).  Invariants:

    * :meth:`bind` must be called whenever the hot path moves to a new
      :class:`~repro.core.flow.FlowNetwork` (each level, or a new run).
      It derives the level-constant arc-pair arrays (non-loop sources,
      destinations, flows — directed networks interleave the transpose
      arcs with zero-filled complementary weight columns).
    * Sweep-sized scratch buffers are capacity-backed: binding a
      *smaller* network slices the existing allocations instead of
      reallocating, so coarser levels and subsequent runs are
      allocation-free in steady state.
    * No state is carried between passes: every buffer handed out is
      fully overwritten (or zero-filled) before it is read, so reusing
      one Workspace across levels/graphs is bit-identical to using a
      fresh one — ``tests/test_hotpath_parity.py`` has a regression
      test for exactly this.
    * The pair accumulation runs one of the strategies of
      :mod:`repro.core.accumulate` (``accumulator=``); ``auto``
      re-resolves per :meth:`bind` from the level's degree statistics.
      Every strategy is bit-identical, so the choice — and when it is
      made — can only affect wall time, never results
      (``tests/test_accumulator_parity.py``).
    """

    def __init__(
        self,
        accumulator: str = "reduceat",
        capacity: int = DEFAULT_CAM_CAPACITY,
    ) -> None:
        self.net: FlowNetwork | None = None
        self._bufs: dict[str, np.ndarray] = {}
        self.accumulator = validate_accumulator(accumulator)
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        #: strategy resolved for the currently bound level
        self.strategy = "reduceat"
        #: lifetime bounded-path tallies (pairs/hits/spills)
        self.accum_stats = AccumStats()

    def set_accumulator(self, accumulator: str) -> "Workspace":
        """Switch strategy; re-resolves against the bound level if any."""
        self.accumulator = validate_accumulator(accumulator)
        if self.net is not None:
            self.bind(self.net)
        return self

    # -- capacity-backed buffers ---------------------------------------
    def _buf(self, name: str, size: int, dtype=np.float64) -> np.ndarray:
        arr = self._bufs.get(name)
        if arr is None or arr.size < size or arr.dtype != np.dtype(dtype):
            arr = np.empty(size, dtype=dtype)
            self._bufs[name] = arr
        return arr[:size]

    def _iota(self, size: int) -> np.ndarray:
        arr = self._bufs.get("iota")
        if arr is None or arr.size < size:
            arr = np.arange(size, dtype=np.int64)
            self._bufs["iota"] = arr
        return arr[:size]

    # -- level binding -------------------------------------------------
    def bind(self, net: FlowNetwork) -> "Workspace":
        """Derive the level-constant arc-pair views for ``net``."""
        self.net = net
        n = net.num_vertices
        self.n = n
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(net.indptr))
        # full arc list (self-loops included) for module-state recomputes
        self.src_all = src
        self.dst_all = net.indices
        nonloop = src != net.indices
        src_nl = src[nonloop]
        dst_nl = net.indices[nonloop]
        f_nl = net.arc_flow[nonloop]
        if net.directed:
            t_src = np.repeat(
                np.arange(n, dtype=np.int64), np.diff(net.t_indptr)
            )
            t_nonloop = t_src != net.t_indices
            ts = t_src[t_nonloop]
            td = net.t_indices[t_nonloop]
            tf = net.t_arc_flow[t_nonloop]
            # one combined pair list: out arcs carry (flow, 0), transpose
            # arcs carry (0, flow), so a single grouping aligns the out-
            # and in-flow sums on identical (vertex, module) keys
            self.pair_src = np.concatenate([src_nl, ts])
            self.pair_dst = np.concatenate([dst_nl, td])
            e1, e2 = len(src_nl), len(ts)
            w_out = np.zeros(e1 + e2)
            w_out[:e1] = f_nl
            w_in = np.zeros(e1 + e2)
            w_in[e1:] = tf
            self.pair_w_out = w_out
            self.pair_w_in = w_in
        else:
            self.pair_src = src_nl
            self.pair_dst = dst_nl
            self.pair_w_out = f_nl
            self.pair_w_in = None  # aliases pair_w_out
        self.strategy = resolve_strategy(
            self.accumulator, net.indptr, self.capacity
        )
        if self.strategy == "bounded" and net.directed:
            # the bounded table probes vertex-contiguous pair segments;
            # the directed pair list concatenates two src-sorted halves,
            # so stably re-sort it by source.  Equal sweep keys always
            # share a source, so within every (vertex, module) group the
            # original pair order — and hence every strategy's float
            # summation sequence — is unchanged (stable sorts compose).
            order = np.argsort(self.pair_src, kind="stable")
            self.pair_src = self.pair_src[order]
            self.pair_dst = self.pair_dst[order]
            self.pair_w_out = self.pair_w_out[order]
            self.pair_w_in = self.pair_w_in[order]
        return self

    # -- module state ----------------------------------------------------
    def module_state(
        self, module: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-module ``(enter, exit, flow)`` from scratch, batched.

        Same formulation as the reference :func:`_module_state` but over
        the cached arc list — no per-call ``np.repeat``.
        """
        net = self.net
        src, dst = self.src_all, self.dst_all
        msrc = np.take(module, src, out=self._buf("ms_src", len(src), np.int64))
        mdst = np.take(module, dst, out=self._buf("ms_dst", len(dst), np.int64))
        cross = np.not_equal(msrc, mdst, out=self._buf("ms_x", len(src), bool))
        w = net.arc_flow[cross]
        exit_flow = np.bincount(msrc[cross], weights=w, minlength=k)
        enter_flow = np.bincount(mdst[cross], weights=w, minlength=k)
        flow = np.bincount(module, weights=net.node_flow, minlength=k)
        return enter_flow, exit_flow, flow

    def num_modules(self, module: np.ndarray) -> int:
        """Distinct label count in O(n) (labels always lie in [0, n))."""
        return int(np.count_nonzero(np.bincount(module, minlength=self.n)))

    # -- the batched sweep -----------------------------------------------
    def best_moves(
        self,
        module: np.ndarray,
        enter: np.ndarray,
        exit_: np.ndarray,
        flow: np.ndarray,
        verts: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched best-move search for every vertex (one sweep).

        Returns ``(vertices, targets, deltas)`` for vertices with an
        improving candidate — identical to the reference
        :func:`_best_moves` output, computed with the segment-sum
        formulation described in the module docstring.

        When ``verts`` is given, only pairs whose source vertex is in
        ``verts`` are evaluated — the shard-restricted sweep the
        barrier-synchronous engines (``multicore``, ``parallel``) run per
        core.  Per-vertex results are independent of the restriction
        (grouping, segment sums, and the argmin are all per-vertex, and
        the stable sort preserves relative pair order), so the restricted
        sweep returns exactly the full sweep's rows filtered to ``verts``
        — ``tests/test_engine_conformance.py`` pins this.
        """
        net = self.net
        n = self.n
        if verts is None:
            pair_src, pair_dst = self.pair_src, self.pair_dst
            w_out_all, w_in_all = self.pair_w_out, self.pair_w_in
        else:
            flags = self._buf("bm_flags", n, bool)
            flags.fill(False)
            flags[verts] = True
            sel_idx = np.flatnonzero(flags[self.pair_src])
            m = len(sel_idx)
            pair_src = np.take(
                self.pair_src, sel_idx, out=self._buf("bm_ssrc", m, np.int64)
            )
            pair_dst = np.take(
                self.pair_dst, sel_idx, out=self._buf("bm_sdst", m, np.int64)
            )
            w_out_all = np.take(
                self.pair_w_out, sel_idx, out=self._buf("bm_swo", m)
            )
            if net.directed:
                w_in_all = np.take(
                    self.pair_w_in, sel_idx, out=self._buf("bm_swi", m)
                )
            else:
                w_in_all = None
        P = len(pair_src)
        if P == 0:
            return _EMPTY_MOVES

        # 1. candidate module per pair
        mdst = np.take(module, pair_dst, out=self._buf("bm_mdst", P, np.int64))

        if self.strategy == "bounded":
            # 2+3. capacity-bounded slot table with overflow merge —
            # bit-identical group sums (see repro.core.accumulate)
            pv, pm, out_to, in_from, hits, spills = bounded_group_sums(
                pair_src, mdst, w_out_all,
                w_in_all if net.directed else None,
                n, self.capacity, self._buf, self._iota,
            )
            if in_from is None:
                in_from = out_to
            self.accum_stats.pairs += P
            self.accum_stats.hits += hits
            self.accum_stats.spills += spills
        else:
            # 2. group (vertex, candidate-module) int64 keys
            #    (stable sort -> radix on int64)
            key = np.multiply(
                pair_src, np.int64(n), out=self._buf("bm_key", P, np.int64)
            )
            key += mdst
            order = np.argsort(key, kind="stable")
            ks = np.take(key, order, out=self._buf("bm_ks", P, np.int64))
            bounds = self._buf("bm_bounds", P, bool)
            bounds[0] = True
            np.not_equal(ks[1:], ks[:-1], out=bounds[1:])
            starts = np.flatnonzero(bounds)

            # 3. segment sums: the sparse accumulation
            w_sorted = np.take(
                w_out_all, order, out=self._buf("bm_wo", P)
            )
            out_to = np.add.reduceat(w_sorted, starts)
            if net.directed:
                wi_sorted = np.take(
                    w_in_all, order, out=self._buf("bm_wi", P)
                )
                in_from = np.add.reduceat(wi_sorted, starts)
            else:
                in_from = out_to
            sel = order[starts]
            pv = pair_src[sel]      # pair vertex (non-decreasing)
            pm = mdst[sel]          # pair candidate module

        cur = module[pv]
        # per-vertex flow to its current module (gathered from the pairs)
        out_to_cur = self._buf("bm_otc", n)
        out_to_cur.fill(0.0)
        own = pm == cur
        out_to_cur[pv[own]] = out_to[own]
        if net.directed:
            in_from_cur = self._buf("bm_ifc", n)
            in_from_cur.fill(0.0)
            in_from_cur[pv[own]] = in_from[own]
        else:
            in_from_cur = out_to_cur

        cand = ~own
        if not np.any(cand):
            return _EMPTY_MOVES
        cv, cm = pv[cand], pm[cand]
        c_out, c_in = out_to[cand], in_from[cand]

        p_n = net.node_flow[cv]
        out_n = net.node_out[cv]
        in_n = net.node_in[cv]
        old = cur[cand]

        # 4. map-equation deltas for all candidate pairs at once
        exit_old_new = exit_[old] - (out_n - out_to_cur[cv]) + in_from_cur[cv]
        enter_old_new = enter[old] - (in_n - in_from_cur[cv]) + out_to_cur[cv]
        exit_new_new = exit_[cm] + (out_n - c_out) - c_in
        enter_new_new = enter[cm] + (in_n - c_in) - c_out
        flow_old_new = flow[old] - p_n
        flow_new_new = flow[cm] + p_n

        np.clip(exit_old_new, 0.0, None, out=exit_old_new)
        np.clip(enter_old_new, 0.0, None, out=enter_old_new)
        np.clip(flow_old_new, 0.0, None, out=flow_old_new)

        sum_enter = float(enter.sum())
        sum_enter_new = (
            sum_enter + enter_old_new + enter_new_new - enter[old] - enter[cm]
        )
        np.clip(sum_enter_new, 0.0, None, out=sum_enter_new)

        # per-module plogp tables, computed once per sweep then gathered
        p_enter = plogp_unchecked(enter)
        p_exit = plogp_unchecked(exit_)
        p_exit_flow = plogp_unchecked(exit_ + flow)

        pu = plogp_unchecked
        dl = (
            pu(sum_enter_new)
            - plogp(sum_enter)
            - (
                pu(enter_old_new)
                + pu(enter_new_new)
                - p_enter[old]
                - p_enter[cm]
            )
            - (
                pu(exit_old_new)
                + pu(exit_new_new)
                - p_exit[old]
                - p_exit[cm]
            )
            + (
                pu(exit_old_new + flow_old_new)
                + pu(exit_new_new + flow_new_new)
                - p_exit_flow[old]
                - p_exit_flow[cm]
            )
        )

        # 5. segmented argmin per vertex (cv is non-decreasing)
        C = len(cv)
        vbounds = self._buf("bm_vb", C, bool)
        vbounds[0] = True
        np.not_equal(cv[1:], cv[:-1], out=vbounds[1:])
        vstarts = np.flatnonzero(vbounds)
        minval = np.minimum.reduceat(dl, vstarts)
        seg = np.cumsum(vbounds, out=self._buf("bm_seg", C, np.int64))
        seg -= 1
        pos = self._buf("bm_pos", C, np.int64)
        np.copyto(pos, self._iota(C))
        pos[dl != minval[seg]] = C  # mask non-minima
        first = np.minimum.reduceat(pos, vstarts)
        verts, targets, deltas = cv[first], cm[first], dl[first]
        improving = deltas < -MIN_IMPROVEMENT
        return verts[improving], targets[improving], deltas[improving]


# ----------------------------------------------------------------------
# Reference (unbatched) formulation.  Kept verbatim from the pre-batching
# engine: it is the oracle for the parity tests and the machine-local
# reference the perf gate measures speedup against.
# ----------------------------------------------------------------------

def _module_state(
    net: FlowNetwork, module: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recompute (enter, exit, flow) per module from scratch, vectorized.

    Reference formulation (per-call ``np.repeat``); the hot path uses
    :meth:`Workspace.module_state`, which reuses the cached arc list.
    """
    n = net.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(net.indptr))
    dst = net.indices
    cross = module[src] != module[dst]
    exit_flow = np.bincount(
        module[src[cross]], weights=net.arc_flow[cross], minlength=k
    )
    enter_flow = np.bincount(
        module[dst[cross]], weights=net.arc_flow[cross], minlength=k
    )
    flow = np.bincount(module, weights=net.node_flow, minlength=k)
    return enter_flow, exit_flow, flow


def _best_moves(
    net: FlowNetwork,
    module: np.ndarray,
    enter: np.ndarray,
    exit_: np.ndarray,
    flow: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference best-move search for every vertex (unbatched hot path).

    Returns ``(vertices, targets, deltas)`` for vertices with an improving
    candidate.  This is the pre-batching formulation: per-call workspace
    allocation, ``np.unique``-based grouping, per-pair plogp evaluation,
    and a lexsort argmin.  :meth:`Workspace.best_moves` computes the same
    result via segment accumulation; the perf gate
    (``benchmarks/bench_vectorized_hotpath.py``) measures its speedup
    over this function on the same module states.
    """
    n = net.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(net.indptr))
    dst = net.indices
    nonloop = src != dst
    src_nl, dst_nl, f_nl = src[nonloop], dst[nonloop], net.arc_flow[nonloop]

    # out-flow aggregation per (vertex, neighbour-module)
    key = src_nl * np.int64(n) + module[dst_nl]
    uk, inv = np.unique(key, return_inverse=True)
    out_to = np.bincount(inv, weights=f_nl)
    pv = (uk // n).astype(np.int64)
    pm = (uk % n).astype(np.int64)

    if net.directed:
        t_src = np.repeat(np.arange(n, dtype=np.int64), np.diff(net.t_indptr))
        t_dst = net.t_indices
        t_nonloop = t_src != t_dst
        ts, td, tf = t_src[t_nonloop], t_dst[t_nonloop], net.t_arc_flow[t_nonloop]
        t_key = ts * np.int64(n) + module[td]
        # align in-flow sums onto the union of out keys and in keys
        all_keys = np.union1d(uk, np.unique(t_key))
        out_aligned = np.zeros(len(all_keys))
        out_aligned[np.searchsorted(all_keys, uk)] = out_to
        tk_u, tk_inv = np.unique(t_key, return_inverse=True)
        in_sum = np.bincount(tk_inv, weights=tf)
        in_aligned = np.zeros(len(all_keys))
        in_aligned[np.searchsorted(all_keys, tk_u)] = in_sum
        uk = all_keys
        out_to = out_aligned
        in_from = in_aligned
        pv = (uk // n).astype(np.int64)
        pm = (uk % n).astype(np.int64)
    else:
        in_from = out_to

    cur = module[pv]
    # per-vertex flow to its current module (gathered from the pair list)
    out_to_cur = np.zeros(n)
    in_from_cur = np.zeros(n)
    own = pm == cur
    out_to_cur[pv[own]] = out_to[own]
    in_from_cur[pv[own]] = in_from[own]

    cand = ~own
    if not np.any(cand):
        return _EMPTY_MOVES
    cv, cm = pv[cand], pm[cand]
    c_out, c_in = out_to[cand], in_from[cand]

    p_n = net.node_flow[cv]
    out_n = net.node_out[cv]
    in_n = net.node_in[cv]
    old = module[cv]

    exit_old_new = exit_[old] - (out_n - out_to_cur[cv]) + in_from_cur[cv]
    enter_old_new = enter[old] - (in_n - in_from_cur[cv]) + out_to_cur[cv]
    exit_new_new = exit_[cm] + (out_n - c_out) - c_in
    enter_new_new = enter[cm] + (in_n - c_in) - c_out
    flow_old_new = flow[old] - p_n
    flow_new_new = flow[cm] + p_n

    np.clip(exit_old_new, 0.0, None, out=exit_old_new)
    np.clip(enter_old_new, 0.0, None, out=enter_old_new)
    np.clip(flow_old_new, 0.0, None, out=flow_old_new)

    sum_enter = float(enter.sum())
    sum_enter_new = sum_enter + enter_old_new + enter_new_new - enter[old] - enter[cm]
    np.clip(sum_enter_new, 0.0, None, out=sum_enter_new)

    dl = (
        plogp_array(sum_enter_new)
        - plogp(sum_enter)
        - (
            plogp_array(enter_old_new)
            + plogp_array(enter_new_new)
            - plogp_array(enter[old])
            - plogp_array(enter[cm])
        )
        - (
            plogp_array(exit_old_new)
            + plogp_array(exit_new_new)
            - plogp_array(exit_[old])
            - plogp_array(exit_[cm])
        )
        + (
            plogp_array(exit_old_new + flow_old_new)
            + plogp_array(exit_new_new + flow_new_new)
            - plogp_array(exit_[old] + flow[old])
            - plogp_array(exit_[cm] + flow[cm])
        )
    )

    # segmented argmin per vertex
    order = np.lexsort((dl, cv))
    cv_sorted = cv[order]
    first = np.ones(len(cv_sorted), dtype=bool)
    first[1:] = cv_sorted[1:] != cv_sorted[:-1]
    idx = order[first]
    verts, targets, deltas = cv[idx], cm[idx], dl[idx]
    improving = deltas < -MIN_IMPROVEMENT
    return verts[improving], targets[improving], deltas[improving]


def run_infomap_vectorized(
    graph: CSRGraph,
    tau: float = 0.15,
    max_levels: int = 20,
    max_rounds_per_level: int = 30,
    seed: int = 0,
    accumulator: str = "reduceat",
    chunk: int | None = None,
    init_module: np.ndarray | None = None,
    init_active: np.ndarray | None = None,
    deadline: float | None = None,
) -> VectorizedResult:
    """Run the batch-synchronous multilevel Infomap.

    The shared BSP schedule (:func:`repro.core.bsp.run_bsp_infomap`) on
    one in-process shard: a cold run sweeps every vertex every pass; a
    warm start (``init_module`` / ``init_active``, see
    :mod:`repro.core.dynamic`) grows a worklist from the movers, as on
    every BSP engine.  ``max_rounds_per_level`` is the driver's pass
    cap; ``seed`` seeds the conflict-backoff RNG; ``chunk`` and the warm
    start are as in :func:`~repro.core.bsp.run_bsp_infomap`;
    ``accumulator`` picks a bit-identical pair-accumulation strategy
    (:mod:`repro.core.accumulate`); ``deadline`` (seconds) cancels the
    run at the next barrier past it with
    :class:`~repro.core.bsp.DeadlineExceeded`.  Callers wanting one
    entry point use ``run_infomap(graph, engine="vectorized")``.
    """
    from repro.core import bsp

    warm = init_module is not None or init_active is not None
    with trace_span("infomap.run", engine="vectorized"):
        outcome = bsp.run_bsp_infomap(
            graph,
            bsp.InprocessSweep(),
            1,
            seed=seed,
            tau=tau,
            max_levels=max_levels,
            max_passes_per_level=max_rounds_per_level,
            chunk=chunk,
            accumulator=accumulator,
            init_module=init_module,
            init_active=init_active,
            worklist=warm,
            deadline_at=(
                None if deadline is None else time.monotonic() + deadline
            ),
        )
    return VectorizedResult(
        modules=outcome.modules,
        num_modules=outcome.num_modules,
        codelength=outcome.codelength,
        one_level_codelength=outcome.one_level_codelength,
        levels=outcome.levels,
        rounds=len(outcome.passes),
        telemetry=outcome.telemetry,
        accumulator=accumulator,
        bounded_hits=outcome.bounded_hits,
        bounded_spills=outcome.bounded_spills,
    )
