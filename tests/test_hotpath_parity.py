"""Parity and regression tests for the batched vectorized hot path.

The batched formulation (:meth:`repro.core.vectorized.Workspace.best_moves`,
segment sums over stable-sorted (vertex, candidate-module) keys) must be
functionally indistinguishable from the retained unbatched reference
(:func:`repro.core.vectorized._best_moves`) on every graph class, and
reusing one :class:`~repro.core.vectorized.Workspace` across passes,
levels, and whole runs must never leak state.
"""

import numpy as np
import pytest

from repro.core.flow import FlowNetwork
from repro.core.infomap import run_infomap
from repro.core.vectorized import (
    Workspace,
    _best_moves,
    _module_state,
    run_infomap_vectorized,
)
from repro.graph.build import from_edges
from repro.graph.generators import planted_partition, ring_of_cliques
from repro.util.rng import make_rng


def _directed_graph():
    return from_edges(
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3), (5, 0),
         (1, 4), (4, 1)],
        directed=True, num_vertices=6,
    )


def _weighted_graph():
    rng = make_rng(7)
    g, _ = planted_partition(4, 15, 0.4, 0.03, seed=3)
    src, dst, _ = g.edge_array()
    edges = [
        (int(u), int(v), float(w))
        for u, v, w in zip(src, dst, rng.uniform(0.2, 3.0, len(src)))
    ]
    return from_edges(edges, num_vertices=g.num_vertices)


def _module_states(net, count=3, seed=0):
    """Singleton state plus a few best-move-applied successors."""
    n = net.num_vertices
    module = np.arange(n, dtype=np.int64)
    states = [module]
    for _ in range(count - 1):
        enter, exit_, flow = _module_state(net, module, n)
        verts, targets, _ = _best_moves(net, module, enter, exit_, flow)
        if len(verts) == 0:
            break
        module = module.copy()
        module[verts] = targets
        states.append(module)
    return states


GRAPHS = {
    "undirected": lambda: ring_of_cliques(6, 5)[0],
    "directed": _directed_graph,
    "weighted": _weighted_graph,
    "planted": lambda: planted_partition(5, 25, 0.3, 0.02, seed=2)[0],
}


class TestBestMovesParity:
    """Batched sweep == unbatched reference, on every graph class."""

    @pytest.mark.parametrize("kind", list(GRAPHS))
    def test_identical_moves_and_deltas(self, kind):
        net = FlowNetwork.from_graph(GRAPHS[kind]())
        n = net.num_vertices
        ws = Workspace().bind(net)
        for module in _module_states(net):
            enter, exit_, flow = _module_state(net, module, n)
            rv, rt, rd = _best_moves(net, module, enter, exit_, flow)
            bv, bt, bd = ws.best_moves(module, enter, exit_, flow)
            assert np.array_equal(rv, bv), kind
            assert np.array_equal(rt, bt), kind
            assert rd == pytest.approx(bd, abs=1e-12)

    @pytest.mark.parametrize("kind", list(GRAPHS))
    def test_module_state_identical(self, kind):
        net = FlowNetwork.from_graph(GRAPHS[kind]())
        n = net.num_vertices
        ws = Workspace().bind(net)
        rng = make_rng(1)
        for labels in (
            np.arange(n, dtype=np.int64),
            np.zeros(n, dtype=np.int64),
            rng.integers(0, max(2, n // 3), n).astype(np.int64),
        ):
            k = int(labels.max()) + 1
            ref = _module_state(net, labels, k)
            got = ws.module_state(labels, k)
            for a, b in zip(ref, got):
                assert np.array_equal(a, b), kind

    def test_converged_state_has_no_moves(self):
        g, truth = ring_of_cliques(3, 4)
        net = FlowNetwork.from_graph(g)
        ws = Workspace().bind(net)
        n = net.num_vertices
        enter, exit_, flow = _module_state(net, truth.astype(np.int64), n)
        verts, _, _ = ws.best_moves(truth.astype(np.int64), enter, exit_, flow)
        assert len(verts) == 0


class TestEngineParity:
    """The batched engine matches the sequential engine's objective."""

    @pytest.mark.parametrize("kind", ["undirected", "directed", "weighted"])
    def test_codelength_close_to_sequential(self, kind):
        g = GRAPHS[kind]()
        rs = run_infomap(g)
        rv = run_infomap_vectorized(g)
        assert abs(rv.codelength - rs.codelength) / rs.codelength < 0.05
        assert rv.codelength <= rv.one_level_codelength + 1e-9

    def test_run_infomap_engine_dispatch(self):
        g, _ = planted_partition(4, 20, 0.4, 0.02, seed=1)
        via_entry = run_infomap(g, engine="vectorized", shuffle_seed=3)
        direct = run_infomap_vectorized(g, seed=3)
        assert np.array_equal(via_entry.modules, direct.modules)
        assert via_entry.codelength == direct.codelength

    def test_run_infomap_rejects_unknown_engine(self):
        g, _ = ring_of_cliques(2, 3)
        with pytest.raises(ValueError, match="engine"):
            run_infomap(g, engine="turbo")


class TestWorkspaceReuse:
    """One Workspace across passes/levels/runs must not leak state."""

    def test_reuse_across_graphs_matches_fresh(self):
        shared = Workspace()
        graphs = [
            planted_partition(5, 30, 0.3, 0.01, seed=2)[0],
            ring_of_cliques(4, 6)[0],
            _directed_graph(),
            planted_partition(3, 10, 0.5, 0.05, seed=9)[0],  # smaller: shrink
        ]
        for g in graphs:
            net = FlowNetwork.from_graph(g)
            n = net.num_vertices
            shared.bind(net)
            fresh = Workspace().bind(net)
            for module in _module_states(net, count=3):
                enter, exit_, flow = _module_state(net, module, n)
                sv, st, sd = shared.best_moves(module, enter, exit_, flow)
                fv, ft, fd = fresh.best_moves(module, enter, exit_, flow)
                assert np.array_equal(sv, fv), g.name
                assert np.array_equal(st, ft), g.name
                assert np.array_equal(sd, fd), g.name

    def test_reuse_across_module_states_matches_fresh(self):
        net = FlowNetwork.from_graph(GRAPHS["planted"]())
        n = net.num_vertices
        shared = Workspace().bind(net)
        for module in _module_states(net, count=4):
            enter, exit_, flow = _module_state(net, module, n)
            fresh = Workspace().bind(net)
            sv, st, sd = shared.best_moves(module, enter, exit_, flow)
            fv, ft, fd = fresh.best_moves(module, enter, exit_, flow)
            assert np.array_equal(sv, fv)
            assert np.array_equal(st, ft)
            assert np.array_equal(sd, fd)

    def test_rebind_to_smaller_network_slices_buffers(self):
        big = FlowNetwork.from_graph(planted_partition(5, 30, 0.3, 0.01, seed=2)[0])
        small = FlowNetwork.from_graph(ring_of_cliques(3, 4)[0])
        ws = Workspace().bind(big)
        module = np.arange(big.num_vertices, dtype=np.int64)
        e, x, f = ws.module_state(module, big.num_vertices)
        ws.best_moves(module, e, x, f)
        buffers_before = {k: v.size for k, v in ws._bufs.items()}
        ws.bind(small)
        module_s = np.arange(small.num_vertices, dtype=np.int64)
        e, x, f = ws.module_state(module_s, small.num_vertices)
        verts, targets, deltas = ws.best_moves(module_s, e, x, f)
        # capacity-backed buffers kept their allocation (no realloc churn)
        for name, size in buffers_before.items():
            assert ws._bufs[name].size == size, name
        # and results on the small net still match its fresh-workspace run
        fv, ft, fd = Workspace().bind(small).best_moves(module_s, e, x, f)
        assert np.array_equal(verts, fv)
        assert np.array_equal(targets, ft)
        assert np.array_equal(deltas, fd)
