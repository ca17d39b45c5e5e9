"""Unit tests for the vectorized engine's internal primitives."""

import numpy as np
import pytest

from repro.core.flow import FlowNetwork
from repro.core.mapequation import MapEquation
from repro.core.vectorized import (
    _best_moves,
    _module_state,
    run_infomap_vectorized,
)
from repro.graph.build import from_edges
from repro.graph.generators import ring_of_cliques
from repro.util.rng import make_rng


def _net():
    g, _ = ring_of_cliques(3, 4)
    return FlowNetwork.from_graph(g)


class TestModuleState:
    def test_singletons(self):
        net = _net()
        n = net.num_vertices
        enter, exit_, flow = _module_state(net, np.arange(n), n)
        assert np.allclose(enter, net.node_in)
        assert np.allclose(exit_, net.node_out)
        assert np.allclose(flow, net.node_flow)

    def test_one_module(self):
        net = _net()
        n = net.num_vertices
        enter, exit_, flow = _module_state(net, np.zeros(n, dtype=np.int64), 1)
        assert enter[0] == pytest.approx(0.0)
        assert exit_[0] == pytest.approx(0.0)
        assert flow[0] == pytest.approx(1.0)

    def test_matches_oracle_on_random_labels(self):
        net = _net()
        rng = make_rng(1)
        labels = rng.integers(0, 3, net.num_vertices).astype(np.int64)
        enter, exit_, flow = _module_state(net, labels, 3)
        # brute-force oracle
        src = np.repeat(np.arange(net.num_vertices), np.diff(net.indptr))
        for m in range(3):
            exp_exit = net.arc_flow[
                (labels[src] == m) & (labels[net.indices] != m)
            ].sum()
            assert exit_[m] == pytest.approx(float(exp_exit))


class TestBestMoves:
    def test_singleton_start_finds_moves(self):
        net = _net()
        n = net.num_vertices
        module = np.arange(n, dtype=np.int64)
        enter, exit_, flow = _module_state(net, module, n)
        verts, targets, deltas = _best_moves(net, module, enter, exit_, flow)
        assert len(verts) > 0
        assert np.all(deltas < 0)
        assert len(verts) == len(np.unique(verts))  # one best move each

    def test_converged_state_has_no_moves(self):
        g, truth = ring_of_cliques(3, 4)
        net = FlowNetwork.from_graph(g)
        n = net.num_vertices
        enter, exit_, flow = _module_state(net, truth, n)
        verts, _, _ = _best_moves(net, truth.astype(np.int64), enter, exit_, flow)
        assert len(verts) == 0

    def test_deltas_match_exact_recompute(self):
        """Every vectorized delta must equal the recomputed L difference."""
        net = _net()
        n = net.num_vertices
        module = np.arange(n, dtype=np.int64)
        enter, exit_, flow = _module_state(net, module, n)
        L0 = MapEquation.codelength(enter, exit_, flow, net.node_flow)
        verts, targets, deltas = _best_moves(net, module, enter, exit_, flow)
        for v, m, dl in zip(verts[:6], targets[:6], deltas[:6]):
            trial = module.copy()
            trial[v] = m
            e2, x2, f2 = _module_state(net, trial, n)
            L1 = MapEquation.codelength(e2, x2, f2, net.node_flow)
            assert dl == pytest.approx(L1 - L0, abs=1e-10)


class TestOneLevel:
    """One level of the vectorized engine (``max_levels=1``)."""

    def test_recovers_cliques(self):
        g, _ = ring_of_cliques(3, 4)
        r = run_infomap_vectorized(g, max_levels=1, max_rounds_per_level=30)
        assert r.num_modules == 3
        assert r.rounds >= 1

    def test_monotone_improvement(self):
        g, _ = ring_of_cliques(5, 4)
        net = FlowNetwork.from_graph(g)
        r = run_infomap_vectorized(g, max_levels=1, max_rounds_per_level=30)
        singleton_L = MapEquation.codelength(
            net.node_in, net.node_out, net.node_flow, net.node_flow
        )
        # at level 0 the flat codelength is the level-local one
        assert r.codelength <= singleton_L

    def test_directed_net(self):
        g = from_edges(
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3), (5, 0)],
            directed=True, num_vertices=6,
        )
        r = run_infomap_vectorized(g, max_levels=1, max_rounds_per_level=30)
        assert r.num_modules == 2
