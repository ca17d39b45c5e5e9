"""The BSP commit's incremental state is a from-scratch recompute, bit for bit.

:func:`repro.core.bsp.apply_moves` re-evaluates the cross-arc mask only
on arcs incident to the movers and sums exit/enter flow over the cross
arcs only; :func:`repro.core.bsp.active_neighborhood` builds the
worklist from the movers' CSR rows.  Both are exact by construction.
These properties drive random move batches (improving sweeps and random
relabels, so :func:`~repro.core.bsp.commit_proposals` both accepts and
backs off) over random graphs — directed and undirected, weighted, with
self-loops and isolated vertices, at level 0 and on a coarsened level —
and compare every trial against :meth:`Workspace.module_state` with
``.view(np.int64)`` equality.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.bsp as bsp
from repro.core.flow import FlowNetwork
from repro.core.mapequation import MapEquation
from repro.core.supernode import convert_to_supernodes
from repro.core.vectorized import Workspace
from repro.graph.build import from_edge_array


@st.composite
def networks(draw) -> FlowNetwork:
    """A random flow network; ``coarsen`` lifts it one level up."""
    directed = draw(st.booleans())
    n = draw(st.integers(2, 14))
    arcs = draw(st.lists(
        st.tuples(
            st.integers(0, n - 1),
            st.integers(0, n - 1),
            st.sampled_from([0.25, 1.0, 1.5, 3.0]),
        ),
        min_size=1, max_size=45,
    ))
    isolated = draw(st.integers(0, 3))
    src, dst, w = (np.array(c) for c in zip(*arcs))
    g = from_edge_array(
        src, dst, w.astype(np.float64), num_vertices=n + isolated,
        directed=directed,
    )
    net = FlowNetwork.from_graph(g)
    if draw(st.booleans()):
        labels = np.array(draw(st.lists(
            st.integers(0, 3), min_size=g.num_vertices,
            max_size=g.num_vertices,
        )))
        _, dense = np.unique(labels, return_inverse=True)
        net = convert_to_supernodes(net, dense, int(dense.max()) + 1)
    return net


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _assert_fresh(ws: Workspace, net: FlowNetwork, state, nfl: float):
    n = net.num_vertices
    enter, exit_, flow = ws.module_state(state.module, n)
    for got, want in ((state.enter, enter), (state.exit, exit_),
                      (state.flow, flow)):
        assert np.array_equal(_bits(got), _bits(want))
    src = np.repeat(np.arange(n), np.diff(net.indptr))
    assert np.array_equal(
        state.cross, state.module[src] != state.module[net.indices]
    )
    want = MapEquation.codelength(enter, exit_, flow, net.node_flow)
    assert state.length.hex() == want.hex()
    assert MapEquation.level_codelength(
        enter, exit_, flow, nfl
    ).hex() == want.hex()


def _reference_active(ws, net, moved):
    """The former ``np.unique`` worklist formulation."""
    flags = np.zeros(net.num_vertices, dtype=bool)
    flags[moved] = True
    parts = [moved, ws.dst_all[flags[ws.src_all]]]
    if net.directed:
        t_src = np.repeat(
            np.arange(net.num_vertices, dtype=np.int64),
            np.diff(net.t_indptr),
        )
        parts.append(net.t_indices[flags[t_src]])
    return np.unique(np.concatenate(parts))


@settings(max_examples=120, deadline=None)
@given(net=networks(), seed=st.integers(0, 2**32 - 1),
       steps=st.integers(1, 8))
def test_commit_state_matches_fresh_module_state(net, seed, steps):
    n = net.num_vertices
    ws = Workspace().bind(net)
    nfl = MapEquation.node_flow_log(net.node_flow)
    draws = np.random.default_rng(seed)
    start = draws.integers(0, n, size=n)
    state = bsp.level_state(ws, net, start, nfl)
    _assert_fresh(ws, net, state, nfl)

    trials = []
    real_apply = bsp.apply_moves

    def checked(ws_, net_, state_, movers, targets, nfl_):
        trial = real_apply(ws_, net_, state_, movers, targets, nfl_)
        _assert_fresh(ws_, net_, trial, nfl_)
        trials.append(trial)
        return trial

    rng = np.random.default_rng(seed ^ 0x5EED)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bsp, "apply_moves", checked)
        for _ in range(steps):
            if draws.random() < 0.5:
                verts, targets, _ = ws.best_moves(
                    state.module, state.enter, state.exit, state.flow
                )
            else:
                size = int(draws.integers(1, n + 1))
                verts = np.sort(draws.choice(n, size=size, replace=False))
                targets = draws.integers(0, n, size=size)
            if len(verts) == 0:
                continue
            before = state
            tried = len(trials)
            state, applied = bsp.commit_proposals(
                ws, net, before, verts, targets, rng, nfl
            )
            assert len(trials) > tried
            if len(applied):
                assert state is trials[-1]
                assert state.length < before.length
            else:
                assert state is before  # a rejected batch keeps the mask
            _assert_fresh(ws, net, state, nfl)

            moved = draws.choice(n, size=int(draws.integers(0, n + 1)))
            got = bsp.active_neighborhood(net, moved)
            want = _reference_active(ws, net, moved.astype(np.int64))
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
