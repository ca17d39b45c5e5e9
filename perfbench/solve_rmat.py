"""solve-rmat: warm parallel solves of the ``rmat_1m`` surrogate.

Closed loop, one caller: ``run_infomap(engine="parallel", workers=2,
pool=<warm>)`` on the streamed R-MAT recipe (2^15 vertices, ~1M arcs),
cycling four solve seeds (per-seed solve paths differ, so a run
averages over several).  The paper's kernel plus the master-serial
commit and worklist at the largest input that fits a run; the gateway,
cache and router are bypassed, so serving-layer changes read flat here.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext

import numpy as np

from common import MISMATCH, OK, Request, WorkloadRun, log, median, \
    peak_rss_mb

RECIPE = "rmat_1m"
SETUPS = 3
SOLVE_SEEDS = 4


def _setup(graph_seed: int, solve_seed: int):
    """Generate the graph, take a warm pool, run the first (reference)
    solve.  Returns ``(streamed, manager, result, seconds, build_s)``."""
    from repro import run_infomap
    from repro.graph.stream import stream_recipe
    from repro.service.pool import PoolManager

    t0 = time.perf_counter()
    streamed = stream_recipe(RECIPE, seed=graph_seed)
    build_s = time.perf_counter() - t0
    manager = PoolManager()
    pool, _ = manager.acquire(2)
    ref = run_infomap(streamed.graph, engine="parallel", workers=2,
                      pool=pool, shuffle_seed=solve_seed)
    return streamed, manager, ref, time.perf_counter() - t0, build_s


def run(seed: int, seconds: float, tracer=None) -> WorkloadRun:
    from repro import run_infomap

    graph_seed = seed % (1 << 31)
    solve_seeds = [(seed * SOLVE_SEEDS + k) % 1000
                   for k in range(SOLVE_SEEDS)]
    setup_samples, build_samples = [], []
    for i in range(SETUPS):
        streamed, manager, first, s, b = _setup(graph_seed, solve_seeds[0])
        setup_samples.append(s)
        build_samples.append(b)
        if i < SETUPS - 1:
            manager.close()
            streamed.release()
    graph = streamed.graph
    nv, na = int(graph.num_vertices), int(graph.num_arcs)
    log(f"solve-rmat: {nv} vertices, {na} arcs, setup {setup_samples}")
    try:
        # untimed reference: the first solve at each seed
        refs = {solve_seeds[0]: first}
        for solve_seed in solve_seeds[1:]:
            pool, _ = manager.acquire(2)
            refs[solve_seed] = run_infomap(
                graph, engine="parallel", workers=2, pool=pool,
                shuffle_seed=solve_seed,
            )
        requests: list[Request] = []
        t_begin = time.perf_counter()
        i = 0
        while time.perf_counter() - t_begin < seconds:
            solve_seed = solve_seeds[i % SOLVE_SEEDS]
            rid = f"s{i}"
            req = Request(rid, "solve", time.perf_counter(),
                          arcs=na)
            req.t_sent = req.t_start
            with tracer.request(rid) if tracer else nullcontext():
                pool, _ = manager.acquire(2)
                r = run_infomap(graph, engine="parallel", workers=2,
                                pool=pool, shuffle_seed=solve_seed)
            req.t_end = time.perf_counter()
            ref = refs[solve_seed]
            same = (np.array_equal(r.modules, ref.modules)
                    and r.codelength == ref.codelength)
            req.status = OK if same else MISMATCH
            requests.append(req)
            i += 1
        wall = requests[-1].t_end - t_begin
        rss = peak_rss_mb(os.getpid())
    finally:
        manager.close()
        streamed.release()
    return WorkloadRun(
        requests=requests,
        setup_samples=setup_samples,
        timed_wall=wall,
        codelengths={str(s): float(r.codelength) for s, r in refs.items()},
        peak_rss_mb=rss,
        sizes={"solve": {"vertices": nv, "arcs": na, "line_bytes": 0}},
        notes={"graph.build_s": median(build_samples),
               "solve_seeds": solve_seeds},
    )

