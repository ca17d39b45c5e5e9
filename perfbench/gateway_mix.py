"""gateway-mix: a closed-loop job mix against ``repro serve --listen``.

Two connections, one outstanding line each.  Engine work is ~20 ms per
job, so wire parse, admission, routing, cache, pool and write dominate.
Four classes in fixed proportions, their order shuffled by the seed:

* ``vectorized`` — a unique 100-vertex planted graph, inline ``edges``;
* ``parallel`` — the same, on the ``parallel`` engine with 2 workers;
* ``repeat`` — an earlier line again (a cache hit on the owning shard
  once the earlier line has completed);
* ``oversize`` — a 2000-vertex planted graph inline, ~230 KB on the
  wire.  Kept on purpose: today's gateway keeps asyncio's 64 KiB line
  limit and drops the connection, and the benchmark shows that loss in
  ``completed_share`` instead of shrinking the class out of the data.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time

import numpy as np

from client import GatewayProcess, Line, closed_loop
from common import MISMATCH, OK, WorkloadRun, log, median

CLASSES = ("vectorized", "parallel", "repeat", "oversize")
#: lines of each class in every block of 100 (shuffled within the block,
#: so every run sends the same mix whatever its seed)
PER_100 = (45, 25, 26, 4)
#: a repeat copies one of the REPEAT_WINDOW unique lines sent before the
#: last REPEAT_GAP (so it has completed and, with 128 cache entries per
#: shard, still sits in the owning shard's cache)
REPEAT_GAP = 8
REPEAT_WINDOW = 64
#: distinct oversize graphs per stream (each line re-seeds the solve,
#: so every oversize line is still a distinct job)
OVERSIZE_GRAPHS = 8
SETUPS = 3
#: slices of the timed window (each holds ~150-200 requests, so its p90
#: has 15 or more beyond it)
WINDOWS = 4


def _small_graph(gseed: int):
    from repro.graph.generators import planted_partition

    return planted_partition(4, 25, 0.3, 0.02, seed=gseed)[0]


def _oversize_graph(gseed: int):
    from repro.graph.generators import planted_partition

    return planted_partition(20, 100, 0.1, 0.002, seed=gseed)[0]


def _body(graph, engine: str, solve_seed: int) -> dict:
    from repro.service.gateway import graph_to_wire

    return {**graph_to_wire(graph), "engine": engine,
            "workers": 2 if engine == "parallel" else 1, "seed": solve_seed}


def _line(rid: str, cls: str, tenant: str, body_json: str, arcs: int,
          vertices: int) -> Line:
    head = json.dumps({"id": rid, "label": rid, "tenant": tenant,
                       "return_modules": True})
    data = (head[:-1] + ", " + body_json[1:] + "\n").encode()
    return Line(rid, cls, data, arcs=arcs,
                extra={"body": body_json, "vertices": vertices})


def oversize_graphs(seed: int) -> list:
    """The distinct oversize graphs of ``seed``'s stream (built in set-up;
    each oversize line re-seeds the solve, so it is still a new job)."""
    return [_oversize_graph(seed * 31 + k) for k in range(OVERSIZE_GRAPHS)]


def make_stream(seed: int, oversize: list | None = None):
    """The deterministic, unbounded request stream for ``seed``.

    Lines are built as they are drawn, so a faster gateway is never
    starved; only the oversize graphs are built ahead (``oversize``).
    """
    rng = np.random.default_rng([seed, 0x6D6978])
    oversize = oversize_graphs(seed) if oversize is None else oversize
    unique: list[tuple[str, int, int]] = []
    block = np.repeat(np.arange(len(CLASSES)), PER_100)
    i = 0
    while True:
        for c in rng.permutation(block):
            cls = CLASSES[c]
            if cls == "repeat" and len(unique) <= REPEAT_GAP:
                cls = "vectorized"
            if cls == "repeat":
                lo = max(0, len(unique) - REPEAT_GAP - REPEAT_WINDOW)
                body, arcs, nv = unique[int(rng.integers(
                    lo, len(unique) - REPEAT_GAP))]
            else:
                solve_seed = int(rng.integers(0, 1 << 20))
                if cls == "oversize":
                    graph = oversize[int(rng.integers(0, len(oversize)))]
                    engine = "vectorized"
                else:
                    graph = _small_graph(int(rng.integers(0, 1 << 30)))
                    engine = cls
                body = json.dumps(_body(graph, engine, solve_seed))
                arcs, nv = int(graph.num_arcs), int(graph.num_vertices)
                if cls != "oversize":
                    unique.append((body, arcs, nv))
            yield _line(f"m{i}", cls, f"t{i % 2}", body, arcs, nv)
            i += 1


def stream_digest(lines: list[Line]) -> str:
    h = hashlib.sha256()
    for ln in lines:
        h.update(ln.data)
    return h.hexdigest()


def _spec(body: dict):
    """The JobSpec the gateway builds for ``body`` (same graph path)."""
    from repro.graph.build import from_edges
    from repro.service.jobs import JobSpec

    e = body["edges"]
    graph = from_edges([tuple(a) for a in e["arcs"]],
                       num_vertices=e["num_vertices"],
                       directed=e["directed"], name=e["name"])
    return JobSpec(graph=graph, engine=body["engine"],
                   workers=body["workers"], seed=body["seed"])


def warmup_lines(tag: str) -> list[Line]:
    """One vectorized and one parallel job owned by each shard.

    Routed client-side with the gateway's own router and cache key, so
    both shards' executors and both warm pools are up before timing.
    """
    from repro.service.cache import cache_key
    from repro.service.router import RendezvousRouter

    router = RendezvousRouter(2)
    want = {(e, s) for e in ("vectorized", "parallel") for s in (0, 1)}
    out, gseed = [], 1 << 30
    while want:
        gseed += 1
        graph = _small_graph(gseed)
        for engine in ("vectorized", "parallel"):
            body = _body(graph, engine, 0)
            shard = router.route(cache_key(_spec(body)))
            if (engine, shard) in want:
                want.discard((engine, shard))
                out.append(_line(f"w{tag}{len(out)}", "warmup", "warmup",
                                 json.dumps(body), 0, 0))
    return out


def _setup(seed: int, tag: str, trace_dump):
    t0 = time.perf_counter()
    oversize = oversize_graphs(seed)
    build_s = time.perf_counter() - t0
    gw = GatewayProcess(tag, trace_dump)
    try:
        warm, _ = asyncio.run(closed_loop(gw.port, warmup_lines(tag),
                                          seconds=600, conns=1))
        if any(r.status != OK for r in warm):
            raise RuntimeError(f"warm-up failed: {[r.row for r in warm]}")
    except BaseException:
        gw.stop()
        raise
    return oversize, gw, time.perf_counter() - t0, build_s


def check(requests, lines: list[Line]) -> dict[str, float]:
    """Compare every completed row with a direct JobService run.

    Marks mismatches in place; returns the codelength per distinct job.
    """
    from repro.service.service import JobService

    by_rid = {ln.rid: ln for ln in lines}
    refs: dict[str, object] = {}
    with JobService() as svc:
        for req in requests:
            if req.status != OK:
                continue
            body = by_rid[req.rid].extra["body"]
            if body not in refs:
                refs[body] = svc.run_batch([_spec(json.loads(body))])[0]
            ref, row = refs[body], req.row
            if not (ref.ok and row.get("modules") == ref.modules.tolist()
                    and row.get("codelength") == ref.codelength):
                req.status = MISMATCH
    return {hashlib.sha256(b.encode()).hexdigest()[:16]: r.codelength
            for b, r in refs.items() if r.ok}


def run(seed: int, seconds: float, trace_dump: str | None = None
        ) -> WorkloadRun:
    setup_samples, build_samples = [], []
    for i in range(SETUPS):
        oversize, gw, s, b = _setup(seed, f"mix{i}",
                                    trace_dump if i == SETUPS - 1 else None)
        setup_samples.append(s)
        build_samples.append(b)
        if i < SETUPS - 1:
            gw.stop()
    log(f"gateway-mix: setup {setup_samples}")
    lines: list[Line] = []
    feed = (lines.append(ln) or ln for ln in make_stream(seed, oversize))
    try:
        requests, wall = asyncio.run(closed_loop(gw.port, feed, seconds))
        rss = gw.peak_rss_mb()
    finally:
        gw.stop()
    codelengths = check(requests, lines)
    sizes: dict = {}
    for ln in lines:
        s = sizes.setdefault(ln.cls, {"vertices": ln.extra["vertices"],
                                      "arcs": ln.arcs, "line_bytes": 0})
        s["line_bytes"] = max(s["line_bytes"], len(ln.data))
    return WorkloadRun(
        requests=requests,
        setup_samples=setup_samples,
        timed_wall=wall,
        codelengths=codelengths,
        peak_rss_mb=rss,
        sizes=sizes,
        windows=WINDOWS,
        notes={"stream_sha256_first200": stream_digest(lines[:200]),
               "graph.build_s": median(build_samples)},
    )
