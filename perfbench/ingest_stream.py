"""ingest-stream: open-loop live ingest into two delta sessions.

Two tenants, one connection each, each hold a live-ingest session on the
``amazon`` surrogate (opened by ``dataset`` name, ``vectorized``
engine).  Lines are due at a fixed rate, well below capacity; each
carries a few localized edge adds, every ``FLUSH_EVERY``-th line asks
for an explicit flush, and every ``ROTATE_EVERY`` lines the session
closes (flushing) and reopens with a fresh seed, so cumulative deltas
stay bounded and each rotation runs a real base solve.

This is the write path beside gateway-mix's reads: the BSP driver run
warm from a small frontier, ``dirty_frontier`` on every line,
``Delta.apply`` and base-key cache lookups.  Latency is timed from
each line's due time, so a shard stall shows up as lateness.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import time

import numpy as np

from client import GatewayProcess, Line
from common import MISMATCH, WorkloadRun, log, median

DATASET = "amazon"
TENANTS = ("t0", "t1")
#: lines per second per tenant
RATE = 4.0
#: a line waits for the next flush, so latencies cluster at 0, 1, ...,
#: FLUSH_EVERY - 1 line intervals plus the flush's run; an odd count
#: puts the median and p90 inside a cluster, not on the edge between two
FLUSH_EVERY = 5
ROTATE_EVERY = 25
ADDS_PER_LINE = 3
SETUPS = 3


def _graph():
    from repro.graph.datasets import load_dataset

    return load_dataset(DATASET)


def _open_obj(tenant: str, epoch: int, solve_seed: int) -> dict:
    session = f"{tenant}-e{epoch}"
    return {"id": f"{session}-open", "tenant": tenant, "session": session,
            "dataset": DATASET, "engine": "vectorized", "workers": 1,
            "seed": solve_seed, "return_modules": True}


def _encode(obj: dict) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode()


def make_stream(seed: int, seconds: float, graph=None):
    """``(openers, lines)``: the session openers sent during set-up and
    the timed, due-stamped lines, deterministic in ``seed``."""
    graph = _graph() if graph is None else graph
    indptr, indices = graph.indptr, graph.indices
    n = graph.num_vertices
    rng = np.random.default_rng([seed, 0x696E67])
    openers: list[Line] = []
    lines: list[Line] = []
    per_tenant = int(RATE * seconds)
    for k, tenant in enumerate(TENANTS):
        epoch = 0
        obj = _open_obj(tenant, epoch, int(rng.integers(0, 1 << 20)))
        openers.append(Line(obj["id"], "open", _encode(obj), conn=k,
                            session=obj["session"], extra={"open": obj}))
        opened = obj
        phase = k / (2 * RATE)  # interleave the two tenants' lines
        for j in range(per_tenant):
            due = phase + j / RATE
            session = opened["session"]
            ops = []
            for _ in range(ADDS_PER_LINE):
                u = int(rng.integers(0, n))
                # a localized add: u to a neighbour of a neighbour
                nbr = indices[indptr[u]:indptr[u + 1]]
                mid = int(nbr[rng.integers(0, len(nbr))]) if len(nbr) else u
                nbr2 = indices[indptr[mid]:indptr[mid + 1]]
                v = int(nbr2[rng.integers(0, len(nbr2))]) if len(nbr2) \
                    else (u + 1) % n
                if v == u:
                    v = (u + 1) % n
                ops.append(["add", u, v, 1.0])
            obj = {"id": f"{session}-{j}", "tenant": tenant,
                   "session": session, "ops": ops, "return_modules": True}
            last = (j + 1) % ROTATE_EVERY == 0 and j + 1 < per_tenant
            if last:
                obj["close"] = True
            elif (j + 1) % FLUSH_EVERY == 0 or j + 1 == per_tenant:
                obj["flush"] = True
            cls = "flush" if ("flush" in obj or "close" in obj) else "ops"
            lines.append(Line(obj["id"], cls, _encode(obj),
                              arcs=2 * len(ops), due=due, conn=k,
                              session=session,
                              extra={"ops": ops, "open": opened}))
            if last:
                epoch += 1
                opened = _open_obj(tenant, epoch,
                                   int(rng.integers(0, 1 << 20)))
                lines.append(Line(opened["id"], "open", _encode(opened),
                                  due=due, conn=k,
                                  session=opened["session"],
                                  extra={"open": opened}))
    lines.sort(key=lambda ln: (ln.due, ln.conn))
    return openers, lines


def stream_digest(openers: list[Line], lines: list[Line]) -> str:
    h = hashlib.sha256()
    for ln in openers + lines:
        h.update(f"{ln.due!r}:{ln.conn}:".encode())
        h.update(ln.data)
    return h.hexdigest()


async def _drive(port: int, openers: list[Line], lines, t0: float):
    """Open every session (set-up ends when each base row is back),
    then, when ``lines`` is given, run the timed open loop on the same
    connections: a session lives on its connection."""
    from client import Link, open_loop

    links: dict[int, Link] = {}
    try:
        for ln in openers:
            link = links[ln.conn] = Link(port)
            await link.open()
            await link.send(ln.data)
            ln.extra["row"] = row = await link.recv(600)
            if not row or row.get("status") != "completed":
                raise RuntimeError(f"session open failed: {row}")
        setup_s = time.perf_counter() - t0
        if lines is None:
            return setup_s, None
        return setup_s, await open_loop(links, lines)
    finally:
        for link in links.values():
            await link.close()


def check(requests, lines: list[Line], openers: list[Line], graph
          ) -> tuple[dict[str, float], int]:
    """Compare each completed result row with a direct delta JobSpec.

    Open rows against the base job; flush rows against a delta job of
    the same base and every op of the session up to the flushing line.
    Marks every request a mismatched row settled; returns the codelength
    per distinct job and the number of mismatched set-up (opener) rows.
    """
    from repro.service.cache import cache_key
    from repro.service.delta import Delta
    from repro.service.jobs import JobSpec
    from repro.service.service import JobService

    by_rid = {ln.rid: ln for ln in openers + lines}
    cum_ops: dict[str, list] = {}
    upto: dict[str, tuple] = {}
    for ln in lines:
        if ln.cls != "open":
            cum_ops.setdefault(ln.session, []).extend(
                ("add", u, v, float(w)) for _, u, v, w in ln.extra["ops"])
            upto[ln.rid] = tuple(cum_ops[ln.session])
    targets = [(r, r.row) for r in requests if r.row is not None]
    targets += [(None, ln.extra["row"]) for ln in openers]
    codelengths: dict[str, float] = {}
    bad_rows: set[str] = set()
    bad_openers = 0
    with JobService() as svc:
        bases: dict[str, tuple] = {}
        for req, row in targets:
            if row.get("status") != "completed":
                continue
            ln = by_rid[row["id"]]
            opened = ln.extra["open"]
            if opened["session"] not in bases:
                spec = JobSpec(graph=graph, engine="vectorized", workers=1,
                               seed=opened["seed"])
                bases[opened["session"]] = (spec, svc.run_batch([spec])[0])
            spec, ref = bases[opened["session"]]
            if ln.cls != "open":
                ref = svc.run_batch([JobSpec(
                    graph=graph, engine="vectorized", workers=1,
                    seed=spec.seed, delta=Delta(ops=upto[ln.rid]),
                    base_key=cache_key(spec),
                )])[0]
            codelengths[ln.rid] = ref.codelength
            if not (ref.ok and row.get("modules") == ref.modules.tolist()
                    and row.get("codelength") == ref.codelength):
                if req is None:
                    bad_openers += 1
                else:
                    bad_rows.add(req.rid)
    # every line a wrong row reflects got a wrong answer
    for req in requests:
        if req.answer in bad_rows:
            req.status = MISMATCH
    return codelengths, bad_openers


def run(seed: int, seconds: float, trace_dump: str | None = None
        ) -> WorkloadRun:
    setup_samples, build_samples = [], []
    for i in range(SETUPS):
        last = i == SETUPS - 1
        t0 = time.perf_counter()
        graph = _graph()
        openers, lines = make_stream(seed, seconds, graph)
        build_samples.append(time.perf_counter() - t0)
        gw = GatewayProcess(f"ingest{i}", trace_dump if last else None)
        try:
            setup_s, timed = asyncio.run(
                _drive(gw.port, openers, lines if last else None, t0))
            setup_samples.append(setup_s)
            if last:
                rss = gw.peak_rss_mb()
        finally:
            gw.stop()
    log(f"ingest-stream: setup {setup_samples}")
    requests, wall, first_row = timed
    codelengths, bad_openers = check(requests, lines, openers, graph)
    late = [r.t_sent - r.t_start for r in requests
            if not math.isnan(r.t_sent)]
    sizes: dict = {}
    for ln in lines:
        s = sizes.setdefault(ln.cls, {"vertices": graph.num_vertices,
                                      "arcs": ln.arcs, "line_bytes": 0})
        s["line_bytes"] = max(s["line_bytes"], len(ln.data))
    return WorkloadRun(
        requests=requests,
        setup_samples=setup_samples,
        timed_wall=wall,
        codelengths=codelengths,
        peak_rss_mb=rss,
        sizes=sizes,
        notes={"stream_sha256": stream_digest(openers, lines),
               "graph.build_s": median(build_samples),
               "lateness_p50_s": median(late),
               "lateness_max_s": max(late),
               "untimed_mismatches": bad_openers,
               "first_row": first_row},
    )
