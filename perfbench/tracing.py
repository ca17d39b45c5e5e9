"""Benchmark-side tracing: wrap the program's public layer functions.

Nothing here edits ``src/``.  :func:`install_layers` replaces a layer's
function or method with a wrapper that records a span (name, start, end,
parent span, request id) around each call, and counts what the layer
did.  The program's own :mod:`repro.obs.spans` spans are switched on
alongside and dumped as a Chrome trace for inspection.

A request id reaches a span in one of three ways:

* the caller sets it for the current thread (:meth:`Tracer.request`) —
  the benchmark around each solve, and the ``JobService.run_batch``
  wrapper on a gateway shard thread;
* on the gateway's event loop, from the line's ``id`` (a context
  variable set around ``Gateway._process_line``);
* a job admitted on the loop and run on a shard thread is matched by
  the identity of its ``JobSpec`` (recorded at ``Gateway._route_key``).

The two private gateway hooks only correlate; every layer time comes
from a public function.  Parallel worker processes are opaque: their
work shows as master-side ``bsp.propose`` wait.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

#: per-layer self-time spans, in report order
LAYER_SPANS = (
    "flow.pagerank", "bsp.driver", "bsp.propose", "bsp.commit",
    "bsp.worklist", "parallel.begin_level", "supernode.coarsen",
    "vectorized.solve", "dynamic.refresh", "dynamic.frontier",
    "delta.apply", "jobsfile.parse", "cache.key", "cache.get", "cache.put",
    "router.route", "pool.acquire", "service.queue", "service.run_batch",
)


class Tracer:
    """In-memory span and count recorder, shared by every thread."""

    def __init__(self) -> None:
        #: (sid, parent_sid, rid, name, t0, t1)
        self.spans: list[tuple] = []
        #: (rid, name, value)
        self.counts: list[tuple] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []
        self.rid_var: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_rid", default=None
        )
        #: id(JobSpec) -> (rid, admitted_at) for the queue span
        self.admitted: dict[int, tuple] = {}

    # ------------------------------------------------------------ context
    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def current_rid(self):
        rid = getattr(self._local, "rid", None)
        return rid if rid is not None else self.rid_var.get()

    @contextmanager
    def request(self, rid):
        """Attribute spans on this thread to ``rid`` inside the block."""
        prev = getattr(self._local, "rid", None)
        self._local.rid = rid
        try:
            yield
        finally:
            self._local.rid = prev

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        st = self._stack()
        parent = st[-1] if st else None
        rid = self.current_rid()
        st.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            st.pop()
            with self._lock:
                self.spans.append((sid, parent, rid, name, t0, t1))

    def add_span(self, rid, name: str, t0: float, t1: float) -> None:
        """Record a top-level span measured elsewhere (e.g. queue wait)."""
        with self._lock:
            self.spans.append((next(self._ids), None, rid, name, t0, t1))

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts.append((self.current_rid(), name, value))

    # ------------------------------------------------------------ wrapping
    def wrap(self, owner, attr: str, name: str | None, before=None,
             after=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``name`` is the span (``None``: count only).  ``before(args)``
        runs first and may return a context manager entered around the
        call; ``after(result, args)`` runs on success.
        """
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        fn = raw.__func__ if kind else raw
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = before(args) if before else None
            with ctx if ctx is not None else nullcontext():
                if name is None:
                    result = fn(*args, **kwargs)
                else:
                    with tracer.span(name):
                        result = fn(*args, **kwargs)
            if after:
                after(result, args)
            return result

        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        self._undo.append((owner, attr, raw))

    def wrap_async_rid(self, owner, attr: str, rid_of) -> None:
        """Set the loop-side request id around an ``async`` method."""
        raw = inspect.getattr_static(owner, attr)
        tracer = self

        @functools.wraps(raw)
        async def wrapper(*args, **kwargs):
            token = tracer.rid_var.set(rid_of(args))
            try:
                return await raw(*args, **kwargs)
            finally:
                tracer.rid_var.reset(token)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def dump(self) -> dict:
        with self._lock:
            return {"spans": list(self.spans), "counts": list(self.counts)}


def install_layers(tr: Tracer) -> None:
    """Wrap every layer the benchmark reports on (see README.md)."""
    import repro.core.bsp as bsp
    import repro.core.dynamic as dynamic
    import repro.core.flow as flow
    import repro.core.parallel as parallel
    import repro.core.vectorized as vectorized
    import repro.service.cache as cache
    import repro.service.delta as delta
    import repro.service.gateway as gateway
    import repro.service.jobsfile as jobsfile
    import repro.service.pool as pool
    import repro.service.router as router
    import repro.service.service as service

    tr.wrap(flow.FlowNetwork, "from_graph", "flow.pagerank",
            after=lambda r, a: tr.count("flow.pagerank_iters",
                                        r.pagerank_iterations))
    tr.wrap(parallel._WorkerPool, "propose", "bsp.propose")
    tr.wrap(dynamic._InprocessSweep, "propose", "bsp.propose")
    tr.wrap(bsp, "commit_proposals", "bsp.commit",
            after=lambda r, a: tr.count("bsp.commit_calls"))
    tr.wrap(bsp, "active_neighborhood", "bsp.worklist")
    tr.wrap(parallel._WorkerPool, "begin_level", "parallel.begin_level",
            after=lambda r, a: tr.count("parallel.level_publishes"))
    for mod in (bsp, vectorized):
        tr.wrap(mod, "convert_to_supernodes", "supernode.coarsen")

    def passes(outcome, _args) -> None:
        tr.count("bsp.levels", outcome.levels)
        tr.count("bsp.passes", len(outcome.passes))
        tr.count("bsp.rounds", sum(p.rounds for p in outcome.passes))
        tr.count("bsp.proposed", sum(p.proposed for p in outcome.passes))
        tr.count("bsp.applied", sum(p.applied for p in outcome.passes))

    for mod in (parallel, dynamic):
        tr.wrap(mod, "run_bsp_infomap", "bsp.driver", after=passes)
    tr.wrap(vectorized, "run_infomap_vectorized", "vectorized.solve")

    def refreshed(r, _args) -> None:
        tr.count("dynamic.refreshes")
        tr.count("dynamic.full_reruns", int(r.full_rerun))
        tr.count("dynamic.touched_vertices", r.touched_vertices)
        tr.count("dynamic.frontier_share", r.frontier_share)

    tr.wrap(dynamic, "warm_refresh", "dynamic.refresh", after=refreshed)
    tr.wrap(dynamic, "dirty_frontier", "dynamic.frontier",
            after=lambda r, a: tr.count("dynamic.frontier_calls"))
    tr.wrap(delta.Delta, "apply", "delta.apply")
    tr.wrap(gateway, "spec_fields_from_json", "jobsfile.parse")
    tr.wrap(jobsfile._GraphResolver, "resolve", "jobsfile.parse")
    for mod in (gateway, service):
        tr.wrap(mod, "cache_key", "cache.key")
    tr.wrap(cache.ResultCache, "get", "cache.get",
            after=lambda r, a: tr.count(
                "cache.misses" if r is None else "cache.hits"))
    tr.wrap(cache.ResultCache, "put", "cache.put")
    tr.wrap(pool.PoolManager, "acquire", "pool.acquire",
            after=lambda r, a: tr.count("pool.cold_acquires", int(not r[1])))

    # gateway correlation: line id on the loop; spec identity across
    # the shard hop; admission time starts the queue span
    tr.wrap_async_rid(
        gateway.Gateway, "_process_line",
        lambda a: a[3].get("id") if isinstance(a[3], dict) else None,
    )

    def routing(args) -> None:
        tr._local.pending = (id(args[1]), tr.current_rid())

    def routed(_r, _args) -> None:
        pending = getattr(tr._local, "pending", None)
        if pending is not None:
            tr._local.pending = None
            tr.admitted[pending[0]] = (pending[1], time.perf_counter())

    tr.wrap(gateway.Gateway, "_route_key", None, before=routing)
    tr.wrap(router.RendezvousRouter, "route", "router.route", after=routed)

    def run_start(args):
        spec = args[1][0] if args[1] else None
        rid, t_admit = tr.admitted.pop(id(spec), (None, None))
        if rid is None:
            return None
        tr.add_span(rid, "service.queue", t_admit, time.perf_counter())
        return tr.request(rid)

    tr.wrap(service.JobService, "run_batch", "service.run_batch",
            before=run_start)


# ------------------------------------------------------------- analysis
def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def analyze(dump: dict, roots: dict) -> dict:
    """Self time per layer over request windows, plus the span sum.

    ``roots`` maps request id -> ``(t0, t1)``, the request's window as
    the client saw it.  A span belongs to the request whose id it
    carries; its self time is its duration minus its children's.  A
    request's ``unattributed`` time is its window minus the union of its
    top-level spans.  Returns per-request means (seconds) and the sum
    check ``sum(self) + unattributed == wall``, which fails when
    top-level spans of a request overlap or leave its window.
    """
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    top: dict = defaultdict(list)
    child: Counter = Counter()
    for _sid, parent, _rid, _name, t0, t1 in dump["spans"]:
        if parent is not None:
            child[parent] += t1 - t0
    for sid, parent, rid, name, t0, t1 in dump["spans"]:
        if rid not in roots:
            continue
        self_s[name] += (t1 - t0) - child[sid]
        total_s[name] += t1 - t0
        if parent is None:
            r0, r1 = roots[rid]
            top[rid].append((max(t0, r0), min(t1, r1)))
    wall = sum(t1 - t0 for t0, t1 in roots.values())
    covered = sum(_union_length([(a, b) for a, b in iv if b > a])
                  for iv in top.values())
    unattributed = wall - covered
    err = abs(sum(self_s.values()) + unattributed - wall) / wall \
        if wall > 0 else 0.0
    n = max(1, len(roots))
    return {
        "requests": len(roots),
        "wall_s": wall / n,
        "unattributed_s": unattributed / n,
        "span_sum_err": err,
        "self_s": {k: v / n for k, v in self_s.items()},
        "total_s": {k: v / n for k, v in total_s.items()},
    }


def count_totals(dump: dict, rids=None) -> Counter:
    """Sum counts, over ``rids`` only when given."""
    out: Counter = Counter()
    for rid, name, value in dump["counts"]:
        if rids is None or rid in rids:
            out[name] += value
    return out
