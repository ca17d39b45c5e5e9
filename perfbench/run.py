"""The repo benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload solve-rmat --seed 1 --seconds 15 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload untraced, then again with the layer
wrappers of :mod:`tracing` installed, and reports the per-layer metrics,
the span-sum check and the tracing overhead.  Every result is checked
against an untimed reference run; a mismatch fails the run (exit 1).
The last line of stdout is the JSON result; README.md explains each
metric, workload and layer.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys

from common import MISMATCH, OK, OUT, SRC, become_subreaper, log, median, \
    provenance, quantile, reap_all

WORKLOADS = ("solve-rmat", "gateway-mix", "ingest-stream")
#: classes that are requests for latency (ingest session openers are
#: attempted and checked, but are not ops lines)
NOT_LATENCY = ("open",)
#: the span-sum check: |sum(self) + unattributed - wall| / wall
SPAN_SUM_BOUND = 0.01

END_TO_END = (
    ("latency_p50_s", "s"), ("latency_p90_s", "s"), ("arcs_per_s", "1/s"),
    ("completed_share", "share"), ("codelength_bits", "bits"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
)


def end_to_end(run) -> dict[str, float]:
    """The end-to-end metrics of one run.

    Latency percentiles and throughput are taken in each of
    ``run.windows`` equal slices of the timed window (by send time) and
    the median over slices is reported: a few seconds of host stall
    then move one slice, not the result.
    """
    t0 = min(r.t_start for r in run.requests)
    width = run.timed_wall / run.windows
    slices: list[list] = [[] for _ in range(run.windows)]
    for r in run.requests:
        slices[min(int((r.t_start - t0) / width), run.windows - 1)].append(r)
    lat = [[r.latency for r in part if r.cls not in NOT_LATENCY]
           for part in slices]
    done = [r for r in run.requests if r.status == OK]
    arcs = [sum(r.arcs for r in part if r.status == OK) / width
            for part in slices]
    return {
        "latency_p50_s": median([quantile(x, 0.5) for x in lat]),
        "latency_p90_s": median([quantile(x, 0.9) for x in lat]),
        "arcs_per_s": median(arcs),
        "completed_share": len(done) / len(run.requests),
        "codelength_bits": statistics.fmean(run.codelengths.values()),
        "peak_rss_mb": run.peak_rss_mb,
        "setup_s": median(run.setup_samples),
    }


def _execute(workload: str, seed: int, seconds: int, traced: bool):
    """Run ``workload`` once; traced runs also return the span dump and
    each request's span window."""
    if workload == "solve-rmat":
        import solve_rmat

        if not traced:
            return solve_rmat.run(seed, seconds), None, None
        from repro.obs import spans
        from tracing import Tracer, install_layers

        tracer = Tracer()
        install_layers(tracer)
        spans.enable()
        try:
            run = solve_rmat.run(seed, seconds, tracer)
        finally:
            spans.disable()
            tracer.uninstall()
        spans.write_chrome_trace(os.path.join(OUT, "solve-rmat.chrome.json"))
        roots = {r.rid: (r.t_start, r.t_end) for r in run.requests}
        return run, tracer.dump(), roots
    module = __import__(workload.replace("-", "_"))
    dump = os.path.join(OUT, f"{workload}.spans.json") if traced else None
    if dump and os.path.exists(dump):
        os.remove(dump)
    run = module.run(seed, seconds, dump)
    if not traced:
        return run, None, None
    with open(dump) as fh:
        spans = json.load(fh)
    if workload == "ingest-stream":
        first = run.notes["first_row"]
        roots = {r.rid: (r.t_sent, first[r.rid]) for r in run.requests
                 if r.rid in first}
    else:
        roots = {r.rid: (r.t_start, r.t_end) for r in run.requests}
    return run, spans, roots


def layer_metrics(run, dump, roots, untraced: dict, traced: dict) -> dict:
    from tracing import LAYER_SPANS, analyze, count_totals

    a = analyze(dump, roots)
    n = max(1, a["requests"])
    per_req = count_totals(dump, set(roots))
    lifetime = count_totals(dump)
    m: dict[str, float] = {}
    for span in LAYER_SPANS:
        name = "service.self" if span == "service.run_batch" else span
        m[f"{name}_s"] = a["self_s"].get(span, 0.0)
    for name in ("flow.pagerank_iters", "bsp.commit_calls", "bsp.rounds",
                 "bsp.passes", "bsp.levels", "bsp.proposed", "bsp.applied",
                 "parallel.level_publishes", "dynamic.refreshes",
                 "dynamic.full_reruns", "dynamic.frontier_calls",
                 "cache.hits", "cache.misses"):
        m[name] = per_req.get(name, 0) / n
    refreshes = per_req.get("dynamic.refreshes", 0)
    for name in ("dynamic.touched_vertices", "dynamic.frontier_share"):
        m[name] = per_req.get(name, 0) / refreshes if refreshes else 0.0
    m["bsp.apply_ratio"] = (per_req["bsp.applied"] / per_req["bsp.proposed"]
                            if per_req.get("bsp.proposed") else 0.0)
    driver = a["total_s"].get("bsp.driver", 0.0)
    m["bsp.serial_share"] = (
        (driver - a["self_s"].get("bsp.propose", 0.0)) / driver
        if driver else 0.0)
    lookups = per_req.get("cache.hits", 0) + per_req.get("cache.misses", 0)
    m["cache.hit_ratio"] = per_req.get("cache.hits", 0) / lookups \
        if lookups else 0.0
    m["pool.cold_acquires"] = lifetime.get("pool.cold_acquires", 0)

    # per-request service and gateway numbers, from rows and spans
    queue, run_s = {}, {}
    for _sid, parent, rid, name, t0, t1 in dump["spans"]:
        if rid in roots and parent is None:
            if name == "service.queue":
                queue[rid] = queue.get(rid, 0.0) + t1 - t0
            elif name == "service.run_batch":
                run_s[rid] = run_s.get(rid, 0.0) + t1 - t0
    by_class: dict[str, dict[str, list]] = {}
    overhead, hit_lat, shards = [], [], {}
    rows = [r for r in run.requests if r.row and "shard" in r.row]
    for r in rows:
        cls = "cache_hit" if r.row.get("cache_hit") else r.row.get("engine")
        slot = by_class.setdefault(cls, {"queue": [], "run": []})
        slot["run"].append(r.row.get("run_seconds", 0.0))
        if r.rid in queue:
            slot["queue"].append(queue[r.rid])
        if r.status == OK and r.rid in queue and r.rid in run_s \
                and r.rid in roots:
            r0, r1 = roots[r.rid]
            overhead.append((r1 - r0) - queue[r.rid] - run_s[r.rid])
        if r.status == OK and r.row.get("cache_hit"):
            hit_lat.append(r.latency)
        shards[r.row["shard"]] = shards.get(r.row["shard"], 0) + 1
    m["service.run_s"] = median([r.row.get("run_seconds", 0.0)
                                 for r in rows]) if rows else 0.0
    for cls in ("vectorized", "parallel", "cache_hit"):
        slot = by_class.get(cls, {"queue": [], "run": []})
        m[f"service.queue_s.{cls}"] = median(slot["queue"]) \
            if slot["queue"] else 0.0
        m[f"service.run_s.{cls}"] = median(slot["run"]) \
            if slot["run"] else 0.0
    m["cache.hit_latency_p50_s"] = median(hit_lat) if hit_lat else 0.0
    m["router.max_shard_share"] = max(shards.values()) / len(rows) \
        if rows else 0.0
    m["gateway.overhead_s"] = statistics.fmean(overhead) if overhead else 0.0
    m["gateway.lost_lines"] = sum(r.status == "lost" for r in run.requests)
    for reason in ("invalid", "rate_limit", "backpressure"):
        m[f"gateway.rejected.{reason}"] = sum(
            1 for r in run.requests
            if r.row and r.row.get("reject") == reason)
    m["gateway.line_bytes_max"] = max(
        s["line_bytes"] for s in run.sizes.values())
    m["graph.build_s"] = run.notes["graph.build_s"]
    m["trace.requests"] = a["requests"]
    m["trace.wall_s"] = a["wall_s"]
    m["trace.unattributed_s"] = a["unattributed_s"]
    m["trace.span_sum_err"] = a["span_sum_err"]
    m["trace.overhead_s"] = traced["latency_p50_s"] - untraced["latency_p50_s"]
    return m


def _checked(run) -> bool:
    """No result of ``run`` differs from its reference run."""
    return not any(r.status == MISMATCH for r in run.requests) and \
        not run.notes.get("untimed_mismatches")


def unit_of(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith(("_ratio", "_share", "_err")):
        return "share"
    if name.endswith("_bytes_max"):
        return "bytes"
    return "count"


def _report(title: str, metrics: dict, units: dict) -> None:
    print(f"== {title}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:16.6g} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure ({SRC}/repro is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)

    run, _, _ = _execute(args.workload, args.seed, args.seconds, False)
    e2e = end_to_end(run)
    units = dict(END_TO_END)
    correct = _checked(run)
    _report(f"{args.workload} seed={args.seed} (untraced)", e2e, units)
    by_cls: dict[str, list] = {}
    for r in run.requests:
        by_cls.setdefault(r.cls, []).append(r)
    for cls, reqs in sorted(by_cls.items()):
        ok = [r.latency for r in reqs if r.status == OK]
        fails = {s: sum(r.status == s for r in reqs)
                 for s in ("lost", "rejected", MISMATCH)}
        p50 = f"{median(ok):.4f}s" if ok else "-"
        print(f"  class {cls:11s} attempted={len(reqs)} failed={fails} "
              f"p50={p50}")
    failed = sum(r.status != OK for r in run.requests)
    print(f"  failed_share={failed / len(run.requests):.4f} "
          f"requests={len(run.requests)} timed_wall={run.timed_wall:.3f}s")
    result_metrics = e2e
    record = {"untraced": e2e}
    if args.trace:
        traced_run, dump, roots = _execute(
            args.workload, args.seed, args.seconds, True)
        traced = end_to_end(traced_run)
        correct = correct and _checked(traced_run)
        layers = layer_metrics(traced_run, dump, roots, e2e, traced)
        if layers["trace.span_sum_err"] > SPAN_SUM_BOUND:
            log(f"span-sum check failed: {layers['trace.span_sum_err']:.4f}"
                f" > {SPAN_SUM_BOUND}")
            correct = False
        _report("traced end-to-end (tracing overhead = traced - untraced)",
                traced, units)
        units.update({k: unit_of(k) for k in layers})
        _report("per layer (seconds and counts per request)", layers, units)
        result_metrics = layers
        run = traced_run
        record.update(traced=traced, layers=layers)
    record["provenance"] = provenance(args.workload, args.seed, args.seconds,
                                      bool(args.trace), run.sizes)
    record["notes"] = {k: v for k, v in run.notes.items() if k != "first_row"}
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print("notes " + json.dumps(record["notes"], sort_keys=True))
    with open(os.path.join(
            OUT, f"{args.workload}-{args.seed}-t{args.trace}.json"),
            "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct,
        "attempted": len(run.requests),
        "failed": sum(r.status != OK for r in run.requests),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in result_metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # a SIGTERM unwinds like an exit, so the reaping below still runs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    become_subreaper()
    try:
        code = main()
    finally:
        reap_all()
    sys.exit(code)
