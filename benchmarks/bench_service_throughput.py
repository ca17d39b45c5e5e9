"""Throughput benchmark and perf-regression gate for the job service.

The service's reason to exist is amortization: a cold
``run_infomap_parallel`` call pays fork + pipe handshake for every job,
while :class:`repro.service.JobService` keeps pools warm so job N+1
pays only the run (docs/service.md).  This bench makes that claim
*enforceable*:

* it runs the same batch of jobs twice on a 4-worker planted-partition
  workload — **cold** (a fresh engine call per job, the pre-service
  spelling) and **warm** (one service draining the batch, result cache
  *disabled* so the speedup measures pools alone, never cache hits);
* asserts every warm partition is bit-identical to its cold twin;
* the warm-vs-cold batch speedup is gated against the checked-in floor
  in ``benchmarks/baselines/service_baseline.json`` by the test marked
  ``perf_gate`` — skipped on hosts with fewer than 4 CPUs, where fork
  cost and oversubscription mix (CI's 4-vCPU runners enforce it);
* a separate cache-enabled pass records hit-path latency into the
  ``BENCH_service.json`` artifact at the repo root.

Run everything::

    PYTHONPATH=src python -m pytest benchmarks/bench_service_throughput.py -q

Run only the regression gate (what CI does)::

    PYTHONPATH=src python -m pytest benchmarks/bench_service_throughput.py \
        -m perf_gate -q
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from _record import bench_record, write_bench
from repro.core.parallel import run_infomap_parallel
from repro.graph import graph_digest
from repro.graph.generators import planted_partition
from repro.service import JobService, JobSpec
from repro.util.tables import Table

_REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = _REPO_ROOT / "BENCH_service.json"
BASELINE_JSON = (
    Path(__file__).resolve().parent / "baselines" / "service_baseline.json"
)

WORKERS = 4
#: distinct seeds -> distinct jobs, so the warm pass cannot cache-hit
#: even by accident (the cache is also disabled outright)
SEEDS = tuple(range(8))

_MEASUREMENTS: dict = {}


def _graph():
    g, _ = planted_partition(4, 25, 0.45, 0.02, seed=11)
    return g


def measure() -> dict:
    """Run the cold and warm batches once per session."""
    if _MEASUREMENTS:
        return _MEASUREMENTS
    graph = _graph()

    # cold: the pre-service spelling — every job forks its own pool
    t0 = time.perf_counter()
    cold = [
        run_infomap_parallel(graph, workers=WORKERS, seed=s) for s in SEEDS
    ]
    cold_wall = time.perf_counter() - t0

    # warm: one service, cache disabled so pools are the only amortizer
    with JobService(cache_entries=0) as svc:
        specs = [
            JobSpec(graph=graph, engine="parallel", workers=WORKERS, seed=s)
            for s in SEEDS
        ]
        t0 = time.perf_counter()
        warm = svc.run_batch(specs)
        warm_wall = time.perf_counter() - t0
        pool_stats = svc.pools.stats()

    # cache-enabled pass: resubmit one spec twice, record the hit latency
    with JobService(cache_entries=8) as svc:
        spec = JobSpec(graph=graph, engine="parallel", workers=WORKERS, seed=0)
        (miss,) = svc.run_batch([spec])
        (hit,) = svc.run_batch([spec])

    _MEASUREMENTS.update(
        {
            "graph_digest": graph_digest(graph),
            "graph_vertices": int(graph.num_vertices),
            "graph_arcs": int(graph.num_arcs),
            "workers": WORKERS,
            "jobs": len(SEEDS),
            "cold_wall_seconds": cold_wall,
            "warm_wall_seconds": warm_wall,
            "warm_speedup": cold_wall / warm_wall,
            "cold_jobs_per_s": len(SEEDS) / cold_wall,
            "warm_jobs_per_s": len(SEEDS) / warm_wall,
            "warm_hits": pool_stats["warm_hits"],
            "cold_spawns": pool_stats["cold_spawns"],
            "cache_miss_seconds": miss.run_seconds,
            "cache_hit_seconds": hit.run_seconds,
            "cache_hit": bool(hit.cache_hit),
            "_cold_results": cold,
            "_warm_results": warm,
        }
    )
    return _MEASUREMENTS


def _baseline() -> dict:
    with open(BASELINE_JSON) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# recording: batch walls + cache latency -> BENCH_service.json
# ----------------------------------------------------------------------

def test_record_service_throughput(show):
    cpus = os.cpu_count() or 1
    m = measure()

    t = Table(
        f"Job-service throughput — {m['jobs']} jobs x {WORKERS} workers "
        f"({cpus} CPUs on this host)",
        ["Batch", "wall", "jobs/s", "note"],
    )
    t.add_row(["cold (fork per job)", f"{m['cold_wall_seconds']*1e3:.0f} ms",
               f"{m['cold_jobs_per_s']:.1f}", "pre-service spelling"])
    t.add_row(["warm (one service)", f"{m['warm_wall_seconds']*1e3:.0f} ms",
               f"{m['warm_jobs_per_s']:.1f}",
               f"{m['warm_hits']} warm hits, {m['cold_spawns']} spawn"])
    t.add_row(["cache hit", f"{m['cache_hit_seconds']*1e3:.2f} ms", "-",
               f"vs {m['cache_miss_seconds']*1e3:.0f} ms miss"])
    show(t)
    show(f"warm-over-cold batch speedup: {m['warm_speedup']:.2f}x")

    write_bench(
        "repro.bench_service/v2",
        {
            "metric": "job-service batch wall: warm pools (one service "
                      "draining the batch, cache disabled) vs cold (a "
                      "fresh engine call per job), plus cache hit latency",
            "cpus": cpus,
            "points": {k: v for k, v in m.items() if not k.startswith("_")},
        },
        BENCH_JSON,
        ledger_records=[
            bench_record(
                "bench_service_throughput",
                config={
                    "bench": "service_throughput",
                    "graph": m["graph_digest"],
                    "engine": "parallel",
                    "workers": WORKERS,
                    "jobs": len(SEEDS),
                },
                perf={
                    "warm_speedup": m["warm_speedup"],
                    "cold_wall_seconds": m["cold_wall_seconds"],
                    "warm_wall_seconds": m["warm_wall_seconds"],
                    "warm_jobs_per_s": m["warm_jobs_per_s"],
                    "cache_hit_seconds": m["cache_hit_seconds"],
                    "cache_miss_seconds": m["cache_miss_seconds"],
                },
                label=f"service/{len(SEEDS)}jobs/w{WORKERS}",
            )
        ],
    )

    # shape invariants that hold even on a 1-CPU host
    assert all(r.ok for r in m["_warm_results"])
    assert m["cache_hit"], "second identical job should be a cache hit"
    for cold_r, warm_r in zip(m["_cold_results"], m["_warm_results"]):
        assert np.array_equal(cold_r.modules, warm_r.modules), (
            "warm-pool partition differs from its cold twin"
        )
        assert cold_r.codelength == warm_r.codelength
    # every job after the first must have found the pool warm
    assert m["warm_hits"] == m["jobs"] - 1
    assert m["cold_spawns"] == 1


# ----------------------------------------------------------------------
# perf gate: the warm batch must beat the cold batch by the floor
# ----------------------------------------------------------------------

@pytest.mark.perf_gate
def test_perf_gate_service_warm_speedup(show):
    cpus = os.cpu_count() or 1
    if cpus < 4:
        pytest.skip(
            f"only {cpus} CPU(s): 4-worker fork cost and oversubscription "
            f"mix below 4 CPUs (CI enforces this gate)"
        )
    base = _baseline()
    floor = base["min_warm_speedup"]
    tolerance = base["tolerance"]
    m = measure()
    speedup = m["warm_speedup"]
    show(
        f"perf-gate service throughput: warm batch {speedup:.2f}x the "
        f"cold batch (floor {floor}x, tolerance {tolerance})"
    )
    assert speedup >= floor * (1.0 - tolerance), (
        f"warm batch only {speedup:.2f}x the cold batch "
        f"(floor {floor}x, tolerance {tolerance}); warm pools are no "
        f"longer amortizing fork+handshake"
    )
