"""Recovery-overhead benchmark for the parallel engine's supervisor.

The supervisor in :mod:`repro.core.parallel` recovers killed, hung, or
corrupted workers by respawning them and replaying the failed barrier
(see ``docs/architecture.md``).  Correctness is gated exhaustively by
``tests/test_fault_injection.py``; this bench measures what recovery
*costs*: the wall-clock overhead of a faulted run over the fault-free
run that it is bit-identical to.

Per fault kind it records, into ``BENCH_faults.json`` at the repo root:

* fault-free wall time vs faulted wall time on the same graph and seed;
* the absolute overhead and overhead ratio of the injected recovery;
* how many respawns the supervisor performed.

There is deliberately **no perf-gate floor** here: respawn cost is
dominated by process fork time, which varies wildly across hosts, and a
fault is an exceptional event — the number to watch longitudinally is
the overhead ratio, not an absolute threshold.

Run it::

    PYTHONPATH=src python -m pytest benchmarks/bench_fault_recovery.py -q
"""

import time
from pathlib import Path

import numpy as np

from _record import bench_record, write_bench
from repro.core.faults import SLOW_SECONDS, FaultPlan, FaultSpec
from repro.core.parallel import run_infomap_parallel
from repro.graph import graph_digest
from repro.graph.generators import planted_partition
from repro.util.tables import Table

_REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = _REPO_ROOT / "BENCH_faults.json"

WORKERS = 2
SEED = 7
#: wide enough that only real faults trip the deadline, tight enough
#: that a hung worker is detected quickly on any host
TIMEOUT = max(2.0, SLOW_SECONDS * 4)

#: fault kind -> plan hitting both workers early in the run, where the
#: propose shards are largest and replay is most expensive
PLANS = {
    "kill": FaultPlan((
        FaultSpec("kill", worker=0, barrier=0),
        FaultSpec("kill", worker=1, barrier=1),
    )),
    "hang": FaultPlan((FaultSpec("hang", worker=0, barrier=1),)),
    "corrupt": FaultPlan((FaultSpec("corrupt", worker=1, barrier=0),)),
    "slow": FaultPlan((FaultSpec("slow", worker=0, barrier=0),)),
}


def _graph():
    g, _ = planted_partition(20, 100, 0.12, 0.004, seed=5)
    return g


def _timed_run(graph, **kwargs):
    t0 = time.perf_counter()
    r = run_infomap_parallel(graph, workers=WORKERS, seed=SEED, **kwargs)
    return r, time.perf_counter() - t0


def test_record_fault_recovery_overhead(show):
    graph = _graph()
    # warm run absorbs fork/bind cost so the baseline is honest
    run_infomap_parallel(graph, workers=WORKERS, seed=SEED, max_levels=2)
    base, base_wall = _timed_run(graph)

    points = []
    for kind, plan in PLANS.items():
        # "hang" needs the deadline to fire; others detect instantly, but
        # a uniform timeout keeps the comparison across kinds fair
        r, wall = _timed_run(
            graph, fault_plan=plan, worker_timeout=TIMEOUT
        )
        # recovery must never change the answer — same promise the chaos
        # suite gates, re-checked here so the numbers are trustworthy
        assert np.array_equal(r.modules, base.modules), kind
        assert r.codelength == base.codelength, kind
        points.append({
            "fault_kind": kind,
            "plan": str(plan),
            "faults_injected": sum(r.faults_injected.values()),
            "respawns": int(r.respawns),
            "wall_seconds": wall,
            "overhead_seconds": wall - base_wall,
            "overhead_ratio": wall / base_wall if base_wall > 0 else 0.0,
        })

    t = Table(
        "Recovery overhead vs fault-free run (bit-identical partitions)",
        ["Fault", "respawns", "wall", "overhead", "ratio"],
    )
    t.add_row(["(none)", 0, f"{base_wall * 1e3:.0f} ms", "-", "1.00x"])
    for p in points:
        t.add_row([
            p["fault_kind"], p["respawns"],
            f"{p['wall_seconds'] * 1e3:.0f} ms",
            f"{p['overhead_seconds'] * 1e3:+.0f} ms",
            f"{p['overhead_ratio']:.2f}x",
        ])
    show(t)

    digest = graph_digest(graph)
    write_bench(
        "repro.bench_faults/v2",
        {
            "metric": "wall-clock overhead of supervisor recovery (respawn "
                      "+ barrier replay) over the bit-identical fault-free "
                      "run, per fault kind",
            "graph": {
                "family": "planted_mid",
                "digest": digest,
                "vertices": int(graph.num_vertices),
                "arcs": int(graph.num_arcs),
            },
            "workers": WORKERS,
            "seed": SEED,
            "worker_timeout": TIMEOUT,
            "fault_free_wall_seconds": base_wall,
            "points": points,
        },
        BENCH_JSON,
        ledger_records=[
            bench_record(
                "bench_fault_recovery",
                config={
                    "bench": "fault_recovery",
                    "graph": digest,
                    "engine": "parallel",
                    "workers": WORKERS,
                    "seed": SEED,
                    "fault_kind": p["fault_kind"],
                },
                telemetry={
                    "faults_injected": p["faults_injected"],
                    "respawns": p["respawns"],
                },
                perf={
                    "wall_seconds": p["wall_seconds"],
                    "overhead_seconds": p["overhead_seconds"],
                    "overhead_ratio": p["overhead_ratio"],
                },
                label=f"faults/{p['fault_kind']}",
            )
            for p in points
        ],
    )

    # shape invariants: every kill/hang/corrupt plan actually fired and
    # forced at least one respawn; slow is tolerated (no respawn)
    by_kind = {p["fault_kind"]: p for p in points}
    for kind in ("kill", "hang", "corrupt"):
        assert by_kind[kind]["faults_injected"] >= 1, kind
        assert by_kind[kind]["respawns"] >= 1, kind
    assert by_kind["slow"]["respawns"] == 0
