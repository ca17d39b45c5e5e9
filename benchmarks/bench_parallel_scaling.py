"""Scaling benchmark and perf-regression gate for the real
process-parallel engine.

The ``parallel`` engine runs the BSP propose/commit schedule on real
worker processes over shared memory (``repro.core.parallel``); its whole
reason to exist is that the propose sweep — the FindBestCommunity hot
path the paper accelerates — scales with workers.  This bench makes
that *enforceable*:

* per family it measures **sweep throughput** (proposed vertices per
  second of master-observed propose wall,
  :attr:`repro.core.parallel.ParallelResult.sweep_throughput`) at 1, 2,
  and 4 workers on identical graphs;
* the 4-vs-1-worker throughput ratio is gated against the checked-in
  floor in ``benchmarks/baselines/parallel_baseline.json`` by the test
  marked ``perf_gate`` — it skips on machines with fewer than 4 CPUs,
  where the ratio measures oversubscription, not scaling (CI's 4-vCPU
  runners enforce it);
* absolute throughputs, wall times, and partition quality are recorded
  into ``BENCH_parallel.json`` at the repo root, with a ``cpus`` field
  so longitudinal readers can judge each sample.

Run everything::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_scaling.py -q

Run only the regression gate (what CI does)::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_scaling.py \
        -m perf_gate -q
"""

import json
import os
import time
from pathlib import Path

import pytest

from _record import bench_record, update_bench
from repro.core.parallel import run_infomap_parallel
from repro.graph import graph_digest
from repro.graph.datasets import load_dataset
from repro.graph.generators import planted_partition
from repro.util.tables import Table

_REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = _REPO_ROOT / "BENCH_parallel.json"
BASELINE_JSON = (
    Path(__file__).resolve().parent / "baselines" / "parallel_baseline.json"
)

WORKER_COUNTS = (1, 2, 4)


def _planted_mid():
    g, _ = planted_partition(20, 100, 0.12, 0.004, seed=5)
    return g


def _orkut_surrogate():
    return load_dataset("orkut")


#: family name -> deterministic graph builder; ``orkut_surrogate`` is
#: the largest Table I surrogate — the graph the gate runs on.
FAMILIES = {
    "planted_mid": _planted_mid,
    "orkut_surrogate": _orkut_surrogate,
}

_MEASUREMENTS: dict[tuple[str, int], dict] = {}


def measure(family: str, workers: int) -> dict:
    """Measure one (family, workers) point (cached for the session)."""
    key = (family, workers)
    if key in _MEASUREMENTS:
        return _MEASUREMENTS[key]
    graph = FAMILIES[family]()
    # warm run: absorbs fork/bind cost and page-faults the dataset cache
    run_infomap_parallel(graph, workers=workers, max_levels=2)
    t0 = time.perf_counter()
    r = run_infomap_parallel(graph, workers=workers)
    wall = time.perf_counter() - t0
    rec = {
        "family": family,
        "workers": workers,
        "graph_digest": graph_digest(graph),
        "vertices": int(graph.num_vertices),
        "arcs": int(graph.num_arcs),
        "sweep_vertices_per_s": r.sweep_throughput,
        "propose_seconds": r.propose_seconds,
        "proposed_vertices": int(r.proposed_vertices),
        "wall_seconds": wall,
        "codelength_bits": float(r.codelength),
        "num_modules": int(r.num_modules),
        "levels": int(r.levels),
    }
    _MEASUREMENTS[key] = rec
    return rec


def _baseline() -> dict:
    with open(BASELINE_JSON) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# recording: all (family, workers) points -> BENCH_parallel.json
# ----------------------------------------------------------------------

def test_record_parallel_scaling(show):
    cpus = os.cpu_count() or 1
    recs = [measure(f, w) for f in FAMILIES for w in WORKER_COUNTS]
    t = Table(
        f"Parallel-engine sweep throughput ({cpus} CPUs on this host)",
        ["Family", "|V|", "workers", "sweep verts/s", "propose s",
         "total wall", "L (bits)"],
    )
    for r in recs:
        t.add_row([
            r["family"], r["vertices"], r["workers"],
            f"{r['sweep_vertices_per_s']:,.0f}",
            f"{r['propose_seconds'] * 1e3:.0f} ms",
            f"{r['wall_seconds'] * 1e3:.0f} ms",
            f"{r['codelength_bits']:.4f}",
        ])
    show(t)

    # update_bench: BENCH_parallel.json is shared with bench_bigscale.py
    # (which owns the "bigscale" section) — merge, don't clobber
    update_bench(
        "repro.bench_parallel/v2",
        {
            "metric": "parallel-engine sweep throughput (proposed vertices "
                      "per second of master-observed propose wall) at 1/2/4 "
                      "real worker processes",
            "cpus": cpus,
            "points": recs,
        },
        BENCH_JSON,
        ledger_records=[
            bench_record(
                "bench_parallel_scaling",
                config={
                    "bench": "parallel_scaling",
                    "family": r["family"],
                    "graph": r["graph_digest"],
                    "engine": "parallel",
                    "workers": r["workers"],
                    "seed": 0,
                },
                telemetry={
                    "codelength": r["codelength_bits"],
                    "num_modules": r["num_modules"],
                    "levels": r["levels"],
                },
                perf={
                    "sweep_vertices_per_s": r["sweep_vertices_per_s"],
                    "propose_seconds": r["propose_seconds"],
                    "wall_seconds": r["wall_seconds"],
                },
                label=f"{r['family']}/w{r['workers']}",
            )
            for r in recs
        ],
    )

    # shape invariants that hold even on a 1-CPU host: every point ran,
    # and worker count never changes the found partition's codelength
    for f in FAMILIES:
        ls = {measure(f, w)["codelength_bits"] for w in WORKER_COUNTS}
        assert max(ls) - min(ls) < 1e-9, (
            f"{f}: codelength varies with worker count: {sorted(ls)}"
        )
    assert all(r["sweep_vertices_per_s"] > 0 for r in recs)


# ----------------------------------------------------------------------
# perf gate: 4-worker sweep throughput must beat 1-worker by the floor
# ----------------------------------------------------------------------

@pytest.mark.perf_gate
def test_perf_gate_parallel_scaling(show):
    cpus = os.cpu_count() or 1
    if cpus < 4:
        pytest.skip(
            f"only {cpus} CPU(s): the 4-worker ratio would measure "
            f"oversubscription, not scaling (CI enforces this gate)"
        )
    base = _baseline()
    floor = base["min_speedup_4_workers"]
    tolerance = base["tolerance"]
    r1 = measure("orkut_surrogate", 1)
    r4 = measure("orkut_surrogate", 4)
    speedup = r4["sweep_vertices_per_s"] / r1["sweep_vertices_per_s"]
    show(
        f"perf-gate parallel scaling: 4-worker sweep throughput "
        f"{speedup:.2f}x the 1-worker baseline (floor {floor}x, "
        f"tolerance {tolerance})"
    )
    assert speedup >= floor * (1.0 - tolerance), (
        f"4-worker sweep throughput only {speedup:.2f}x the 1-worker "
        f"baseline (floor {floor}x, tolerance {tolerance}); the "
        f"process-parallel propose path has regressed"
    )
