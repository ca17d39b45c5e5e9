"""Throughput benchmark and perf-regression gate for the async gateway.

The gateway's job is to add admission control, shard routing, and
streaming delivery **without** giving back the throughput the job
service already earned (docs/service.md).  This bench makes that claim
enforceable:

* it runs the same batch of distinct vectorized jobs twice — **direct**
  (one synchronous :class:`repro.service.JobService` draining the batch,
  the pre-gateway spelling) and **gatewayed** (the same jobs shipped as
  JSONL over a real socket to a 2-shard :class:`repro.service.gateway.
  Gateway`, results streamed back), result caches disabled on both sides
  so the ratio measures dispatch overhead, never cache hits;
* asserts every streamed result is bit-identical to its direct twin;
* the sustained gateway-over-direct throughput ratio is gated against
  the checked-in floor in ``benchmarks/baselines/gateway_baseline.json``
  by the test marked ``perf_gate`` — skipped on hosts with fewer than
  4 CPUs (CI's 4-vCPU runners enforce it);
* the ``BENCH_gateway.json`` artifact records the batch walls plus one
  ledger row **per shard** so ``repro trend`` can watch skew between
  shards across commits, not just the aggregate.

Run everything::

    PYTHONPATH=src python -m pytest benchmarks/bench_gateway_throughput.py -q

Run only the regression gate (what CI does)::

    PYTHONPATH=src python -m pytest benchmarks/bench_gateway_throughput.py \
        -m perf_gate -q
"""

import asyncio
import json
import os
import time
from pathlib import Path

import pytest

from _record import bench_record, write_bench
from repro.graph import graph_digest
from repro.graph.generators import planted_partition
from repro.service import JobService, JobSpec
from repro.service.gateway import Gateway, GatewayConfig, graph_to_wire
from repro.util.tables import Table

_REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = _REPO_ROOT / "BENCH_gateway.json"
BASELINE_JSON = (
    Path(__file__).resolve().parent / "baselines" / "gateway_baseline.json"
)

SHARDS = 2
#: distinct seeds -> distinct cache keys, so shard routing actually
#: spreads the batch and neither pass can cache-hit (caches are also
#: disabled outright)
SEEDS = tuple(range(24))

_MEASUREMENTS: dict = {}


def _graph():
    g, _ = planted_partition(4, 25, 0.45, 0.02, seed=11)
    return g


def _specs(graph):
    return [
        JobSpec(graph=graph, engine="vectorized", workers=1, seed=s)
        for s in SEEDS
    ]


async def _gateway_pass(graph) -> dict:
    """Ship the batch over a real socket; return rows + wall + stats."""
    gw = Gateway(GatewayConfig(
        shards=SHARDS,
        queue_depth=len(SEEDS) + 8,   # admission never bounds the bench
        cache_entries=0,
        tenant_rate=1e9,
        tenant_burst=1e9,
    ))
    await gw.start("127.0.0.1", 0)
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", gw.port)
        wire = graph_to_wire(graph)
        t0 = time.perf_counter()
        for s in SEEDS:
            line = dict(wire)
            line.update({
                "engine": "vectorized", "workers": 1, "seed": s,
                "tenant": "bench", "id": f"job-{s}",
            })
            writer.write(json.dumps(line).encode() + b"\n")
        await writer.drain()
        writer.write_eof()
        rows = []
        while True:
            raw = await reader.readline()
            if not raw:
                break
            rows.append(json.loads(raw))
        wall = time.perf_counter() - t0
        writer.close()
        return {"rows": rows, "wall": wall, "stats": dict(gw.stats)}
    finally:
        await gw.stop()


def measure() -> dict:
    """Run the direct and gatewayed batches once per session."""
    if _MEASUREMENTS:
        return _MEASUREMENTS
    graph = _graph()

    # direct: the pre-gateway spelling — one sync service, no socket
    with JobService(cache_entries=0) as svc:
        t0 = time.perf_counter()
        direct = svc.run_batch(_specs(graph))
        direct_wall = time.perf_counter() - t0

    gwp = asyncio.run(_gateway_pass(graph))
    rows = gwp["rows"]
    per_shard: dict[str, int] = {}
    for row in rows:
        per_shard[row["shard"]] = per_shard.get(row["shard"], 0) + 1

    _MEASUREMENTS.update(
        {
            "graph_digest": graph_digest(graph),
            "graph_vertices": int(graph.num_vertices),
            "graph_arcs": int(graph.num_arcs),
            "shards": SHARDS,
            "jobs": len(SEEDS),
            "direct_wall_seconds": direct_wall,
            "gateway_wall_seconds": gwp["wall"],
            "direct_jobs_per_s": len(SEEDS) / direct_wall,
            "gateway_jobs_per_s": len(SEEDS) / gwp["wall"],
            "throughput_ratio": direct_wall / gwp["wall"],
            "per_shard_jobs": per_shard,
            "gateway_stats": {
                k: v for k, v in gwp["stats"].items()
                if isinstance(v, (int, float))
            },
            "_direct_results": direct,
            "_rows": rows,
        }
    )
    return _MEASUREMENTS


def _baseline() -> dict:
    with open(BASELINE_JSON) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# recording: batch walls + per-shard split -> BENCH_gateway.json
# ----------------------------------------------------------------------

def test_record_gateway_throughput(show):
    cpus = os.cpu_count() or 1
    m = measure()

    t = Table(
        f"Gateway throughput — {m['jobs']} jobs over {SHARDS} shards "
        f"({cpus} CPUs on this host)",
        ["Batch", "wall", "jobs/s", "note"],
    )
    t.add_row(["direct (sync service)",
               f"{m['direct_wall_seconds']*1e3:.0f} ms",
               f"{m['direct_jobs_per_s']:.1f}", "pre-gateway spelling"])
    shard_note = ", ".join(
        f"{name}:{n}" for name, n in sorted(m["per_shard_jobs"].items())
    )
    t.add_row(["gatewayed (socket, 2 shards)",
               f"{m['gateway_wall_seconds']*1e3:.0f} ms",
               f"{m['gateway_jobs_per_s']:.1f}", shard_note])
    show(t)
    show(f"gateway-over-direct throughput ratio: "
         f"{m['throughput_ratio']:.2f}x")

    write_bench(
        "repro.bench_gateway/v1",
        {
            "metric": "gateway batch wall: JSONL-over-socket through a "
                      "2-shard gateway vs one synchronous JobService "
                      "draining the same batch (caches disabled on both)",
            "cpus": cpus,
            "points": {k: v for k, v in m.items() if not k.startswith("_")},
        },
        BENCH_JSON,
        ledger_records=[
            bench_record(
                "bench_gateway_throughput",
                config={
                    "bench": "gateway_throughput",
                    "graph": m["graph_digest"],
                    "engine": "vectorized",
                    "shards": SHARDS,
                    "shard": name,
                    "jobs": len(SEEDS),
                },
                perf={
                    "shard_jobs": count,
                    "shard_share": count / len(SEEDS),
                    "throughput_ratio": m["throughput_ratio"],
                    "gateway_jobs_per_s": m["gateway_jobs_per_s"],
                    "direct_jobs_per_s": m["direct_jobs_per_s"],
                },
                label=f"gateway/{len(SEEDS)}jobs/{name}",
            )
            for name, count in sorted(m["per_shard_jobs"].items())
        ],
    )

    # shape invariants that hold even on a 1-CPU host
    rows = {r["id"]: r for r in m["_rows"]}
    assert len(rows) == m["jobs"]
    for spec_seed, ref in zip(SEEDS, m["_direct_results"]):
        row = rows[f"job-{spec_seed}"]
        assert row["status"] == "completed", row
        assert row["num_modules"] == ref.num_modules, spec_seed
        assert row["codelength"] == ref.codelength, spec_seed
    # rendezvous routing spread the batch: both shards saw work
    assert len(m["per_shard_jobs"]) == SHARDS, m["per_shard_jobs"]
    assert m["gateway_stats"]["accepted"] == m["jobs"]
    assert m["gateway_stats"]["rejected"] == 0


# ----------------------------------------------------------------------
# perf gate: gatewayed throughput must stay near the direct batch
# ----------------------------------------------------------------------

@pytest.mark.perf_gate
def test_perf_gate_gateway_throughput_ratio(show):
    cpus = os.cpu_count() or 1
    if cpus < 4:
        pytest.skip(
            f"only {cpus} CPU(s): 2 shard executors + the event loop "
            f"oversubscribe below 4 CPUs (CI enforces this gate)"
        )
    base = _baseline()
    floor = base["min_throughput_ratio"]
    tolerance = base["tolerance"]
    m = measure()
    ratio = m["throughput_ratio"]
    show(
        f"perf-gate gateway throughput: {ratio:.2f}x the direct batch "
        f"(floor {floor}x, tolerance {tolerance})"
    )
    assert ratio >= floor * (1.0 - tolerance), (
        f"gatewayed batch only {ratio:.2f}x the direct batch "
        f"(floor {floor}x, tolerance {tolerance}); socket framing or "
        f"shard dispatch is eating the service's amortization"
    )
