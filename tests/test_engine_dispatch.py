"""One multilevel driver, one dispatch.

* **Partition pins.**  ``tests/data/vectorized_pins.json`` holds the
  sha256 of ``modules``, the codelength, the round count and the level
  count of ``run_infomap_vectorized`` as recorded from the engine's
  former stand-alone loop (the 4 conformance families x seeds {0, 1, 2}
  x round caps {1, 10, 30}, plus the ``amazon`` surrogate at cap 10 for
  seed 0 and for the ``ingest-stream`` benchmark's first base solve).
  The engine now runs the shared BSP driver and must reproduce every
  partition exactly; codelengths may differ only in the last bits (the
  driver adds the level's flat offset as one term).
* **Result-determining fields reach the engine.**  ``run_infomap``'s
  ``max_passes_per_level`` and a job's ``chunk`` change the vectorized
  run's pass / round counts.
* **Deadlines for every batched engine** (served jobs for the serving
  engines, ``run_infomap`` for ``multicore``).
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

import repro.core.bsp as bsp
from repro.core.bsp import DeadlineExceeded
from repro.core.infomap import run_infomap
from repro.core.vectorized import run_infomap_vectorized
from repro.service import JobService, JobSpec
from repro.service.jobs import STATUS_CANCELLED, STATUS_COMPLETED

from tests.test_engine_conformance import FAMILIES

with open(os.path.join(os.path.dirname(__file__), "data",
                       "vectorized_pins.json")) as fh:
    PINS = json.load(fh)


def _digest(modules: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(modules, dtype=np.int64).tobytes()
    ).hexdigest()


def _assert_pinned(result, pin) -> None:
    assert _digest(result.modules) == pin["modules_sha256"]
    assert abs(result.codelength - pin["codelength"]) <= 1e-12
    assert result.rounds == pin["rounds"]
    assert result.levels == pin["levels"]


@pytest.mark.parametrize(
    "pin", PINS["families"],
    ids=lambda p: f"{p['family']}-s{p['seed']}-cap{p['cap']}",
)
def test_vectorized_partitions_pinned(pin):
    g, _ = FAMILIES[pin["family"]](pin["seed"])
    r = run_infomap_vectorized(
        g, seed=pin["seed"], max_rounds_per_level=pin["cap"]
    )
    _assert_pinned(r, pin)


@pytest.mark.parametrize("pin", PINS["amazon"], ids=lambda p: f"s{p['seed']}")
def test_vectorized_amazon_partition_pinned(pin):
    from repro.graph.datasets import load_dataset

    r = run_infomap_vectorized(
        load_dataset("amazon"), seed=pin["seed"],
        max_rounds_per_level=pin["cap"],
    )
    _assert_pinned(r, pin)


def test_vectorized_is_bsp_at_one_shard_with_full_sweeps():
    """Every pass of a cold vectorized run sweeps the whole level."""
    g, _ = FAMILIES["undirected"](0)
    tele = run_infomap_vectorized(g, seed=0).telemetry
    size = {lv.level: lv.vertices for lv in tele.levels}
    assert len(tele.passes) > len(tele.levels)
    assert all(p.active_vertices == size[p.level] for p in tele.passes)


# ---------------------------------------------------------------------------
# result-determining fields reach the vectorized engine


def test_run_infomap_honours_max_passes_for_vectorized():
    g, _ = FAMILIES["undirected"](0)
    capped = run_infomap(g, engine="vectorized", max_passes_per_level=1)
    assert capped.rounds == capped.levels  # one pass per level
    default = run_infomap(g, engine="vectorized")
    assert default.rounds > default.levels
    direct = run_infomap_vectorized(g)  # None -> the engine's own default
    assert np.array_equal(default.modules, direct.modules)
    assert default.rounds == direct.rounds


def _total_rounds(monkeypatch) -> list[int]:
    seen: list[int] = []
    real = bsp.run_bsp_infomap

    def spy(*args, **kwargs):
        outcome = real(*args, **kwargs)
        seen.append(sum(p.rounds for p in outcome.passes))
        return outcome

    monkeypatch.setattr(bsp, "run_bsp_infomap", spy)
    return seen


def test_cold_vectorized_job_honours_chunk(monkeypatch):
    g, _ = FAMILIES["undirected"](0)
    seen = _total_rounds(monkeypatch)
    with JobService(cache_entries=0) as svc:
        whole, chunked = svc.run_batch([
            JobSpec(graph=g, engine="vectorized", workers=1),
            JobSpec(graph=g, engine="vectorized", workers=1, chunk=8),
        ])
    assert whole.ok and chunked.ok
    assert len(seen) == 2
    assert seen[1] > seen[0]  # 80 vertices in rounds of 8


# ---------------------------------------------------------------------------
# deadlines: every batched engine, one code path (the driver's barrier)


@pytest.mark.parametrize("engine,workers", [
    ("vectorized", 1), ("parallel", 2),
])
def test_tiny_deadline_cancels_every_batched_engine(engine, workers):
    g, _ = FAMILIES["undirected"](0)
    with JobService() as svc:
        doomed, after = svc.run_batch([
            JobSpec(graph=g, engine=engine, workers=workers, deadline=1e-9),
            JobSpec(graph=g, engine=engine, workers=workers, deadline=600.0),
        ])
    assert doomed.status == STATUS_CANCELLED
    assert "deadline" in doomed.error
    assert after.status == STATUS_COMPLETED


def test_tiny_deadline_cancels_multicore_run():
    """``multicore`` is no serving engine; its runs cancel at the same
    barrier through ``run_infomap``, and a generous budget completes."""
    g, _ = FAMILIES["undirected"](0)
    with pytest.raises(DeadlineExceeded, match="barrier 0"):
        run_infomap(g, engine="multicore", workers=2, deadline=1e-9)
    assert run_infomap(g, engine="multicore", workers=2,
                       deadline=600.0).num_modules >= 1


def test_driver_raises_deadline_at_first_barrier():
    g, _ = FAMILIES["undirected"](0)
    with pytest.raises(DeadlineExceeded, match="barrier 0"):
        run_infomap(g, engine="vectorized", deadline=1e-9)


def test_deadline_rejected_for_sequential_engine():
    g, _ = FAMILIES["undirected"](0)
    with pytest.raises(ValueError, match="batched engines"):
        run_infomap(g, deadline=1.0)
