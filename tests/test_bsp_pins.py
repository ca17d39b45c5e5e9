"""Exact pins for the P>1 BSP schedule.

``tests/data/bsp_pins.json`` holds, for every conformance family x
seeds {0, 1}, the result of five runs of the shared BSP driver:

* ``multicore`` at P=2;
* ``parallel`` at P=2 with whole-shard rounds (``chunk=None``) and with
  chunked rounds (``chunk=64``, and ``chunk=8``, which on these 80-vertex
  graphs forces several commits per pass);
* one ``dynamic.warm_refresh`` on ``parallel`` at P=2.

Each pin stores the sha256 of ``modules``, ``codelength.hex()`` and every
pass's ``(rounds, proposed, applied)``.  The pins are exact: any change
to the commit, the worklist or the codelength arithmetic that moves one
float bit or one backoff decision fails here.

Re-record (only when a change is *meant* to move partitions) with::

    PYTHONPATH=src python -m tests.test_bsp_pins
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

import repro.core.multicore as multicore
import repro.core.parallel as parallel
from repro.core.dynamic import warm_refresh

from tests.test_engine_conformance import FAMILIES, _warm_inputs

PINS_PATH = os.path.join(os.path.dirname(__file__), "data", "bsp_pins.json")

SEEDS = (0, 1)

#: run label -> (engine, chunk); ``warm`` is the warm-refresh run
RUNS = {
    "multicore": ("multicore", None),
    "parallel": ("parallel", None),
    "parallel-chunk64": ("parallel", 64),
    "parallel-chunk8": ("parallel", 8),
    "warm": ("parallel", None),
}


def _digest(modules: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(modules, dtype=np.int64).tobytes()
    ).hexdigest()


def _run(family: str, seed: int, label: str, patch) -> dict:
    """Run one pinned configuration; ``patch(owner, name, value)``
    installs the driver spy (``monkeypatch.setattr`` or a plain
    ``setattr`` when recording)."""
    engine, chunk = RUNS[label]
    if label == "warm":
        g, labels, dirty = _warm_inputs(family, seed)
    else:
        g, _ = FAMILIES[family](seed)
    seen = []
    for owner in (multicore, parallel):
        real = owner.run_bsp_infomap

        def spy(*args, _real=real, **kwargs):
            outcome = _real(*args, **kwargs)
            seen.append(outcome)
            return outcome

        patch(owner, "run_bsp_infomap", spy)
    if label == "warm":
        r = warm_refresh(
            g, labels, dirty, engine=engine, workers=2, seed=seed,
            full_rerun_threshold=1.0,
        )
        assert not r.full_rerun
    elif engine == "multicore":
        r = multicore.run_infomap_multicore(
            g, num_cores=2, seed=seed, chunk=chunk
        )
    else:
        r = parallel.run_infomap_parallel(
            g, workers=2, seed=seed, chunk=chunk
        )
    assert len(seen) == 1
    return {
        "family": family,
        "seed": seed,
        "run": label,
        "modules_sha256": _digest(r.modules),
        "codelength_hex": float(r.codelength).hex(),
        "passes": [[p.rounds, p.proposed, p.applied] for p in seen[0].passes],
    }


def _cases() -> list[tuple[str, int, str]]:
    return [
        (family, seed, label)
        for family in sorted(FAMILIES)
        for seed in SEEDS
        for label in RUNS
    ]


def _load() -> dict:
    with open(PINS_PATH) as fh:
        return {
            (p["family"], p["seed"], p["run"]): p for p in json.load(fh)
        }


PINS = _load() if os.path.exists(PINS_PATH) else {}


def test_pins_cover_every_case():
    assert sorted(PINS) == sorted(_cases())


@pytest.mark.parametrize(
    "family,seed,label", _cases(), ids=lambda v: str(v)
)
def test_bsp_schedule_pinned(family, seed, label, monkeypatch):
    got = _run(family, seed, label, monkeypatch.setattr)
    assert got == PINS[(family, seed, label)]


if __name__ == "__main__":
    records = []
    for case in _cases():
        undo = []

        def patch(owner, name, value):
            undo.append((owner, name, getattr(owner, name)))
            setattr(owner, name, value)

        try:
            records.append(_run(*case, patch))
        finally:
            for owner, name, value in reversed(undo):
                setattr(owner, name, value)
    with open(PINS_PATH, "w") as fh:
        fh.write("[\n")
        fh.write(",\n".join(json.dumps(r) for r in records))
        fh.write("\n]\n")
    print(f"wrote {len(records)} pins to {PINS_PATH}")
