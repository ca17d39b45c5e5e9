"""The repo benchmark's per-layer tracer still sees every layer.

``perfbench/tracing.install_layers`` wraps program functions by module
attribute name.  A refactor that keeps the names but stops calling
through them (an alias imported by value, a call moved to another
module) leaves the wrap installed and the layer silently reading 0.
This drives one small ``parallel`` solve and one JobService plain +
delta pair under the installed tracer and asserts each layer recorded
time.  (The vectorized engine reaches the driver through ``bsp`` itself,
which the tracer does not wrap; that path is not asserted here.)
"""

from __future__ import annotations

import os
import sys
from collections import Counter

import pytest

from repro.core.infomap import run_infomap
from repro.graph.generators import planted_partition
from repro.service import JobService, JobSpec
from repro.service.delta import Delta

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")

LAYERS = ("bsp.driver", "bsp.propose", "bsp.commit", "bsp.worklist",
          "cache.key", "cache.get", "dynamic.refresh", "delta.apply")


@pytest.fixture
def tracer():
    sys.path.insert(0, os.path.abspath(PERFBENCH))
    try:
        from tracing import Tracer, install_layers
    finally:
        sys.path.pop(0)
    tr = Tracer()
    install_layers(tr)
    try:
        yield tr
    finally:
        tr.uninstall()


def test_every_traced_layer_records_time(tracer):
    g, _ = planted_partition(8, 20, 0.3, 0.005, seed=4)
    assert run_infomap(g, engine="parallel", workers=2).num_modules >= 1
    with JobService(cache_entries=8) as svc:
        plain, delta = svc.run_batch([
            JobSpec(graph=g, engine="vectorized", workers=1),
            JobSpec(graph=g, engine="vectorized", workers=1,
                    delta=Delta(ops=(("add", 0, 5, 1.0),))),
        ])
    assert plain.ok and delta.ok and not delta.full_rerun

    seconds: Counter = Counter()
    for _sid, _parent, _rid, name, t0, t1 in tracer.dump()["spans"]:
        seconds[name] += t1 - t0
    for layer in LAYERS:
        assert seconds[layer] > 0, (layer, dict(seconds))
