"""One run identity: :class:`repro.core.runspec.RunSpec`.

* **Validation matrix.**  One table of (field, value) cells with the
  expected verdict at each entry point that takes the field:
  :meth:`JobSpec.validate`, :func:`run_infomap`, :func:`warm_refresh`
  and ``repro run`` (``None``: the entry point has no such input).
  Every entry point runs the same :meth:`RunSpec.check_fields`, so a bad
  value is a ``ValueError`` (a structured rejection in the service),
  never a crash inside an engine.  ``multicore`` is a harness engine:
  the serving layer rejects it, the other three run it.
* **Identity continuity.**  Every :class:`RunSpec` field splits the
  cache key and no serving field does; a served job's ledger
  ``run_key`` is its cache key; fixed plain and delta specs keep the
  ``run_key`` literals the ledger already holds.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from repro.cli import _validate_run_args, build_parser, main
from repro.core.dynamic import warm_refresh
from repro.core.infomap import run_infomap
from repro.core.runspec import RunSpec
from repro.graph.build import from_edges
from repro.graph.generators import ring_of_cliques
from repro.obs.ledger import Ledger, scoped_ledger
from repro.service import JobService, JobSpec
from repro.service.cache import cache_key
from repro.service.delta import Delta
from repro.service.jobs import STATUS_COMPLETED, STATUS_REJECTED
from repro.service.jobsfile import load_jobs

GRAPH, _ = ring_of_cliques(3, 4)
BASE = {"engine": "vectorized", "workers": 1}

T, F, NA = True, False, None
#: (field, value, JobSpec.validate, run_infomap, warm_refresh, repro run)
MATRIX = [
    ("engine", "vectorized", T, T, T, T),
    ("engine", "parallel", T, T, T, T),
    ("engine", "multicore", F, T, T, T),
    ("engine", "sequential", F, T, F, T),
    ("engine", "bogus", F, F, F, F),
    ("workers", 1, T, T, T, T),
    ("workers", 2, F, F, F, F),  # vectorized is single-rank
    ("workers", 0, F, F, F, F),
    ("workers", True, F, F, F, NA),
    ("workers", 1.0, F, F, F, NA),
    ("seed", 3, T, T, T, NA),
    ("seed", -1, F, F, F, NA),
    ("seed", 1.5, F, F, F, NA),
    ("seed", True, F, F, F, NA),
    ("tau", 0.3, T, T, T, T),
    ("tau", math.nan, F, F, F, F),
    ("tau", math.inf, F, F, F, F),
    ("tau", 1.5, F, F, F, F),
    ("tau", 0.0, F, F, F, F),
    ("tau", "0.2", F, F, F, NA),
    ("max_levels", 3, T, T, T, NA),
    ("max_levels", 0, F, F, F, NA),
    ("max_levels", 2.5, F, F, F, NA),
    ("max_passes_per_level", 4, T, T, T, NA),
    ("max_passes_per_level", 0, F, F, F, NA),
    ("max_passes_per_level", 2.5, F, F, F, NA),
    ("max_passes_per_level", True, F, F, F, NA),
    ("chunk", None, T, T, T, NA),
    ("chunk", 4, T, T, T, NA),
    ("chunk", 0, F, F, F, NA),
    ("chunk", 2.5, F, F, F, NA),
    ("accumulator", "bounded", T, T, T, T),
    ("accumulator", "cam9000", F, F, F, F),
]
CELLS = [
    pytest.param(field, value, entry, want,
                 id=f"{entry}-{field}={value!r}")
    for field, value, *verdicts in MATRIX
    for entry, want in zip(
        ("jobspec", "run_infomap", "warm_refresh", "repro_run"), verdicts
    )
    if want is not None
]


def _accepts(entry: str, field: str, value) -> bool:
    fields = {**BASE, field: value}
    try:
        if entry == "jobspec":
            JobSpec(graph=GRAPH, **fields).validate()
        elif entry == "run_infomap":
            if "seed" in fields:
                fields["shuffle_seed"] = fields.pop("seed")
            run_infomap(GRAPH, **fields)
        elif entry == "warm_refresh":
            warm_refresh(GRAPH, None, [], **fields)
        else:
            argv = ["run", "--edge-list", "unused.txt"]
            for key, val in fields.items():
                argv += [f"--{key}", str(val)]
            parser = build_parser()
            _validate_run_args(parser, parser.parse_args(argv))
    except ValueError:
        return False
    except SystemExit as exc:  # argparse usage error
        assert exc.code == 2
        return False
    return True


@pytest.mark.parametrize("field,value,entry,want", CELLS)
def test_validation_matrix(field, value, entry, want, capsys):
    assert _accepts(entry, field, value) is want


def test_matrix_covers_every_run_field():
    fields = {f.name for f in dataclasses.fields(RunSpec)}
    assert {row[0] for row in MATRIX} == fields


def test_bad_values_are_rejected_by_the_service_not_failed():
    """Values the engines would choke on never reach them: the job
    comes back ``rejected`` with the field named, and the batch runs
    on."""
    bad = [{"seed": -1}, {"max_levels": 2.5}, {"chunk": 2.5},
           {"workers": True}, {"engine": "multicore"}]
    specs = [JobSpec(graph=GRAPH, **{**BASE, **b}) for b in bad]
    with JobService(cache_entries=0) as svc:
        results = svc.run_batch(specs + [JobSpec(graph=GRAPH, **BASE)])
    assert [r.status for r in results] == \
        [STATUS_REJECTED] * len(bad) + [STATUS_COMPLETED]
    for b, r in zip(bad, results):
        assert next(iter(b)) in r.error


def test_arcless_graph_rejects_plain_jobs_but_not_deltas_that_add_arcs():
    """An arc-less graph has no flow to solve, so a plain job on it is
    rejected; a delta job whose ops add arcs runs on the updated graph
    (its derived base misses, so it is a full run) and completes."""
    empty = from_edges([], num_vertices=6)
    grow = Delta(ops=(("add", 0, 1, 1.0), ("add", 1, 2, 1.0),
                      ("add", 3, 4, 1.0), ("add", 4, 5, 1.0)))
    with JobService(cache_entries=0) as svc:
        plain, delta = svc.run_batch([
            JobSpec(graph=empty, **BASE),
            JobSpec(graph=empty, delta=grow, **BASE),
        ])
    assert plain.status == STATUS_REJECTED and "no arcs" in plain.error
    assert delta.status == STATUS_COMPLETED, delta.error
    assert delta.full_rerun and delta.num_modules >= 2


def test_multicore_leaves_jobs_files_and_submit(tmp_path):
    jobs = tmp_path / "jobs.jsonl"
    planted = json.dumps({"communities": 2, "size": 6, "p_in": 0.8,
                          "p_out": 0.05, "seed": 1})
    with pytest.raises(SystemExit) as exc:
        main(["submit", "--jobs", str(jobs), "--planted", planted,
              "--engine", "multicore"])
    assert exc.value.code == 2
    jobs.write_text(json.dumps({"planted": json.loads(planted),
                                "engine": "multicore", "workers": 2}) + "\n")
    (spec,) = load_jobs(str(jobs))
    with pytest.raises(ValueError, match="unknown engine 'multicore'"):
        spec.validate()


# ---------------------------------------------------------------------------
# identity continuity

def _spec(**kw) -> JobSpec:
    return JobSpec(graph=GRAPH, **{"engine": "parallel", "workers": 2,
                                   "seed": 0, **kw})


RUN_CHANGES = {
    "engine": "vectorized", "workers": 3, "seed": 1, "tau": 0.2,
    "max_levels": 3, "max_passes_per_level": 4, "chunk": 8,
    "accumulator": "bounded",
}
SERVING_CHANGES = {
    "priority": 7, "deadline": 60.0, "use_cache": False,
    "fault_plan": "kill@w0:b1", "worker_timeout": 5.0, "label": "renamed",
}


def test_change_tables_cover_every_field():
    run = {f.name for f in dataclasses.fields(RunSpec)}
    serving = {f.name for f in dataclasses.fields(JobSpec)} - run \
        - {"graph", "delta", "base_key"}
    assert set(RUN_CHANGES) == run
    assert set(SERVING_CHANGES) == serving


@pytest.mark.parametrize("field", sorted(RUN_CHANGES))
def test_every_run_field_splits_the_key(field):
    assert cache_key(_spec(**{field: RUN_CHANGES[field]})) != \
        cache_key(_spec())


@pytest.mark.parametrize("field", sorted(SERVING_CHANGES))
def test_no_serving_field_reaches_the_key(field):
    assert cache_key(_spec(**{field: SERVING_CHANGES[field]})) == \
        cache_key(_spec())


def test_config_is_graph_plus_every_run_field():
    config = _spec().config(GRAPH)
    assert set(config) == {"graph"} | set(RUN_CHANGES)
    delta = _spec().config(GRAPH, "d" * 64, None)
    assert set(delta) == set(config) | {"delta", "base_key"}


# run_keys the ledger holds for these specs (recorded before the cache
# key and the ledger config were one function): history continues
TWO_TRIANGLES = from_edges(
    [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
    num_vertices=6, name="two-triangles",
)
PINNED = [
    (JobSpec(graph=TWO_TRIANGLES, engine="vectorized", workers=1, seed=3),
     "fa77855b33b8ee003c8b2178bc907a285d7b088c9d7257e25ff5a30cd1e355eb"),
    (JobSpec(graph=TWO_TRIANGLES, engine="vectorized", workers=1, seed=3,
             delta=Delta(ops=(("add", 0, 5, 1.0),))),
     "7886405bb8bbd0b9d55ed01b77c517ad8719786f6821fda7334746be63a0e29f"),
    (JobSpec(graph=TWO_TRIANGLES, engine="parallel", workers=2, seed=1,
             tau=0.2, max_levels=5, max_passes_per_level=4, chunk=2,
             accumulator="bounded"),
     "1c60571b0d341bc41dadba6ce24c7bdfec2a085a0c636bf00f29cda438541462"),
]


def test_served_run_keys_are_cache_keys_and_continue_history(tmp_path):
    path = tmp_path / "runs.jsonl"
    with scoped_ledger(path):
        with JobService(cache_entries=8) as svc:
            results = svc.run_batch([spec for spec, _ in PINNED])
    assert all(r.ok for r in results), [r.error for r in results]
    rows = [r for r in Ledger(path).read() if r["kind"] == "service"]
    assert [row["run_key"] for row in rows] == \
        [cache_key(spec) for spec, _ in PINNED] == \
        [key for _, key in PINNED]
