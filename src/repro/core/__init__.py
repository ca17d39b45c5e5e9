"""The paper's primary application: multilevel Infomap community detection.

Mirrors the four HyPC-Map kernels (Section II-C):

* **PageRank** — :mod:`repro.core.flow` (ergodic visit rates and link
  flows, with teleportation);
* **FindBestCommunity** — :mod:`repro.core.findbest` (Algorithm 1/2, the
  hash-accumulation kernel, pluggable accumulator backend);
* **Convert2SuperNode** — :mod:`repro.core.supernode` (coarsening with
  super-edge weight aggregation);
* **UpdateMembers** — :mod:`repro.core.update` (membership propagation).

Engines:

* :func:`repro.core.infomap.run_infomap` — the single entry point and
  the only engine dispatch (the CLI, the job service and
  :mod:`repro.core.dynamic` all call it, behind
  :func:`~repro.core.infomap.validate_engine_args`): the sequential
  instrumented engine (one simulated core, full hardware accounting)
  by default, or one of the batched engines below;
* :func:`repro.core.vectorized.run_infomap_vectorized` — the batched
  engine behind ``engine="vectorized"``: the shared BSP schedule at
  ``P=1`` on one in-process shard, every vertex swept every pass, with
  whole-sweep segment-sum accumulation in a reusable
  :class:`~repro.core.vectorized.Workspace` (no hardware accounting);
* :func:`repro.core.multicore.run_infomap_multicore` — the HyPC-Map-style
  simulated multicore engine behind Figs 7/9/10/11;
* :func:`repro.core.parallel.run_infomap_parallel` — the real
  process-parallel engine (multiprocessing + shared-memory arenas),
  bit-identical to the simulated engine at equal worker count/seed;
* :func:`repro.core.distributed.run_infomap_distributed` — the
  simulated MPI-style engine: the multicore schedule on ``num_ranks``
  shards with α–β message/byte accounting per superstep.

All four batched engines run one deterministic barrier-synchronous
multilevel driver, :mod:`repro.core.bsp` (propose per shard, commit
behind the barrier) — only where the propose executes, and what it
accounts for, differs.
"""

from repro.core.flow import FlowNetwork, pagerank
from repro.core.mapequation import MapEquation
from repro.core.partition import Partition
from repro.core.infomap import run_infomap, InfomapResult, IterationRecord
from repro.core.vectorized import (
    run_infomap_vectorized,
    VectorizedResult,
    Workspace,
)
from repro.core.multicore import run_infomap_multicore, MulticoreResult
from repro.core.parallel import run_infomap_parallel, ParallelResult
from repro.core.hierarchy import run_infomap_hierarchical, HierarchicalResult, HModule
from repro.core.distributed import run_infomap_distributed, DistributedResult, NetworkModel
from repro.core.dynamic import DynamicCommunities, RefreshResult

__all__ = [
    "FlowNetwork",
    "pagerank",
    "MapEquation",
    "Partition",
    "run_infomap",
    "InfomapResult",
    "IterationRecord",
    "run_infomap_vectorized",
    "VectorizedResult",
    "Workspace",
    "run_infomap_multicore",
    "MulticoreResult",
    "run_infomap_parallel",
    "ParallelResult",
    "run_infomap_hierarchical",
    "HierarchicalResult",
    "HModule",
    "run_infomap_distributed",
    "DistributedResult",
    "NetworkModel",
    "DynamicCommunities",
    "RefreshResult",
]
