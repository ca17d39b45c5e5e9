"""Simulated distributed-memory Infomap (the HyPC-Map hybrid model).

HyPC-Map [Faysal et al., HPEC 2021] combines shared-memory threads with
MPI ranks; the distributed side partitions vertices across ranks, runs
local move passes against remote module information that is only as
fresh as the last exchange, and exchanges membership updates each
superstep.  A round of the shared BSP schedule (:mod:`repro.core.bsp`)
already *is* that superstep: every rank (a shard of the edge-balanced
block split) proposes against the round-start snapshot — its ghosts are
fully stale until the barrier — and the driver commits behind the
barrier.  This module runs that schedule with a propose backend that
only *accounts*, through a standard latency–bandwidth (α–β) network
model.

What this adds over :mod:`repro.core.multicore`: explicit message
accounting (bytes/messages per superstep — the quantities a
distributed-systems evaluation reports) and a communication-aware
simulated runtime.  The partition is the multicore engine's at seed 0;
at whole-shard rounds it does not depend on the rank count, so only
compute versus communication time varies with ``num_ranks``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core import bsp
from repro.graph.csr import CSRGraph
from repro.obs.spans import trace_span

__all__ = [
    "run_infomap_distributed",
    "validate_distributed_params",
    "DistributedResult",
    "NetworkModel",
]


@dataclass(frozen=True)
class NetworkModel:
    """α–β communication cost model.

    ``message_cost = latency_s + bytes / bandwidth_Bps``, messages between
    distinct rank pairs in one superstep proceed in parallel; a rank's
    superstep communication time is the sum over its peers (sequential
    injection), and the superstep's time is the max over ranks.
    """

    latency_s: float = 2e-6
    bandwidth_Bps: float = 10e9
    #: bytes per (vertex id, module id) update record
    record_bytes: int = 12

    def transfer_seconds(self, n_bytes: float) -> float:
        return self.latency_s + n_bytes / self.bandwidth_Bps


@dataclass
class SuperstepRecord:
    """Accounting for one BSP superstep."""

    superstep: int
    level: int
    moves: int
    codelength: float
    messages: int
    bytes_sent: int
    compute_seconds: float
    comm_seconds: float


@dataclass
class DistributedResult:
    """Outcome of a simulated distributed run."""

    modules: np.ndarray
    num_modules: int
    codelength: float
    levels: int
    num_ranks: int
    supersteps: list[SuperstepRecord] = field(default_factory=list)

    @property
    def total_messages(self) -> int:
        return sum(s.messages for s in self.supersteps)

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes_sent for s in self.supersteps)

    @property
    def comm_seconds(self) -> float:
        return sum(s.comm_seconds for s in self.supersteps)

    @property
    def compute_seconds(self) -> float:
        return sum(s.compute_seconds for s in self.supersteps)

    @property
    def total_seconds(self) -> float:
        return self.comm_seconds + self.compute_seconds

    def summary(self) -> str:
        return (
            f"DistributedResult({self.num_ranks} ranks: {self.num_modules} "
            f"modules, L={self.codelength:.4f}, "
            f"{len(self.supersteps)} supersteps, "
            f"{self.total_messages} msgs / {self.total_bytes} B)"
        )


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_finite_real(x) -> bool:
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


def _require(ok: bool, what: str, got) -> None:
    if not ok:
        raise ValueError(f"{what}, got {got!r}")


def validate_distributed_params(
    num_ranks: int = 4,
    tau: float = 0.15,
    max_levels: int = 20,
    max_supersteps_per_level: int = 12,
    compute_rate_ops_per_s: float = 5e7,
    network: NetworkModel | None = None,
) -> None:
    """Raise ``ValueError`` describing the first invalid parameter.

    Everything a caller can get wrong fails *here*, with a readable
    reason — never as a ``TypeError``/``IndexError`` deep inside the
    superstep loop.  This is the same two-layer contract the serving
    stack runs on (:meth:`repro.service.jobs.JobSpec.validate`):
    validation raises ``ValueError``, and admission control converts it
    into a structured rejection instead of letting it escape a batch —
    the alignment this dormant seed needs before the gateway's shard
    router can grow a cross-host story on top of it.
    """
    _require(_is_int(num_ranks) and num_ranks >= 1,
             "num_ranks must be an int >= 1", num_ranks)
    _require(_is_finite_real(tau) and 0.0 < tau < 1.0,
             "tau must be in (0, 1)", tau)
    _require(_is_int(max_levels) and max_levels >= 1,
             "max_levels must be an int >= 1", max_levels)
    _require(_is_int(max_supersteps_per_level)
             and max_supersteps_per_level >= 1,
             "max_supersteps_per_level must be an int >= 1",
             max_supersteps_per_level)
    _require(_is_finite_real(compute_rate_ops_per_s)
             and compute_rate_ops_per_s > 0,
             "compute_rate_ops_per_s must be positive finite ops/s",
             compute_rate_ops_per_s)
    if network is None:
        return
    if not isinstance(network, NetworkModel):
        raise ValueError(
            f"network must be a NetworkModel, got {type(network).__name__}"
        )
    _require(_is_finite_real(network.latency_s) and network.latency_s >= 0,
             "network latency_s must be finite seconds >= 0",
             network.latency_s)
    _require(_is_finite_real(network.bandwidth_Bps)
             and network.bandwidth_Bps > 0,
             "network bandwidth_Bps must be positive finite bytes/s",
             network.bandwidth_Bps)
    _require(_is_int(network.record_bytes) and network.record_bytes >= 1,
             "network record_bytes must be an int >= 1",
             network.record_bytes)


class _RankLedger(bsp.InprocessSweep):
    """α–β accounting around the in-process propose; computes nothing else.

    Each shard the driver hands :meth:`propose` is one rank's share of
    the round.  Per round, every rank with proposals broadcasts them to
    its ``num_ranks - 1`` peers (one message each, ``proposals ×
    record_bytes`` bytes; module statistics piggyback on the same
    exchange), and the round's compute time is the slowest rank's shard
    arcs over ``compute_rate``.  The engine runs whole-shard rounds, so
    each pass is one round and one superstep.
    """

    engine = "distributed"

    def __init__(
        self, num_ranks: int, compute_rate: float, network: NetworkModel
    ) -> None:
        self.peers = num_ranks - 1
        self.compute_rate = compute_rate
        self.network = network
        #: (messages, bytes, compute s, comm s) per superstep, in the
        #: order of :class:`SuperstepRecord`'s accounting fields
        self.tallies: list[tuple[int, int, float, float]] = []

    def begin_level(self, net, level, blocks, ws) -> None:
        super().begin_level(net, level, blocks, ws)
        self.arcs = np.diff(net.indptr)

    def propose(self, shards, module, enter, exit_, flow):
        verts, targets = super().propose(shards, module, enter, exit_, flow)
        sent = bsp.block_owner_counts(self.blocks, verts)
        record = self.network.record_bytes
        slowest = max(int(self.arcs[shard].sum()) for _, shard in shards)
        self.tallies.append((
            self.peers * int(np.count_nonzero(sent)),
            self.peers * int(sent.sum()) * record,
            slowest / self.compute_rate,
            # a rank injects to its peers one after another; the round
            # waits for the rank with the largest payload
            self.peers * self.network.transfer_seconds(int(sent.max()) * record),
        ))
        return verts, targets

    def end_pass(self, rounds: int) -> float:
        _, _, compute, comm = self.tallies[-1]
        return compute + comm


def run_infomap_distributed(
    graph: CSRGraph,
    num_ranks: int = 4,
    tau: float = 0.15,
    max_levels: int = 20,
    max_supersteps_per_level: int = 12,
    compute_rate_ops_per_s: float = 5e7,
    network: NetworkModel | None = None,
) -> DistributedResult:
    """Simulate BSP distributed Infomap over ``num_ranks`` ranks.

    Runs the shared schedule (:func:`repro.core.bsp.run_bsp_infomap`)
    with ``num_ranks`` shards, one superstep per pass: every rank
    proposes its vertices' best moves against the superstep-start
    snapshot, then broadcasts its proposals (one message per peer rank);
    module statistics are reconsolidated behind the barrier, where the
    driver's seeded backoff halves a conflicting move set until the
    codelength improves.  ``max_supersteps_per_level`` caps the passes
    per level; the backoff seed is fixed at 0.
    """
    if not isinstance(graph, CSRGraph):
        raise ValueError(
            f"graph must be a CSRGraph, got {type(graph).__name__}"
        )
    validate_distributed_params(
        num_ranks=num_ranks, tau=tau, max_levels=max_levels,
        max_supersteps_per_level=max_supersteps_per_level,
        compute_rate_ops_per_s=compute_rate_ops_per_s, network=network,
    )
    ledger = _RankLedger(
        num_ranks, compute_rate_ops_per_s, network or NetworkModel()
    )
    with trace_span("infomap.run", engine="distributed", ranks=num_ranks):
        outcome = bsp.run_bsp_infomap(
            graph, ledger, num_ranks, tau=tau, max_levels=max_levels,
            max_passes_per_level=max_supersteps_per_level,
        )
    return DistributedResult(
        modules=outcome.modules,
        num_modules=outcome.num_modules,
        codelength=outcome.codelength,
        levels=outcome.levels,
        num_ranks=num_ranks,
        supersteps=[
            SuperstepRecord(i + 1, p.level, p.applied, p.codelength, *tally)
            for i, (p, tally) in enumerate(zip(outcome.passes, ledger.tallies))
        ],
    )
