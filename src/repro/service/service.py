"""The job service: many community-detection jobs, persistent resources.

:class:`JobService` is the serving layer the ROADMAP's "heavy traffic"
north star needs: callers submit :class:`~repro.service.jobs.JobSpec`\\ s
and drain :class:`~repro.service.jobs.JobResult`\\ s, while the service
amortizes the per-run setup the engines would otherwise pay every call —
exactly the cost structure the paper amortizes in hardware by keeping
the ASA CAM resident across FindBestCommunity sweeps:

==========================  =============================================
cold cost                   amortized by
==========================  =============================================
fork + pipe handshake       :class:`~repro.service.pool.PoolManager`
                            (one warm pool per worker count)
the whole run               :class:`~repro.service.cache.ResultCache`
                            (content-addressed partitions, LRU-bounded)
==========================  =============================================

Shared-memory arenas are deliberately *not* kept warm: they are sized
to one graph's levels, so they are re-provisioned per job via
:mod:`repro.core.arena` and released at job end — a parked service
holds zero ``/dev/shm`` segments (``tests/test_shm_lifecycle.py``).

Execution contract (pinned by ``tests/test_service.py``):

* results are **bit-identical** to cold ``run_infomap`` calls at equal
  parameters — warm pools and cache hits are invisible in the output;
* job order is the scheduler's deterministic priority+FIFO order;
* every job comes back as a result — ``completed``, ``cancelled``
  (deadline), ``failed`` (engine error), or ``rejected`` (admission) —
  and a failing job never prevents the next one from running.
"""

from __future__ import annotations

import time
import traceback

from repro.core.bsp import DeadlineExceeded
from repro.core.infomap import run_infomap
from repro.obs import ledger as obs_ledger
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger
from repro.obs.spans import trace_span
from repro.service.cache import CacheEntry, ResultCache, cache_key
from repro.service.jobs import (
    STATUS_CANCELLED,
    STATUS_COMPLETED,
    STATUS_FAILED,
    STATUS_REJECTED,
    JobResult,
    JobSpec,
)
from repro.service.pool import PoolManager
from repro.service.scheduler import QueuedJob, Scheduler

__all__ = ["JobService"]

log = get_logger("service")


class JobService:
    """Submit-and-drain runner over warm pools and a result cache.

    Parameters
    ----------
    max_queue_depth:
        Admission bound; surplus submissions are rejected structurally.
    cache_entries:
        LRU capacity of the result cache; ``0`` disables caching.
    start_method:
        Multiprocessing start method for pools (default: the parallel
        engine's — ``fork`` where available).
    heartbeat_interval:
        Seconds between stats heartbeats (gauge flushes of scheduler
        depth, pool occupancy, cache size — the liveness signal a
        long-lived ``repro serve`` exposes through ``--metrics-out``).
        ``0`` flushes at every opportunity (each submit and each
        drained job); ``None`` (default) disables the periodic flush —
        :meth:`heartbeat` can still be called explicitly.
    """

    def __init__(
        self,
        max_queue_depth: int = 64,
        cache_entries: int = 128,
        start_method: str | None = None,
        heartbeat_interval: float | None = None,
    ) -> None:
        if heartbeat_interval is not None and heartbeat_interval < 0:
            raise ValueError("heartbeat_interval must be >= 0 (or None)")
        self.scheduler = Scheduler(max_queue_depth=max_queue_depth)
        self.pools = PoolManager(start_method=start_method)
        self.cache = ResultCache(max_entries=cache_entries)
        #: every finished/rejected outcome, keyed by job id
        self.results: dict[int, JobResult] = {}
        self._closed = False
        self._heartbeat_interval = heartbeat_interval
        self.heartbeats = 0
        self._started_at = time.monotonic()
        self._last_heartbeat = self._started_at

    # ------------------------------------------------------------ submit
    def submit(self, spec: JobSpec) -> int:
        """Admit one job; returns its id.

        A rejected job (invalid spec, full queue) gets an immediate
        ``rejected`` :class:`JobResult` in :attr:`results` — nothing is
        raised, matching the scheduler's structured-failure contract.
        """
        if self._closed:
            raise RuntimeError("job service is closed")
        job_id, reason = self.scheduler.admit(spec)
        self._count("service.jobs.submitted")
        if reason is not None:
            self.results[job_id] = JobResult(
                job_id=job_id,
                status=STATUS_REJECTED,
                label=spec.label or getattr(spec.graph, "name", ""),
                engine=spec.engine,
                workers=spec.workers,
                seed=spec.seed if isinstance(spec.seed, int) else 0,
                error=reason,
            )
            self._count("service.jobs.rejected")
            log.warning("job %d rejected: %s", job_id, reason)
        self._gauge("service.queue.depth", len(self.scheduler))
        self._maybe_heartbeat()
        return job_id

    def submit_many(self, specs: list[JobSpec]) -> list[int]:
        return [self.submit(s) for s in specs]

    def cancel(self, job_id: int) -> bool:
        """Cancel a queued job (running jobs cancel via their deadline)."""
        cancelled = self.scheduler.cancel(job_id)
        if cancelled:
            self.results[job_id] = JobResult(
                job_id=job_id,
                status=STATUS_CANCELLED,
                error="cancelled while queued",
            )
            self._count("service.jobs.cancelled")
        return cancelled

    # ------------------------------------------------------------- drain
    def drain(self) -> list[JobResult]:
        """Run every queued job in scheduler order; return their results.

        Jobs execute one at a time (the determinism contract); each
        outcome is also recorded in :attr:`results`.
        """
        if self._closed:
            raise RuntimeError("job service is closed")
        out: list[JobResult] = []
        while True:
            queued = self.scheduler.pop()
            if queued is None:
                break
            result = self._execute(queued)
            self.results[result.job_id] = result
            out.append(result)
            self._gauge("service.queue.depth", len(self.scheduler))
            self._maybe_heartbeat()
        return out

    def run_batch(self, specs: list[JobSpec]) -> list[JobResult]:
        """Submit + drain in one call (results in execution order)."""
        ids = set(self.submit_many(specs))
        results = self.drain()
        # rejected jobs never reach the queue; splice them in by id order
        drained = {r.job_id for r in results}
        rejected = [
            self.results[i] for i in sorted(ids - drained)
            if i in self.results
        ]
        return sorted(results + rejected, key=lambda r: r.job_id)

    # ----------------------------------------------------------- execute
    def _execute(self, queued: QueuedJob) -> JobResult:
        spec = queued.spec
        result = JobResult(
            job_id=queued.job_id,
            status=STATUS_FAILED,
            label=spec.label or spec.graph.name,
            engine=spec.engine,
            workers=spec.workers,
            seed=spec.seed,
            queue_seconds=time.monotonic() - queued.submitted_at,
        )
        t0 = time.perf_counter()
        with trace_span(
            "service.job", job=queued.job_id, engine=spec.engine,
            workers=spec.workers,
        ):
            key = cache_key(spec) if spec.cacheable else None
            entry = self.cache.get(key) if key is not None else None
            if entry is not None:
                result.status = STATUS_COMPLETED
                result.modules = entry.modules
                result.num_modules = entry.num_modules
                result.codelength = entry.codelength
                result.levels = entry.levels
                result.cache_hit = True
            elif spec.delta is not None:
                self._run_delta(spec, result)
            else:
                self._run_engine(spec, result)
            if result.ok and key is not None and not result.cache_hit:
                self.cache.put(
                    key,
                    CacheEntry(
                        modules=result.modules,
                        num_modules=result.num_modules,
                        codelength=result.codelength,
                        levels=result.levels,
                    ),
                )
        result.run_seconds = time.perf_counter() - t0
        self._count(f"service.jobs.{result.status}")
        self._observe("service.job.queue_seconds", result.queue_seconds)
        self._observe("service.job.run_seconds", result.run_seconds)
        self._record_ledger(spec, result)
        log.info("%s", result.summary())
        return result

    def _record_ledger(self, spec: JobSpec, result: JobResult) -> None:
        """Append one ``kind="service"`` row to the armed run ledger.

        The config (and so the run_key) is exactly the cache key's
        result-determining field set; how the job was served — cache
        hit/miss, warm/cold pool, queue wait, wall time — is perf data,
        never identity (docs/trend.md).
        """
        if not obs_ledger.is_enabled():
            return
        from repro.service.cache import graph_digest

        config = {
            "graph": graph_digest(spec.graph),
            "engine": spec.engine,
            "workers": spec.workers,
            "seed": spec.seed,
            "tau": spec.tau,
            "max_levels": spec.max_levels,
            "max_passes_per_level": spec.max_passes_per_level,
            "chunk": spec.chunk,
            "accumulator": spec.accumulator,
        }
        telemetry = {
            "status": result.status,
            "codelength": result.codelength if result.ok else None,
            "num_modules": result.num_modules if result.ok else None,
            "levels": result.levels if result.ok else None,
        }
        if spec.delta is not None:
            # delta jobs answer a different question than plain jobs on
            # the same graph+params — key them apart (plain rows keep
            # their historical run_keys byte-for-byte)
            config["delta"] = spec.delta.digest()
            config["base_key"] = spec.base_key
            telemetry["touched_vertices"] = result.touched_vertices
            telemetry["full_rerun"] = result.full_rerun
        record = obs_ledger.make_record(
            kind="service",
            source="service",
            config=config,
            telemetry=telemetry,
            perf={
                "queue_seconds": result.queue_seconds,
                "run_seconds": result.run_seconds,
                "wall_seconds": result.run_seconds,
                "cache_hit": bool(result.cache_hit),
                "warm_pool": bool(result.warm_pool),
                "respawns": int(result.respawns),
            },
            label=result.label,
        )
        obs_ledger.get_ledger().append(record)

    def _run_delta(self, spec: JobSpec, result: JobResult) -> None:
        """Execute a delta job: incremental refresh of base graph + delta.

        The warm partition comes from the ResultCache: an explicit
        ``base_key`` that misses rejects the job structurally (the
        caller pinned a warm source that does not exist), while the
        derived key — the cache key of this spec minus its delta —
        falls back to a full from-scratch run of the updated graph when
        it misses, recorded as ``full_rerun`` in the result.
        """
        import dataclasses

        from repro.core.dynamic import warm_refresh

        base = self.cache.get(spec.base_key or cache_key(
            dataclasses.replace(spec, delta=None, base_key=None)
        ))
        if base is None and spec.base_key is not None:
            result.status = STATUS_REJECTED
            result.error = (
                f"unknown base_key {spec.base_key!r}: no cached base "
                f"partition to warm-start from"
            )
            return

        def refresh():
            updated = spec.delta.apply(spec.graph)
            return warm_refresh(
                updated,
                base.modules if base is not None else None,
                spec.delta.dirty_vertices(),
                engine=spec.engine,
                workers=spec.workers,
                seed=spec.seed,
                tau=spec.tau,
                max_levels=spec.max_levels,
                max_passes=spec.max_passes_per_level,
                chunk=spec.chunk,
                accumulator=spec.accumulator,
                pool=self._pool_for(spec, result),
                deadline=spec.deadline,
                worker_timeout=spec.worker_timeout,
            )

        r = self._guarded(spec, result, refresh)
        if r is not None:
            result.touched_vertices = int(r.touched_vertices)
            result.full_rerun = bool(r.full_rerun)

    def _run_engine(self, spec: JobSpec, result: JobResult) -> None:
        """Execute ``spec`` on its engine, reporting into ``result``."""
        r = self._guarded(spec, result, lambda: run_infomap(
            spec.graph,
            engine=spec.engine,
            workers=spec.workers,
            tau=spec.tau,
            max_levels=spec.max_levels,
            max_passes_per_level=spec.max_passes_per_level,
            shuffle_seed=spec.seed,
            chunk=spec.chunk,
            fault_plan=spec.fault_plan,
            worker_timeout=spec.worker_timeout,
            pool=self._pool_for(spec, result),
            deadline=spec.deadline,
            accumulator=spec.accumulator,
        ))
        if r is not None:
            result.respawns = getattr(r, "respawns", 0)

    def _pool_for(self, spec: JobSpec, result: JobResult):
        """The warm pool a ``parallel`` job runs on (``None`` otherwise)."""
        if spec.engine != "parallel":
            return None
        pool, result.warm_pool = self.pools.acquire(spec.workers)
        return pool

    def _guarded(self, spec: JobSpec, result: JobResult, run):
        """Call ``run()``; report its outcome into ``result``.

        Returns the engine result when the job completed, else ``None``
        with ``result`` marked cancelled (deadline) or failed.
        """
        try:
            r = run()
        except DeadlineExceeded as exc:
            # a parallel pool already restored itself (abort_run inside
            # the engine's unwind); it stays warm for the next job
            result.status = STATUS_CANCELLED
            result.error = f"deadline of {spec.deadline}s exceeded ({exc})"
            self._count("service.deadline_cancellations")
            return None
        except Exception as exc:
            result.status = STATUS_FAILED
            result.error = f"{type(exc).__name__}: {exc}"
            log.error(
                "job %d failed:\n%s", result.job_id, traceback.format_exc()
            )
            if spec.engine == "parallel":
                # abort_run already ran, but an engine that raised may
                # have left the pool in a state we cannot prove clean —
                # rebuild cold next time rather than trust it
                try:
                    self.pools.discard(spec.workers)
                except Exception:  # pragma: no cover - defensive
                    log.error("pool discard failed:\n%s",
                              traceback.format_exc())
            return None
        result.status = STATUS_COMPLETED
        result.modules = r.modules
        result.num_modules = int(r.num_modules)
        result.codelength = float(r.codelength)
        result.levels = int(r.levels)
        return r

    # ---------------------------------------------------------- heartbeat
    def heartbeat(self) -> dict:
        """Flush the liveness gauges; returns what was flushed.

        Published gauges (metric catalog, docs/observability.md):
        ``service.uptime_seconds``, ``service.queue.depth``,
        ``service.pool.pools`` / ``service.pool.workers`` (warm-pool
        occupancy), ``service.cache.size``, plus the
        ``service.heartbeats`` counter — the signal that makes a
        long-lived ``repro serve`` inspectable from a ``--metrics-out``
        snapshot without touching its job flow.
        """
        snap = {
            "uptime_seconds": time.monotonic() - self._started_at,
            "queue_depth": len(self.scheduler),
            "pools": len(self.pools),
            "pool_workers": sum(self.pools.worker_counts()),
            "cache_size": len(self.cache),
            "results": len(self.results),
        }
        self.heartbeats += 1
        self._count("service.heartbeats")
        self._gauge("service.uptime_seconds", snap["uptime_seconds"])
        self._gauge("service.queue.depth", snap["queue_depth"])
        self._gauge("service.pool.pools", snap["pools"])
        self._gauge("service.pool.workers", snap["pool_workers"])
        self._gauge("service.cache.size", snap["cache_size"])
        log.debug("heartbeat #%d: %s", self.heartbeats, snap)
        return snap

    def _maybe_heartbeat(self) -> None:
        if self._heartbeat_interval is None:
            return
        now = time.monotonic()
        if now - self._last_heartbeat >= self._heartbeat_interval:
            self._last_heartbeat = now
            self.heartbeat()

    # ---------------------------------------------------------- lifecycle
    def stats(self) -> dict:
        """One JSON-ready snapshot of queue / cache / pool counters."""
        by_status: dict[str, int] = {}
        for r in self.results.values():
            by_status[r.status] = by_status.get(r.status, 0) + 1
        return {
            "scheduler": self.scheduler.stats(),
            "cache": self.cache.stats(),
            "pools": self.pools.stats(),
            "results": by_status,
            "heartbeats": self.heartbeats,
        }

    def close(self) -> None:
        """Release every pool; queued jobs are abandoned.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self.pools.close()
        self.cache.clear()

    def __enter__(self) -> "JobService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ metrics
    @staticmethod
    def _count(name: str) -> None:
        if obs_metrics.is_enabled():
            obs_metrics.get_registry().counter(name).inc()

    @staticmethod
    def _gauge(name: str, value: float) -> None:
        if obs_metrics.is_enabled():
            obs_metrics.get_registry().gauge(name).set(value)

    @staticmethod
    def _observe(name: str, value: float) -> None:
        if obs_metrics.is_enabled():
            obs_metrics.get_registry().histogram(name).observe(value)
