"""The gateway under test and the load generator that drives it.

:class:`GatewayProcess` starts ``repro serve --listen`` (shipped
defaults) in its own process group; :func:`closed_loop` and
:func:`open_loop` send JSONL lines over at most two connections and
account every failure: a reset connection, an EOF or timeout with no
row, and a ``rejected``/``failed`` row all count against the request
(and as a latency miss).  After a reset the client reconnects and goes
on with the next line.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

from common import LOST, OK, OUT, REJECTED, ROOT, Request, descendants, \
    kill_and_reap, peak_rss_mb, server_env

#: client-side line limit: rows carrying a partition can be large
READ_LIMIT = 1 << 26
#: seconds a closed-loop request may take before it counts as lost
REQUEST_TIMEOUT = 60.0


@dataclass
class Line:
    """One generated request line and what the generator knows of it."""

    rid: str
    cls: str
    data: bytes
    arcs: int = 0
    #: open loop: seconds after the window opens when the line is due
    due: float = 0.0
    conn: int = 0
    session: str | None = None
    extra: dict = field(default_factory=dict)


class GatewayProcess:
    """``repro serve --listen 127.0.0.1:0`` started via ``serve.py``."""

    def __init__(self, tag: str, trace_dump: str | None = None) -> None:
        os.makedirs(OUT, exist_ok=True)
        argv = [sys.executable, os.path.join(ROOT, "perfbench", "serve.py")]
        if trace_dump is not None:
            argv += ["--trace-dump", trace_dump]
        argv += ["serve", "--listen", "127.0.0.1:0"]
        self._log = open(os.path.join(OUT, f"server-{tag}.log"), "wb")
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=server_env(), stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self.port = self._await_port(timeout=120.0)

    def _await_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        buf = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buf += chunk
                m = re.search(rb"listening on [^\s:]+:(\d+)", buf)
                if m:
                    return int(m.group(1))
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError(f"gateway did not start: {buf!r}")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then kill and wait for any
        of the server's children that outlived it."""
        kids = descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        kill_and_reap(kids)
        self.proc.stdout.close()
        self._log.close()

    def __enter__(self) -> "GatewayProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class Link:
    """One reconnecting JSONL connection."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader = self.writer = None
        self.resets = 0

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port, limit=READ_LIMIT
        )

    async def send(self, data: bytes) -> None:
        self.writer.write(data)
        await self.writer.drain()

    async def recv(self, timeout: float | None = None) -> dict | None:
        """Next row, or ``None`` on EOF."""
        raw = await asyncio.wait_for(self.reader.readline(), timeout)
        return json.loads(raw) if raw.endswith(b"\n") else None

    async def close(self) -> None:
        if self.writer is None:
            return
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass
        self.writer = None

    async def reconnect(self) -> None:
        self.resets += 1
        await self.close()
        await self.open()


#: what a dead or silent connection raises mid-request
_WIRE_ERRORS = (OSError, EOFError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, ValueError)


def _settle(req: Request, row: dict | None, now: float) -> None:
    req.t_end = now
    req.row = row
    if row is None:
        req.status = LOST
    elif row.get("status") == "completed" and row.get("id") == req.rid:
        req.status = OK
    else:
        req.status = REJECTED


async def closed_loop(port: int, lines, seconds: float,
                      conns: int = 2) -> tuple[list[Request], float]:
    """``conns`` callers, one outstanding line each, for ``seconds``.

    Lines are taken in stream order (``lines`` is any iterable of
    :class:`Line`) by whichever caller is free.
    Returns the requests and the timed wall (first send to last row).
    """
    feed = iter(lines)
    out: list[Request] = []
    t0 = time.perf_counter()
    stop_at = t0 + seconds

    async def caller() -> None:
        link = Link(port)
        await link.open()
        try:
            while time.perf_counter() < stop_at:
                line = next(feed, None)
                if line is None:
                    break
                req = Request(line.rid, line.cls, time.perf_counter(),
                              arcs=line.arcs)
                req.t_sent = req.t_start
                try:
                    await link.send(line.data)
                    row = await link.recv(REQUEST_TIMEOUT)
                except _WIRE_ERRORS:
                    row = None
                _settle(req, row, time.perf_counter())
                out.append(req)
                if row is None:
                    await link.reconnect()
        finally:
            await link.close()

    await asyncio.gather(*(caller() for _ in range(conns)))
    end = max((r.t_end for r in out), default=time.perf_counter())
    return out, end - t0


async def open_loop(links: dict[int, Link], lines: list[Line],
                    drain: float = 30.0) -> tuple[list[Request], float, dict]:
    """Send each line at its due time on connection ``links[line.conn]``.

    Never waits for an answer before sending.  A line's latency runs
    from its due time until the first ``completed`` row of its session
    whose triggering line is this one or a later one (the row that
    reflects it).  Returns the requests, the timed wall, and the arrival
    time of each line's first row of any kind (its ack), which the
    traced run uses as the span window.  The caller owns ``links``.
    """
    conns = sorted(links)
    seq = {ln.rid: i for i, ln in enumerate(lines)}
    t0 = time.perf_counter() + 0.05
    reqs = {ln.rid: Request(ln.rid, ln.cls, t0 + ln.due, arcs=ln.arcs)
            for ln in lines}
    pending: dict[str, list[str]] = {}
    first_row: dict[str, float] = {}
    unresolved = len(lines)
    done = asyncio.Event()

    def settle(rid: str, status: str, row: dict | None, now: float) -> None:
        nonlocal unresolved
        req = reqs[rid]
        if not math.isnan(req.t_end):  # already settled
            return
        req.status, req.row, req.t_end = status, row, now
        unresolved -= 1
        if unresolved == 0:
            done.set()

    async def reader(link: Link) -> None:
        while True:
            try:
                row = await link.recv()
            except _WIRE_ERRORS:
                row = None
            now = time.perf_counter()
            if row is None:
                return
            rid = row.get("id")
            if rid not in reqs:
                continue
            first_row.setdefault(rid, now)
            status = row.get("status")
            if status == "buffered":
                continue
            sess = row.get("session")
            if status == "completed" and sess in pending:
                keep = []
                for other in pending[sess]:
                    if seq[other] <= seq[rid]:
                        settle(other, OK, row if other == rid else None, now)
                        reqs[other].answer = rid
                    else:
                        keep.append(other)
                pending[sess] = keep
            else:
                settle(rid, REJECTED, row, now)
                if sess in pending and rid in pending[sess]:
                    pending[sess].remove(rid)

    async def sender(k: int) -> None:
        link = links[k]
        for ln in lines:
            if ln.conn != k:
                continue
            delay = t0 + ln.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            pending.setdefault(ln.session, []).append(ln.rid)
            reqs[ln.rid].t_sent = time.perf_counter()
            try:
                await link.send(ln.data)
            except _WIRE_ERRORS:
                return

    readers = [asyncio.ensure_future(reader(links[k])) for k in conns]
    await asyncio.gather(*(sender(k) for k in conns))
    try:
        await asyncio.wait_for(done.wait(), drain)
    except asyncio.TimeoutError:
        pass
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    out = list(reqs.values())
    end = max((r.t_end for r in out if r.status == OK), default=t0)
    return out, end - t0, first_row
