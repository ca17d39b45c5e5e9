"""Shared helpers: statistics, peak memory, provenance, result records."""

from __future__ import annotations

import ctypes
import math
import os
import platform
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

#: the checkout root (this file lives in ``<root>/perfbench``)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: traces, server logs and span dumps (ignored by git)
OUT = os.path.join(ROOT, "perfbench", "out")

#: a request's terminal states; everything but OK counts as failed
OK = "ok"
LOST = "lost"            # reset / EOF / timeout with no row
REJECTED = "rejected"    # a structured ``rejected`` or ``failed`` row
MISMATCH = "mismatch"    # completed, but differs from the reference run


@dataclass
class Request:
    """One timed request as the load generator saw it."""

    rid: str
    cls: str
    #: when the request was due (open loop) or sent (closed loop)
    t_start: float
    #: when the row that answers it arrived (``nan`` if none did)
    t_end: float = math.nan
    status: str = LOST
    #: input arcs the request carries (counted when it completes)
    arcs: int = 0
    row: dict | None = None
    #: when the line actually left the client (open-loop lateness)
    t_sent: float = math.nan
    #: id of the line whose row settled this request (open loop)
    answer: str | None = None

    @property
    def latency(self) -> float:
        """Seconds to the answer; a failed request is a miss (+inf)."""
        if self.status != OK:
            return math.inf
        return self.t_end - self.t_start


@dataclass
class WorkloadRun:
    """Everything one workload run hands back to ``run.py``."""

    requests: list[Request]
    setup_samples: list[float]
    #: wall seconds of the timed window (first send to last answer)
    timed_wall: float
    #: final codelength per completed distinct job
    codelengths: dict[str, float]
    peak_rss_mb: float
    #: vertices / arcs / line bytes per request class
    sizes: dict = field(default_factory=dict)
    #: extra numbers recorded beside the metrics
    notes: dict = field(default_factory=dict)
    #: equal slices of the timed window whose latency and throughput
    #: figures are reduced by their median (see ``run.end_to_end``)
    windows: int = 1


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile; ``inf`` entries sort last."""
    if not values:
        return math.nan
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    if math.isinf(xs[hi]) or math.isinf(xs[lo]):
        return xs[hi] if pos > lo else xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


def descendants(pid: int) -> list[int]:
    """``pid``'s live descendant processes, from ``/proc/*/stat``."""
    parent: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the ppid is the 2nd field after the parenthesised command name
        parent[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    out, frontier = [], [pid]
    while frontier:
        p = frontier.pop()
        kids = [c for c, pp in parent.items() if pp == p]
        out.extend(kids)
        frontier.extend(kids)
    return out


#: prctl option that makes orphaned descendants children of the caller
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Have orphaned descendants reparented to this process (Linux), so
    :func:`reap_all` can wait for every process the benchmark started,
    grandchildren whose parent has exited included."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_resource_tracker() -> None:
    """Stop this process's ``multiprocessing`` resource tracker and wait
    for it.  The tracker is started on first use of shared memory and
    would otherwise outlive the process that started it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass


def kill_and_reap(pids: list[int], timeout: float = 10.0) -> None:
    """SIGKILL ``pids`` and wait until each has ended: reaped if it is
    our child, otherwise gone from ``/proc``."""
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    deadline = time.monotonic() + timeout
    for pid in pids:
        while True:
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == pid:
                    break
            except ChildProcessError:
                if not os.path.exists(f"/proc/{pid}") \
                        or time.monotonic() > deadline:
                    break
            if time.monotonic() > deadline:
                break
            time.sleep(0.01)


def reap_all() -> None:
    """Stop the resource tracker, then kill and wait for every process
    still descending from this one."""
    stop_resource_tracker()
    for _ in range(5):
        kids = descendants(os.getpid())
        if not kids:
            return
        log(f"stopping {len(kids)} leftover process(es): {kids}")
        kill_and_reap(kids)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one process in MiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mb(pid: int) -> float:
    """Summed ``VmHWM`` of ``pid`` and its live descendants.

    Each process's own peak, summed: an upper bound on the group's
    simultaneous peak, read while the group is still alive.
    """
    return vm_hwm_mb(pid) + sum(vm_hwm_mb(c) for c in descendants(pid))


def git_rev() -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, seconds: int, trace: bool,
               sizes: dict) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev(),
        "sizes": sizes,
    }


def server_env() -> dict:
    """Environment for child Python processes: the checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def log(msg: str) -> None:
    """Progress to stderr (stdout's last line is the JSON result)."""
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)
