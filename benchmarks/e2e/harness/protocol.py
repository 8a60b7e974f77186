"""The fixed measurement protocol: environment, statistics, provenance.

Everything here is shared by every workload so that a number always means
the same thing: one process, one client, closed loop, BLAS pinned to one
thread, every ``REPRO_*`` switch cleared (kernel ``fused``, telemetry off,
guard off, batch cap 12), inputs derived from the seed only.

This module must stay importable before numpy: :func:`pin_environment`
has to run first, because BLAS reads its thread count at import.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

__all__ = [
    "PINNED_ENV",
    "pin_environment",
    "pin_allocator",
    "adopt_orphans",
    "stop_child_processes",
    "summarize",
    "tail_percentile",
    "llc_bytes",
    "host_fingerprint",
    "git_state",
    "peak_rss_mb",
    "append_history",
    "read_history",
]

#: BLAS/OpenMP thread pins applied before numpy is imported.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: What :func:`pin_allocator` set and :func:`pin_environment` cleared in
#: this process (filled in by ``run.py``), for the host fingerprint.
ALLOCATOR: dict = {}
CLEARED_ENV: dict = {}

#: Percentile ladder for the tail statistic.
_TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def pin_environment(environ=os.environ) -> dict:
    """Pin BLAS threads and clear every ``REPRO_*`` variable.

    Returns the variables that were removed; the host fingerprint states
    them, so a result shows what the caller's shell had tried to switch on.
    """
    cleared = {k: environ.pop(k) for k in list(environ) if k.startswith("REPRO_")}
    environ.update(PINNED_ENV)
    return cleared


def pin_allocator() -> dict:
    """Make glibc keep freed memory instead of returning it to the kernel.

    The VMs this runs on back fresh pages lazily: faulting a 12 MB temporary
    in costs anywhere from 3 ms to 500 ms, which put a factor of three on an
    allocation-heavy solve from one run to the next.  With the mmap threshold
    at its 32 MiB maximum and trimming off, a buffer is faulted in once per
    process and reused, as in any long-lived server; compute is unaffected.
    Worker processes inherit the setting through fork.  Returns what was set
    (empty off glibc), for the host fingerprint.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return {}
    wanted = {
        "M_MMAP_THRESHOLD": (-3, 32 << 20),
        "M_TRIM_THRESHOLD": (-1, 2**31 - 1),
        "M_TOP_PAD": (-2, 64 << 20),
    }
    return {name: value for name, (param, value) in wanted.items() if mallopt(param, value) == 1}


def adopt_orphans() -> bool:
    """Make this process the reaper of its orphaned descendants (Linux).

    A worker whose parent died would otherwise be re-parented to init and
    outlive the run unseen; as a sub-reaper this process inherits it, and
    :func:`stop_child_processes` finds and ends it with the direct children.
    """
    import ctypes

    try:
        pr_set_child_subreaper = 36
        return ctypes.CDLL("libc.so.6").prctl(pr_set_child_subreaper, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _children() -> list[int]:
    """Pids whose parent is this process (zombies included), from ``/proc``."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # "pid (comm) state ppid ...": comm may hold spaces and parentheses
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_child_processes(grace_s: float = 5.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Called on every path out of ``run.py``.  Rank workers are stopped by
    their communicator's ``close``; what is left is multiprocessing's
    resource tracker, which the first shared-memory segment starts and which
    by design outlives its parent by some 10 ms (it exits when the parent's
    end of its pipe closes): long enough for whoever started the run to find
    it still there.  Its pipe is closed here and the tracker waited for; any
    other child is asked to terminate, then killed, then reaped.
    """
    import gc

    lifecycle = sys.modules.get("repro.comm.lifecycle")
    if lifecycle is not None:
        lifecycle.close_live_comms()
    # a communicator collected later would talk to the tracker and restart it
    gc.collect()
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_fd", None) is not None:
        with tracker._lock:
            os.close(tracker._fd)  # end of input: the tracker cleans up and exits
            tracker._fd = None
            pid, tracker._pid = tracker._pid, None
        _wait(pid, grace_s)

    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in _children():
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
            _wait(pid, grace_s)


def _wait(pid: int, grace_s: float) -> None:
    """Reap ``pid`` if it ends within ``grace_s``."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            if os.waitpid(pid, os.WNOHANG)[0] == pid:
                return
        except ChildProcessError:  # reaped already, or not ours
            return
        if time.monotonic() >= deadline:
            return
        time.sleep(0.001)


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ten samples beyond it.

    ``None`` when fewer than twenty samples exist: below that not even the
    median has ten samples on its far side, so no tail is reported.
    """
    if n < 20:
        return None
    best = None
    for pct in _TAIL_LADDER:
        if math.floor(n * (1.0 - pct / 100.0) + 1e-9) >= 10:
            best = pct
    return best


def summarize(samples) -> dict:
    """``{value=p50, q1, q3, low, n, min, max[, tail_pct, tail]}`` of samples.

    Quartiles are Python's ``statistics.quantiles(values, n=4)`` — the same
    estimator the acceptance driver uses for run-to-run spread.  ``low`` is
    the lower quartile by the *inclusive* method, which never extrapolates
    below the fastest sample; it is what ``wall_s`` is built from, because
    interference on a shared host only ever adds time and arrives in bursts
    that can hit a third of a run's samples: with a handful of samples the
    lower quartile sits in the undisturbed mode and the median does not.
    """
    values = sorted(float(v) for v in samples)
    n = len(values)
    if n == 0:
        raise ValueError("cannot summarise an empty sample list")
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        low = statistics.quantiles(values, n=4, method="inclusive")[0]
    else:
        q1 = q3 = low = values[0]
    out = {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "low": low,
        "n": n,
        "min": values[0],
        "max": values[-1],
    }
    pct = tail_percentile(n)
    if pct is not None:
        out["tail_pct"] = pct
        out["tail"] = values[min(n - 1, math.ceil(pct / 100.0 * n) - 1)]
    return out


def _parse_cache_size(text: str) -> int:
    text = text.strip()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:].upper())
    return int(text[:-1]) * scale if scale else int(text)


def llc_bytes() -> int:
    """Sum of the distinct last-level caches visible to this process.

    Read from ``/sys/devices/system/cpu/*/cache``; 0 when the kernel does
    not expose the hierarchy (the caller must then refuse to publish a
    bandwidth-bound fraction).
    """
    base = Path("/sys/devices/system/cpu")
    caches: dict[tuple[int, str], int] = {}
    for index in base.glob("cpu[0-9]*/cache/index*"):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = int((index / "level").read_text())
            shared = (index / "shared_cpu_list").read_text().strip()
            size = _parse_cache_size((index / "size").read_text())
        except (OSError, ValueError):
            continue
        caches[(level, shared)] = size
    if not caches:
        return 0
    top = max(level for level, _ in caches)
    return sum(size for (level, _), size in caches.items() if level == top)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return os.uname().machine


def host_fingerprint() -> dict:
    """Where a number was measured, and under which resolved switches."""
    import numpy as np

    from repro.comm import resolve_comm_name
    from repro.kernels import resolve_kernel_name
    from repro.serve.queue import SolveQueue
    from repro.telemetry import get_mode

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = list(range(os.cpu_count() or 1))
    uname = os.uname()
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "llc_bytes": llc_bytes(),
        # os.uname, not platform.platform(): the latter forks ``uname -p`` and a
        # forked child of this process would inflate the children's peak RSS.
        "platform": " ".join((uname.sysname, uname.release, uname.machine)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "kernel": resolve_kernel_name(),
        "comm_default": resolve_comm_name(),
        "batch_cap": SolveQueue().max_nrhs,
        "telemetry": get_mode(),
        "allocator": dict(ALLOCATOR),
        "cleared_env": dict(CLEARED_ENV),
    }


def git_state(root: Path) -> dict:
    """``{sha, dirty}`` of the checkout, or ``unknown`` outside a git tree."""

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ("git", "-C", str(root), *args),
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    if sha is None:
        return {"sha": "unknown", "dirty": None}
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"sha": sha, "dirty": bool(status)}


def peak_rss_mb() -> float:
    """Peak resident set: this process plus the largest reaped child."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def append_history(path: Path, record: dict) -> None:
    """Append one JSON line; the ledger is never rewritten."""
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=True, separators=(",", ":"))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")


def read_history(path: Path) -> list[dict]:
    if not path.exists():
        return []
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            out.append(json.loads(line))
    return out


def utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
