"""Host context and process accounting for the benchmark.

Everything here reads ``/proc`` directly (the interpreter has no psutil):
the CPU count ``nproc`` would print, resident memory of the driver plus the
Ray worker processes it started, and the list of processes still alive
below the driver, so the benchmark can prove it stopped everything.
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time


def nproc() -> int:
    """What GNU ``nproc`` prints: ``OMP_NUM_THREADS`` when set (capped by
    ``OMP_THREAD_LIMIT``), else the affinity CPU count."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0].strip()
    if omp.isdigit() and int(omp) > 0:
        n = int(omp)
    limit = os.environ.get("OMP_THREAD_LIMIT", "").strip()
    if limit.isdigit() and int(limit) > 0:
        n = min(n, int(limit))
    return n


def spin_probe(n: int = 2_000_000) -> float:
    """Seconds for a fixed pure-Python loop: a single-core speed sample
    taken before and after the measured window."""
    t0 = time.perf_counter()
    x = 0
    for i in range(n):
        x += i * i
    return time.perf_counter() - t0


def steal_s() -> float:
    """CPU seconds the hypervisor has taken from this machine's vCPUs since
    boot, summed over all of them (the ``steal`` column of ``/proc/stat``);
    0.0 where the kernel does not report it."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return 0.0
    if len(fields) < 9:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def code_digest(pkg_dir: str) -> str:
    """sha256 over the package's ``.py`` files (path + bytes, sorted)."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(pkg_dir):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for fn in sorted(files):
            if fn.endswith(".py"):
                path = os.path.join(root, fn)
                h.update(os.path.relpath(path, pkg_dir).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def _proc_table() -> dict[int, tuple[int, str]]:
    """pid → (ppid, cmdline) for every process visible in /proc."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as f:
                stat = f.read()
            with open(f"/proc/{name}/cmdline", "rb") as f:
                cmd = f.read().replace(b"\0", b" ").decode("utf-8", "replace")
        except OSError:
            continue
        # ppid is the 2nd field after the parenthesised comm
        ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
        out[int(name)] = (ppid, cmd)
    return out


def descendants(root: int) -> dict[int, str]:
    """pid → cmdline for every live process below ``root``."""
    table = _proc_table()
    children: dict[int, list[int]] = {}
    for pid, (ppid, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    out, stack = {}, list(children.get(root, []))
    while stack:
        pid = stack.pop()
        out[pid] = table[pid][1]
        stack.extend(children.get(pid, []))
    return out


def _cpu_s(pid: int) -> float:
    """User + system CPU seconds of one process, all its threads (time the
    hypervisor stole from the vCPU is not counted)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            stat = f.read()
    except OSError:
        return 0.0
    fields = stat[stat.rindex(b")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def work_cpu_s() -> dict[int, float]:
    """pid → CPU seconds of this process and of the Ray worker processes
    it started, the processes ``RssSampler`` counts too (the raylet among
    them: its command line names ``default_worker.py``)."""
    me = os.getpid()
    return {pid: _cpu_s(pid) for pid in [me, *(
        pid for pid, cmd in descendants(me).items() if _is_ray_worker(cmd))]}


def cpu_delta_s(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU seconds used between two ``work_cpu_s()`` readings; a process
    started in between counts from zero."""
    return sum(t - before.get(pid, 0.0) for pid, t in after.items())


def _rss_mb(pid: int) -> float:
    """Private resident memory of one process: anonymous + file-backed,
    without the shared-memory object store pages every worker maps."""
    kb = 0
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(("RssAnon:", "RssFile:")):
                    kb += int(line.split()[1])
    except OSError:
        return 0.0
    return kb / 1024


def _is_ray_worker(cmd: str) -> bool:
    return "default_worker.py" in cmd or cmd.startswith("ray::")


class RssSampler:
    """Background thread sampling driver + Ray-worker RSS; ``peak_mb`` is
    the largest sum seen while running."""

    def __init__(self, interval_s: float = 0.5):
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> float:
        me = os.getpid()
        total = _rss_mb(me) + sum(
            _rss_mb(pid) for pid, cmd in descendants(me).items()
            if _is_ray_worker(cmd))
        self.peak_mb = max(self.peak_mb, total)
        return total

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def __enter__(self) -> "RssSampler":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rindex(b")") + 2:stat.rindex(b")") + 3] != b"Z"


def stop_all(pids, timeout_s: float = 20.0) -> list[int]:
    """Wait until every pid in ``pids`` has exited (reaping our own
    zombies); SIGKILL the ones still alive after ``timeout_s``.  Returns
    the pids that had to be killed (empty after a clean shutdown).  Ray
    workers are re-parented when their raylet exits, so callers pass the
    pids they saw while Ray was up rather than the current child tree."""
    pids = set(pids)
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        _reap_zombies()
        if not any(_alive(p) for p in pids):
            return []
        time.sleep(0.2)
    killed = [p for p in pids if _alive(p)]
    for pid in killed:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    end = time.monotonic() + 5.0
    while any(_alive(p) for p in killed) and time.monotonic() < end:
        _reap_zombies()
        time.sleep(0.1)
    return killed


def _reap_zombies() -> None:
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass
