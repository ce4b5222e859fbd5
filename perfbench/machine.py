"""Machine state recorded next to every number: preflight, calibration
probe, and memory sampling of the driver's whole Ray session.

The preflight and the md5 probe follow ``bench.py``'s
``_scaling_preflight``/``_hash_worker``; they are re-stated here so the
benchmark can be changed without touching the program's own bench.
"""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import threading
import time

#: the preflight waits at most this long for leftover Ray/pytest
#: processes to exit, and at most LOAD_WAIT_S for the load to drop —
#: a run must finish inside its time limit even on a busy host
FOREIGN_WAIT_S = 30.0
LOAD_WAIT_S = 5.0
#: busy share of all CPUs below which the machine counts as idle
MAX_IDLE_BUSY = 0.25


def _ancestors() -> set[int]:
    out, pid = set(), os.getpid()
    while pid > 1:
        out.add(pid)
        try:
            with open(f"/proc/{pid}/status") as f:
                pid = int(next(l for l in f if l.startswith("PPid:")).split()[1])
        except (OSError, StopIteration, ValueError):
            break
    return out


def foreign_processes() -> list[str]:
    """Live Ray or pytest processes that are not this process or its
    parents (zombies have ended and are skipped)."""
    mine = _ancestors()
    ps = subprocess.run(["ps", "-eo", "pid,stat,args"], capture_output=True,
                        text=True, check=False).stdout.splitlines()[1:]
    found = []
    for line in ps:
        pid_s, stat, args = (line.split(None, 2) + ["", ""])[:3]
        if not pid_s.isdigit() or int(pid_s) in mine or stat.startswith("Z"):
            continue
        low = args.lower()
        if ("raylet" in low or "gcs_server" in low or "ray::" in low
                or "pytest" in low or "ray/_private" in low):
            found.append(f"{pid_s} {args[:120]}")
    return found


def cpu_times() -> list[int]:
    """The machine-wide jiffy counters of ``/proc/stat``."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


#: /proc/stat fields of CPU time spent running work: user, nice, system,
#: irq, softirq (guest time is inside user). Stolen time is its own field:
#: with paravirtual steal accounting the kernel charges no task for it.
BUSY_FIELDS = (0, 1, 2, 5, 6)
TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def busy_cpu_s(before: list[int], after: list[int]) -> float:
    """CPU seconds all CPUs spent running work between two samples."""
    return sum(after[i] - before[i] for i in BUSY_FIELDS) * TICK_S


def busy_and_steal(before: list[int], after: list[int]) -> tuple[float, float]:
    """Busy and stolen shares of all CPU time between two samples."""
    d = [y - x for x, y in zip(before, after)]
    total = sum(d) or 1
    idle = d[3] + d[4]  # idle + iowait
    return 1.0 - idle / total, d[7] / total


def preflight() -> dict:
    """Refuse to run beside foreign Ray/pytest processes; wait (bounded)
    until the machine's CPUs are mostly idle. The load is measured as
    the busy share of CPU time over half a second: in a VM the 1-minute
    load average also counts runnable-but-descheduled vCPU time and
    stays high on an idle guest. Returns the evidence recorded with the
    run."""
    t0 = time.monotonic()
    found = foreign_processes()
    while found and time.monotonic() - t0 < FOREIGN_WAIT_S:
        time.sleep(1.0)
        found = foreign_processes()
    if found:
        raise SystemExit("perfbench preflight refused: foreign Ray/pytest "
                         "processes would share the machine:\n  " + "\n  ".join(found))
    t1 = time.monotonic()
    while True:
        before = cpu_times()
        time.sleep(0.5)
        busy, steal = busy_and_steal(before, cpu_times())
        if busy <= MAX_IDLE_BUSY or time.monotonic() - t1 >= LOAD_WAIT_S:
            break
    return {"cpu_busy": round(busy, 3), "cpu_steal": round(steal, 3),
            "idle_ok": busy <= MAX_IDLE_BUSY, "loadavg_1m": os.getloadavg()[0],
            "waited_s": round(time.monotonic() - t0, 2)}


def calibration_probe(rounds: int = 600_000) -> float:
    """CPU seconds of this thread for a fixed single-core, cache-resident
    md5 chain: the machine's current per-core speed, so drift can be told
    from code. Thread CPU time leaves out time the hypervisor stole."""
    h = b"x" * 64
    t0 = time.thread_time()
    for _ in range(rounds):
        h = hashlib.md5(h).digest() * 4
    return time.thread_time() - t0


def vmhwm_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def proc_table() -> dict[int, tuple[int, int]]:
    """Every live process: pid -> (parent pid, user+system CPU ticks)."""
    out: dict[int, tuple[int, int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            out[int(d)] = (int(fields[1]), int(fields[11]) + int(fields[12]))
        except (OSError, ValueError, IndexError):
            continue
    return out


def session_pids(root_pid: int, table: dict[int, tuple[int, int]] | None = None) -> list[int]:
    """``root_pid`` and all its descendants (Ray's gcs, raylet, workers)."""
    kids: dict[int, list[int]] = {}
    for pid, (ppid, _) in (proc_table() if table is None else table).items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = [], [root_pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(kids.get(p, ()))
    return out


def settle(max_busy: float = 0.1, interval_s: float = 0.1, timeout_s: float = 3.0) -> float:
    """Wait until the machine's CPUs are under ``max_busy`` busy over one
    ``interval_s`` (the previous rep's processes have exited and its
    objects are freed), at most ``timeout_s``; returns the seconds waited."""
    t0 = time.monotonic()
    while time.monotonic() - t0 < timeout_s:
        before = cpu_times()
        time.sleep(interval_s)
        if busy_cpu_s(before, cpu_times()) <= max_busy * interval_s * os.cpu_count():
            break
    return time.monotonic() - t0


class CpuMeter:
    """CPU seconds the Ray session of this process spends between
    ``start()`` and ``stop()``: the machine's busy time (which includes
    worker and actor processes that start and exit in between) less what
    processes outside the session, alive at both ends, ran meanwhile.
    Stolen time is not counted, so the figure does not grow with the time
    the hypervisor gives other guests (their load still slows the cores
    it runs on); the steal share is returned beside it."""

    def start(self) -> None:
        self._outside = self._outside_ticks()
        self._stat = cpu_times()

    def stop(self) -> tuple[float, float]:
        stat = cpu_times()
        after = self._outside_ticks()
        outside = sum(t - self._outside[p] for p, t in after.items() if p in self._outside)
        _, steal = busy_and_steal(self._stat, stat)
        return busy_cpu_s(self._stat, stat) - max(0, outside) * TICK_S, steal

    @staticmethod
    def _outside_ticks() -> dict[int, int]:
        table = proc_table()
        mine = set(session_pids(os.getpid(), table))
        return {p: ticks for p, (_, ticks) in table.items() if p not in mine}


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def wait_ended(pids: list[int], timeout_s: float) -> None:
    """Wait for ``pids`` to end; SIGKILL what is left after the timeout."""
    deadline = time.monotonic() + timeout_s
    left = [p for p in pids if _alive(p)]
    while left and time.monotonic() < deadline:
        time.sleep(0.2)
        left = [p for p in left if _alive(p)]
    for p in left:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while any(_alive(p) for p in left):
        time.sleep(0.1)


def _pss_kb(pid: int) -> tuple[int, str]:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            pss = next((int(l.split()[1]) for l in f if l.startswith("Pss:")), 0)
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read(200).decode(errors="replace")
    except OSError:
        return 0, ""
    return pss, cmd


class PssSampler:
    """Background sampler of the summed PSS of this process and every
    process in its Ray session. PSS counts the shared object store once,
    not once per process. Also tracks the membership shard actors'
    share (their process titles name the actor class), and the CPU
    seconds its own sampling took (``cpu_s``), which a rep's CPU
    figure leaves out."""

    def __init__(self, interval_s: float = 1.0):
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self.shard_peak_mb = 0.0
        self.samples = 0
        self.cpu_s = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample(self) -> None:
        t0 = time.thread_time()
        total = shards = 0
        for pid in session_pids(os.getpid()):
            kb, cmd = _pss_kb(pid)
            total += kb
            if "MembershipShard" in cmd:
                shards += kb
        self.peak_mb = max(self.peak_mb, total / 1024.0)
        self.shard_peak_mb = max(self.shard_peak_mb, shards / 1024.0)
        self.samples += 1
        self.cpu_s += time.thread_time() - t0

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def __enter__(self) -> "PssSampler":
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self.sample()
