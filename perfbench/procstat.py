"""CPU time and resident memory of a process tree, and wall time net of the
CPU time a shared host withheld, read from ``/proc``.

The tree is this Python driver, the JVM that ``spark-submit`` starts under
it, and the Python worker daemon plus workers under the JVM. A process's
CPU time counts its own user + system ticks and those of its children it
has already reaped, so work done by short-lived workers is not lost.
Peak memory is the sum of each live process's own peak RSS (pages shared
after ``fork`` count once per process).
"""
from __future__ import annotations

import os
import time

_TICK = os.sysconf("SC_CLK_TCK")


def _snapshot() -> dict[int, tuple[int, int]]:
    """pid -> (ppid, cpu ticks incl. reaped children)."""
    procs = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as f:
                raw = f.read()
        except OSError:  # the process ended between listdir and open
            continue
        # fields after "(comm)": state ppid ... utime(11) stime cutime cstime
        fields = raw[raw.rindex(b")") + 2 :].split()
        procs[int(name)] = (int(fields[1]), sum(map(int, fields[11:15])))
    return procs


def _tree(root: int, procs: dict[int, tuple[int, int]]) -> list[int]:
    children: dict[int, list[int]] = {}
    for pid, (ppid, _) in procs.items():
        children.setdefault(ppid, []).append(pid)
    out, stack = [], [root]
    while stack:
        pid = stack.pop()
        if pid in procs:
            out.append(pid)
            stack.extend(children.get(pid, ()))
    return out


def tree_cpu_s() -> float:
    """CPU seconds used so far by this process and every process below it."""
    procs = _snapshot()
    return sum(procs[p][1] for p in _tree(os.getpid(), procs)) / _TICK


def descendants() -> list[int]:
    """Live processes below this one."""
    return [p for p in _tree(os.getpid(), _snapshot()) if p != os.getpid()]


def wait_ended(pids: list[int], timeout_s: float) -> list[int]:
    """Wait up to ``timeout_s`` for ``pids`` to end (a zombie has ended);
    returns those still running."""
    deadline = time.monotonic() + timeout_s
    while True:
        left = []
        for pid in pids:
            try:
                with open(f"/proc/{pid}/stat", "rb") as f:
                    raw = f.read()
            except OSError:
                continue
            if raw[raw.rindex(b")") + 2 :].split()[0] != b"Z":
                left.append(pid)
        if not left or time.monotonic() >= deadline:
            return left
        time.sleep(0.1)


def _host_cpu_s() -> tuple[float, float]:
    """(busy, steal) CPU seconds of this machine so far, summed over CPUs."""
    with open("/proc/stat") as f:
        # cpu user nice system idle iowait irq softirq steal ...
        t = [int(x) for x in f.readline().split()[1:9]]
    return (t[0] + t[1] + t[2] + t[5] + t[6]) / _TICK, t[7] / _TICK


class Lap:
    """Wall time of one interval, and the same interval with the time the
    hypervisor withheld from this machine's CPUs taken out.

    On a shared host a virtual CPU that has work can be descheduled
    ("steal" in ``/proc/stat``); the work in flight then just waits. Over
    the interval, a share ``steal / (busy + steal)`` of the CPU time this
    machine asked for was withheld, so every running thread advanced that
    much slower; ``unstolen_s`` is the wall time scaled by the share it
    got, i.e. the time the interval would take had the host not withheld
    any. Without steal the two are equal.
    """

    def __init__(self):
        self.t0 = time.perf_counter()
        self.busy0, self.steal0 = _host_cpu_s()

    def stop(self) -> dict:
        wall = time.perf_counter() - self.t0
        busy, steal = _host_cpu_s()
        busy, steal = busy - self.busy0, steal - self.steal0
        got = busy / (busy + steal) if busy + steal > 0 else 1.0
        return {"wall_s": wall, "host_steal_s": steal, "unstolen_s": wall * got}


def tree_peak_rss_mb() -> float:
    """Sum over the live tree of each process's peak resident memory
    (``VmHWM``, kept by the kernel, so no sampling is needed), MiB."""
    total_kb = 0
    for pid in _tree(os.getpid(), _snapshot()):
        try:
            with open(f"/proc/{pid}/status") as f:
                total_kb += next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
        except (OSError, StopIteration):  # ended, or a kernel thread without VmHWM
            continue
    return total_kb / 1024
