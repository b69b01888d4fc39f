"""CPU and resident memory of the benchmark process and its Ray session, from /proc.

The session's processes (GCS, raylet, workers, actors) all descend from
the process that called `ray.init`, so that process's subtree is
the session. Linux only; the benchmark adds no dependency.
"""

from __future__ import annotations

import os
import signal
import threading
import time

_TICK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat(pid) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            raw = f.read()
    except OSError:
        return None
    # comm may hold spaces and parentheses: split after the last ')'
    return raw[raw.rindex(b")") + 2 :].decode().split()


def subtree(root: int) -> list[int]:
    """`root` and every live process descending from it."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        st = _stat(int(name))
        if st is not None:
            children.setdefault(int(st[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def cpu_seconds(pid: int) -> float | None:
    st = _stat(pid)
    if st is None:
        return None
    # fields 14 and 15 of /proc/pid/stat: utime, stime (index 11, 12 here)
    return (int(st[11]) + int(st[12])) / _TICK


def rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm", "rb") as f:
            return int(f.read().split()[1]) * _PAGE
    except (OSError, IndexError, ValueError):
        return 0


def cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


class SessionSampler:
    """Samples this process's subtree while a timed call runs.

    CPU: per-process utime+stime at start and at stop, less the sampling
    thread's own; a process that exits mid-call keeps the CPU it had at
    its last sample. RSS: peak of
    the subtree's summed resident set over the samples. Actors: distinct
    pids whose title names `actor_tag`."""

    def __init__(self, interval_s: float = 0.1, actor_tag: str = "ExtractTurns"):
        self.interval_s = interval_s
        self.actor_tag = actor_tag
        self.root = os.getpid()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._cpu0: dict[int, float] = {}
        self._cpu: dict[int, float] = {}
        self.peak_rss = 0
        self.actors: set[int] = set()
        self._titles: dict[int, str] = {}
        self._own_cpu = 0.0

    def _sample(self) -> None:
        total = 0
        for pid in subtree(self.root):
            c = cpu_seconds(pid)
            if c is None:
                continue
            self._cpu[pid] = c
            total += rss_bytes(pid)
            title = self._titles.get(pid)
            if title is None or self.actor_tag not in title:
                # a worker takes its actor title after it starts
                title = self._titles[pid] = cmdline(pid)
                if self.actor_tag in title:
                    self.actors.add(pid)
        self.peak_rss = max(self.peak_rss, total)

    def _loop(self) -> None:
        tid = threading.get_native_id()
        while not self._stop.wait(self.interval_s):
            self._sample()
        st = _stat(f"{self.root}/task/{tid}")
        self._own_cpu = (int(st[11]) + int(st[12])) / _TICK

    def start(self) -> None:
        self._sample()
        self._cpu0 = dict(self._cpu)
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self._sample()

    @property
    def cpu_s(self) -> float:
        used = sum(c - self._cpu0.get(pid, 0.0) for pid, c in self._cpu.items())
        return used - self._own_cpu


def _alive(pids: list[int]) -> list[int]:
    out = []
    for pid in pids:
        try:
            if os.waitpid(pid, os.WNOHANG)[0] == pid:
                continue  # our own child, now reaped
        except ChildProcessError:
            pass  # not our child: its parent reaps it
        st = _stat(pid)
        if st is not None and st[0] != "Z":
            out.append(pid)
    return out


def end_processes(pids: list[int], grace_s: float) -> None:
    """Wait up to grace_s for pids to exit, SIGKILL the rest, and wait
    (up to 10 s more) until they are gone."""
    alive = _alive(pids)
    for deadline, kill in ((grace_s, True), (10.0, False)):
        end = time.monotonic() + deadline
        while alive and time.monotonic() < end:
            time.sleep(0.05)
            alive = _alive(alive)
        if not kill:
            break
        for pid in alive:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def descendants() -> list[int]:
    me = os.getpid()
    return [p for p in subtree(me) if p != me]
