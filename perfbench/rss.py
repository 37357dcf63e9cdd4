"""Peak resident memory of this process and of its solver children.

``getrusage(RUSAGE_CHILDREN).ru_maxrss`` cannot be used for the solver:
Linux charges a child, at ``exec``, the high-water RSS of the address
space it replaces, which is the parent's. Every solver child would then
read at least as large as the driver was when it spawned it (188 MiB for
``nspkt fair`` at k=4). The kernel's per-address-space high-water mark
(``VmHWM`` in ``/proc/<pid>/status``) starts afresh at ``exec``, so a
thread samples it for each live solver child instead. The mark only
grows, so a sample misses at most the growth of a child's last
``INTERVAL_S``.
"""

from __future__ import annotations

import os
import threading

INTERVAL_S = 0.01


def vm_hwm_kib(pid="self"):
    """High-water RSS of a process in KiB, or None if it has no memory
    (a zombie) or is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        return None
    return None


class ChildPeak:
    """Samples the high-water RSS of child processes whose command line
    contains ``marker`` while running as a context manager."""

    def __init__(self, marker: bytes):
        self.marker = marker
        self.peak_kib = 0
        self.children = 0
        self._me = str(os.getpid())
        self._seen = set()  # pids that are not, or no longer, to be sampled
        self._live = set()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(INTERVAL_S):
            self._sample()

    def _sample(self):
        pids = {p for p in os.listdir("/proc") if p.isdigit()}
        self._seen &= pids
        self._live &= pids
        for pid in pids - self._seen - self._live:
            try:
                with open(f"/proc/{pid}/stat", "rb") as f:
                    stat = f.read()
                ppid = stat[stat.rindex(b")") + 2:].split()[1].decode()
                if ppid != self._me:
                    self._seen.add(pid)
                    continue
                # read after exec only: before it, the child shares our memory
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    if self.marker not in f.read():
                        continue
            except (OSError, ValueError, IndexError):
                self._seen.add(pid)
                continue
            self._live.add(pid)
            self.children += 1
        for pid in list(self._live):
            kib = vm_hwm_kib(pid)
            if kib is None:
                self._live.discard(pid)
                self._seen.add(pid)
            elif kib > self.peak_kib:
                self.peak_kib = kib
