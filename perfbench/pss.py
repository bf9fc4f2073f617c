"""Peak proportional set size of this process and its descendants.

PSS charges each shared page to the processes mapping it in equal shares,
so forked shard workers that map the same shared-memory CSR block add that
block once in total.  Summing ``VmRSS`` instead counts it once per worker.
"""

from __future__ import annotations

import os
import threading
from typing import List, Optional


def _children(pid: int) -> List[int]:
    kids: List[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids.extend(int(tok) for tok in fh.read().split())
        except OSError:
            continue
    return kids


def _pss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass  # the process ended between listing and reading
    return 0


def tree_pss_mib(root: Optional[int] = None) -> float:
    """Summed ``Pss`` of ``root`` (default: this process) and descendants."""
    stack = [os.getpid() if root is None else root]
    seen = set()
    total = 0
    while stack:
        pid = stack.pop()
        if pid in seen:
            continue
        seen.add(pid)
        total += _pss_kib(pid)
        stack.extend(_children(pid))
    return total / 1024.0


class PssSampler:
    """Background thread recording the peak of :func:`tree_pss_mib`.

    The thread records only while ``active`` is set (the timed blocks), so
    the benchmark's own answer checks between operations do not count.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.active = False
        self.peak_mib = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample(self) -> float:
        value = tree_pss_mib()
        if value > self.peak_mib:
            self.peak_mib = value
        return value

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            if self.active:
                self.sample()

    def start(self) -> "PssSampler":
        self._thread = threading.Thread(
            target=self._loop, name="pss-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> float:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        return self.peak_mib
