"""How fast the host runs right now, from a fixed slice of CPU work.

The reference host is a shared 2-core VM whose speed swings by up to 1.8x
between phases lasting minutes: ten ``whatif`` runs read
``dispatch_p50_s`` 70-75 ms in one phase and 116-135 ms in the next, and
fourteen runs of identical work within two minutes read 96-158 ms.  No run
length averages that away, so the client times a fixed slice of work
after every round, on the server's core while the server is idle, and
the timings are reported in reference-host seconds: the raw value divided
by the host's slowdown, the median slice time over :data:`REFERENCE_S`
(README.md has the measured effect).  The slice uses no ``repro`` code, so
making the service faster can never make the probe faster and cancel the
gain.  Nor can making it slower: a slice during which any thread of the
service ran (work deferred past the response, a busy background thread,
shard heartbeats) is discarded, so service work never slows a kept probe.
The raw timings are printed beside the scaled ones.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

#: Median slice time that defines the reference host (seconds); the
#: 2-core reference VM reads 2.6-3.4 ms.
REFERENCE_S = 0.003


def slice_seconds() -> float:
    """Wall time of one fixed slice: dict churn, a sort, numpy sort and scan."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(6_000):
        key = (i * 7919) % 10_007
        table[key] = table.get(key, 0) + i
    ordered = sorted(table.items(), key=lambda kv: kv[1])
    values = (np.arange(20_000, dtype=np.int64) * 2_654_435_761) % 1_000_003
    order = np.argsort(values, kind="stable")
    checksum = int(values[order].cumsum()[-1]) + ordered[0][0]
    elapsed = time.perf_counter() - start
    if checksum < 0:  # consume the result inside the timed region
        raise AssertionError("unreachable")
    return elapsed


def thread_activity(pids: Iterable[int]) -> Dict[int, Tuple[str, str]]:
    """Each thread of ``pids``: its scheduler state and run counters.

    The counters are ``schedstat`` (CPU nanoseconds, wait, times run) where
    the kernel keeps it, else utime and stime ticks from ``stat``.  They
    move when a thread stops running, not while it runs, so a thread busy
    through a whole slice shows only as state ``R``.  A thread that has
    exited, or a process that is gone, is simply absent.
    """
    out: Dict[int, Tuple[str, str]] = {}
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            base = f"/proc/{pid}/task/{tid}/"
            try:
                with open(base + "stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            try:
                with open(base + "schedstat") as fh:
                    counters = fh.read().strip()
            except OSError:
                counters = " ".join(fields[11:13])
            out[int(tid)] = (fields[0], counters)
    return out


def idle_slice_seconds(pids: Iterable[int]) -> Optional[float]:
    """One slice's wall time, or ``None`` if the service ran during it.

    ``pids`` are the service's processes.  The slice is kept only if no
    thread of theirs was running at the readings taken before and after
    it, and none started, ended or ran in between.
    """
    pids = list(pids)
    before = thread_activity(pids)
    elapsed = slice_seconds()
    after = thread_activity(pids)
    states = [state for state, _ in (*before.values(), *after.values())]
    if after != before or "R" in states:
        return None
    return elapsed


def slowdown(probes: List[float]) -> float:
    """Host slowdown against the reference phase (2.0 = twice as slow)."""
    return statistics.median(probes) / REFERENCE_S
