"""A fixed reference loop that measures how fast this machine runs
interpreted Python at the moment, so that run times can be rescaled.

On a virtual machine whose cores are shared with other guests, the CPU time
of identical work drifts by up to a half within minutes (2 vCPU Xeon,
Python 3.11: a process-n16 table took 3.8 s of CPU time and, repeated half
a minute later, 2.4 s; the spread of trials per CPU second over ten runs
reached about a quarter). The benchmark runs this loop before each table and
after the last one, on as many processes at once as the table uses, and
rescales each table's CPU time by the loop times around it to a machine on
which the loop takes REFERENCE_SECONDS.

The loop is a Hamilton-path subset DP over bitmasks on a fixed 16-vertex
graph: interpreted integer and list work over a 64k-entry table, the kind of
work the package's pure-Python kernels do. It imports nothing from weakham,
so no change to the package moves it.

Standard library only.
"""

from __future__ import annotations

import multiprocessing
import random
import resource
import time

# about the loop's CPU time on the machine the bounds were set on, so that
# rescaled rates read close to rates per CPU second there
REFERENCE_SECONDS = 0.060
_N = 16


def _graph(n: int, p: float, seed: int) -> list[int]:
    rng = random.Random(seed)
    adj = [0] * n
    for v in range(n):
        for w in range(v + 1, n):
            if rng.random() < p:
                adj[v] |= 1 << w
                adj[w] |= 1 << v
    return adj


_ADJ = _graph(_N, 0.35, 5)


def loop() -> int:
    """Endpoint masks of the paths from vertex 0 over every vertex subset;
    returns the mask for the full set."""
    dp = [0] * (1 << _N)
    dp[1] = 1
    for S in range(1, 1 << _N, 2):
        rest = dp[S]
        while rest:
            vbit = rest & -rest
            rest ^= vbit
            targets = _ADJ[vbit.bit_length() - 1] & ~S
            while targets:
                wbit = targets & -targets
                targets ^= wbit
                dp[S | wbit] |= wbit
    return dp[-1]


def children_cpu() -> float:
    """CPU time of the child processes reaped so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def loop_seconds(processes: int) -> float:
    """Mean CPU seconds of one loop when `processes` copies run at once."""
    if processes == 1:
        start = time.process_time()
        loop()
        return time.process_time() - start
    # fork, as the package's own pool does: the children only run `loop`,
    # and a spawned child would spend longer starting than looping
    ctx = multiprocessing.get_context("fork")
    before = children_cpu()
    procs = [ctx.Process(target=loop) for _ in range(processes)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join()
    return (children_cpu() - before) / processes


def scaled_seconds(table_seconds, loop_samples) -> float:
    """Sum of table CPU times, each rescaled by the mean of the loop samples
    taken just before and just after it: one sample more than tables."""
    return sum(t * 2 * REFERENCE_SECONDS / (a + b)
               for t, a, b in zip(table_seconds, loop_samples[:-1], loop_samples[1:],
                                  strict=True))
