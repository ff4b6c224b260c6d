"""Bitmask subset DP over shadow adjacency masks.

`adj` is an int64 array where bit w of adj[v] means v ~ w; adjacency must be
symmetric and n <= 20, so every subset fits an int64 index. Callers are
expected to enforce the n <= 20 capability bound.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["endpoints"]


@lru_cache(maxsize=None)
def _layers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All subsets of n vertices ordered by popcount, ascending within each
    popcount, plus the offset of each popcount's block."""
    pop = np.bitwise_count(np.arange(1 << n, dtype=np.int32))
    order = np.argsort(pop, kind="stable").astype(np.int32)
    offsets = np.concatenate(([0], np.cumsum(np.bincount(pop, minlength=n + 1))))
    order.setflags(write=False)
    return order, offsets


def layer(n: int, k: int) -> np.ndarray:
    """The subsets of n vertices with popcount k, in ascending order
    (read-only int32)."""
    order, offsets = _layers(n)
    return order[offsets[k] : offsets[k + 1]]


def endpoints(adj, n: int) -> np.ndarray:
    """dp[S] = bitmask of the vertices v such that some simple path with
    vertex set exactly S starts at vertex 0 and ends at v.

    Layer k is pulled from layer k-1: w ends a path on T iff w is in T and
    dp[T ^ {w}] holds a neighbour of w. When T lacks w, T ^ {w} lies in
    layer k+1, still all zero, so no membership test is needed.
    """
    adj = np.asarray(adj, dtype=np.int64)
    dp = np.zeros(1 << n, dtype=np.int64)
    dp[1] = 1
    for k in range(2, n + 1):
        T = layer(n, k)
        acc = np.zeros(T.size, dtype=np.int64)
        for w in range(n):
            acc |= ((dp[T ^ (1 << w)] & adj[w]) != 0).astype(np.int64) << w
        dp[T] = acc
    return dp
