"""Rotation-extension search engine on plain graph adjacency.

Works purely at the graph level (vertex ints, adjacency tuples, bitmask
membership); used by weakpaths for spanning-cycle search on the shadow
graph. Lifting vertex sequences back to weak paths/cycles
with concrete hyperedges happens in weakpaths, not here.

The core move set mirrors the classic rotation-extension loop:
  * grow the path greedily at its end (random choice among candidates);
  * at a dead end, breadth-first walk the path's rotation closure (start
    vertex fixed), testing each endpoint as soon as a rotation reaches it and
    stopping at the first that can extend; only a failing closure is walked
    to the end;
  * an endpoint adjacent to the start (on 3+ vertices) closes a cycle:
    success if it spans the target, otherwise splice in an outside neighbor
    (possible whenever the target is connected) and keep growing;
  * at a stall, scan the far-side closure of every closure endpoint (its
    reversed representative, smallest endpoint first) before giving up the
    start; restart a few times from random starts, all under one global
    rotation budget.

Paths are `np.intp` arrays from the first growth to the return, so the
per-rotation work is numpy's: a rotated path is one copy with its tail
reversed, made only when the path is read, and a closure scan fills the
positions of each dequeued path with one fancy assignment into a position
array of its own (no buffer is shared between scans). A scan holds a
dequeued path only while a queued rotation names it: each endpoint reached
is stored as a link (parent endpoint, pivot), and a representative that a
stall returns is rebuilt from its links when the search reads it, one at a
time. Growth draws its
candidates from `adj_masks[w] & free`, with the free bitmask kept up to date
as vertices join: the draw is sized by the mask's popcount, and the
candidate it names is found by walking `adj[w]`, so candidates count in
adjacency order. The walk tests each neighbour in a bytearray of the
attempt's free vertices, which `_grow` clears as vertices join the path, so
no big-int shift is made per neighbour walked. `search` converts only what
it returns to lists.

The draws (starts and growth steps) are numpy's `Generator.integers`,
replayed from raw PCG64 words by `randmodels._bounded_draws`, the one model
of numpy's bounded draws that the expansion replay uses too: the same
stream at about a fifth of the cost of a Generator call.

Every structural step preserves the invariant "path vertices distinct,
consecutive vertices adjacent", so results need no post-hoc repair.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .randmodels import _bounded_draws

__all__ = ["ClosureResult", "closure_scan", "search"]

STARTS = 5  # random starts a search may take


class ClosureResult:
    """A closure scan's outcome. "extend" and "cycle" carry the hit `path`;
    "stall" and "budget" carry the scanned `root` and `reps`, which maps
    each endpoint reached to its link: None for the root's endpoint, else
    (parent endpoint, pivot index), the rotation that first reached it.
    `rep(u)` rebuilds u's representative path from the links."""

    __slots__ = ("kind", "path", "root", "reps", "rotations")

    def __init__(self, kind, path=None, root=None, reps=None, rotations=0):
        self.kind = kind  # "extend" | "cycle" | "stall" | "budget"
        self.path = path
        self.root = root
        self.reps = reps
        self.rotations = rotations

    def rep(self, u):
        """The representative path ending at u: the root with the pivots of
        u's chain of links replayed from the root outwards."""
        pivots = []
        while (link := self.reps[u]) is not None:
            u, i = link
            pivots.append(i)
        P = self.root
        for i in reversed(pivots):
            P = _rotated(P, i)
        return P


def _grow(adj, adj_masks, w, free, isfree, draw):
    """Greedy extension from the end vertex `w`, which leaves the free set
    first, into the `free` bitmask: every step draws r in [0, popcount) of
    the candidate mask and the walk along `adj[w]` takes the r-th candidate
    in adjacency order (not vertex order). `isfree` is the same free set as
    a bytearray indexed by vertex, which the walk reads and which is kept
    up to date with `free`. `draw` is the search's
    `randmodels._bounded_draws`, reading raw PCG64 words; a lone candidate
    draws 0 without reading a word, as numpy does. Returns the grown
    vertices and what is left of `free`."""
    grown = []
    while True:
        free ^= 1 << w
        isfree[w] = 0
        cands = adj_masks[w] & free
        if not cands:
            return grown, free
        r = draw(cands.bit_count())
        for x in adj[w]:
            if isfree[x]:
                if not r:
                    break
                r -= 1
        w = x
        grown.append(w)


def _endpoint_hit(adj, adj_masks, u, free, v0, close):
    """How the endpoint u ends a scan: its first neighbor in `free`
    (adjacency order) to extend through, else -1 when `close` and u is
    adjacent to v0 (a cycle closes), else None (no hit)."""
    m = adj_masks[u]
    if m & free:
        return next(x for x in adj[u] if (free >> x) & 1)
    if close and (m >> v0) & 1:
        return -1
    return None


def _hit_result(P, x, rotations):
    """The scan result of an endpoint hit x on the path P."""
    if x < 0:
        return ClosureResult("cycle", path=P, rotations=rotations)
    return ClosureResult("extend", path=np.concatenate((P, (x,))), rotations=rotations)


def _rotated(P, i):
    """P rotated at pivot index i: a copy with its tail after i reversed."""
    R = P.copy()
    R[i + 1 :] = P[:i:-1]
    return R


def closure_scan(adj, adj_masks, path, pmask, target_mask, budget):
    """BFS over the rotation closure of `path` (an `np.intp` array) with
    path[0] fixed.

    Every endpoint is tested once, when a rotation first reaches it (the
    root's own endpoint before the BFS starts): an endpoint with a target
    neighbor off the path ends the scan with "extend" (the rotated path plus
    the first such neighbor in adjacency order); otherwise, once
    the path has >= 3 vertices, an endpoint adjacent to path[0] ends it with
    "cycle" (the closing path). `rotations` counts the rotations performed up
    to that point. If no endpoint passes, returns "stall" with a link per
    endpoint of the full closure, or "budget" with a link per endpoint
    reached when the rotation allowance runs out first; `rep(u)` rebuilds
    a representative from the links. The hit path returned is an array.

    A rotation only names its endpoint until the path is read: the queue
    holds (parent, pivot) pairs, and a rotated path is copied when it is
    dequeued or when it is the hit returned; the endpoint tests need no
    copy. A dequeued path is kept by nothing but the queued rotations that
    name it, so it is freed once the last of them is dequeued: the scan
    holds the parents of its queue, not every path of the closure.
    The scan keeps its own position array, filled by one assignment per
    dequeued path and never cleared: a position is only read for a vertex
    on the path (its `pmask` bit set), and each fill overwrites all of them.
    """
    v0 = path.item(0)
    h = len(path) - 1
    free = target_mask & ~pmask
    close = h >= 2
    hit = _endpoint_hit(adj, adj_masks, path.item(-1), free, v0, close)
    if hit is not None:
        return _hit_result(path, hit, 0)
    reps = {path.item(-1): None}
    pos = np.empty(len(adj), dtype=np.intp)
    order = np.arange(h + 1, dtype=np.intp)
    queue = deque()
    rotations = 0
    P = path
    while True:
        pos[P] = order
        w = P.item(-1)
        for x in adj[w]:
            if not (pmask >> x) & 1:
                continue
            i = pos.item(x)
            if i <= h - 2:
                u = P.item(i + 1)
                if u not in reps:
                    if rotations >= budget:
                        return ClosureResult("budget", root=path, reps=reps, rotations=rotations)
                    rotations += 1
                    hit = _endpoint_hit(adj, adj_masks, u, free, v0, close)
                    if hit is not None:
                        return _hit_result(_rotated(P, i), hit, rotations)
                    reps[u] = (w, i)
                    queue.append((P, i))
        if not queue:
            return ClosureResult("stall", root=path, reps=reps, rotations=rotations)
        P = _rotated(*queue.popleft())


def search(adj, adj_masks, target, gen, max_rotations):
    """Rotation-extension search over the vertices of `target`: up to
    `STARTS` random starts under one allowance of `max_rotations`.

    `gen` is the search's own generator: a PCG64 with no pending half word
    (InputError otherwise), as a fresh `default_rng` or
    `SeededRng.generator()` is. Every draw, a start or a growth step, is
    the one `Generator.integers` would make there, but it is read from raw
    words a block at a time, so `gen` is left ahead of numpy's state and is
    spent: callers make one for the search and drop it.

    Each attempt grows a path and, at every dead end, scans its rotation
    closure (start fixed), resuming growth from the first endpoint that can
    extend. At a stall, the reversed representative of each closure endpoint
    is scanned in turn, smallest endpoint first (one scan sweeps the whole
    far-side closure of that endpoint; the reversed path is among them),
    and the attempt ends once every such orientation has stalled too. Only
    the first stall's result is kept, and each representative is rebuilt
    from its links when its turn comes.

    An endpoint adjacent to the start closes a cycle: one
    spanning the target is returned at once, any other is spliced open
    through an outside neighbor (possible whenever the target is connected).

    Returns (cycle | None, path, rotations_used, restarts_used, exhausted),
    with the cycle and path as lists of vertex ints.
    `path` is the longest stalled orientation (the latest within an
    attempt, the earliest attempt on ties); it has the saturation property:
    every endpoint of its rotation closure (start fixed) has all its target
    neighbors inside V(path). When the allowance ran out before any stall,
    it is the last grown path instead, with no such guarantee.
    `restarts_used` counts the starts after the first. `exhausted` says the
    allowance ran out before the search found a spanning cycle.
    """
    draw = _bounded_draws(gen)
    t_list = sorted(target)
    target_mask = 0
    in_target = bytearray(len(adj))
    for v in t_list:
        target_mask |= 1 << v
        in_target[v] = 1
    rot_used = restarts = 0
    best = None
    out_of_budget = False
    for attempt in range(STARTS):
        if attempt and rot_used >= max_rotations:
            out_of_budget = True
            break
        restarts = attempt
        start = t_list[draw(len(t_list))]
        isfree = in_target.copy()
        grown, free = _grow(adj, adj_masks, start, target_mask, isfree, draw)
        path = np.array([start, *grown], dtype=np.intp)
        pending = stalled = None
        while True:
            res = closure_scan(
                adj, adj_masks, path, target_mask ^ free, target_mask,
                max_rotations - rot_used,
            )
            rot_used += res.rotations
            if res.kind == "budget":
                out_of_budget = True
                break
            if res.kind == "stall":
                stalled = path
                if pending is None:
                    # smallest endpoint is scanned first (popped from the tail);
                    # each representative is rebuilt and reversed only when
                    # its turn comes
                    first = res
                    pending = sorted(res.reps, reverse=True)
                if not pending:
                    break  # every far-side orientation stalled as well
                path = first.rep(pending.pop())[::-1]
                continue
            path = res.path
            if res.kind == "cycle":
                if not free:
                    cycle = path.tolist()
                    return cycle, cycle, rot_used, restarts, False
                idx = next((i for i, v in enumerate(path.tolist()) if adj_masks[v] & free), None)
                if idx is None:
                    break  # the cycle's component is used up: target disconnected
                x = next(x for x in adj[path.item(idx)] if (free >> x) & 1)
                path = np.concatenate((path[idx + 1 :], path[: idx + 1], (x,)))
            grown, free = _grow(adj, adj_masks, path.item(-1), free, isfree, draw)
            if grown:
                path = np.concatenate((path, grown))
            pending = None
        if stalled is not None and (best is None or len(stalled) > len(best)):
            best = stalled
        if out_of_budget:
            break
    return None, (path if best is None else best).tolist(), rot_used, restarts, out_of_budget
