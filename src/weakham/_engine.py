"""Rotation-extension search engine on plain graph adjacency.

Works purely at the graph level (vertex ints, adjacency tuples, bitmask
membership); used by weakpaths both for spanning-cycle search on the shadow
graph and for long-path construction inside projections. Lifting vertex
sequences back to weak paths/cycles with concrete hyperedges happens in
weakpaths, not here.

The core move set mirrors the classic rotation-extension loop:
  * grow the path greedily at its end (random choice among candidates);
  * at a dead end, breadth-first walk the path's rotation closure (start
    vertex fixed), testing each endpoint as soon as a rotation reaches it and
    stopping at the first that can extend; only a failing closure is walked
    to the end;
  * if an endpoint is adjacent to the start, close a cycle: success if it
    spans the target, otherwise splice in an outside neighbor (possible
    whenever the target is connected) and keep growing;
  * reverse the path once before giving up an orientation, restart a few
    times from random starts, all under a global rotation budget.

Every structural step preserves the invariant "path vertices distinct,
consecutive vertices adjacent", so results need no post-hoc repair.
"""

from __future__ import annotations

from collections import deque

__all__ = ["ClosureResult", "closure_scan", "spanning_cycle_search", "stalled_longest_path"]


class ClosureResult:
    __slots__ = ("kind", "path", "reps", "rotations")

    def __init__(self, kind, path=None, reps=None, rotations=0):
        self.kind = kind  # "extend" | "cycle" | "stall" | "budget"
        self.path = path
        self.reps = reps
        self.rotations = rotations


def _grow(adj, path, pmask, target_mask, gen):
    """Greedy extension at the path's right end; random candidate choice."""
    while True:
        w = path[-1]
        cands = [x for x in adj[w] if (target_mask >> x) & 1 and not (pmask >> x) & 1]
        if not cands:
            return pmask
        x = cands[int(gen.integers(len(cands)))] if len(cands) > 1 else cands[0]
        path.append(x)
        pmask |= 1 << x


def _endpoint_hit(adj, adj_masks, P, free, v0, close, rotations):
    """Success test for the endpoint of P: "extend" through its first
    neighbor in `free` (adjacency order), else — when `close` — "cycle" if it
    is adjacent to v0, else None."""
    u = P[-1]
    m = adj_masks[u]
    if m & free:
        x = next(x for x in adj[u] if (free >> x) & 1)
        return ClosureResult("extend", path=P + [x], rotations=rotations)
    if close and (m >> v0) & 1:
        return ClosureResult("cycle", path=P, rotations=rotations)
    return None


def closure_scan(adj, adj_masks, path, pmask, target_mask, budget, close, posbuf):
    """BFS over the rotation closure of `path` with path[0] fixed.

    Every endpoint is tested once, when a rotation first reaches it (the
    root's own endpoint before the BFS starts): an endpoint with a target
    neighbor off the path ends the scan with "extend" (the rotated path plus
    the first such neighbor in adjacency order); otherwise, when `close` and
    the path has >= 3 vertices, an endpoint adjacent to path[0] ends it with
    "cycle" (the closing path). `rotations` counts the rotations performed up
    to that point. If no endpoint passes, returns "stall" with one
    representative path per endpoint of the full closure, or "budget" when
    the rotation allowance runs out first. `posbuf` is a reusable int list
    of size >= the graph order (filled/cleared per representative).
    """
    v0 = path[0]
    h = len(path) - 1
    free = target_mask & ~pmask
    close = close and h >= 2
    reps = {path[-1]: path}
    result = _endpoint_hit(adj, adj_masks, path, free, v0, close, 0)
    if result is not None or h < 2:
        return result or ClosureResult("stall", reps=reps, rotations=0)
    queue = deque((path,))
    rotations = 0
    while queue and result is None:
        P = queue.popleft()
        for idx, v in enumerate(P):
            posbuf[v] = idx
        for x in adj[P[-1]]:
            if not (pmask >> x) & 1:
                continue
            i = posbuf[x]
            if i <= h - 2:
                u = P[i + 1]
                if u not in reps:
                    if rotations >= budget:
                        result = ClosureResult("budget", reps=reps, rotations=rotations)
                        break
                    rotations += 1
                    newP = P[: i + 1] + P[:i:-1]
                    result = _endpoint_hit(adj, adj_masks, newP, free, v0, close, rotations)
                    if result is not None:
                        break
                    reps[u] = newP
                    queue.append(newP)
        for v in P:
            posbuf[v] = -1
    return result or ClosureResult("stall", reps=reps, rotations=rotations)


def spanning_cycle_search(adj, adj_masks, target, gen, max_rotations, max_restarts=4):
    """Search for a cycle through exactly the vertices of `target`.

    Returns (cycle_vertices | None, best_path_vertices, rotations_used,
    restarts_used, exhausted); restarts_used counts the random starts after
    the first, at most max_restarts. A returned cycle is a vertex list whose
    consecutive members (and last->first) are adjacent and whose set equals
    target. When target is connected, a stalled non-spanning cycle can
    always be spliced open, so failures come only from rotation-budget or
    restart exhaustion.
    """
    n = len(adj)
    posbuf = [-1] * n
    t_list = sorted(target)
    target_mask = 0
    for v in t_list:
        target_mask |= 1 << v
    best: list[int] = []
    rot_used = 0
    restarts = 0
    exhausted = False
    for attempt in range(max_restarts + 1):
        if rot_used >= max_rotations:
            exhausted = True
            break
        restarts = attempt
        start = t_list[int(gen.integers(len(t_list)))]
        path = [start]
        pmask = 1 << start
        pmask = _grow(adj, path, pmask, target_mask, gen)
        tried_reverse = False
        while True:
            if len(path) > len(best):
                best = list(path)
            res = closure_scan(
                adj, adj_masks, path, pmask, target_mask,
                max_rotations - rot_used, close=True, posbuf=posbuf,
            )
            rot_used += res.rotations
            if res.kind == "extend":
                path = res.path
                pmask |= 1 << path[-1]
                pmask = _grow(adj, path, pmask, target_mask, gen)
                tried_reverse = False
                continue
            if res.kind == "cycle":
                cyc = res.path
                if pmask == target_mask:
                    if len(cyc) > len(best):
                        best = list(cyc)
                    return cyc, best, rot_used, restarts, False
                spliced = False
                for idx, v in enumerate(cyc):
                    ext = [
                        x for x in adj[v]
                        if (target_mask >> x) & 1 and not (pmask >> x) & 1
                    ]
                    if ext:
                        x = ext[0]
                        path = cyc[idx + 1 :] + cyc[: idx + 1] + [x]
                        pmask |= 1 << x
                        pmask = _grow(adj, path, pmask, target_mask, gen)
                        tried_reverse = False
                        spliced = True
                        break
                if spliced:
                    continue
                break  # cycle's component exhausted: target disconnected
            if res.kind == "stall":
                if not tried_reverse and len(path) >= 2:
                    tried_reverse = True
                    path = path[::-1]
                    continue
                break  # genuine stall: restart
            # budget
            exhausted = True
            break
        if exhausted:
            break
    return None, best, rot_used, restarts, exhausted


def stalled_longest_path(adj, adj_masks, allowed, gen, max_rotations, attempts=1):
    """Grow-and-rotate until no closure endpoint can extend; return the
    longest stalled path over `attempts` random starts.

    Stalls are escaped two-sidedly: when the closure of the current
    orientation stalls, the reversed representative of each closure endpoint
    is scanned in turn (one scan sweeps the entire far-side closure of that
    endpoint), resuming growth from the first orientation that can extend.
    The returned path P is the most recent stalled orientation, so it has
    the saturation property: every endpoint of the rotation closure of P
    (start fixed) has all its neighbors inside V(P).
    Returns (path_vertices, rotations_used, exhausted).
    """
    n = len(adj)
    posbuf = [-1] * n
    a_list = sorted(allowed)
    target_mask = 0
    for v in a_list:
        target_mask |= 1 << v
    rot_used = 0
    best: list[int] | None = None
    path = [a_list[0]]
    out_of_budget = False
    for k in range(max(1, attempts)):
        if k > 0 and rot_used >= max_rotations:
            break
        start = a_list[int(gen.integers(len(a_list)))]
        path = [start]
        pmask = 1 << start
        pmask = _grow(adj, path, pmask, target_mask, gen)
        pending: list[list[int]] | None = None
        stalled: list[int] | None = None
        while True:
            res = closure_scan(
                adj, adj_masks, path, pmask, target_mask,
                max_rotations - rot_used, close=False, posbuf=posbuf,
            )
            rot_used += res.rotations
            if res.kind == "extend":
                path = res.path
                pmask |= 1 << path[-1]
                pmask = _grow(adj, path, pmask, target_mask, gen)
                pending = None
                continue
            if res.kind != "stall":
                break  # budget
            stalled = path
            if pmask == target_mask:
                break  # path already spans the target: no extension exists
            if pending is None:
                # smallest endpoint is tried first (popped from the tail)
                pending = [res.reps[u][::-1] for u in sorted(res.reps, reverse=True)]
            if pending:
                path = pending.pop()
                continue
            break  # every far-side orientation stalled as well
        if stalled is not None and (best is None or len(stalled) > len(best)):
            best = stalled
        if res.kind == "budget":
            out_of_budget = True
            break
    exhausted = best is None and out_of_budget
    if best is None:
        # budget ran out before any stall: fall back to the last grown path
        # (not saturation-guaranteed; callers check `exhausted`).
        best = path
    return best, rot_used, exhausted
