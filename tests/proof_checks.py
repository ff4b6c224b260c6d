"""Checks that only tests read: the proof's structures (rotations, Pósa
closures, boosters, stalled paths, weak cycles of a given length), an
exact decider that never consults the shadow reduction, and the definition
of non-expansion. Closures and stalled paths run the list-based reference
engine kept here, with its `close` switch off; the tests check it result for
result against the package's rotation engine, whose one mode always closes
cycles. Witnesses go through the package's witness check.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping

import numpy as np

from weakham import _bitdp
from weakham.errors import CapabilityError, InputError
from weakham.hypercore import Hypergraph, _reach, neighbors, non_isolated_vertices
from weakham.oracle import (DP_MAX_VERTICES, OracleVerdict, _backtrack, _lowest_bit,
                            _trivial_no)
from weakham.randmodels import SeededRng
from weakham.weakpaths import (WeakCycle, WeakPath, _check_witness, default_rotation_budget,
                               lift_cycle, lift_path, validate)

DIRECT_MAX_VERTICES = 16


def reversed_path(P: WeakPath) -> WeakPath:
    """P walked from its other end."""
    return WeakPath(P.vertices[::-1], P.edges[::-1])


def _mask(vertices):
    return sum(1 << v for v in vertices)


# The list-based engine that the package's array engine replaced, kept as
# an independent reference: same BFS order, RNG calls and sweep, with each
# position table filled and cleared by Python loops. It keeps the `close`
# switch and the start count the package's engine dropped; posa_set and
# stalled_path run it with `close` off.


def _list_grow(adj, path, pmask, target_mask, gen):
    while True:
        w = path[-1]
        cands = [x for x in adj[w] if (target_mask >> x) & 1 and not (pmask >> x) & 1]
        if not cands:
            return pmask
        x = cands[int(gen.integers(len(cands)))] if len(cands) > 1 else cands[0]
        path.append(x)
        pmask |= 1 << x


def _list_endpoint_hit(adj, adj_masks, P, free, v0, close, rotations):
    u = P[-1]
    if adj_masks[u] & free:
        x = next(x for x in adj[u] if (free >> x) & 1)
        return "extend", P + [x], None, rotations
    if close and (adj_masks[u] >> v0) & 1:
        return "cycle", P, None, rotations
    return None


def _list_closure_scan(adj, adj_masks, path, pmask, target_mask, budget, close, posbuf):
    v0, h = path[0], len(path) - 1
    free = target_mask & ~pmask
    close = close and h >= 2
    reps = {path[-1]: path}
    result = _list_endpoint_hit(adj, adj_masks, path, free, v0, close, 0)
    if result is not None or h < 2:
        return result or ("stall", None, reps, 0)
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
            if i <= h - 2 and P[i + 1] not in reps:
                if rotations >= budget:
                    result = ("budget", None, reps, rotations)
                    break
                rotations += 1
                newP = P[: i + 1] + P[:i:-1]
                result = _list_endpoint_hit(adj, adj_masks, newP, free, v0, close, rotations)
                if result is not None:
                    break
                reps[P[i + 1]] = newP
                queue.append(newP)
        for v in P:
            posbuf[v] = -1
    return result or ("stall", None, reps, rotations)


def _list_search(adj, adj_masks, target, gen, max_rotations, attempts, close):
    posbuf = [-1] * len(adj)
    t_list = sorted(target)
    target_mask = _mask(t_list)
    rot_used = restarts = 0
    best = None
    out_of_budget = False
    for attempt in range(max(1, attempts)):
        if attempt and rot_used >= max_rotations:
            out_of_budget = True
            break
        restarts = attempt
        start = t_list[int(gen.integers(len(t_list)))]
        path = [start]
        pmask = _list_grow(adj, path, 1 << start, target_mask, gen)
        pending = stalled = None
        while True:
            kind, newpath, reps_, rots = _list_closure_scan(
                adj, adj_masks, path, pmask, target_mask,
                max_rotations - rot_used, close, posbuf,
            )
            rot_used += rots
            if kind == "budget":
                out_of_budget = True
                break
            if kind == "stall":
                stalled = path
                if not close and pmask == target_mask:
                    break
                if pending is None:
                    reps = reps_
                    pending = sorted(reps, reverse=True)
                if not pending:
                    break
                path = reps.pop(pending.pop())[::-1]
                continue
            path = newpath
            if kind == "cycle":
                if pmask == target_mask:
                    return path, path, rot_used, restarts, False
                free = target_mask & ~pmask
                idx = next((i for i, v in enumerate(path) if adj_masks[v] & free), None)
                if idx is None:
                    break
                x = next(x for x in adj[path[idx]] if (free >> x) & 1)
                path = path[idx + 1 :] + path[: idx + 1] + [x]
            pmask = _list_grow(adj, path, pmask | 1 << path[-1], target_mask, gen)
            pending = None
        if stalled is not None and (best is None or len(stalled) > len(best)):
            best = stalled
        if out_of_budget:
            break
    exhausted = out_of_budget and (close or best is None)
    return None, best or path, rot_used, restarts, exhausted


def rotate(P: WeakPath, e: tuple[int, ...], i: int) -> WeakPath:
    """Rotate P = (v0, e1, v1, ..., eh, vh) by edge e at pivot index i:

        P' = (v0, e1, ..., e_i, v_i, e, vh, e_h, v_{h-1}, ..., e_{i+2}, v_{i+1})

    Requires v_h in e, v_i in e, and 0 <= i <= h-2. The suffix after v_i is
    reversed and re-entered through e: the vertex set and the start are
    unchanged and the endpoint becomes v_{i+1}. The suffix edges shift down
    by one relative to the suffix vertices (an index-shifted variant would
    break the coverage invariant). Iterating rotations from a fixed start
    yields the Pósa set S of reachable endpoints; for genuinely
    non-extendable paths, |N(S)| < 2|S|.

    e may coincide with an edge already on the path (repetition is the point
    of weak objects). Membership of e in the host hypergraph is the caller's
    contract, as the path does not carry its host.
    """
    h = len(P.edges)
    if not (0 <= i <= h - 2):
        raise InputError(f"pivot index {i} outside [0, {h - 2}] for a path of length {h}")
    vh = P.vertices[-1]
    vi = P.vertices[i]
    if vh not in e:
        raise InputError(f"rotation edge {e} does not contain the endpoint {vh}")
    if vi not in e:
        raise InputError(f"rotation edge {e} does not contain the pivot vertex {vi}")
    new_vertices = P.vertices[: i + 1] + P.vertices[:i:-1]
    # edges after the pivot: e_h, e_{h-1}, ..., e_{i+2}  (stored indices h-1 .. i+1)
    new_edges = P.edges[:i] + (e,) + P.edges[h - 1 : i : -1]
    return WeakPath(new_vertices, new_edges)


def audit_rotations(H: Hypergraph, P, ps) -> list[str]:
    """Audit the closure `ps = posa_set(H, P, P.vertices[0])` against the
    public rotate: every representative other than the base must pass
    validate, keep P's vertex set and start, end at its endpoint, and equal
    rotate(R, e, i) for some other representative R, where e is the cover
    edge of the pivot pair (R.vertices[i], R.vertices[-1]). Returns one
    fault per failing representative. The cover edge is the one lift_path
    picks, the lexicographically smallest edge covering the pair; an
    uncovered pair raises InputError there and is no rotation."""
    reps = ps.representatives

    def rotated_from(R, Q):
        i = R.vertices.index(Q.vertices[-1]) - 1
        if not 0 <= i <= len(R.edges) - 2:
            return False
        try:
            e = lift_path(H, (R.vertices[i], R.vertices[-1])).edges[0]
        except InputError:
            return False
        return rotate(R, e, i) == Q

    faults = []
    for u, Q in reps.items():
        if u == P.vertices[-1]:
            continue
        check = validate(Q, H)
        if not check.ok:
            faults.append(f"endpoint {u}: {check.violation}")
        elif (set(Q.vertices) != set(P.vertices) or Q.vertices[0] != P.vertices[0]
              or Q.vertices[-1] != u):
            faults.append(f"endpoint {u}: vertex set, start or end changed")
        elif not any(rotated_from(R, Q) for w, R in reps.items() if w != u):
            faults.append(f"endpoint {u}: not a rotation of any representative")
    return faults

@dataclass(frozen=True)
class PosaSet:
    """Rotation closure of a base path with its start fixed.

    endpoints: every endpoint reachable by rotations (the start excluded).
    representatives: one witnessing path per endpoint (same vertex set as the
    base, same start).
    saturated: True iff every discovered endpoint has all its neighbors
    inside the path's vertex set — the hypothesis under which the Pósa
    inequality |N(S)| < 2|S| is guaranteed (and asserted at construction).
    posa_inequality: whether |N(S)| < 2|S| held, recorded either way.
    """

    v0: int
    base: WeakPath
    endpoints: frozenset[int]
    representatives: Mapping[int, WeakPath] = field(repr=False)
    saturated: bool
    posa_inequality: bool


def posa_set(H: Hypergraph, P: WeakPath, v0: int) -> PosaSet:
    """Breadth-first rotation closure of P fixing the start v0, walked by
    the reference engine's closure scan on the shadow graph.

    v0 must be an endpoint of P (the path is reversed internally if it is the
    last vertex). The base path is kept as given; every other representative
    is lifted by lift_path, through the lexicographically smallest hyperedge
    covering each consecutive pair. So when P itself uses a covering edge
    that is not the smallest, the other representatives use the smallest one
    instead (paths from stalled_path or lift_path already do).

    When the closure is saturated (no discovered endpoint can leave the
    path's vertex set — true whenever P really is a longest path), the Pósa
    inequality |N(S)| < 2|S| is asserted; for unsaturated inputs it is only
    recorded, since the inequality's hypothesis does not hold.
    """
    vres = validate(P, H)
    if not vres.ok:
        raise InputError(f"base path invalid: {vres.violation}")
    if len(P.edges) < 1:
        raise InputError("path too short for a rotation closure (need h >= 1)")
    if v0 == P.vertices[-1] and v0 != P.vertices[0]:
        P = reversed_path(P)
    if v0 != P.vertices[0]:
        raise InputError(f"v0={v0} is not an endpoint of the path")
    pmask = _mask(P.vertices)
    shadow = H.shadow
    masks = shadow.adj_masks
    # no target vertex lies off the path, so no endpoint can extend, and a
    # closure has at most h endpoints, so the allowance of h rotations never
    # runs out: the scan always ends in "stall" with the full closure
    _, _, reps, _ = _list_closure_scan(
        shadow.adj, masks, list(P.vertices), pmask, pmask, len(P.edges), False, [-1] * H.n
    )
    reps = {w: P if w == P.vertices[-1] else lift_path(H, R) for w, R in reps.items()}
    endpoints = frozenset(reps)
    saturated = all(masks[w] & ~pmask == 0 for w in endpoints)
    nbrs = neighbors(H, endpoints)
    inequality = len(nbrs) < 2 * len(endpoints)
    if saturated and not inequality:
        raise AssertionError(
            f"Posa inequality violated on a saturated closure: |N(S)| = {len(nbrs)}, "
            f"2|S| = {2 * len(endpoints)}"
        )
    return PosaSet(
        v0=P.vertices[0],
        base=P,
        endpoints=endpoints,
        representatives=reps,
        saturated=saturated,
        posa_inequality=inequality,
    )


def booster_lower_bound(n: int, d: int, u: int) -> Fraction:
    """Exact rational lower bound u*(C(n-1,d-1) - C(n-1-u,d-1))/d for the
    number of absent edges that close a longest path into a weak cycle."""
    if not (0 <= u <= n - 1):
        raise InputError(f"u={u} outside [0, {n - 1}]")
    return Fraction(u * (math.comb(n - 1, d - 1) - math.comb(n - 1 - u, d - 1)), d)


_BOOSTER_ENUM_LIMIT = 500_000


def booster_edges(H: Hypergraph, P: WeakPath) -> frozenset[tuple[int, ...]]:
    """Absent d-sets whose addition closes the longest path P into a weak
    cycle of length h+1.

    Caller contract: P is a longest weak path in H and H has no weak cycle of
    length h+1. For each endpoint w of the rotation closure of P (start
    fixed), the closure of the reversed representative is computed from w;
    every absent d-set containing w and at least one endpoint of that second
    closure is emitted. Each emitted set, once added, closes the witnessing
    representative into a weak (h+1)-cycle.

    Present d-sets joining w to its second closure are skipped, never
    emitted (emission is defined over absent sets only); under the caller
    contract no such present edge can exist anyway, since it would already
    close a weak (h+1)-cycle. In particular a hypergraph carrying every edge
    on its vertex support yields the empty set.
    """
    vres = validate(P, H)
    if not vres.ok:
        raise InputError(f"path invalid: {vres.violation}")
    if len(P.edges) < 2:
        raise InputError("booster enumeration needs a path of length >= 2")
    if math.comb(H.n - 1, H.d - 1) > _BOOSTER_ENUM_LIMIT:
        raise CapabilityError(
            f"booster enumeration over C({H.n - 1},{H.d - 1}) d-sets is too large"
        )
    base = posa_set(H, P, P.vertices[0])
    found: set[tuple[int, ...]] = set()
    for w, rep in sorted(base.representatives.items()):
        s_i = posa_set(H, reversed_path(rep), w).endpoints
        for rest in combinations([v for v in range(H.n) if v != w], H.d - 1):
            if any(x in s_i for x in rest):
                found.add(tuple(sorted((w,) + rest)))
    cands = list(found)
    present = H._has_rows(np.array(cands, dtype=np.int64).reshape(-1, H.d))
    return frozenset(e for e, p in zip(cands, present.tolist()) if not p)


def stalled_path(
    H: Hypergraph,
    rng: SeededRng | None = None,
    budget: int | None = None,
) -> WeakPath:
    """Grow-and-rotate on the shadow, by the reference engine from one start
    without closing cycles, until no closure endpoint can extend; returns the
    stalled path (saturated in the posa_set sense). Used to manufacture
    honest inputs for Pósa-set experiments."""
    v1 = non_isolated_vertices(H)
    if not v1:
        raise InputError("hypergraph has no edges: no non-trivial path exists")
    if budget is None:
        budget = default_rotation_budget(H.n)
    gen = (rng or SeededRng(0, 0)).generator()
    shadow = H.shadow
    _, best, _, _, exhausted = _list_search(
        shadow.adj, shadow.adj_masks, v1, gen, budget, 1, False
    )
    if exhausted:
        raise CapabilityError("rotation budget exhausted before any stalled path")
    if len(best) < 2:
        # a lone non-isolated vertex cannot happen (edges have d >= 2 vertices
        # in one component), so growth always reaches length >= 1
        raise AssertionError("stalled path unexpectedly trivial")
    return lift_path(H, best)


def weak_cycle_of_length(H: Hypergraph, ell: int) -> WeakCycle | None:
    """A weak cycle through exactly ell distinct vertices, or None. Anchors
    the search on each possible smallest cycle vertex a in turn and reads
    layer ell of the subset DP from a over the vertices >= a; n <= 20."""
    if ell < 3:
        raise InputError(f"weak cycles have length >= 3, got {ell}")
    if H.n > DP_MAX_VERTICES:
        raise CapabilityError(
            f"cycle-length probe handles n <= {DP_MAX_VERTICES}, got n = {H.n}"
        )
    adj_masks, n = H.shadow.adj_masks, H.n
    for a in range(n - ell + 1):
        k = n - a
        sub = [(adj_masks[a + i] >> a) for i in range(k)]
        dp = _bitdp.endpoints(sub, k)
        T = _bitdp.layer(k, ell)
        found = T[(dp[T] & sub[0]) != 0]
        if found.size:
            S = int(found[0])
            path = _backtrack(dp, sub, S, _lowest_bit(int(dp[S]) & sub[0]))
            return _check_witness(lift_cycle(H, [a + w for w in path]), H, ell)
    return None


def has_weak_cycle_of_length(H: Hypergraph, ell: int) -> bool:
    """Whether some weak cycle visits exactly ell distinct vertices."""
    return weak_cycle_of_length(H, ell) is not None


def _direct_hamilton(H: Hypergraph) -> WeakCycle | None:
    """Backtracking search for a weak Hamilton cycle over hyperedge incidence
    lists, memoizing (visited-set, last-vertex) states that cannot finish.
    Returns the walked witness or None. Requires n >= 3 and no isolated
    vertices (callers pre-check)."""
    n = H.n
    full = (1 << n) - 1
    inc: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for e in map(tuple, H.rows.tolist()):
        for v in e:
            inc[v].append(e)
    dead: set[tuple[int, int]] = set()
    verts = [0]
    used: list[tuple[int, ...]] = []

    def go(mask: int, last: int) -> bool:
        if mask == full:
            for e in inc[last]:
                if 0 in e:
                    used.append(e)
                    return True
            return False
        if (mask, last) in dead:
            return False
        tried = 0
        for e in inc[last]:
            for w in e:
                bit = 1 << w
                if mask & bit or tried & bit:
                    continue
                tried |= bit
                verts.append(w)
                used.append(e)
                if go(mask | bit, w):
                    return True
                verts.pop()
                used.pop()
        dead.add((mask, last))
        return False

    if not go(1, 0):
        return None
    return WeakCycle(tuple(verts), tuple(used))


def direct_weak_hamiltonian(H: Hypergraph) -> OracleVerdict:
    """exact_weak_hamiltonian's verdict, with its certified trivial "no"s, by
    backtracking over hyperedge incidence lists (n <= 16)."""
    note = _trivial_no(H)
    if note is None and _reach(H.shadow.adj_masks, 1) != (1 << H.n) - 1:
        note = "vertex set is disconnected"
    if note is None and H.n > DIRECT_MAX_VERTICES:
        raise CapabilityError(f"direct oracle handles n <= {DIRECT_MAX_VERTICES}, got n = {H.n}")
    witness = None if note else _direct_hamilton(H)
    if witness is None:
        return OracleVerdict("no", None, "backtracking-direct", note=note)
    return OracleVerdict("yes", _check_witness(witness, H, H.n), "backtracking-direct")


def is_non_expanding(H: Hypergraph, A: Iterable[int]) -> bool:
    """|N(A)| < 2|A| with N the external neighborhood. The empty set is
    expanding by convention (0 < 0 fails)."""
    A = frozenset(A)
    for v in A:
        if not (0 <= v < H.n):
            raise InputError(f"vertex {v} out of range [0, {H.n})")
    return len(neighbors(H, A)) < 2 * len(A)
