"""The rotation-extension engine on plain graphs: closure scans against an
independent breadth-first walk over rotations, and the one search driver in
both modes (cycles sought or not): path invariants of every returned path,
saturation of stalled paths, rotation budgets, restart counts, the far-side
stall escape, and seed determinism."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from weakham._engine import closure_scan, search


def _graph(n, pairs):
    nbrs = [set() for _ in range(n)]
    for u, v in pairs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    adj = tuple(tuple(sorted(s)) for s in nbrs)
    masks = tuple(sum(1 << w for w in s) for s in adj)
    return adj, masks


def _mask(vertices):
    return sum(1 << v for v in vertices)


@st.composite
def scan_inputs(draw):
    """A graph on n <= 12 vertices that contains a given path, a target
    containing the path, a rotation budget and the close flag."""
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(n)))
    path = list(order[: draw(st.integers(1, n))])
    extra = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    pairs = set(zip(path, path[1:])) | {(u, v) for u, v in extra if u != v}
    adj, masks = _graph(n, pairs)
    outside = [v for v in range(n) if v not in path]
    target = set(path) | set(draw(st.lists(st.sampled_from(outside), unique=True))
                             if outside else [])
    budget = draw(st.integers(0, 40))
    close = draw(st.booleans())
    return adj, masks, path, target, budget, close


@st.composite
def graphs(draw):
    """A graph on 3..12 vertices and a non-empty vertex subset of it."""
    n = draw(st.integers(3, 12))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    adj, masks = _graph(n, {(u, v) for u, v in pairs if u != v})
    subset = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1))
    return adj, masks, subset


def _rotation_closure(adj, path):
    """Plain BFS over rotations with path[0] fixed, keeping the first path
    that reaches each endpoint; returns those paths in discovery order."""
    order = [list(path)]
    seen = {path[-1]}
    for P in order:  # grows while it is walked
        h = len(P) - 1
        for x in adj[P[-1]]:
            if x in P[: h - 1]:
                i = P.index(x)
                Q = P[: i + 1] + P[i + 1 :][::-1]
                if Q[-1] not in seen:
                    seen.add(Q[-1])
                    order.append(Q)
    return order


def _assert_path(adj, P):
    assert len(set(P)) == len(P)
    for a, b in zip(P, P[1:]):
        assert b in adj[a]


def _wins(adj, P, target, close):
    """An endpoint passes when it can extend into the target, or close."""
    w = P[-1]
    free = [x for x in adj[w] if x in target and x not in P]
    return bool(free) or (close and len(P) >= 3 and P[0] in adj[w])


@given(scan_inputs())
@example(args=(*_graph(2, [(0, 1)]), [0, 1], {0, 1}, 5, True))  # no 2-cycles
def test_closure_scan_matches_plain_rotation_bfs(args):
    adj, masks, path, target, budget, close = args
    n = len(adj)
    posbuf = [-1] * n
    res = closure_scan(adj, masks, list(path), _mask(path), _mask(target),
                       budget, close, posbuf)
    assert posbuf == [-1] * n
    assert 0 <= res.rotations <= budget
    closure = _rotation_closure(adj, path)
    winners = [k for k, P in enumerate(closure) if _wins(adj, P, target, close)]
    if winners and winners[0] <= budget:
        k = winners[0]
        assert res.kind in ("extend", "cycle")
        assert res.rotations == k
        P = res.path
        _assert_path(adj, P)
        assert P[0] == path[0]
        if res.kind == "extend":
            assert P[:-1] == closure[k]
            x = P[-1]
            assert x in target and x not in path
            assert x == min(y for y in adj[P[-2]] if y in target and y not in path)
            assert set(P) == set(path) | {P[-1]}
        else:
            assert close and P == closure[k]
            assert set(P) == set(path) and P[0] in adj[P[-1]]
            assert not _wins(adj, P, target, False)
        return
    if not winners and len(closure) - 1 <= budget:
        assert res.kind == "stall"
        assert set(res.reps) == {P[-1] for P in closure}
        assert res.rotations == len(closure) - 1
    else:
        assert res.kind == "budget"
        assert res.rotations == budget
    for u, P in res.reps.items():
        _assert_path(adj, P)
        assert P[0] == path[0] and P[-1] == u and set(P) == set(path)
        assert not _wins(adj, P, target, close)


def test_closure_scan_tests_each_endpoint_when_it_is_reached():
    # root path 0-1-2-3-4: endpoint 4 has two pivots (1 and 2); the first
    # rotation, 0-1-4-3-2, ends at 2, whose neighbor 5 is off the path
    adj, masks = _graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1), (4, 2), (2, 5)])
    path = [0, 1, 2, 3, 4]
    for close in (False, True):
        res = closure_scan(adj, masks, list(path), _mask(path), _mask(range(6)),
                           100, close, [-1] * 6)
        assert res.kind == "extend"
        assert res.path == [0, 1, 4, 3, 2, 5]
        assert res.rotations == 1


def _seeded(seed):
    return np.random.default_rng(seed)


def _connected(adj, target):
    target = set(target)
    seen = {min(target)}
    stack = list(seen)
    while stack:
        for w in adj[stack.pop()]:
            if w in target and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == target


def _assert_stalled(adj, P, target, close):
    """P is saturated: no endpoint of its rotation closure can extend into
    the target (or, when cycles are sought, close one)."""
    for Q in _rotation_closure(adj, P):
        assert not _wins(adj, Q, target, close)


@given(graphs(), st.integers(0, 60), st.integers(1, 4), st.integers(0, 2**16))
def test_search_cycle_mode_invariants(g, budget, attempts, seed):
    adj, masks, target = g
    cyc, best, rots, restarts, exhausted = search(
        adj, masks, target, _seeded(seed), budget, attempts, close=True
    )
    assert 0 <= rots <= budget
    assert 0 <= restarts < attempts
    _assert_path(adj, best)
    assert best and set(best) <= set(target)
    if cyc is not None:
        _assert_path(adj, cyc)
        assert cyc[0] in adj[cyc[-1]]
        assert len(cyc) >= 3 and set(cyc) == set(target)
        assert not exhausted
    elif not exhausted:
        # every start was spent; on a connected target each one ended in a
        # full far-side sweep, so the kept path is a stalled orientation
        assert restarts == attempts - 1
        if _connected(adj, target):
            _assert_stalled(adj, best, set(target), True)
    again = search(adj, masks, target, _seeded(seed), budget, attempts, close=True)
    assert again == (cyc, best, rots, restarts, exhausted)


@given(graphs(), st.integers(0, 60), st.integers(1, 3), st.integers(0, 2**16))
def test_search_path_mode_invariants(g, budget, attempts, seed):
    adj, masks, allowed = g
    cyc, best, rots, restarts, exhausted = search(
        adj, masks, allowed, _seeded(seed), budget, attempts, close=False
    )
    assert cyc is None
    assert 0 <= rots <= budget
    assert 0 <= restarts < attempts
    _assert_path(adj, best)
    assert best and set(best) <= set(allowed)
    assert not exhausted or rots == budget
    if not exhausted:
        _assert_stalled(adj, best, set(allowed), False)
    # `exhausted` only when the first start ran out before any stall
    first = search(adj, masks, allowed, _seeded(seed), budget, 1, close=False)
    assert exhausted == first[4]
    again = search(adj, masks, allowed, _seeded(seed), budget, attempts, close=False)
    assert again == (cyc, best, rots, restarts, exhausted)


def test_search_sweeps_the_far_side_before_giving_up_a_start():
    # one start: reversing the stalled path alone finds no cycle here, but
    # the far-side closure of another endpoint closes a Hamilton cycle
    pairs = [(0, 1), (0, 3), (0, 5), (0, 7), (1, 6), (2, 3), (2, 5), (2, 6),
             (3, 4), (3, 6), (4, 5), (4, 7)]
    adj, masks = _graph(8, pairs)
    cyc, best, rots, restarts, exhausted = search(
        adj, masks, range(8), _seeded(0), 1000, 1, close=True
    )
    assert cyc is not None and sorted(cyc) == list(range(8))
    _assert_path(adj, cyc)
    assert cyc[0] in adj[cyc[-1]]
    assert restarts == 0 and not exhausted


def test_search_sweeps_far_sides_smallest_endpoint_first():
    # from this start the far side of the smallest closure endpoint leads on
    # to a Hamilton path; sweeping the largest endpoint first stalls at 6
    # vertices
    pairs = [(0, 2), (0, 5), (1, 2), (1, 5), (2, 4), (3, 4), (3, 5), (4, 6)]
    adj, masks = _graph(7, pairs)
    assert search(adj, masks, range(7), _seeded(0), 100, 1, close=False) == (
        None, [1, 2, 0, 5, 3, 4, 6], 2, 0, False)
