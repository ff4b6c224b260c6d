"""The rotation-extension engine on plain graphs: closure scans against an
independent breadth-first walk over rotations, path invariants of every
returned path, rotation budgets, restart counts, and seed determinism."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from weakham._engine import closure_scan, spanning_cycle_search, stalled_longest_path


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


@given(graphs(), st.integers(0, 60), st.integers(0, 3), st.integers(0, 2**16))
def test_spanning_cycle_search_invariants(g, budget, max_restarts, seed):
    adj, masks, target = g
    cyc, best, rots, restarts, exhausted = spanning_cycle_search(
        adj, masks, target, _seeded(seed), budget, max_restarts
    )
    assert 0 <= rots <= budget
    assert 0 <= restarts <= max_restarts
    _assert_path(adj, best)
    assert set(best) <= set(target)
    if cyc is not None:
        _assert_path(adj, cyc)
        assert cyc[0] in adj[cyc[-1]]
        assert len(cyc) >= 3 and set(cyc) == set(target)
        assert not exhausted
    again = spanning_cycle_search(adj, masks, target, _seeded(seed), budget, max_restarts)
    assert again == (cyc, best, rots, restarts, exhausted)


@given(graphs(), st.integers(0, 60), st.integers(1, 3), st.integers(0, 2**16))
def test_stalled_longest_path_invariants(g, budget, attempts, seed):
    adj, masks, allowed = g
    best, rots, exhausted = stalled_longest_path(
        adj, masks, allowed, _seeded(seed), budget, attempts
    )
    assert 0 <= rots <= budget
    _assert_path(adj, best)
    assert best and set(best) <= set(allowed)
    assert not exhausted or rots == budget
    if not exhausted:
        # the path is a stalled orientation: no endpoint of its rotation
        # closure has an allowed neighbor off the path
        for P in _rotation_closure(adj, best):
            assert not _wins(adj, P, set(allowed), False)
    again = stalled_longest_path(adj, masks, allowed, _seeded(seed), budget, attempts)
    assert again == (best, rots, exhausted)
