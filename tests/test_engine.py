"""The rotation-extension engine on plain graphs: closure scans against an
independent breadth-first walk over rotations, and the search driver: path
invariants of every returned path, saturation of stalled paths, rotation
budgets, restart counts, the far-side stall escape, and seed determinism.
The array engine is also compared, result for result, with the list-based
engine it replaced (kept in `proof_checks`), which draws through
`Generator.integers`, and pinned on four G(n, p) instances at n = 1000 and
two at n = 10^4, on a search through a large stall at n = 1000 and on one
at the hitting time at n = 10^4. A count of live rotated paths bounds what
a search holds at once. The list engine's second mode, which does not
close cycles and which `posa_set` and `stalled_path` run, is checked here
against the same breadth-first walk and saturation rule, and pinned on one
stalled path. The engine's draws from raw PCG64 words are compared with
`Generator.integers` directly."""

from __future__ import annotations

import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakham import Hypergraph, InputError, decide_weak_hamiltonian, rotation_extension_search
from weakham import _engine
from weakham._engine import STARTS, closure_scan, search
from weakham.harness import _SEARCH_LANE
from weakham.randmodels import (
    GnpParams, SeededRng, _bounded_draws, _sample_distinct_rows, m_from_c, p_from_c, sample_gnp,
)

from proof_checks import _list_closure_scan, _list_search, _mask, stalled_path


def _graph(n, pairs):
    nbrs = [set() for _ in range(n)]
    for u, v in pairs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    adj = tuple(tuple(sorted(s)) for s in nbrs)
    masks = tuple(sum(1 << w for w in s) for s in adj)
    return adj, masks


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


def _scan(adj, masks, path, target, budget, close):
    """(kind, path, reps, rotations) of a closure scan as lists: the
    package's scan, which always closes cycles, or with `close` off the
    reference scan that posa_set runs."""
    if not close:
        return _list_closure_scan(
            adj, masks, list(path), _mask(path), _mask(target), budget, False, [-1] * len(adj))
    res = closure_scan(adj, masks, np.array(path, dtype=np.intp), _mask(path),
                       _mask(target), budget)
    reps = res.reps and {u: res.rep(u).tolist() for u in res.reps}
    return res.kind, None if res.path is None else res.path.tolist(), reps, res.rotations


@given(scan_inputs())
@example(args=(*_graph(2, [(0, 1)]), [0, 1], {0, 1}, 5, True))  # no 2-cycles
def test_closure_scan_matches_plain_rotation_bfs(args):
    adj, masks, path, target, budget, close = args
    kind, P, reps, rotations = _scan(adj, masks, path, target, budget, close)
    assert 0 <= rotations <= budget
    closure = _rotation_closure(adj, path)
    winners = [k for k, P in enumerate(closure) if _wins(adj, P, target, close)]
    if winners and winners[0] <= budget:
        k = winners[0]
        assert kind in ("extend", "cycle")
        assert rotations == k
        _assert_path(adj, P)
        assert P[0] == path[0]
        if kind == "extend":
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
        assert kind == "stall"
        assert set(reps) == {P[-1] for P in closure}
        assert rotations == len(closure) - 1
    else:
        assert kind == "budget"
        assert rotations == budget
    for u, P in reps.items():
        _assert_path(adj, P)
        assert P[0] == path[0] and P[-1] == u and set(P) == set(path)
        assert not _wins(adj, P, target, close)


def test_closure_scan_tests_each_endpoint_when_it_is_reached():
    # root path 0-1-2-3-4: endpoint 4 has two pivots (1 and 2); the first
    # rotation, 0-1-4-3-2, ends at 2, whose neighbor 5 is off the path
    adj, masks = _graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1), (4, 2), (2, 5)])
    path = [0, 1, 2, 3, 4]
    for close in (False, True):
        assert _scan(adj, masks, path, range(6), 100, close) == (
            "extend", [0, 1, 4, 3, 2, 5], None, 1)


def test_closure_scan_budget_returns_every_representative_as_a_path():
    # on the path 0-1-2-3-4-5 with chords 5-1 and 5-2 (no endpoint meets 0),
    # the root's endpoint 5 rotates at pivot 1 (endpoint 2), and the next
    # rotation (endpoint 3) is beyond the budget of 1, so the scan stops with
    # the rotation to 2 still queued: it is returned as a path too
    path = list(range(6))
    adj, masks = _graph(6, [*zip(path, path[1:]), (5, 1), (5, 2)])
    res = closure_scan(adj, masks, np.array(path, dtype=np.intp), _mask(path),
                       _mask(path), 1)
    assert (res.kind, res.rotations) == ("budget", 1)
    assert {u: res.rep(u).tolist() for u in res.reps} == {
        5: [0, 1, 2, 3, 4, 5], 2: [0, 1, 5, 4, 3, 2]}


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


@given(graphs(), st.integers(0, 60), st.integers(0, 2**16))
def test_search_cycle_mode_invariants(g, budget, seed):
    adj, masks, target = g
    cyc, best, rots, restarts, exhausted = search(adj, masks, target, _seeded(seed), budget)
    assert 0 <= rots <= budget
    assert 0 <= restarts < STARTS
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
        assert restarts == STARTS - 1
        if _connected(adj, target):
            _assert_stalled(adj, best, set(target), True)
    again = search(adj, masks, target, _seeded(seed), budget)
    assert again == (cyc, best, rots, restarts, exhausted)


@given(graphs(), st.integers(0, 60), st.integers(1, 3), st.integers(0, 2**16))
def test_search_path_mode_invariants(g, budget, attempts, seed):
    # the reference engine's mode that stalled_path runs
    adj, masks, allowed = g
    cyc, best, rots, restarts, exhausted = _list_search(
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
    first = _list_search(adj, masks, allowed, _seeded(seed), budget, 1, close=False)
    assert exhausted == first[4]
    again = _list_search(adj, masks, allowed, _seeded(seed), budget, attempts, close=False)
    assert again == (cyc, best, rots, restarts, exhausted)


def test_search_sweeps_the_far_side_before_giving_up_a_start():
    # one start: reversing the stalled path alone finds no cycle here, but
    # the far-side closure of another endpoint closes a Hamilton cycle
    pairs = [(0, 1), (0, 3), (0, 5), (0, 7), (1, 6), (2, 3), (2, 5), (2, 6),
             (3, 4), (3, 6), (4, 5), (4, 7)]
    adj, masks = _graph(8, pairs)
    cyc, best, rots, restarts, exhausted = search(adj, masks, range(8), _seeded(0), 1000)
    assert cyc is not None and sorted(cyc) == list(range(8))
    _assert_path(adj, cyc)
    assert cyc[0] in adj[cyc[-1]]
    assert restarts == 0 and not exhausted


def test_search_sweeps_far_sides_smallest_endpoint_first():
    # 0, 1 and 4 meet only 2 and 3, so there is no Hamilton cycle and every
    # start stalls; sweeping the largest endpoint first keeps [0, 2, 1, 3, 4]
    pairs = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]
    adj, masks = _graph(5, pairs)
    assert search(adj, masks, range(5), _seeded(0), 100) == (
        None, [1, 2, 0, 3, 4], 16, 4, False)
    # the reference engine without `close`: from this start the far side of
    # the smallest closure endpoint leads on to a Hamilton path; sweeping the
    # largest endpoint first stalls at 6 vertices
    pairs = [(0, 2), (0, 5), (1, 2), (1, 5), (2, 4), (3, 4), (3, 5), (4, 6)]
    adj, masks = _graph(7, pairs)
    assert _list_search(adj, masks, range(7), _seeded(0), 100, 1, close=False) == (
        None, [1, 2, 0, 5, 3, 4, 6], 2, 0, False)


@st.composite
def engine_inputs(draw):
    """A random graph on n <= 40 vertices, its neighbor lists in a shuffled
    order (candidates are listed in adjacency order, not vertex order), and
    a non-empty target subset."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.05, 0.1, 0.2, 0.35, 0.6, 1.0)))
    upper = np.triu(rng.random((n, n)) < density, 1)
    nbrs = [np.flatnonzero(upper[v] | upper[:, v]) for v in range(n)]
    adj = tuple(tuple(rng.permutation(s).tolist()) for s in nbrs)
    masks = tuple(_mask(s) for s in adj)
    if draw(st.booleans()):
        target = list(range(n))
    else:
        target = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1))
    return adj, masks, target


@settings(max_examples=300)
@given(engine_inputs(), st.integers(0, 200), st.integers(0, 2**32 - 1))
def test_search_matches_the_list_based_engine(g, budget, seed):
    adj, masks, target = g
    got = search(adj, masks, target, _seeded(seed), budget)
    want = _list_search(adj, masks, target, _seeded(seed), budget, STARTS, True)
    assert got == want
    assert all(type(v) is int for v in got[1])


def _cycle_digest(vertices):
    return hashlib.sha256(",".join(map(str, vertices)).encode()).hexdigest()


@pytest.mark.parametrize("c, seed, rotations, restarts, digest", [
    (-1, 0, 885, 0, "717cf92ba0a73ac625151129d18b52ecd4eafc73f861b6c96e10a2892a90a8cb"),
    (0, 1, 701, 0, "8af5491cb55f66efed8a7f30d1caf41ece7955d8cc94391fb077e312bde4a3d9"),
    (1, 2, 572, 0, "4d736f7f1b14c5c84fea3757b7f9a3a79e83f2b75cef0942965f9677350fbd93"),
    (2, 3, 317, 0, "a96feac469e948e9c9f02ced04ac0cc6f538fb5d08e0aeca6caa6fed89d9f27b"),
])
def test_search_is_pinned_at_n1000(c, seed, rotations, restarts, digest):
    # the size the threshold bench measures; values recorded on the list-based
    # engine, which the bench digests (engine columns masked) do not pin
    H = sample_gnp(GnpParams(1000, 3, p_from_c(1000, 3, c)), SeededRng(seed, 0))
    out = rotation_extension_search(H, rng=SeededRng(seed, 1))
    assert (out.rotations, out.restarts) == (rotations, restarts)
    assert _cycle_digest(out.cycle.vertices) == digest


def test_search_is_pinned_at_n10000():
    # recorded before the engine read raw PCG64 words, on the Generator calls
    H = sample_gnp(GnpParams(10**4, 3, p_from_c(10**4, 3, 1)), SeededRng(1, 0))
    out = rotation_extension_search(H, rng=SeededRng(1, 1))
    assert (out.rotations, out.restarts) == (7280, 0)
    assert _cycle_digest(out.cycle.vertices) == (
        "0a04386e739fbe96f809fc6aaf9476d8e70cff3d619454d6fb9bfaa820858cbf")


def test_search_is_pinned_at_n10000_below_threshold():
    # recorded before closure scans copied a rotated path only when read
    H = sample_gnp(GnpParams(10**4, 3, p_from_c(10**4, 3, 0)), SeededRng(2, 0))
    out = rotation_extension_search(H, rng=SeededRng(2, 1))
    assert (out.rotations, out.restarts) == (7668, 0)
    assert _cycle_digest(out.cycle.vertices) == (
        "fc92580b6af61e6cdece82fbe3da6d41c505f633deceae19004aa86105bed707")


def test_search_is_pinned_at_n10000_hitting_time():
    # the first 27,933 edges of one edge stream: its closing scan rotates a
    # 10,000-vertex Hamilton path 9,984 times, most of the search's memory
    tau = 27_933
    rows = _sample_distinct_rows(
        10**4, 3, m_from_c(10**4, 3, 2) + 200, SeededRng(9, 0).generator())[:tau]
    H = Hypergraph(10**4, 3, rows[np.lexsort(rows.T[::-1])])
    verdict = decide_weak_hamiltonian(H, rng=SeededRng(9, 0).shifted(2**48 + tau))
    assert verdict.answer == "yes"
    assert (verdict.search.rotations, verdict.search.restarts) == (21_174, 0)
    assert _cycle_digest(verdict.witness.vertices) == (
        "452a21d2af7ef512be93614e2486fc75da8366f893fc4ac78478c24c24ad4055")


def _stalling_search_graph():
    # a threshold trial's graph and search stream (seed 45, c = -1): one of
    # its scans stalls with 993 closure endpoints before a cycle closes
    rng = SeededRng(45, 0)
    return sample_gnp(GnpParams(1000, 3, p_from_c(1000, 3, -1)), rng), rng.shifted(_SEARCH_LANE)


def test_search_is_pinned_through_a_large_stall():
    H, rng = _stalling_search_graph()
    out = rotation_extension_search(H, rng=rng)
    assert (out.rotations, out.restarts) == (2351, 0)
    assert _cycle_digest(out.cycle.vertices) == (
        "b3471943ce97e268512e746377b66a9c42d126adbfe84acbdda09bc0a6d06564")


def test_search_holds_only_the_rotated_paths_it_will_read(monkeypatch):
    # a dequeued path lives only while a queued rotation names it, and a
    # stall's representatives are rebuilt one at a time: 218 are alive at
    # most here, and a scan that kept every dequeued path would hold 1,011
    rotated = _engine._rotated
    live = [0, 0]  # alive now, most alive at once

    def release():
        live[0] -= 1

    def counted(P, i):
        R = rotated(P, i)
        weakref.finalize(R, release)
        live[0] += 1
        live[1] = max(live)
        return R

    monkeypatch.setattr(_engine, "_rotated", counted)
    H, rng = _stalling_search_graph()
    assert rotation_extension_search(H, rng=rng).rotations == 2351
    assert live[1] <= 250


def test_stalled_path_is_pinned():
    # the reference engine without `close`, which no gold file pins;
    # recorded on the package's engine before it dropped that mode
    H = sample_gnp(GnpParams(200, 3, p_from_c(200, 3, 0)), SeededRng(4, 0))
    P = stalled_path(H, rng=SeededRng(4, 1))
    assert len(P.vertices) == 196
    assert _cycle_digest(P.vertices) == (
        "3edeaeb0d96458972d1a53be9d1241bcb9cc93d2553bafa6f350d07f960acf2d")


def test_engine_draws_match_generator_integers():
    # k = 1 takes no word, 2**31 + 1 rejects about half its words, and 2**32
    # is numpy's plain next_uint32 branch; the draws run through many of
    # the helper's blocks of raw words
    ks = [1, 2, 3, 1000, 2**31 + 1, 2**32 - 1, 2**32]
    mixed = np.random.default_rng(99).permutation(np.repeat(ks, 300)).tolist()
    for seed in range(3):
        draw = _bounded_draws(np.random.default_rng(seed))
        gen = np.random.default_rng(seed)
        assert [draw(k) for k in mixed] == [int(gen.integers(k)) for k in mixed]


def test_engine_draws_refuse_a_pending_half_word():
    gen = np.random.default_rng(0)
    gen.integers(2**31)  # takes a low half; the high half is left pending
    with pytest.raises(InputError, match="pending half"):
        _bounded_draws(gen)
    with pytest.raises(InputError, match="PCG64"):
        search(*_graph(3, [(0, 1), (1, 2)]), range(3),
               np.random.Generator(np.random.MT19937(0)), 10)
