"""Neighborhood expansion: exact smallest non-expanding set, sampled
one-sided checks, minimal connected witnesses, and the greedy edge-probe
with its closed-form success bounds."""

from __future__ import annotations

import math
import os
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weakham import (
    CapabilityError,
    GnpParams,
    Hypergraph,
    InputError,
    SeededRng,
    greedy_probe,
    is_connected_on,
    make_config,
    minimal_nonexpanding_connected,
    neighbors,
    non_isolated_vertices,
    p_from_c,
    pab_bound_exact,
    pab_bound_simple,
    run_experiment,
    sample_gnp,
    u_exact,
    u_sampled_check,
)
from weakham import expansion
from weakham.expansion import (
    SampledCheck,
    _SAMPLE_CHUNK,
    _SCAN_CHUNK,
    _first_hit,
    _mixed_candidates,
    _replay_draws,
)
from weakham.hypercore import _shadow_words

from conftest import complete_hypergraph, hypergraphs
from proof_checks import is_non_expanding


def H(n, d, edges):
    return Hypergraph.from_edges(n, d, edges)


def _gnp(n, d, p, seed):
    return sample_gnp(GnpParams(n, d, p), SeededRng(seed))


TRIANGLE = Hypergraph.from_edges(3, 3, [(0, 1, 2)])
PLANTED = Hypergraph.from_edges(6, 3, [(0, 1, 2), (3, 4, 5)])


# ------------------------------------------------------------- non-expansion


def test_is_non_expanding_definition():
    # |N(A)| < 2|A| with N(A) excluding A itself
    assert not is_non_expanding(TRIANGLE, [0])  # N = {1,2}, 2 >= 2
    assert is_non_expanding(TRIANGLE, [0, 1])  # N = {2}, 1 < 4
    assert is_non_expanding(TRIANGLE, [0, 1, 2])


def test_is_non_expanding_empty_set_expands():
    assert not is_non_expanding(TRIANGLE, [])


def test_is_non_expanding_isolated_vertex():
    assert is_non_expanding(H(4, 3, []), [0])


def test_is_non_expanding_rejects_out_of_range():
    with pytest.raises(InputError, match=r"vertex 9 out of range \[0, 3\)"):
        is_non_expanding(TRIANGLE, [9])


@given(hypergraphs(min_n=3, max_n=10, max_edges=12), st.data())
def test_is_non_expanding_matches_neighbor_count(Hs, data):
    A = data.draw(
        st.sets(st.integers(min_value=0, max_value=Hs.n - 1), max_size=Hs.n)
    )
    got = is_non_expanding(Hs, A)
    assert got == (len(neighbors(Hs, A)) < 2 * len(A))


# --------------------------------------------------------- smallest witness


def _first_in_order(Hs, pool, s):
    """Reference ordered scan: (subsets scanned, first non-expanding
    s-subset of pool in `combinations` order, or None), by is_non_expanding."""
    scanned = 0
    for A in combinations(pool, s):
        scanned += 1
        if is_non_expanding(Hs, A):
            return scanned, A
    return scanned, None


def _brute_force_u(Hs):
    """Reference u and witness: the first non-expanding set of the smallest
    size in `combinations` order over V1, or (|V1| + 1, None)."""
    V1 = non_isolated_vertices(Hs)
    for s in range(1, len(V1) + 1):
        _, first = _first_in_order(Hs, V1, s)
        if first is not None:
            return s, frozenset(first)
    return len(V1) + 1, None


def test_u_exact_triangle():
    rep = u_exact(TRIANGLE)
    assert rep.u == 2
    assert rep.witness == frozenset({0, 1})
    assert rep.v1_size == 3


def test_u_exact_edgeless():
    rep = u_exact(H(5, 3, []))
    assert rep.u == 1  # |V1| + 1 with V1 empty: no candidate set exists
    assert rep.witness is None
    assert rep.v1_size == 0


def test_u_exact_complete():
    rep = u_exact(complete_hypergraph(8, 3))
    assert rep.u == 3
    assert rep.witness == frozenset({0, 1, 2})
    assert rep.v1_size == 8


def test_u_exact_capability_limit():
    chain = [tuple(range(i, i + 3)) for i in range(38)]
    with pytest.raises(CapabilityError, match="exceeds the exhaustive bound 22"):
        u_exact(H(40, 3, chain))


def test_u_exact_matches_brute_force():
    # sparse draws (u = 2: at d = 3 no single vertex of V1 fails) and
    # dense ones (u from 3 to 5)
    draws = [_gnp(8, 3, 0.08, seed=3000 + s) for s in range(15)]
    draws += [_gnp(12, 3, 0.05 + 0.02 * (s % 10), seed=5000 + s) for s in range(40)]
    seen = set()
    for Hs in draws:
        rep = u_exact(Hs)
        assert (rep.u, rep.witness) == _brute_force_u(Hs)
        seen.add(rep.u)
    assert {2, 3, 4, 5} <= seen


@given(hypergraphs(min_n=3, max_n=9, min_edges=1, max_edges=10))
def test_u_exact_within_cover_third_cap(Hs):
    # any A containing more than a third of the covered vertices is
    # automatically non-expanding, so the minimum can never exceed the cap
    rep = u_exact(Hs)
    assert 1 <= rep.u <= rep.v1_size // 3 + 1


@st.composite
def _dense_or_sparse_gnp(draw, max_n=13):
    # p runs up to 1, so dense draws with u up to 5 are common
    d = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=d, max_value=max_n))
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    return _gnp(n, d, p, seed=draw(st.integers(min_value=0, max_value=10**6)))


@settings(max_examples=150)
@given(_dense_or_sparse_gnp())
def test_u_exact_witness_is_first_in_combinations_order(Hs):
    rep = u_exact(Hs)
    assert (rep.u, rep.witness) == _brute_force_u(Hs)


@given(_dense_or_sparse_gnp(max_n=16), st.integers(min_value=1, max_value=4),
       st.booleans())
def test_first_hit_matches_plain_scan(Hs, s, include_isolated):
    pool = range(Hs.n) if include_isolated else non_isolated_vertices(Hs)
    assume(len(pool) >= 1)
    scanned, hit = _first_hit(_shadow_words(Hs), list(pool), s)
    assert (scanned, hit) == _first_in_order(Hs, pool, s)


def test_first_hit_past_the_first_chunk():
    # a circulant graph on 190 vertices (steps 1 and 3: shadow degree 4, no
    # triangles) has no non-expanding pair; the lone edge (190, 191) is the
    # last of C(192, 2) pairs, well past the first chunk
    n = 192
    edges = [(i, (i + j) % 190) for i in range(190) for j in (1, 3)] + [(190, 191)]
    Hs = H(n, 2, edges)
    words = _shadow_words(Hs)
    assert math.comb(n, 2) > _SCAN_CHUNK
    assert _first_hit(words, list(range(n)), 2) == (math.comb(n, 2), (190, 191))
    assert _first_in_order(Hs, range(n), 2) == (math.comb(n, 2), (190, 191))
    # one vertex fewer in the circulant part is still past the chunk
    pool = [v for v in range(n) if v != 7]
    assert _first_hit(words, pool, 2) == _first_in_order(Hs, pool, 2)


# -------------------------------------------------------------- sampled check


def test_u_sampled_check_consistent_claim():
    chk = u_sampled_check(TRIANGLE, u_target=2, samples=50, rng=SeededRng(2))
    assert chk.ok
    assert chk.counterexample is None
    assert chk.samples_used >= 50


def test_u_sampled_check_finds_counterexample():
    chk = u_sampled_check(TRIANGLE, u_target=3, samples=200, rng=SeededRng(2))
    assert not chk.ok
    assert chk.counterexample == frozenset({0, 1})
    assert is_non_expanding(TRIANGLE, chk.counterexample)
    assert len(chk.counterexample) < 3
    assert chk.samples_used < 200  # stops at the first refutation


def test_u_sampled_check_empty_cover():
    chk = u_sampled_check(H(4, 3, []), u_target=1, samples=10, rng=SeededRng(1))
    assert chk.ok
    assert chk.samples_used == 0


def test_u_sampled_check_counterexamples_verify_on_random_inputs():
    found = 0
    for s in range(12):
        Hs = _gnp(12, 3, 0.02, seed=3500 + s)
        V1 = non_isolated_vertices(Hs)
        if not V1:
            continue
        chk = u_sampled_check(Hs, u_target=len(V1) + 1, samples=400,
                              rng=SeededRng(s))
        if not chk.ok:
            assert is_non_expanding(Hs, chk.counterexample)
            assert len(chk.counterexample) <= len(V1)
            found += 1
    assert found >= 3


def test_u_sampled_check_agrees_with_exact_on_true_value():
    # claiming the exact value is never refuted, claiming one more is
    for s in range(6):
        Hs = _gnp(9, 3, 0.06, seed=3700 + s)
        rep = u_exact(Hs)
        if rep.v1_size == 0:
            continue
        ok_chk = u_sampled_check(Hs, u_target=rep.u, samples=300,
                                 rng=SeededRng(40 + s))
        assert ok_chk.ok
        if rep.witness is not None:
            bad_chk = u_sampled_check(Hs, u_target=rep.u + 1, samples=2000,
                                      rng=SeededRng(80 + s))
            if not bad_chk.ok:
                assert len(bad_chk.counterexample) == rep.u


def _scalar_sampled_check(Hs, u_target, samples, rng):
    """Reference: the one-subset-at-a-time algorithm over int bitmasks
    (`combinations` scan of sizes 1 and 2, then sequential random draws,
    each hit shrunk in a fresh random order). Inputs are assumed valid."""
    pool = list(non_isolated_vertices(Hs))
    if u_target <= 1 or not pool:
        return SampledCheck(ok=True, counterexample=None, samples_used=0)
    masks = Hs.shadow.adj_masks

    def bad(A):
        amask = nmask = 0
        for v in A:
            amask |= 1 << v
            nmask |= masks[v]
        return (nmask & ~amask).bit_count() < 2 * len(A)

    def shrink(A, gen):
        changed = True
        while changed and len(A) > 1:
            changed = False
            for v in list(gen.permutation(A)):
                trial = [w for w in A if w != int(v)]
                if trial and bad(trial):
                    A = trial
                    changed = True
                    break
        return frozenset(A)

    gen = rng.generator()
    used = 0
    max_size = min(u_target - 1, len(pool))
    for s in (1, 2):
        if s > max_size or math.comb(len(pool), s) > 50_000:
            continue
        for A in combinations(pool, s):
            used += 1
            if bad(A):
                return SampledCheck(
                    ok=False, counterexample=frozenset(A), samples_used=used
                )
    for _ in range(samples):
        used += 1
        s = int(gen.integers(1, max_size + 1))
        A = [pool[int(i)] for i in gen.choice(len(pool), size=s, replace=False)]
        if bad(A):
            return SampledCheck(
                ok=False, counterexample=shrink(A, gen), samples_used=used
            )
    return SampledCheck(ok=True, counterexample=None, samples_used=used)


@st.composite
def _sampled_check_cases(draw):
    # n up to 150 makes pool rows span one to three 64-bit words; small n
    # are drawn often, because there random draws hit and get shrunk. The
    # mean degree runs from mostly isolated to well expanding
    d = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.one_of(st.integers(min_value=d, max_value=24),
                       st.integers(min_value=d, max_value=150)))
    mean_degree = draw(st.floats(min_value=0.0, max_value=8.0))
    p = min(1.0, mean_degree / math.comb(n - 1, d - 1))
    Hs = _gnp(n, d, p, seed=draw(st.integers(min_value=0, max_value=10**6)))
    return (
        Hs,
        draw(st.integers(min_value=0, max_value=9)),
        draw(st.integers(min_value=0, max_value=300)),
        SeededRng(draw(st.integers(min_value=0, max_value=10**6))),
    )


@settings(max_examples=200)
@given(_sampled_check_cases())
def test_u_sampled_check_matches_scalar_reference(case):
    Hs, u_target, samples, rng = case
    got = u_sampled_check(Hs, u_target, samples, rng=rng)
    assert got == _scalar_sampled_check(Hs, u_target, samples, rng)


def test_u_sampled_check_hit_after_first_chunk_matches_reference():
    # pool of 24, so 24 + 276 subsets are scanned exhaustively; the random
    # phase hits at draw 367, inside the second chunk, and shrinks the hit
    # to a 6-set along a path that depends on taking the first bad removal
    Hs = sample_gnp(GnpParams(24, 3, p_from_c(24, 3, 1)), SeededRng(9, 0))
    got = u_sampled_check(Hs, 8, 2000, rng=SeededRng(9, 1))
    assert got == _scalar_sampled_check(Hs, 8, 2000, SeededRng(9, 1))
    assert got.samples_used - (24 + math.comb(24, 2)) > _SAMPLE_CHUNK
    assert got.counterexample == frozenset({1, 3, 4, 5, 10, 13})
    assert got.samples_used == 667


def test_u_sampled_check_memory_is_bounded_by_bytes():
    # at n = 12,000 one chunk of 256 rows of 444 members would gather
    # 171 MB of shadow words; the chunk's byte budget keeps the whole
    # check, shadow words included, far below that
    n = 12_000
    Hs = _gnp(n, 3, p_from_c(n, 3, 0), seed=1)
    tracemalloc.start()
    try:
        chk = u_sampled_check(Hs, math.ceil(n / 27), 256, rng=SeededRng(1, 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chk.samples_used == len(non_isolated_vertices(Hs)) + 256
    assert peak < 64 * 2**20


# ------------------------------------------------------------- draw replay


def _numpy_rounds(gen, k, max_size, count):
    """The rounds through numpy's own calls, one at a time, with the
    generator state before the first and after each."""
    rounds, states = [], [gen.bit_generator.state]
    for _ in range(count):
        s = int(gen.integers(1, max_size + 1))
        rounds.append(gen.choice(k, size=s, replace=False).tolist())
        states.append(gen.bit_generator.state)
    return rounds, states


def _assert_replay_matches_numpy(seed, k, max_size, count, pending, h):
    gen, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    if pending:  # leaves the high half of a word pending
        gen.integers(0, 5)
        ref.integers(0, 5)
    rounds, states = _numpy_rounds(ref, k, max_size, count)
    members, sizes, seek = _replay_draws(gen, k, max_size, count)
    assert [row[:s].tolist() for row, s in zip(members, sizes)] == rounds
    assert (members[np.arange(max_size) >= sizes[:, None]] == k).all()
    seek(h)
    assert gen.bit_generator.state == states[h]
    ref.bit_generator.state = states[h]
    assert gen.permutation(7).tolist() == ref.permutation(7).tolist()
    assert gen.integers(0, 1000, 5).tolist() == ref.integers(0, 1000, 5).tolist()
    return sizes


@st.composite
def _replay_cases(draw):
    # tiny pools (s == k is common), pools of 2**31 and up (where a Floyd
    # step's Lemire draw rejects up to one word in two) and pools either
    # side of the tail-shuffle boundary at 10,000
    k, top = draw(st.one_of(
        st.tuples(st.integers(min_value=1, max_value=12), st.just(12)),
        st.tuples(st.integers(min_value=1, max_value=200), st.just(40)),
        st.tuples(st.integers(min_value=2**31, max_value=2**32 - 2), st.just(12)),
        st.tuples(st.integers(min_value=9_990, max_value=13_000), st.just(300)),
    ))
    max_size = draw(st.integers(min_value=1, max_value=min(k, top)))
    count = draw(st.integers(min_value=1, max_value=60))
    return (
        draw(st.integers(min_value=0, max_value=2**32)),
        k,
        max_size,
        count,
        draw(st.booleans()),
        draw(st.integers(min_value=0, max_value=count)),
    )


@settings(max_examples=300, deadline=None)
@given(_replay_cases())
def test_replay_matches_numpy(case):
    _assert_replay_matches_numpy(*case)


@pytest.mark.parametrize("k, max_size", [(1, 1), (9, 1), (3, 3), (2**31 + 5, 12)])
@pytest.mark.parametrize("pending", [False, True])
def test_replay_matches_numpy_at_the_edges(k, max_size, pending):
    # max_size 1 takes no size word, k = max_size has rounds with s == k
    # whose j = 0 step takes no word, and at 2**31 + 5 the Floyd steps
    # reject about half their words
    for seed in range(4):
        _assert_replay_matches_numpy(seed, k, max_size, 80, pending, 17 * seed)


@pytest.mark.parametrize("k, max_size, seed", [(10_001, 201, 5), (12_000, 300, 0)])
def test_replay_matches_numpy_across_the_tail_shuffle_boundary(k, max_size, seed):
    # numpy runs Floyd's algorithm for s <= k // 50 and shuffles the tail of
    # arange(k) above it; these rounds draw both sizes next to the boundary
    sizes = _assert_replay_matches_numpy(seed, k, max_size, 256, True, 101)
    assert {k // 50, k // 50 + 1} <= set(sizes.tolist())


EXPANSION_GOLD = os.path.join(os.path.dirname(__file__), "data", "expansion_gold.csv")


def test_expansion_table_matches_gold_file():
    # written by `weakham exp expansion --n 200 --d 3 --c-grid=-1,0,1
    # --trials 12 --samples 2000 --seed 20260815`; every trial has more than
    # 22 non-isolated vertices, so each runs both sampled checks and the file
    # pins their samples_used and below-target columns
    cfg = make_config(
        "expansion",
        {"n": "200", "d": "3", "c_grid": "-1,0,1", "trials": "12",
         "samples": "2000", "seed": "20260815"},
    )
    with open(EXPANSION_GOLD, encoding="utf-8") as fh:
        assert run_experiment(cfg).to_csv_text() == fh.read()


EXPANSION_N20_GOLD = os.path.join(
    os.path.dirname(__file__), "data", "expansion_n20_gold.csv"
)


def test_expansion_exact_branch_matches_gold_file():
    # written by `weakham exp expansion --n 20 --d 3 --c-grid=-1,0,1,2
    # --trials 50 --seed 0`; every trial has at most 22 non-isolated
    # vertices, so each runs u_exact (u from 2 to 6) and the witness audit
    cfg = make_config(
        "expansion",
        {"n": "20", "d": "3", "c_grid": "-1,0,1,2", "trials": "50", "seed": "0"},
    )
    with open(EXPANSION_N20_GOLD, encoding="utf-8") as fh:
        assert run_experiment(cfg).to_csv_text() == fh.read()


# ----------------------------------------------------- minimal connected sets


def test_minimal_nonexpanding_connected_examples():
    assert minimal_nonexpanding_connected(TRIANGLE, [0, 1])
    assert minimal_nonexpanding_connected(PLANTED, [0, 1])
    # disconnected union of two pairs is non-expanding but not connected
    assert is_non_expanding(PLANTED, [0, 1, 3, 4])
    assert not minimal_nonexpanding_connected(PLANTED, [0, 1, 3, 4])


def test_minimal_nonexpanding_connected_rejects_bad_input():
    with pytest.raises(InputError, match="A must be nonempty"):
        minimal_nonexpanding_connected(TRIANGLE, [])
    with pytest.raises(InputError, match=r"vertex 5 outside \[0, 3\)"):
        minimal_nonexpanding_connected(TRIANGLE, [5])


def test_predicate_matches_direct_recomputation():
    for s in range(10):
        Hs = _gnp(9, 3, 0.05, seed=4200 + s)
        for A in ({0}, {0, 4}, {1, 2, 7}, set(range(9))):
            got = minimal_nonexpanding_connected(Hs, A)
            assert got == is_connected_on(Hs, A | neighbors(Hs, A))


def test_minimal_sets_always_pass_the_predicate():
    # every truly minimal non-expanding set (no proper non-expanding
    # subset, checked by brute force) spans a connected neighborhood
    checked = 0
    for s in range(60):
        Hs = _gnp(9, 3, 0.05, seed=4300 + s)
        V1 = non_isolated_vertices(Hs)
        for k in (1, 2, 3):
            for A in map(frozenset, combinations(V1, k)):
                if not is_non_expanding(Hs, A):
                    continue
                minimal = not any(
                    is_non_expanding(Hs, B)
                    for j in range(1, k)
                    for B in map(frozenset, combinations(sorted(A), j))
                )
                if minimal:
                    assert minimal_nonexpanding_connected(Hs, A), (s, A)
                    checked += 1
    assert checked >= 20


# ---------------------------------------------------------------- greedy probe


def _reference_walk(a, b, d, p, trials, rng):
    """Successes of the greedy covering walk itself, trial by trial: cover
    the lowest uncovered B-vertex with the first present candidate it has
    not yet tested, in lexicographic order, until all of B is covered or one
    vertex runs out of candidates. Cover masks are Python ints, so any b
    fits. Presence is the same uniform stream greedy_probe draws in
    batches, one row of candidates per trial."""
    cand = [e for e in combinations(range(a + b), d) if e[0] < a <= e[-1]]
    cover = [sum(1 << (v - a) for v in e if v >= a) for e in cand]
    members = [[i for i, m in enumerate(cover) if m >> j & 1] for j in range(b)]
    need = -(-b // (d - 1))
    full = (1 << b) - 1
    successes = 0
    for pres in (rng.generator().random((trials, len(cand))) < p).tolist():
        tested = [False] * len(cand)
        covered = found = 0
        while covered != full:
            j = (~covered & (covered + 1)).bit_length() - 1  # lowest uncovered
            for i in members[j]:
                if not tested[i]:
                    tested[i] = True
                    if pres[i]:
                        covered |= cover[i]
                        found += 1
                        break
            else:
                break
        if covered == full:
            assert found >= need, (found, need)
            successes += 1
    return successes


@given(
    st.integers(2, 5),
    st.integers(1, 12),
    st.integers(1, 12),
    st.one_of(st.sampled_from([0.0, 1e-4, 1.0]), st.floats(0.0, 1.0)),
    st.integers(0, 40),
    st.integers(0, 2**16),
)
def test_greedy_probe_matches_the_walk(d, a, b, p, trials, seed):
    assume(a + b >= d)
    got = greedy_probe(a, b, d, p, trials, rng=SeededRng(seed))
    assert got == _reference_walk(a, b, d, p, trials, SeededRng(seed))


def test_greedy_probe_matches_the_walk_across_batches():
    # 1408 candidates give batches of 2840 trials, so 3000 trials take two
    g = greedy_probe(8, 16, 3, 0.02, 3000, rng=SeededRng(4))
    assert g == _reference_walk(8, 16, 3, 0.02, 3000, SeededRng(4))


def test_mixed_candidates_are_the_filtered_d_sets():
    for d in range(2, 6):
        for a in range(1, 9):
            for b in range(1, 9):
                if a + b >= d:
                    want = [e for e in combinations(range(a + b), d)
                            if e[0] < a <= e[-1]]
                    assert _mixed_candidates(a, b, d) == want


def test_greedy_probe_certain_at_p_one():
    g = greedy_probe(4, 3, 3, 1.0, trials=5, rng=SeededRng(1))
    assert g == 5


def test_greedy_probe_hopeless_at_p_zero():
    g = greedy_probe(4, 3, 3, 1e-9, trials=5, rng=SeededRng(1))
    assert g == 0


def test_greedy_probe_rejects_bad_parameters():
    with pytest.raises(InputError, match="need a, b >= 1"):
        greedy_probe(0, 3, 3, 0.5, trials=2, rng=SeededRng(0))
    with pytest.raises(InputError, match=r"p must lie in \[0, 1\]"):
        greedy_probe(4, 3, 3, 1.5, trials=2, rng=SeededRng(0))
    with pytest.raises(InputError, match="need d >= 2"):
        greedy_probe(4, 3, 1, 0.5, trials=2, rng=SeededRng(0))


def test_greedy_probe_refuses_too_many_candidates_before_enumerating(monkeypatch):
    # a = 4, b = 3, d = 3: C(7, 3) - C(4, 3) - C(3, 3) = 30 mixed candidates
    monkeypatch.setattr(expansion, "_PROBE_ENUM_LIMIT", 30)
    assert greedy_probe(4, 3, 3, 1.0, trials=2, rng=SeededRng(0)) == 2
    monkeypatch.setattr(expansion, "_PROBE_ENUM_LIMIT", 29)

    def enumerate_nothing(a, b, d):
        raise AssertionError("candidates enumerated above the limit")

    monkeypatch.setattr(expansion, "_mixed_candidates", enumerate_nothing)
    with pytest.raises(CapabilityError, match="30 mixed 3-sets of a=4, b=3 exceeds"):
        greedy_probe(4, 3, 3, 1.0, trials=2, rng=SeededRng(0))


@pytest.mark.parametrize("b", [63, 64, 70])
@pytest.mark.parametrize("p", [0.9, 0.02])
def test_greedy_probe_has_no_cap_on_b(b, p):
    got = greedy_probe(3, b, 3, p, trials=20, rng=SeededRng(0))
    assert got == _reference_walk(3, b, 3, p, 20, SeededRng(0))
    if p == 0.9:
        assert got == 20


def test_greedy_probe_deterministic():
    a = greedy_probe(5, 4, 3, 0.1, trials=100, rng=SeededRng(7))
    b = greedy_probe(5, 4, 3, 0.1, trials=100, rng=SeededRng(7))
    assert a == b


def test_greedy_probe_rate_within_closed_form_bound():
    a, b, d, p, trials = 6, 6, 3, 0.02, 10_000
    g = greedy_probe(a, b, d, p, trials=trials, rng=SeededRng(5))
    rate = g / trials
    bound = pab_bound_exact(a, b, d, 1.0 - p)
    sigma = (bound * (1 - bound) / trials) ** 0.5
    assert rate <= bound + 3 * sigma


# ------------------------------------------------------------- success bounds


def test_pab_bound_exact_values():
    assert pab_bound_exact(6, 6, 3, 0.98) == pytest.approx(
        0.21290679053493036, rel=1e-12
    )
    assert pab_bound_exact(4, 1, 3, 0.5) == 0.984375  # 1 - 2^-6 exactly
    assert pab_bound_exact(6, 6, 3, 0.0) == 1.0
    assert pab_bound_exact(6, 6, 3, 1.0) == 0.0


def test_pab_bound_exact_rejects_bad_input():
    with pytest.raises(InputError, match=r"q must lie in \[0, 1\]"):
        pab_bound_exact(6, 6, 3, -1)
    with pytest.raises(InputError, match=r"q must lie in \[0, 1\]"):
        pab_bound_exact(6, 6, 3, 2)
    with pytest.raises(InputError, match="need a, b >= 1"):
        pab_bound_exact(0, 6, 3, 0.5)
    with pytest.raises(InputError, match="need a, b >= 1"):
        pab_bound_exact(6, 0, 3, 0.5)


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=2, max_value=5),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_pab_bound_exact_is_a_probability(a, b, d, q):
    v = pab_bound_exact(a, b, d, q)
    assert 0.0 <= v <= 1.0


def test_pab_bound_exact_decreasing_in_q():
    grid = [i / 20 for i in range(21)]
    vals = [pab_bound_exact(6, 6, 3, q) for q in grid]
    assert all(x >= y for x, y in zip(vals, vals[1:]))


def test_pab_bound_simple_dominates_exact():
    for a in (4, 6, 8):
        for b in range(1, 2 * a + 1):
            p = (1.0 / (2 * a)) ** 2 * 0.9  # inside the simple bound's domain
            assert pab_bound_simple(a, b, 3, p) >= pab_bound_exact(
                a, b, 3, 1.0 - p
            )


def test_pab_bound_simple_rejects_outside_domain():
    with pytest.raises(InputError, match=r"hypothesis 2a \* p\^\(1/\(d-1\)\) <= 1"):
        pab_bound_simple(6, 6, 3, 0.02)
