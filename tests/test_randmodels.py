"""Samplers and parameter formulas: G(n,p), G(n,m), the edge process and
threshold parameterizations. The sparse rejection sampler is also compared,
row for row, with the np.unique-based loop it replaced, cut into batches by
a rule of its own, and its rows and coverage masks are pinned at
n = 2000/1000/200."""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

from weakham import (
    CapabilityError,
    GnmParams,
    GnpParams,
    Hypergraph,
    InputError,
    SeededRng,
    edge_process,
    limiting_probability,
    m_from_c,
    non_isolated_vertices,
    p_from_c,
    sample_gnm,
    sample_gnp,
    sampled_covered_vertices,
)
from weakham import randmodels

from conftest import complete_hypergraph

N_MC = 100_000  # Monte Carlo sample count for the distributional checks


# ------------------------------------------------------------------ parameters


def test_p_from_c_reference_values():
    assert p_from_c(1000, 3, 0.0) == pytest.approx(1.3815510557964274e-05, rel=1e-12)
    assert p_from_c(100, 3, 1.0) == pytest.approx(1.1210340371976182e-03, rel=1e-12)


def test_p_from_c_zero_numerator():
    assert p_from_c(50, 3, -math.log(50)) == 0.0


def test_p_from_c_clamps_with_warning():
    with pytest.warns(UserWarning, match="clamped"):
        assert p_from_c(10, 3, -100.0) == 0.0
    with pytest.warns(UserWarning, match="clamped"):
        assert p_from_c(4, 2, 100.0) == 1.0


def test_p_from_c_rejects_tiny_n():
    with pytest.raises(InputError):
        p_from_c(1, 3, 0.0)


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_non_finite_offset_is_input_error(c):
    with pytest.raises(InputError, match="c must be finite"):
        p_from_c(100, 3, c)
    with pytest.raises(InputError, match="c must be finite"):
        m_from_c(100, 3, c)


def test_m_from_c_reference_values():
    assert m_from_c(1000, 3, 0.0) == 2303
    assert m_from_c(27, 3, 0.0) == 30


def test_m_from_c_zero_and_clamp():
    assert m_from_c(50, 3, -math.log(50)) == 0
    with pytest.warns(UserWarning, match="clamped"):
        assert m_from_c(50, 3, -100.0) == 0
    with pytest.warns(UserWarning, match="clamped"):
        assert m_from_c(6, 3, 1000.0) == math.comb(6, 3)


def test_m_from_c_clamps_a_huge_finite_c():
    # n (ln n + c) / d overflows to ±inf before the clamp, not in round()
    with pytest.warns(UserWarning, match="= inf clamped to 120"):
        assert m_from_c(10, 3, 1e308) == 120
    with pytest.warns(UserWarning, match="= -inf clamped to 0"):
        assert m_from_c(10, 3, -1e308) == 0


def test_limiting_probability_values():
    assert limiting_probability(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert limiting_probability(2.0) == pytest.approx(0.8734230184931167, rel=1e-12)
    assert limiting_probability(40.0) == pytest.approx(1.0, abs=1e-12)
    assert limiting_probability(-40.0) == pytest.approx(0.0, abs=1e-12)


def test_limiting_probability_monotone():
    grid = [limiting_probability(c) for c in np.linspace(-4, 4, 33)]
    assert all(a < b for a, b in zip(grid, grid[1:]))


# ------------------------------------------------------------------ sample_gnp


def test_gnp_p_zero_empty():
    h = sample_gnp(GnpParams(6, 3, 0.0), SeededRng(1, 0))
    assert h.m == 0


def test_gnp_p_one_complete():
    h = sample_gnp(GnpParams(4, 3, 1.0), SeededRng(1, 0))
    assert h.edges == tuple(combinations(range(4), 3))


def test_gnp_invalid_p():
    with pytest.raises(InputError):
        GnpParams(6, 3, 1.5)
    with pytest.raises(InputError):
        GnpParams(6, 3, -0.1)


def test_gnp_bit_identical_for_same_seed_stream():
    a = sample_gnp(GnpParams(30, 3, 0.01), SeededRng(99, 7))
    b = sample_gnp(GnpParams(30, 3, 0.01), SeededRng(99, 7))
    c = sample_gnp(GnpParams(30, 3, 0.01), SeededRng(99, 8))
    assert a == b
    assert a != c


def test_gnp_binomial_mean():
    # n=6, d=3, p=1/2: |E| ~ Binomial(20, 1/2), mean 10, var 5.
    total = 0
    for t in range(N_MC):
        total += sample_gnp(GnpParams(6, 3, 0.5), SeededRng(202, t)).m
    mean = total / N_MC
    sigma_mean = math.sqrt(5.0 / N_MC)
    assert abs(mean - 10.0) <= 3 * sigma_mean


def test_gnp_edge_set_distribution_matches_bernoulli():
    # The binomial-count + distinct-sets sampler must match naive per-edge
    # coin flipping in distribution. n=5, d=3, p=1/2: the edge set is uniform
    # over all 2^10 subsets, so both samples are checked against the flat
    # analytic law (chi-square, alpha = 0.001).
    universe = list(combinations(range(5), 3))
    index = {e: i for i, e in enumerate(universe)}

    counts_pkg = np.zeros(1024, dtype=np.int64)
    for t in range(N_MC):
        h = sample_gnp(GnpParams(5, 3, 0.5), SeededRng(303, t))
        key = 0
        for e in h.edges:
            key |= 1 << index[e]
        counts_pkg[key] += 1

    gen = np.random.default_rng(404)
    flips = gen.random((N_MC, 10)) < 0.5
    counts_naive = np.bincount(flips @ (1 << np.arange(10)), minlength=1024)

    expected = np.full(1024, N_MC / 1024)
    for counts in (counts_pkg, counts_naive):
        chi = ((counts - expected) ** 2 / expected).sum()
        assert stats.chi2.sf(chi, 1023) > 0.001


# ------------------------------------------------------------------ sample_gnm


def test_gnm_zero_edges():
    assert sample_gnm(GnmParams(6, 3, 0), SeededRng(1, 0)).m == 0


def test_gnm_full_complete():
    h = sample_gnm(GnmParams(5, 3, 10), SeededRng(1, 0))
    assert h == complete_hypergraph(5, 3)


def test_gnm_m_too_large():
    with pytest.raises(InputError):
        GnmParams(5, 3, 11)


def test_gnm_exact_count_and_distinct():
    h = sample_gnm(GnmParams(12, 3, 50), SeededRng(5, 3))
    assert h.m == 50 and len(set(h.edges)) == 50


def test_gnm_pairs_uniform():
    # n=5, d=3, m=2: each of the C(10,2)=45 unordered edge pairs is equally
    # likely; every cell must sit within 3 sigma of N/45.
    universe = list(combinations(range(5), 3))
    index = {e: i for i, e in enumerate(universe)}
    counts = Counter()
    for t in range(N_MC):
        h = sample_gnm(GnmParams(5, 3, 2), SeededRng(505, t))
        i, j = sorted(index[e] for e in h.edges)
        counts[(i, j)] += 1
    assert len(counts) == 45
    prob = 1 / 45
    sigma = math.sqrt(N_MC * prob * (1 - prob))
    for pair_count in counts.values():
        assert abs(pair_count - N_MC * prob) <= 3 * sigma


# ---------------------------------------------------------------- edge_process


def test_process_single_edge_stream():
    assert edge_process(3, 3, SeededRng(1, 0)) == ((0, 1, 2),)


def test_process_full_prefix_is_complete():
    stream = edge_process(5, 3, SeededRng(2, 0))
    assert len(stream) == 10
    assert Hypergraph.from_edges(5, 3, stream) == complete_hypergraph(5, 3)


def test_process_overflow_rejected():
    with pytest.raises(CapabilityError, match="enumeration limit"):
        edge_process(10**6, 3, SeededRng(1, 0))


# ------------------------------------------------------------ capability edges


def test_dense_branch_over_enumeration_limit_is_capability_error():
    # C(231,3) = 2,023,385 is just past the limit and p = 0.9 takes the
    # enumerating branch (2k >= C(n,d)); the guard fires before any array.
    with pytest.raises(CapabilityError, match="enumeration limit"):
        sample_gnp(GnpParams(231, 3, 0.9), SeededRng(1, 0))
    with pytest.raises(CapabilityError, match="enumeration limit"):
        sampled_covered_vertices(GnpParams(231, 3, 0.9), SeededRng(1, 0))


def test_dense_branch_limit_boundary(monkeypatch):
    monkeypatch.setattr(randmodels, "_ENUM_LIMIT", 10)
    assert sample_gnm(GnmParams(5, 3, 10), SeededRng(1, 0)) == complete_hypergraph(5, 3)
    assert len(edge_process(5, 3, SeededRng(1, 0))) == 10
    with pytest.raises(CapabilityError):
        sample_gnm(GnmParams(6, 3, 20), SeededRng(1, 0))
    with pytest.raises(CapabilityError):
        edge_process(6, 3, SeededRng(1, 0))


def test_sparse_branch_edge_count_bound(monkeypatch):
    # C(200,3) = 1,313,400 takes the sparse branch for any k below half of
    # it; the bound fires before the first batch is drawn
    monkeypatch.setattr(randmodels, "_ENUM_LIMIT", 1000)
    assert sample_gnm(GnmParams(200, 3, 1000), SeededRng(1, 0)).m == 1000
    with pytest.raises(CapabilityError, match="1001 edges exceed the in-memory sampling limit"):
        sample_gnm(GnmParams(200, 3, 1001), SeededRng(1, 0))
    with pytest.raises(CapabilityError, match="sampling limit 1000"):
        sampled_covered_vertices(GnpParams(200, 3, 0.01), SeededRng(1, 0))


def test_packing_bound_is_capability_error():
    # n**d = 2**63: sparse rejection sampling cannot pack rows into int64
    with pytest.raises(CapabilityError, match="packed sampling"):
        sample_gnm(GnmParams(2**21, 3, 5), SeededRng(1, 0))


def test_binomial_count_bound_is_capability_error():
    # C(4e6, 3) >= 2**63 does not fit the binomial's int64 trial count; the
    # guard fires before the draw. C(3e6, 3) < 2**63 draws the count and then
    # fails the packing bound, as before.
    for sampler in (sample_gnp, sampled_covered_vertices):
        with pytest.raises(CapabilityError, match="binomial"):
            sampler(GnpParams(4_000_000, 3, 1e-12), SeededRng(1, 0))
        with pytest.raises(CapabilityError, match="packed sampling"):
            sampler(GnpParams(3_000_000, 3, 1e-12), SeededRng(1, 0))
    # p = 0 needs no draw
    assert not sampled_covered_vertices(GnpParams(10**7, 3, 0.0), SeededRng(1, 0)).any()


def test_process_first_edge_uniform():
    counts = Counter()
    for t in range(N_MC):
        counts[edge_process(5, 3, SeededRng(707, t))[0]] += 1
    sigma = math.sqrt(N_MC * 0.1 * 0.9)
    assert len(counts) == 10
    for first_count in counts.values():
        assert abs(first_count - N_MC * 0.1) <= 3 * sigma


def test_process_prefix_matches_gnm():
    # Length-2 prefixes of the process and G(n,m=2) draws must share one
    # distribution over the 45 unordered edge pairs (two-sample chi-square).
    universe = list(combinations(range(5), 3))
    index = {e: i for i, e in enumerate(universe)}

    def pair_key(edges):
        i, j = sorted(index[e] for e in edges)
        return i * 45 + j  # any injective key works

    proc = Counter(
        pair_key(edge_process(5, 3, SeededRng(808, t))[:2]) for t in range(N_MC)
    )
    gnm = Counter(
        pair_key(sample_gnm(GnmParams(5, 3, 2), SeededRng(809, t)).edges)
        for t in range(N_MC)
    )
    keys = sorted(set(proc) | set(gnm))
    table = np.array([[proc[k] for k in keys], [gnm[k] for k in keys]])
    _, pvalue, _, _ = stats.chi2_contingency(table)
    assert len(keys) == 45
    assert pvalue > 0.001


# ------------------------------------------------------------------ rng plumbing


def test_rng_shifted_streams_are_disjoint():
    base = SeededRng(42, 5)
    assert base.shifted(10).stream == 15
    a = sample_gnp(GnpParams(20, 3, 0.05), base)
    b = sample_gnp(GnpParams(20, 3, 0.05), base.shifted(1 << 48))
    assert a != b  # distinct lanes see distinct draws


def test_covered_vertices_match_gnp_draw():
    for t in range(25):
        params = GnpParams(40, 3, 0.002)
        mask = sampled_covered_vertices(params, SeededRng(11, t))
        h = sample_gnp(params, SeededRng(11, t))
        assert mask.dtype == np.bool_ and mask.shape == (40,)
        assert set(np.flatnonzero(mask)) == set(non_isolated_vertices(h))


@pytest.mark.parametrize(
    "n, d, p",
    [
        (12, 3, 0.0),
        (12, 3, 1.0),
        (12, 3, 0.3),  # dense branch: all C(n,d) d-sets are enumerated
        (20, 4, 0.5),
        (200, 3, 2e-4),  # sparse branch: rows are rejection-sampled
        (1000, 2, 2e-4),
    ],
)
def test_samplers_equal_from_edges_of_their_rows(n, d, p):
    for t in range(3):
        rng = SeededRng(31, t)
        rows = randmodels._gnp_rows(GnpParams(n, d, p), rng)
        h = sample_gnp(GnpParams(n, d, p), rng)
        want = Hypergraph.from_edges(n, d, rows.tolist())
        assert h == want and np.array_equal(h.rows, want.rows)
        assert h.edges == tuple(sorted(tuple(int(v) for v in row) for row in rows))
        m = len(rows)
        gnm_rows = randmodels._sample_distinct_rows(n, d, m, rng.generator())
        g = sample_gnm(GnmParams(n, d, m), rng)
        assert g == Hypergraph.from_edges(n, d, gnm_rows.tolist())
        assert np.array_equal(g.rows, Hypergraph.from_edges(n, d, gnm_rows.tolist()).rows)


# ------------------------------------------------------ sparse rejection sampler


def _sparse_rows_unique_loop(n, d, k, gen):
    """The sparse branch as it was before the column network: row sort,
    radix-n codes, and np.unique's first indices. It cuts the integers
    stream into batches of 2k + 1024 rows, a rule of its own, so agreeing
    with the sampler also shows that the rows do not depend on where the
    stream is cut."""
    parts = []
    batch = 2 * k + 1024
    while True:
        rows = gen.integers(0, n, size=(batch, d))
        rows.sort(axis=1)
        ok = np.all(rows[:, 1:] > rows[:, :-1], axis=1)
        parts.append(rows[ok])
        allrows = parts[0] if len(parts) == 1 else np.concatenate(parts)
        codes = allrows[:, 0].copy()
        for j in range(1, d):
            codes = codes * n + allrows[:, j]
        _, first = np.unique(codes, return_index=True)
        if first.size >= k:
            return allrows[np.sort(first)[:k]]


def _smallest_sparse_n(d):
    n = d
    while math.comb(n, d) <= randmodels._DENSE_ENUM_LIMIT:
        n += 1
    return n


@st.composite
def _sparse_cases(draw):
    d = draw(st.integers(2, 6))
    low = _smallest_sparse_n(d)
    high = min(10**6, int(2 ** (62 / d)) - 1)  # keeps n**d < 2**62
    n = draw(st.one_of(st.integers(low, low + 3), st.integers(low, high)))
    total = math.comb(n, d)
    most = (total - 1) // 2  # the largest k the sparse branch takes
    choices = [st.integers(1, min(most, 6000))]
    if total < 300_000:
        # duplicate-heavy: the first batch falls short and retry batches run
        choices.append(st.integers(total // 3, most))
    k = draw(st.one_of(*choices))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, d, k, seed


@given(_sparse_cases())
# the smallest sparse n for each d, with the largest sparse k
@example((633, 2, 100_013, 0))
@example((108, 3, 102_077, 1))
@example((49, 4, 105_937, 2))
@example((32, 5, 100_687, 3))
@example((26, 6, 115_114, 4))
def test_sparse_rows_match_the_unique_loop(case):
    n, d, k, seed = case
    got = randmodels._sample_distinct_rows(n, d, k, np.random.default_rng(seed))
    want = _sparse_rows_unique_loop(n, d, k, np.random.default_rng(seed))
    assert got.dtype == want.dtype and got.shape == want.shape == (k, d)
    assert np.array_equal(got, want)


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


_PINNED_GNP = [
    (2000, 0, 0, 5147, "cfac423b18ef6dd80b21b70b7a6f4626be92ffece2ba81715af45c0e0426a33f",
     "236b232fb94678b33f7cfe5d9b11edf49949b02c5a5820277d2c7b6f65a12a55"),
    (2000, 1, 0, 5019, "fb8bb63918cfe1c794a53862aa30a162676908f8bb5f78ccf2ff4cb0a087468c",
     "f5e5eec8707190edb8272bda0436ac6db9b2bf658bcffebb41a7dae2095f25c8"),
    (2000, 4, 0, 5125, "9e336f9327d351594ff8c18b1c7277356527b385975cab326fac4290e235d2d4",
     "d2290e9df8b08193b9536dfc08eff0901b2dca63338b311d0f82baa1d3c5dd23"),
    (1000, 0, 0, 2354, "d38a2d4d8b67d9d7535de94d39b6efc4dd2f88fca5fb9d4a91178bbf3e7fd057",
     "b77a81db736d562e760cb5df4878a2c7502753b6935806df67de79dffee40903"),
    (1000, 1, 0, 2269, "d7dfe371374682e70d33d7cc042b520a8068903abf0a1d664463b7cfb474ce07",
     "8f9cae4127ab59399caf3c41646dcb9c6e1e4b403afb3c586681cf162e3c96c8"),
    (1000, 7, 123, 2234, "f76598f746ef3f53b4fca6e95f40d1f2680021aec49250b228a690e6c8a913ff",
     "0ab8553de2507ebd055a6098ae043bb0492a7e50e297908efa6888700e16b8b5"),
    (200, 0, 0, 372, "4691bc1058f875bfe2c84bb8fa289c5264a452c29db4424ecec6d87a28cf0c9e",
     "d7c559bb9d4441c229c319d13b2152e114208178c16a8d7991f1344e634a46b0"),
    (200, 4, 0, 305, "e8ad7a98ded57e7bdba467e3e5ab2ee80c327d1c79dddad9a08abb2d0babface",
     "dd27e85d922c978dfdd2e2a2db1dff72d9f2503b2c63a0955ed2616c8770c031"),
]


@pytest.mark.parametrize(
    "n, seed, stream, m, rows_digest, mask_digest", _PINNED_GNP,
    ids=[f"n{case[0]}-seed{case[1]}-stream{case[2]}" for case in _PINNED_GNP],
)
def test_sparse_gnp_rows_and_masks_are_pinned(n, seed, stream, m, rows_digest, mask_digest):
    # d = 3, c = 0; values recorded on the np.unique-based sampler
    params = GnpParams(n, 3, p_from_c(n, 3, 0.0))
    rows = randmodels._gnp_rows(params, SeededRng(seed, stream))
    assert rows.dtype == np.int64 and rows.shape == (m, 3)
    assert _sha(rows) == rows_digest
    mask = sampled_covered_vertices(params, SeededRng(seed, stream))
    assert _sha(mask) == mask_digest


class _CountingGenerator:
    def __init__(self, gen):
        self.gen = gen
        self.integers_calls = 0

    def integers(self, *args, **kwargs):
        self.integers_calls += 1
        return self.gen.integers(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.gen, name)


# (n, d, c values, lex): the draws of the bench tables, then d = 4 and 5
_BENCH_DRAWS = [
    (2000, 3, (0.0,), False),
    (1000, 3, (-1.0, 0.0, 1.0, 2.0), True),
    (200, 3, (0.0,), False),
    (10**4, 3, (1.0,), False),
    (1000, 4, (0.0,), False),
    (1000, 5, (0.0,), False),
]


@pytest.mark.parametrize(
    "n, d, cs, lex", _BENCH_DRAWS, ids=[f"n{n}-d{d}" for n, d, _, _ in _BENCH_DRAWS]
)
def test_sparse_draw_takes_one_batch_at_the_bench_sizes(n, d, cs, lex):
    # the first batch covers the expected losses with room to spare, so no
    # draw at these sizes pays for a retry batch
    for c in cs:
        params = GnpParams(n, d, p_from_c(n, d, c))
        for stream in range(50):
            gen = _CountingGenerator(SeededRng(0, stream).generator())
            randmodels._gnp_rows(params, SimpleNamespace(generator=lambda: gen), lex)
            assert gen.integers_calls == 1, (c, stream)


# the smallest sparse n for each d, with the largest sparse k
_NEAR_HALF_DRAWS = [(633, 2, 100_013), (108, 3, 102_077), (49, 4, 105_937),
                    (32, 5, 100_687), (26, 6, 115_114)]


@pytest.mark.parametrize(
    "n, d, k", _NEAR_HALF_DRAWS, ids=[f"n{n}-d{d}" for n, d, _ in _NEAR_HALF_DRAWS]
)
def test_near_half_draw_takes_at_most_three_batches(n, d, k):
    # every batch is sized by the expected new codes it adds to those kept,
    # so a retry asks for enough rows to fill the shortfall
    for stream in range(20):
        gen = _CountingGenerator(SeededRng(0, stream).generator())
        randmodels._sample_distinct_rows(n, d, k, gen)
        assert gen.integers_calls <= 3, stream


def test_sparse_retry_batch_is_pinned():
    # C(108, 3) = 204,156 is just above the dense limit, and k is just under
    # half of it; stream 1 leaves the first batch short of k distinct rows
    n, d = 108, 3
    k = math.comb(n, d) // 2 - 1
    for stream, rows_digest in [
        (0, "6a8e19efe22416dfd51f12b6326973f05310b0bd70ca536754d23358ae87e693"),
        (1, "d71c9d376f71342f0f394f06b7bc951cb3476d9b1e40f5a7ada5ae4fb95d3873"),
    ]:
        gen = _CountingGenerator(SeededRng(3, stream).generator())
        rows = randmodels._sample_distinct_rows(n, d, k, gen)
        if stream == 1:
            assert gen.integers_calls == 2
        assert rows.dtype == np.int64 and rows.shape == (k, d)
        assert _sha(rows) == rows_digest, stream
