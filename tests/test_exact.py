"""Exact finite-n references, in rational arithmetic, for the threshold and
process tables: P(min degree >= 1) under G(n,p) and G(n,m) by
inclusion-exclusion, and P(weak Hamiltonian) and the hitting-time law of
the edge process by enumerating every edge subset at n=5 and n=6, d=3, and
(the law only) at n=7, d=2.

Every band test follows one rule, fixed before the tables were read: each
cell lies in its Wilson interval at z = 4 (a two-sided miss rate of 6.3e-5
a cell, so below 1e-3 over the 12 min-degree cells, and over the 8 weak
Hamiltonicity cells; 2e-3 over the 32 t_ham cells at d=3, and 1.4e-3 over
the 22 at n=7, d=2), and a mean lies within 4 standard errors."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest

from weakham import (ExperimentConfig, estimate_mindeg_probability, m_from_c, p_from_c,
                     run_experiment, wilson_interval)

Z_BAND = 4.0
C_GRID = (-1.0, 0.0, 1.0, 2.0)


def mindeg_gnp_exact(n: int, d: int, p) -> Fraction:
    """P(no isolated vertex) in G(n,p): sum over k of
    (-1)^k C(n,k) q^(C(n,d) - C(n-k,d)), with q = 1 - p exactly."""
    q = 1 - Fraction(p)
    return sum((-1) ** k * comb(n, k) * q ** (comb(n, d) - comb(n - k, d))
               for k in range(n + 1))


def mindeg_gnm_exact(n: int, d: int, m: int) -> Fraction:
    """P(no isolated vertex) in G(n,m): sum over k of
    (-1)^k C(n,k) C(C(n-k,d), m) / C(C(n,d), m)."""
    return sum(Fraction((-1) ** k * comb(n, k) * comb(comb(n - k, d), m), comb(comb(n, d), m))
               for k in range(n + 1))


def _edge_subsets(n: int, d: int):
    """Every subset of the d-sets of [n], as (edges, vertex degrees)."""
    dsets = list(combinations(range(n), d))
    for mask in range(1 << len(dsets)):
        edges = [e for i, e in enumerate(dsets) if mask >> i & 1]
        deg = [0] * n
        for e in edges:
            for v in e:
                deg[v] += 1
        yield edges, deg


def _hamilton_cycles(n: int) -> list[list[tuple[int, int]]]:
    """The Hamilton cycles of K_n, each once, as lists of sorted pairs."""
    out = []
    for rest in permutations(range(1, n)):
        if rest[0] < rest[-1]:
            cyc = (0,) + rest
            out.append([tuple(sorted((cyc[i - 1], cyc[i]))) for i in range(n)])
    return out


def _brute_counts(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """`subset_counts` by a loop over every edge subset, checking each
    Hamilton cycle of K_n against the subset's shadow."""
    N = comb(n, d)
    cycles = _hamilton_cycles(n)
    covering = [0] * (N + 1)
    hamiltonian = [0] * (N + 1)
    lasts = [0] * (N + 1)
    for edges, deg in _edge_subsets(n, d):
        m = len(edges)
        covering[m] += min(deg) > 0
        shadow = {pair for e in edges for pair in combinations(e, 2)}
        if any(all(pair in shadow for pair in cyc) for cyc in cycles):
            hamiltonian[m] += 1
            lasts[m] += sum(1 for e in edges if any(deg[v] == 1 for v in e))
    return tuple(covering), tuple(hamiltonian), tuple(lasts)


@lru_cache(maxsize=None)
def subset_counts(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Per edge count m, over the subsets S of the d-sets of [n]: how many
    cover every vertex, how many are weakly Hamiltonian (their shadow has a
    Hamilton cycle), and the sum over the weakly Hamiltonian ones of their
    edges that carry a vertex of degree 1. Each S is a bitmask over the
    d-sets; its shadow pair mask and vertex mask are ORed up by doubling
    over the d-sets, and Hamiltonicity is read from a table over the pair
    masks: the Hamilton cycles of K_n, closed upward."""
    dsets = list(combinations(range(n), d))
    pair_bit = {pair: 1 << i for i, pair in enumerate(combinations(range(n), 2))}
    shadow = cover = np.zeros(1, dtype=np.int32)
    for e in dsets:
        shadow = np.concatenate((shadow, shadow | sum(pair_bit[q] for q in combinations(e, 2))))
        cover = np.concatenate((cover, cover | sum(1 << v for v in e)))
    table = np.zeros(1 << len(pair_bit), dtype=bool)
    for cyc in _hamilton_cycles(n):
        table[sum(pair_bit[q] for q in cyc)] = True
    for b in range(len(pair_bit)):
        view = table.reshape(-1, 2, 1 << b)
        view[:, 1] |= view[:, 0]
    ham = table[shadow]
    covering = cover == (1 << n) - 1
    S = np.arange(1 << len(dsets), dtype=np.int32)
    size = np.bitwise_count(S)
    # an edge carries a vertex of degree 1 iff S less it leaves that vertex bare
    lasts = np.zeros(S.size, dtype=np.int64)
    for i in range(len(dsets)):
        lasts += (S >> i & 1) & ~covering[S ^ (1 << i)]
    N = len(dsets)
    last_sums = np.zeros(N + 1, dtype=np.int64)
    np.add.at(last_sums, size[ham], lasts[ham])
    return (tuple(np.bincount(size[covering], minlength=N + 1).tolist()),
            tuple(np.bincount(size[ham], minlength=N + 1).tolist()), tuple(last_sums.tolist()))


def hitting_time_law(n: int, d: int) -> tuple[Fraction, Fraction]:
    """(P(tau = t_ham), E[t_ham - tau]) for the random edge process on the
    d-sets of [n], over all 2^C(n,d) edge subsets S. tau = t_ham = |S| when S
    is weakly Hamiltonian and the last edge carries a vertex of degree 1, so
    that S less it has an isolated vertex; E[gap] sums P(tau <= m) -
    P(t_ham <= m) over m, each the share of m-subsets that cover every
    vertex, or are weakly Hamiltonian."""
    N = comb(n, d)
    covering, hamiltonian, lasts = subset_counts(n, d)
    equal = sum(Fraction(lasts[m], m * comb(N, m)) for m in range(1, N + 1))
    gap = sum(Fraction(covering[m] - hamiltonian[m], comb(N, m)) for m in range(N + 1))
    return equal, gap


def weak_ham_gnp_exact(n: int, d: int, p) -> Fraction:
    """P(weak Hamiltonian) in G(n,p): sum over m of h_m p^m q^(C(n,d)-m)."""
    N, p = comb(n, d), Fraction(p)
    return sum(h * p ** m * (1 - p) ** (N - m) for m, h in enumerate(subset_counts(n, d)[1]))


def weak_ham_gnm_exact(n: int, d: int, m: int) -> Fraction:
    """P(weak Hamiltonian) in G(n,m): h_m / C(C(n,d), m)."""
    return Fraction(subset_counts(n, d)[1][m], comb(comb(n, d), m))


def _in_band(successes: int, trials: int, exact) -> bool:
    lo, hi = wilson_interval(successes, trials, z=Z_BAND)
    return lo <= exact <= hi


def test_mindeg_exact_matches_brute_force():
    n, d = 5, 3
    N = comb(n, d)
    covering = [0] * (N + 1)
    for edges, deg in _edge_subsets(n, d):
        covering[len(edges)] += min(deg) > 0
    for p in (Fraction(1, 3), Fraction(1, 2), 0.15):
        q = 1 - Fraction(p)
        brute = sum(c * Fraction(p) ** m * q ** (N - m) for m, c in enumerate(covering))
        assert mindeg_gnp_exact(n, d, p) == brute
    for m in range(N + 1):
        assert mindeg_gnm_exact(n, d, m) == Fraction(covering[m], comb(N, m))


@pytest.mark.parametrize("n", [8, 12])
def test_mindeg_monte_carlo_meets_the_exact_gnp_value(n):
    trials = 4000
    for c in C_GRID:
        phat = estimate_mindeg_probability(n, 3, c, trials, 0)
        exact = mindeg_gnp_exact(n, 3, p_from_c(n, 3, c))
        assert _in_band(round(phat * trials), trials, exact), (n, c, phat, float(exact))


def test_gnm_table_mindeg_meets_the_exact_gnm_value():
    cfg = ExperimentConfig("gnm", n=12, d=3, c_grid=C_GRID, trials=2000, seed=0)
    tab = run_experiment(cfg)
    for c, m, yes in zip(tab.column("c"), tab.column("m"), tab.column("mindeg_yes")):
        assert int(m) == m_from_c(12, 3, float(c))
        exact = mindeg_gnm_exact(12, 3, int(m))
        assert _in_band(int(yes), cfg.trials, exact), (c, yes, float(exact))


def test_subset_counts_match_brute_force_at_n5():
    assert subset_counts(5, 3) == _brute_counts(5, 3)


def test_hitting_time_law_at_n5():
    assert hitting_time_law(5, 3) == (Fraction(7, 12), Fraction(5, 12))


def _process_meets_the_law(n: int, d: int = 3) -> None:
    equal, gap = hitting_time_law(n, d)
    cfg = ExperimentConfig("process", n=n, d=d, trials=4000, seed=0)
    tab = run_experiment(cfg)
    assert _in_band(tab.column("equal").count("1"), cfg.trials, equal)
    # P(t_ham <= m) is the share of weakly Hamiltonian m-subsets
    t_ham = [int(t) for t in tab.column("t_ham")]
    for m, h in enumerate(subset_counts(n, d)[1]):
        hits = sum(t <= m for t in t_ham)
        assert _in_band(hits, cfg.trials, Fraction(h, comb(comb(n, d), m))), (n, d, m, hits)
    gaps = [int(g) for g in tab.column("gap")]
    mean = sum(gaps) / len(gaps)
    sd = math.sqrt(sum((g - mean) ** 2 for g in gaps) / (len(gaps) - 1))
    assert abs(mean - gap) <= Z_BAND * sd / math.sqrt(len(gaps)), (mean, float(gap))


def test_process_table_meets_the_exact_hitting_time_law():
    _process_meets_the_law(5)


def test_process_table_at_n6_meets_the_exact_hitting_time_law():
    equal, gap = hitting_time_law(6, 3)
    assert (round(float(equal), 6), round(float(gap), 6)) == (0.592879, 0.543344)
    _process_meets_the_law(6)


def test_process_table_at_n7_d2_meets_the_exact_hitting_time_law():
    # for graphs a Hamilton cycle needs minimum degree 2, so tau < t_ham always
    equal, gap = hitting_time_law(7, 2)
    assert (equal, round(float(gap), 6)) == (0, 4.441901)
    _process_meets_the_law(7, 2)


def test_weak_hamiltonicity_at_n6_meets_the_threshold_and_gnm_tables():
    # the G(n,p) values agree with a float Möbius transform over the shadows
    gnp = [weak_ham_gnp_exact(6, 3, p_from_c(6, 3, c)) for c in C_GRID]
    assert [round(float(x), 5) for x in gnp] == [0.01133, 0.11122, 0.31070, 0.53860]
    for experiment in ("threshold", "gnm"):
        cfg = ExperimentConfig(experiment, n=6, d=3, c_grid=C_GRID, trials=2000, seed=0)
        tab = run_experiment(cfg)
        assert set(tab.column("ham_unknown")) == {"0"}
        for c, yes in zip(C_GRID, tab.column("ham_yes")):
            exact = (weak_ham_gnp_exact(6, 3, p_from_c(6, 3, c)) if experiment == "threshold"
                     else weak_ham_gnm_exact(6, 3, m_from_c(6, 3, c)))
            assert _in_band(int(yes), cfg.trials, exact), (experiment, c, yes, float(exact))
