"""Exact finite-n references, in rational arithmetic, for the threshold and
process tables: P(min degree >= 1) under G(n,p) and G(n,m) by
inclusion-exclusion, and the hitting-time law of the edge process by
enumerating every edge subset at n=5, d=3.

Every band test follows one rule, fixed before the tables were read: each
cell lies in its Wilson interval at z = 4 (a two-sided miss rate of 6.3e-5
a cell, so below 1e-3 over the 12 min-degree cells)."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

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


def hitting_time_law(n: int, d: int) -> tuple[Fraction, Fraction]:
    """(P(tau = t_ham), E[t_ham - tau]) for the random edge process on the
    d-sets of [n], over all 2^C(n,d) edge subsets S. tau = t_ham = |S| when S
    is weakly Hamiltonian (its shadow has a Hamilton cycle) and the last edge
    carries a vertex of degree 1, so that S less it has an isolated vertex;
    E[gap] sums P(tau <= m) - P(t_ham <= m) over m, each the share of
    m-subsets that cover every vertex, or are weakly Hamiltonian."""
    N = comb(n, d)
    cycles = _hamilton_cycles(n)
    covering = [0] * (N + 1)
    hamiltonian = [0] * (N + 1)
    equal = Fraction(0)
    for edges, deg in _edge_subsets(n, d):
        m = len(edges)
        covering[m] += min(deg) > 0
        shadow = {pair for e in edges for pair in combinations(e, 2)}
        if any(all(pair in shadow for pair in cyc) for cyc in cycles):
            hamiltonian[m] += 1
            last = sum(1 for e in edges if any(deg[v] == 1 for v in e))
            equal += Fraction(last, m * comb(N, m))
    gap = sum(Fraction(covering[m] - hamiltonian[m], comb(N, m)) for m in range(N + 1))
    return equal, gap


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


def test_hitting_time_law_at_n5():
    assert hitting_time_law(5, 3) == (Fraction(7, 12), Fraction(5, 12))


def test_process_table_meets_the_exact_hitting_time_law():
    equal, gap = hitting_time_law(5, 3)
    cfg = ExperimentConfig("process", n=5, d=3, trials=4000, seed=0)
    tab = run_experiment(cfg)
    assert _in_band(tab.column("equal").count("1"), cfg.trials, equal)
    gaps = [int(g) for g in tab.column("gap")]
    mean = sum(gaps) / len(gaps)
    sd = math.sqrt(sum((g - mean) ** 2 for g in gaps) / (len(gaps) - 1))
    assert abs(mean - gap) <= Z_BAND * sd / math.sqrt(len(gaps)), (mean, float(gap))
