"""Exhaustive small-instance deciders: weak Hamiltonicity by two independent
methods, the verdict policy the experiments share, spanning cycles on the
covered vertex set, and fixed-length weak cycles."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakham import (
    CapabilityError,
    GnpParams,
    Hypergraph,
    InputError,
    SeededRng,
    decide_weak_hamiltonian,
    exact_weak_hamiltonian,
    isolated_vertices,
    sample_gnp,
    validate,
)

from weakham import _bitdp

from conftest import complete_hypergraph, petersen
from proof_checks import direct_weak_hamiltonian, has_weak_cycle_of_length, weak_cycle_of_length


def H(n, d, edges):
    return Hypergraph.from_edges(n, d, edges)


def _gnp(n, d, p, seed):
    return sample_gnp(GnpParams(n, d, p), SeededRng(seed))


# ------------------------------------------------------------- hamiltonicity


def test_single_edge_triangle_is_hamiltonian():
    Hs = H(3, 3, [(0, 1, 2)])
    v = exact_weak_hamiltonian(Hs)
    assert v.answer == "yes"
    assert v.method == "dp"
    C = v.witness
    assert frozenset(C.vertices) == frozenset(range(3))
    assert set(C.edges) == {(0, 1, 2)}  # the one edge, reused three times
    assert validate(C, Hs).ok


def test_both_methods_on_triangle():
    Hs = H(3, 3, [(0, 1, 2)])
    d = direct_weak_hamiltonian(Hs)
    assert d.answer == "yes"
    assert d.method == "backtracking-direct"
    assert validate(d.witness, Hs).ok


def test_edges_given_as_lists_are_decided_and_hashable():
    Hs = Hypergraph(3, 2, [[0, 1], [0, 2], [1, 2]])
    assert exact_weak_hamiltonian(Hs).answer == "yes"
    assert decide_weak_hamiltonian(Hs).answer == "yes"
    assert hash(Hs) == hash(H(3, 2, [(0, 1), (0, 2), (1, 2)]))


@pytest.mark.parametrize("decide", [exact_weak_hamiltonian, direct_weak_hamiltonian],
                         ids=["dp", "backtracking-direct"])
def test_numpy_vertices_give_plain_int_witnesses(decide):
    Hs = Hypergraph(5, 3, [tuple(map(np.int64, e)) for e in combinations(range(5), 3)])
    v = decide(Hs)
    assert json.loads(v.to_json())["answer"] == "yes"
    C = v.witness
    assert all(type(x) is int for x in C.vertices)
    assert all(type(x) is int for e in C.edges for x in e)


def test_isolated_vertex_certified_without_search():
    v = exact_weak_hamiltonian(H(4, 3, [(0, 1, 2)]))
    assert v.answer == "no"
    assert v.witness is None
    assert v.note == "vertex 3 is isolated"


def test_tiny_n_certified():
    v = exact_weak_hamiltonian(H(2, 2, [(0, 1)]))
    assert v.answer == "no"
    assert v.note == "n = 2 < 3"


def test_disconnected_certified():
    v = exact_weak_hamiltonian(H(6, 3, [(0, 1, 2), (3, 4, 5)]))
    assert v.answer == "no"
    assert v.note == "vertex set is disconnected"


def test_unknown_method_rejected():
    Hs = H(3, 3, [(0, 1, 2)])
    # the call bench/rebuild.py makes
    assert exact_weak_hamiltonian(Hs, method="dp") == exact_weak_hamiltonian(Hs)
    for method in ("direct", "backtracking-direct"):
        with pytest.raises(InputError, match=f"unknown oracle method '{method}'"):
            exact_weak_hamiltonian(Hs, method=method)


def test_complete_hypergraphs_hamiltonian():
    for n, d in ((5, 3), (6, 4), (8, 3)):
        v = exact_weak_hamiltonian(complete_hypergraph(n, d))
        assert v.answer == "yes"
        assert v.witness.length == n


def test_methods_agree_on_random_instances():
    yes = no = 0
    for s in range(60):
        n = 4 + s % 6
        d = 3 if s % 2 == 0 else 4
        if d > n:
            continue
        Hs = _gnp(n, d, 0.25, seed=4000 + s)
        a = exact_weak_hamiltonian(Hs)
        b = direct_weak_hamiltonian(Hs)
        assert a.answer == b.answer
        if a.answer == "yes":
            assert validate(a.witness, Hs).ok
            assert validate(b.witness, Hs).ok
            assert frozenset(a.witness.vertices) == frozenset(range(n))
            yes += 1
        else:
            no += 1
    assert yes >= 5 and no >= 5  # the sweep must exercise both outcomes


def test_hamiltonicity_monotone_under_edge_addition():
    universe = list(combinations(range(7), 3))
    for s in range(4):
        rng = SeededRng(7000 + s).generator()
        order = list(rng.permutation(len(universe)))
        edges, seen_yes = [], False
        for k in order:
            edges.append(universe[k])
            ans = exact_weak_hamiltonian(H(7, 3, edges)).answer
            if seen_yes:
                assert ans == "yes"  # adding edges never destroys a cycle
            seen_yes = seen_yes or ans == "yes"
        assert seen_yes  # the complete hypergraph is hamiltonian


def test_dp_capability_limit():
    chain = [tuple(range(i, i + 3)) for i in range(19)]
    with pytest.raises(CapabilityError, match="dp oracle handles n <= 20"):
        exact_weak_hamiltonian(H(21, 3, chain))


def test_direct_capability_limit():
    chain = [tuple(range(i, i + 3)) for i in range(15)]
    with pytest.raises(CapabilityError, match="direct oracle handles n <= 16"):
        direct_weak_hamiltonian(H(17, 3, chain))


# ------------------------------------------------------------ verdict policy


@st.composite
def _policy_cases(draw):
    n = 12 - draw(st.integers(0, 12))  # draws lean to 0, so n leans to 12
    d = draw(st.sampled_from([2, 3, 4]))
    p = draw(st.sampled_from([0.0, 0.05, 0.15, 0.3, 0.6, 1.0]))
    graph = _gnp(n, d, p, draw(st.integers(0, 2**16)))
    return graph, draw(st.sampled_from([None, 0, 1, 5])), draw(st.integers(0, 3))


@settings(max_examples=200)
@given(_policy_cases())
def test_decide_agrees_with_the_oracle(case):
    g, budget, seed = case
    exact = exact_weak_hamiltonian(g).answer
    trivial = g.n < 3 or bool(isolated_vertices(g))
    for cutoff in (20, 0):
        v = decide_weak_hamiltonian(g, budget=budget, rng=SeededRng(seed), oracle_cutoff=cutoff)
        if cutoff:
            assert v.answer == exact
        else:
            assert v.answer in (exact, "unknown")
        if v.yes:
            assert validate(v.witness, g).ok
            assert frozenset(v.witness.vertices) == frozenset(range(g.n))
        assert (v.search is None) == trivial
        if v.answer == "unknown":
            assert v.method == "search" and v.search.impossible is None
            assert not v.search.complete


def test_decide_trivial_no_is_the_oracles():
    for g in (Hypergraph(2, 2, ((0, 1),)), H(5, 3, [(0, 1, 2)])):
        assert decide_weak_hamiltonian(g, oracle_cutoff=20) == exact_weak_hamiltonian(g)


def test_decide_keeps_the_search_provenance():
    # the Petersen graph: no certificate, and a zero budget stalls
    graph = petersen()
    oracle = decide_weak_hamiltonian(graph, budget=0, oracle_cutoff=20)
    assert (oracle.answer, oracle.method, oracle.note) == ("no", "dp", None)
    assert oracle.search.exhausted and oracle.search.rotations == 0
    unknown = decide_weak_hamiltonian(graph, budget=0)
    assert (unknown.answer, unknown.method) == ("unknown", "search")
    assert unknown.note == "search gave up without a certificate"
    assert unknown.search == oracle.search
    yes = decide_weak_hamiltonian(complete_hypergraph(6, 3))
    assert (yes.answer, yes.method, yes.search.complete) == ("yes", "search", True)
    chain = decide_weak_hamiltonian(H(7, 3, [(0, 1, 2), (2, 3, 4), (4, 5, 6)]))
    assert (chain.answer, chain.method) == ("no", "search")
    assert chain.search.impossible is not None
    assert chain.note == chain.search.impossible


_BAD_WITNESS_RUN = """
import sys
from itertools import combinations
from weakham import Hypergraph, WeakCycle, oracle, weakpaths
if not sys.flags.optimize:
    sys.exit("expected python -O")
sys.path.insert(0, sys.argv[2])
import proof_checks
def lift_cycle(H, vseq):  # a lift whose every edge is (0, 1, 2)
    return WeakCycle(vseq, [(0, 1, 2)] * len(vseq))
weakpaths.lift_cycle = oracle.lift_cycle = proof_checks.lift_cycle = lift_cycle
proof_checks._direct_hamilton = lambda H: lift_cycle(H, range(H.n))
H = Hypergraph.from_edges(6, 3, combinations(range(6), 3))
print({
    "search": lambda: oracle.decide_weak_hamiltonian(H),
    "dp": lambda: oracle.exact_weak_hamiltonian(H),
    "backtracking-direct": lambda: proof_checks.direct_weak_hamiltonian(H),
    "probe": lambda: proof_checks.weak_cycle_of_length(H, 6),
}[sys.argv[1]]())
"""


@pytest.mark.parametrize("where", ["search", "dp", "backtracking-direct", "probe"])
def test_invalid_witness_raises_under_python_O(where):
    # python -O strips assert statements; the check behind every "yes" must
    # still refuse a lift that returns an invalid cycle
    proc = subprocess.run([sys.executable, "-O", "-c", _BAD_WITNESS_RUN, where,
                           str(Path(__file__).parent)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0, proc.stdout
    assert re.search(r"AssertionError: invalid witness cycle: edge \d+ = \(0, 1, 2\) "
                     r"does not cover consecutive pair", proc.stderr), proc.stderr


# --------------------------------------------------------- cycles of length l


def test_cycle_of_each_length_on_tight_chain():
    Hs = H(5, 3, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
    for ell in (3, 4, 5):
        C = weak_cycle_of_length(Hs, ell)
        assert C is not None
        assert C.length == ell
        assert validate(C, Hs).ok
        assert has_weak_cycle_of_length(Hs, ell)
    assert weak_cycle_of_length(Hs, 6) is None  # only 5 vertices exist


def test_cycle_length_rejects_tiny():
    with pytest.raises(InputError, match="length >= 3, got 2"):
        weak_cycle_of_length(H(3, 3, [(0, 1, 2)]), 2)


def test_cycle_length_capability_limit():
    chain = [tuple(range(i, i + 3)) for i in range(19)]
    with pytest.raises(CapabilityError, match="cycle-length probe handles n <= 20"):
        weak_cycle_of_length(H(21, 3, chain), 4)


def test_cycle_of_length_matches_brute_force():
    for s in range(8):
        Hs = _gnp(6, 3, 0.2, seed=8000 + s)
        for ell in range(3, 7):
            want = _has_cycle_brute(Hs, ell)
            got = has_weak_cycle_of_length(Hs, ell)
            assert got == want, (s, ell)
            C = weak_cycle_of_length(Hs, ell)
            assert (C is not None) == want
            if C is not None:
                assert C.length == ell
                assert validate(C, Hs).ok


def _has_cycle_brute(Hs, ell):
    pairs = {
        frozenset({u, v})
        for e in Hs.edges
        for u, v in combinations(e, 2)
    }
    for sub in combinations(range(Hs.n), ell):
        rest = sub[1:]
        for perm in permutations(rest):
            ring = (sub[0],) + perm
            if all(
                frozenset({ring[i], ring[(i + 1) % ell]}) in pairs
                for i in range(ell)
            ):
                return True
    return False


# ------------------------------------------------------------ subset dp kernel


@st.composite
def _dp_cases(draw):
    n = draw(st.integers(1, 7))
    adj = [0] * n
    for u, v in combinations(range(n), 2):
        if draw(st.booleans()):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return n, adj


@settings(max_examples=200)
@given(_dp_cases())
def test_endpoints_match_path_enumeration(case):
    n, adj = case
    want = [0] * (1 << n)
    for length in range(1, n + 1):
        for path in permutations(range(n), length):
            if path[0] != 0:
                continue
            if all(adj[u] >> w & 1 for u, w in zip(path, path[1:])):
                S = sum(1 << v for v in path)
                want[S] |= 1 << path[-1]
    assert _bitdp.endpoints(adj, n).tolist() == want
