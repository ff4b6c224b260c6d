"""Weak paths and cycles: structural validation, rotations, closure sets,
booster enumeration and rotation-extension search."""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakham import (
    CapabilityError,
    Hypergraph,
    InputError,
    SeededRng,
    ValidationResult,
    WeakCycle,
    WeakPath,
    exact_weak_hamiltonian,
    GnpParams,
    isolated_vertices,
    lift_cycle,
    lift_path,
    neighbors,
    non_isolated_vertices,
    p_from_c,
    rotation_extension_search,
    sample_gnp,
    u_exact,
    validate,
    weak_from_json,
    weak_to_json,
)
from weakham.hypercore import _reach
from weakham.weakpaths import (_check_witness, _cut_vertex, _forced_edge_pruning,
                               default_rotation_budget)

from conftest import complete_hypergraph, hypergraphs, petersen
from proof_checks import (audit_rotations, booster_edges, booster_lower_bound,
                          has_weak_cycle_of_length, posa_set, reversed_path, rotate,
                          stalled_path)


def H(n, d, edges):
    return Hypergraph.from_edges(n, d, edges)


PATH_H = Hypergraph.from_edges(5, 3, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])


# ----------------------------------------------------------------- structures


def test_weak_path_shape():
    P = WeakPath((0, 1, 3), ((0, 1, 2), (1, 2, 3)))
    assert P.vertices == (0, 1, 3)
    assert P.edges == ((0, 1, 2), (1, 2, 3))
    R = reversed_path(P)
    assert R.vertices == (3, 1, 0)
    assert R.edges == ((1, 2, 3), (0, 1, 2))


def test_weak_path_single_vertex():
    P = WeakPath((7,), ())
    assert (P.vertices, P.edges) == ((7,), ())


def test_weak_path_rejects_empty():
    with pytest.raises(InputError, match="at least one vertex"):
        WeakPath((), ())


def test_weak_path_rejects_wrong_edge_count():
    with pytest.raises(InputError, match="2 vertices need 1 edges, got 2"):
        WeakPath((0, 1), ((0, 1, 2), (1, 2, 3)))


def test_weak_cycle_shape():
    C = WeakCycle((1, 2, 3), ((1, 2, 3), (1, 2, 3), (1, 2, 3)))
    assert C.length == 3
    assert frozenset(C.vertices) == frozenset({1, 2, 3})
    assert not C.has_distinct_edges


def test_weak_cycle_rejects_short():
    with pytest.raises(InputError, match="cycle too short"):
        WeakCycle((0, 1), ((0, 1, 2), (0, 1, 2)))


def test_weak_cycle_rejects_wrong_edge_count():
    with pytest.raises(InputError, match="needs as many edges"):
        WeakCycle((0, 1, 2), ((0, 1, 2), (0, 1, 2)))


def test_weak_objects_store_lists_as_tuples():
    # lists used to be kept as given: they failed to hash, validate or
    # compare equal to their own JSON round trip
    Hl = H(5, 3, [(0, 1, 2), (0, 1, 3), (1, 2, 3), (2, 3, 4), (0, 3, 4)])
    P = WeakPath([0, 1], [[0, 1, 2]])
    assert P == WeakPath((0, 1), ((0, 1, 2),)) and P.vertices == (0, 1)
    assert hash(P) == hash(WeakPath((0, 1), ((0, 1, 2),)))
    assert validate(WeakPath((0, 1), ([0, 1, 2],)), Hl).ok
    assert weak_from_json(weak_to_json(P)) == P
    C = WeakCycle([0, 1, 2], [[0, 1, 2]] * 3)
    assert C.edges == ((0, 1, 2),) * 3 and not C.has_distinct_edges
    assert validate(C, Hl).ok and weak_from_json(weak_to_json(C)) == C
    with pytest.raises(InputError, match="edges must be sequences"):
        WeakPath((0, 1), (5,))


def test_weak_objects_refuse_non_integer_vertices():
    # a vertex is an integer operator.index accepts, not a bool: 1.0 and
    # True used to validate and then write JSON that weak_from_json refuses,
    # and a string made validate raise a raw TypeError
    for vs in ((0, 1.0), (True, 2), ("0", 1), (0, None)):
        with pytest.raises(InputError, match="is not an integer"):
            WeakPath(vs, ((0, 1, 2),))
    with pytest.raises(InputError, match="vertex 1.0 is not an integer"):
        WeakCycle((0, 1.0, 2), ((0, 1, 2),) * 3)


def test_weak_objects_store_numpy_vertices_as_ints():
    P = WeakPath(np.array([0, 1]), ((0, 1, 2),))
    assert P.vertices == (0, 1) and all(type(v) is int for v in P.vertices)
    assert weak_to_json(P) == '{"kind":"path","sequence":[0,[0,1,2],1]}'
    C = WeakCycle((np.int64(0), np.uint8(1), 2), ((0, 1, 2),) * 3)
    assert all(type(v) is int for v in C.vertices)
    assert weak_from_json(weak_to_json(C)) == C


def test_weak_json_writes_numpy_edge_entries_as_ints():
    # numpy ints are not JSON serializable; edge entries are kept as given
    e = tuple(np.array([0, 1, 2]))
    P = WeakPath((0, 1), (e,))
    assert validate(P, PATH_H).ok
    assert weak_to_json(P) == '{"kind":"path","sequence":[0,[0,1,2],1]}'
    assert weak_from_json(weak_to_json(P)) == P
    with pytest.raises(InputError, match="cannot serialize an edge entry"):
        weak_to_json(WeakPath((0, 1), ((0, Fraction(1), 2),)))


def test_weak_objects_store_each_edge_sorted():
    # Hypergraph stores each edge sorted, so weak objects must too: else
    # (2, 1, 0) is "not an edge of H", and one edge listed three ways counts
    # as three distinct edges
    Hl = H(5, 3, [(0, 1, 2), (0, 1, 3), (1, 2, 3), (2, 3, 4), (0, 3, 4)])
    P = WeakPath((0, 1), ((2, 1, 0),))
    assert P.edges == ((0, 1, 2),) and P == WeakPath((0, 1), ((0, 1, 2),))
    assert validate(P, Hl).ok
    C = WeakCycle((0, 1, 2), ((0, 1, 2), (2, 1, 0), (1, 0, 2)))
    assert C.edges == ((0, 1, 2),) * 3 and not C.has_distinct_edges
    assert validate(C, Hl).ok
    # only the unsorted edge moves; ragged widths are sorted edge by edge
    mixed = WeakPath((0, 1, 3), ((0, 1, 2), (3, 1, 0)))
    assert mixed.edges == ((0, 1, 2), (0, 1, 3)) and validate(mixed, Hl).ok
    assert WeakPath((0, 1, 2), ((1, 0), (2, 1, 0))).edges == ((0, 1), (0, 1, 2))
    Pj = weak_from_json('{"kind":"path","sequence":[0,[2,1,0],1]}')
    assert Pj == P and validate(Pj, Hl).ok
    assert weak_to_json(Pj) == '{"kind":"path","sequence":[0,[0,1,2],1]}'
    with pytest.raises(InputError, match="orderable vertices"):
        WeakPath((0, 1), ((0, "a", 1),))


# ----------------------------------------------------------------- validation


def test_validate_accepts_path():
    P = WeakPath((0, 1, 3), ((0, 1, 2), (1, 2, 3)))
    res = validate(P, PATH_H)
    assert res.ok and res.violation is None


def test_validate_pair_not_covered():
    P = WeakPath((0, 1, 3), ((0, 1, 2), (0, 1, 2)))
    res = validate(P, PATH_H)
    assert not res.ok
    assert res.violation == (
        "edge 1 = (0, 1, 2) does not cover consecutive pair (1, 3)"
    )


def test_validate_membership_checked_before_coverage():
    P = WeakPath((0, 1, 4), ((0, 1, 2), (1, 3, 4)))
    res = validate(P, PATH_H)
    assert not res.ok
    assert res.violation == "edge 1 = (1, 3, 4) is not an edge of H"


def test_validate_repeated_vertex():
    P = WeakPath((0, 1, 0), ((0, 1, 2), (0, 1, 2)))
    res = validate(P, PATH_H)
    assert not res.ok
    assert "vertices not distinct" in res.violation


def test_validate_vertex_out_of_range():
    P = WeakPath((0, 9), ((0, 1, 2),))
    res = validate(P, PATH_H)
    assert not res.ok
    assert "vertex 9 out of range [0, 5)" in res.violation


def test_validate_cycle_edge_reuse_allowed():
    C = WeakCycle((1, 2, 3), ((1, 2, 3), (1, 2, 3), (1, 2, 3)))
    assert validate(C, PATH_H).ok


def test_validate_strict_rejects_reuse():
    C = WeakCycle((1, 2, 3), ((1, 2, 3), (1, 2, 3), (1, 2, 3)))
    # a weak cycle may reuse an edge; the strict Berge check is separate
    assert validate(C, PATH_H).ok
    assert not C.has_distinct_edges


def test_validate_cycle_wrap_pair():
    # e_l must cover (v_{l-1}, v0); (0,1,2) does not contain 3 or 4
    Hc = H(5, 3, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 2, 4)])
    C = WeakCycle((0, 2, 4), ((0, 1, 2), (2, 3, 4), (0, 2, 4)))
    assert validate(C, Hc).ok
    C_bad = WeakCycle((0, 2, 4), ((0, 1, 2), (2, 3, 4), (0, 1, 2)))
    res = validate(C_bad, Hc)
    assert not res.ok
    assert "does not cover consecutive pair (4, 0)" in res.violation


def _reference_validate(obj, Hs):
    """validate as it was before its membership check used searchsorted: a
    per-edge loop over the frozenset of H's edge tuples."""
    vs = obj.vertices
    if len(set(vs)) != len(vs):
        return ValidationResult(False, "vertices not distinct")
    for v in vs:
        if not (0 <= v < Hs.n):
            return ValidationResult(False, f"vertex {v} out of range [0, {Hs.n})")
    edge_set = frozenset(Hs.edges)
    for k, e in enumerate(obj.edges):
        if e not in edge_set:
            return ValidationResult(False, f"edge {k} = {e} is not an edge of H")
    cycle = isinstance(obj, WeakCycle)
    for k, e in enumerate(obj.edges):
        u, v = vs[k], vs[(k + 1) % len(vs)] if cycle else vs[k + 1]
        if u not in e or v not in e:
            return ValidationResult(
                False, f"edge {k} = {e} does not cover consecutive pair ({u}, {v})"
            )
    return ValidationResult(True)


@st.composite
def _json_witnesses(draw):
    """(hypergraph, witness read by weak_from_json): vertices mostly
    distinct and in range; each edge an edge of H, a d-set of the vertex
    range, or an edge of H with one more entry, one entry fewer, or one
    entry replaced by one that is negative, at least n, or beyond int64."""
    Hs = draw(hypergraphs(min_n=3, max_n=9, ds=(2, 3, 4)))
    n, d = Hs.n, Hs.d
    cycle = draw(st.booleans())
    vs = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=3 if cycle else 1,
                       max_size=n))
    if draw(st.integers(0, 19)) == 7:
        vs[draw(st.integers(0, len(vs) - 1))] = draw(st.sampled_from([-1, n, 2**63]))
    dset = st.lists(st.integers(0, n - 1), min_size=d, max_size=d, unique=True)
    bad = st.one_of(
        st.integers(-(2**70), -1), st.integers(n, 2**70),
        st.sampled_from([-(2**63) - 1, -(2**63), 2**63 - 1, 2**63, 2**64]),
    )
    edges = []
    for _ in range(len(vs) - (not cycle)):
        e = list(draw(st.sampled_from(Hs.edges))) if Hs.m else draw(dset)
        kind = draw(st.integers(0, 9))  # mostly edges of H, so later edges are reached
        if kind == 6:
            e = draw(dset)
        elif kind == 7:
            e.append(draw(st.one_of(st.integers(0, n - 1), bad)))
        elif kind == 8:
            e.pop()
        elif kind == 9:
            e[draw(st.integers(0, d - 1))] = draw(bad)
        edges.append(e)
    seq = [x for v, e in zip(vs, edges) for x in (v, e)]
    seq += vs[len(edges):] if not cycle else vs[:1]
    doc = {"kind": "cycle" if cycle else "path", "sequence": seq}
    return Hs, weak_from_json(json.dumps(doc))


@settings(max_examples=300)
@given(_json_witnesses())
def test_validate_matches_the_edge_set_loop(case):
    Hs, W = case
    assert validate(W, Hs) == _reference_validate(W, Hs)


def test_validate_refuses_non_integer_entries():
    # an entry that is not an integer names no vertex, even one equal to an
    # integer, which the frozenset lookup took for that integer
    P = WeakPath((0, 1), ((0, 1.0, 2),))
    assert validate(P, PATH_H).violation == "edge 0 = (0, 1.0, 2) is not an edge of H"
    P = WeakPath((0, 1), (("0", "1", "2"),))
    assert validate(P, PATH_H).violation == "edge 0 = ('0', '1', '2') is not an edge of H"


def test_validate_checks_coverage_of_vertices_beyond_int64():
    # on a huge vertex range a vertex may be in range and still lie in no
    # row of H, whose rows hold int64 vertices
    h = Hypergraph(2**64, 3, [(0, 1, 2)])
    P = WeakPath((1, 2**63), ((0, 1, 2),))
    assert validate(P, h) == _reference_validate(P, h)
    assert validate(P, h).violation == (
        f"edge 0 = (0, 1, 2) does not cover consecutive pair (1, {2**63})"
    )
    assert validate(WeakPath((1, 0, 2), ((0, 1, 2), (0, 1, 2))), h)


# ------------------------------------------------------------------ rotations


ROT_H = Hypergraph.from_edges(
    10, 3, [(0, 1, 9), (1, 2, 9), (2, 3, 9), (0, 3, 9), (1, 3, 9)]
)
ROT_P = WeakPath((0, 1, 2, 3), ((0, 1, 9), (1, 2, 9), (2, 3, 9)))


def test_rotate_at_start():
    R = rotate(ROT_P, (0, 3, 9), 0)
    assert R.vertices == (0, 3, 2, 1)
    assert R.edges == ((0, 3, 9), (2, 3, 9), (1, 2, 9))
    assert validate(R, ROT_H).ok


def test_rotate_interior():
    R = rotate(ROT_P, (1, 3, 9), 1)
    assert R.vertices == (0, 1, 3, 2)
    assert validate(R, ROT_H).ok


def test_rotate_last_pivot_is_identity_neighbour():
    # i = h-2 swaps only the final two vertices
    R = rotate(ROT_P, (1, 3, 9), 1)
    assert R.vertices[-1] == 2


def test_rotate_keeps_vertex_set_and_start():
    for i, e in ((0, (0, 3, 9)), (1, (1, 3, 9))):
        R = rotate(ROT_P, e, i)
        assert set(R.vertices) == set(ROT_P.vertices)
        assert R.vertices[0] == ROT_P.vertices[0]
        assert len(R.edges) == len(ROT_P.edges)


def test_rotate_allows_edge_reuse():
    # the rotation edge may already appear on the path
    P = WeakPath((0, 1, 3), ((0, 1, 3), (1, 3, 9)))
    R = rotate(P, (0, 1, 3), 0)
    assert R.vertices == (0, 3, 1)
    assert R.edges == ((0, 1, 3), (1, 3, 9))


def test_rotate_rejects_bad_pivot():
    with pytest.raises(InputError, match=r"pivot index 2 outside \[0, 1\]"):
        rotate(ROT_P, (0, 3, 9), 2)
    with pytest.raises(InputError, match=r"pivot index -1"):
        rotate(ROT_P, (0, 3, 9), -1)


def test_rotate_rejects_edge_missing_endpoint():
    with pytest.raises(InputError, match="does not contain the endpoint 3"):
        rotate(ROT_P, (4, 5, 9), 0)


def test_rotate_rejects_edge_missing_pivot_successor():
    # e contains the endpoint but not v_{i+1}
    with pytest.raises(InputError):
        rotate(ROT_P, (3, 5, 9), 0)


# ----------------------------------------------------------------- closure set


def test_posa_set_square():
    # 2-uniform 4-cycle: rotating (0,1,2,3) with {0,3} yields endpoint 1;
    # closure endpoints {1, 3}, and N({1,3}) = {0,2} has size 2 < 4.
    Hs = H(4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)])
    P = WeakPath((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)))
    ps = posa_set(Hs, P, 0)
    assert sorted(ps.endpoints) == [1, 3]
    assert ps.saturated
    assert ps.posa_inequality
    assert ps.representatives[3].vertices == (0, 1, 2, 3)
    assert ps.representatives[1].vertices == (0, 3, 2, 1)
    assert neighbors(Hs, ps.endpoints) == frozenset({0, 2})


def test_posa_set_single_edge_not_saturated():
    # endpoint 1 still reaches vertex 2 outside the path, so no closure
    # endpoint is saturated and the inequality is not claimed.
    Hs = H(3, 3, [(0, 1, 2)])
    P = WeakPath((0, 1), ((0, 1, 2),))
    ps = posa_set(Hs, P, 0)
    assert sorted(ps.endpoints) == [1]
    assert not ps.saturated
    assert not ps.posa_inequality


def test_posa_set_records_base_and_anchor():
    Hs = H(4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)])
    P = WeakPath((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)))
    ps = posa_set(Hs, P, 0)
    assert ps.v0 == 0
    assert ps.base == P


def test_posa_set_representatives_are_sound_rotations():
    Hs = H(4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)])
    P = WeakPath((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)))
    ps = posa_set(Hs, P, 0)
    assert len(ps.representatives) > 1  # the square forces at least one rotation
    assert audit_rotations(Hs, P, ps) == []


def test_posa_set_lifts_other_representatives_through_smallest_cover_edges():
    # the base path enters 3 through (1, 2, 3), not the smaller (0, 2, 3);
    # the base is kept as given, the rotated representative is lifted
    Hs = H(4, 3, [(0, 1, 2), (0, 2, 3), (1, 2, 3)])
    P = WeakPath((0, 1, 2, 3), ((0, 1, 2), (1, 2, 3), (1, 2, 3)))
    ps = posa_set(Hs, P, 0)
    assert ps.representatives[3] is P
    assert ps.representatives[2] == lift_path(Hs, (0, 1, 3, 2))
    assert ps.representatives[2].edges == ((0, 1, 2), (1, 2, 3), (0, 2, 3))
    assert ps.representatives[2] != rotate(P, (1, 2, 3), 1)


def test_posa_set_saturated_implies_inequality_on_stalled_paths():
    for s in range(6):
        n, p = 24, 0.035
        Hs = _gnp(n, 3, p, seed=500 + s)
        if Hs.m == 0:
            continue
        P = stalled_path(Hs, rng=SeededRng(900 + s))
        ps = posa_set(Hs, P, P.vertices[0])
        assert ps.saturated
        assert ps.posa_inequality
        S = frozenset(ps.endpoints)
        N = neighbors(Hs, S)
        assert len(N) < 2 * len(S)
        assert N | S <= set(P.vertices)


def _gnp(n, d, p, seed):
    from weakham import GnpParams, sample_gnp

    return sample_gnp(GnpParams(n, d, p), SeededRng(seed))


# ------------------------------------------------------------------- boosters


def test_booster_lower_bound_values():
    assert booster_lower_bound(6, 3, 2) == Fraction(14, 3)
    assert booster_lower_bound(10, 3, 1) == Fraction(8, 3)
    assert booster_lower_bound(20, 4, 3) == Fraction(1227, 4)


def test_booster_lower_bound_type():
    b = booster_lower_bound(6, 3, 2)
    assert isinstance(b, Fraction)


def test_booster_edges_complete_hypergraph_empty():
    # no absent d-set exists at all
    Hc = complete_hypergraph(5, 3)
    P = stalled_path(Hc, rng=SeededRng(3))
    assert booster_edges(Hc, P) == frozenset()


def test_booster_edges_complete_on_support_touch_outside():
    # H complete on {0,1,2,3} but vertex 4 exists: every emitted candidate
    # is an absent d-set, so each one must contain vertex 4.
    Hc = H(5, 3, list(combinations(range(4), 3)))
    P = stalled_path(Hc, rng=SeededRng(5))
    out = booster_edges(Hc, P)
    assert out
    assert all(4 in e for e in out)
    assert out.isdisjoint(Hc.edges)


def test_booster_edges_disjoint_sorted_valid():
    Hs = _gnp(12, 3, 0.05, seed=31)
    if Hs.m == 0:
        pytest.skip("empty draw")
    P = stalled_path(Hs, rng=SeededRng(32))
    out = booster_edges(Hs, P)
    for e in out:
        assert e == tuple(sorted(e))
        assert len(e) == 3
        assert e not in Hs.edges
        assert all(0 <= v < 12 for v in e)


def _reference_booster_edges(Hs, P):
    """booster_edges as it was before its membership test searched H's
    rows: each candidate looked up in the frozenset of H's edge tuples."""
    edge_set = frozenset(Hs.edges)
    out = set()
    for w, rep in sorted(posa_set(Hs, P, P.vertices[0]).representatives.items()):
        s_i = posa_set(Hs, reversed_path(rep), w).endpoints
        for rest in combinations([v for v in range(Hs.n) if v != w], Hs.d - 1):
            if any(x in s_i for x in rest):
                e = tuple(sorted((w,) + rest))
                if e not in edge_set:
                    out.add(e)
    return frozenset(out)


@settings(max_examples=150)
@given(hypergraphs(min_n=3, max_n=9, ds=(2, 3, 4), min_edges=1),
       st.integers(0, 2**16))
def test_booster_edges_match_the_edge_set_loop(Hs, seed):
    P = stalled_path(Hs, rng=SeededRng(seed))
    if len(P.edges) < 2:
        return
    assert booster_edges(Hs, P) == _reference_booster_edges(Hs, P)


def test_booster_edges_meet_bound_and_create_longer_cycles():
    checked = 0
    for s in range(40):
        Hs = _gnp(10, 3, 0.06, seed=1000 + s)
        if Hs.m < 2:
            continue
        P = stalled_path(Hs, rng=SeededRng(2000 + s))
        h = len(P.edges)
        if h < 2 or has_weak_cycle_of_length(Hs, h + 1):
            continue
        out = booster_edges(Hs, P)
        rep = u_exact(Hs)
        assert len(out) >= booster_lower_bound(10, 3, rep.u)
        for e in sorted(out)[:3]:
            H2 = Hypergraph.from_edges(10, 3, list(Hs.edges) + [e])
            assert has_weak_cycle_of_length(H2, h + 1)
        checked += 1
        if checked >= 4:
            break
    assert checked >= 1


# ------------------------------------------------------- rotation-extension


def test_search_single_edge_finds_triangle():
    Hs = H(3, 3, [(0, 1, 2)])
    out = rotation_extension_search(Hs, rng=SeededRng(1))
    assert out.complete
    assert out.impossible is None
    C = out.cycle
    assert frozenset(C.vertices) == frozenset({0, 1, 2})
    assert set(C.edges) == {(0, 1, 2)}
    assert validate(C, Hs).ok


def test_check_witness_names_the_violation():
    Hc = complete_hypergraph(5, 3)
    C = WeakCycle((0, 1, 2), ((0, 1, 2),) * 3)
    assert _check_witness(C, Hc, 3) is C
    with pytest.raises(AssertionError,
                       match="invalid witness cycle: it runs through 3 vertices, not 4"):
        _check_witness(C, Hc, 4)
    with pytest.raises(AssertionError, match="edge 0 = \\(0, 1, 2\\) is not an edge of H"):
        _check_witness(C, H(5, 3, [(1, 2, 3)]), 3)


def test_search_spans_non_isolated_only():
    Hs = H(6, 3, list(combinations(range(5), 3)))
    out = rotation_extension_search(Hs, rng=SeededRng(2))
    assert out.complete
    assert frozenset(out.cycle.vertices) == frozenset(range(5))
    assert validate(out.cycle, Hs).ok


def test_search_edgeless_impossible():
    out = rotation_extension_search(H(5, 3, []), rng=SeededRng(1))
    assert not out.complete
    assert not out.exhausted
    assert out.cycle is None
    assert out.impossible == "only 0 non-isolated vertices (cycles need 3)"


def test_search_too_few_covered_impossible():
    out = rotation_extension_search(H(4, 2, [(0, 1)]), rng=SeededRng(3))
    assert not out.complete
    assert out.impossible == "only 2 non-isolated vertices (cycles need 3)"


def test_search_budget_exhaustion_reports_partial_path():
    Hs = _gnp(30, 3, 0.02, seed=77)
    out = rotation_extension_search(Hs, budget=1, rng=SeededRng(78))
    assert not out.complete
    assert out.exhausted
    assert out.cycle is None
    assert out.path is not None
    assert validate(out.path, Hs).ok


def test_search_complete_graphs_over_sizes():
    for n in (4, 7, 10):
        Hc = complete_hypergraph(n, 3)
        out = rotation_extension_search(Hc, rng=SeededRng(n))
        assert out.complete and out.restarts == 0
        assert out.cycle.length == n
        assert validate(out.cycle, Hc).ok


def test_search_reports_spent_restarts():
    # the Petersen graph has no Hamilton cycle and no certificate, so the
    # search gives up on restarts rather than on its rotation budget
    out = rotation_extension_search(petersen(), rng=SeededRng(1))
    assert not out.complete and out.impossible is None
    assert not out.exhausted and out.restarts == 4
    for seed in range(20):
        out = rotation_extension_search(_gnp(20, 3, 0.02, seed), budget=200, rng=SeededRng(seed))
        assert 0 <= out.restarts <= 4


def test_search_builds_its_generator_only_for_the_engine(monkeypatch):
    built = []
    make = SeededRng.generator
    monkeypatch.setattr(SeededRng, "generator", lambda self: built.append(self) or make(self))
    chain = H(7, 3, [(0, 1, 2), (2, 3, 4), (4, 5, 6)])
    assert rotation_extension_search(chain, rng=SeededRng(1)).impossible is not None
    assert built == []
    assert rotation_extension_search(petersen(), rng=SeededRng(1)).rotations > 0
    assert built == [SeededRng(1)]


def test_search_certifies_forced_edge_obstructions():
    # vertices 0, 1 (and 3, 5, 6) have two shadow neighbors each, so vertex 2
    # lies on three forced edges
    chain = H(7, 3, [(0, 1, 2), (2, 3, 4), (4, 5, 6)])
    out = rotation_extension_search(chain, rng=SeededRng(1))
    assert not out.complete and out.rotations == 0
    assert out.impossible == "vertex 2 lies on 3 forced shadow edges (a spanning cycle uses 2)"
    # a pendant vertex of a graph
    out = rotation_extension_search(H(4, 2, [(0, 1), (1, 2), (2, 0), (2, 3)]))
    assert out.impossible == "vertex 3 has only 1 shadow neighbor (a spanning cycle needs 2)"
    # the triangle 0-1-2 is forced at its degree-2 vertices 0 and 1; vertex
    # 2 also lies in the complete graph on 2..5
    out = rotation_extension_search(
        H(6, 2, [(0, 1), (0, 2), (1, 2)] + list(combinations(range(2, 6), 2))))
    assert out.impossible == (
        "forced shadow edges close a cycle through 3 of 6 non-isolated vertices")


@pytest.mark.parametrize("flip, k", [(False, 4), (True, 3)])
def test_forced_edge_note_names_the_cycle_through_the_smallest_vertex(flip, k):
    # degree-2 vertices 2, 5 force the 4-cycle 0-2-3-5 and 1, 7 force the
    # triangle 1-4-7; flipping the labels moves vertex 0 into the triangle
    edges = [(0, 2), (2, 3), (3, 5), (0, 5), (0, 3), (0, 4), (0, 6), (3, 4), (3, 6),
             (4, 6), (1, 4), (4, 7), (1, 7)]
    if flip:
        edges = [(7 - u, 7 - v) for u, v in edges]
    out = rotation_extension_search(H(8, 2, edges))
    assert out.impossible == f"forced shadow edges close a cycle through {k} of 8 non-isolated vertices"


def test_search_certifies_a_forced_triangle_at_n1000():
    # one hyperedge holds two vertices of degree 1, whose forced shadow edges
    # close a triangle; the search alone ends undecided after all restarts
    Hs = sample_gnp(GnpParams(1000, 3, p_from_c(1000, 3, -1.0)), SeededRng(20260815, 75))
    assert not isolated_vertices(Hs)
    out = rotation_extension_search(Hs, rng=SeededRng(20260815, 75))
    assert out.impossible is not None and out.rotations == 0
    assert out.impossible.startswith("forced shadow edges close a cycle through 3 of")


@pytest.mark.parametrize("n, edges, note", [
    # round one forces 4-0-3-6-5-1-2; 5 drops 2 and 4, and 4 then forces
    # a third edge at 3
    (7, [(0, 3), (0, 4), (1, 2), (1, 5), (2, 3), (2, 5), (3, 4), (3, 6), (4, 5), (5, 6)],
     "vertex 3 lies on 3 forced shadow edges once forced edges are pruned "
     "(a spanning cycle uses 2)"),
    (7, [(0, 2), (0, 4), (1, 3), (1, 5), (1, 6), (2, 5), (2, 6), (3, 4), (4, 5), (4, 6)],
     "vertex 5 keeps only 1 shadow edge once forced edges are pruned "
     "(a spanning cycle needs 2)"),
    (8, [(0, 3), (0, 4), (0, 5), (1, 2), (1, 5), (2, 3), (2, 7), (4, 5), (4, 6), (4, 7),
         (6, 7)],
     "forced shadow edges close a cycle through 5 of 8 non-isolated vertices "
     "once forced edges are pruned"),
])
def test_propagated_forced_edges_certify_before_any_rotation(n, edges, note):
    Hs = H(n, 2, edges)
    out = rotation_extension_search(Hs, rng=SeededRng(0))
    assert out.impossible == note
    assert out.rotations == 0 and out.path is None
    assert exact_weak_hamiltonian(Hs).answer == "no"


def test_search_certifies_a_cut_vertex_after_it_fails():
    # two complete blocks sharing vertex 4: connected, no vertex with two
    # usable edges, so only the cut test after the search decides
    blocks = H(9, 3, list(combinations(range(5), 3)) + list(combinations(range(4, 9), 3)))
    out = rotation_extension_search(blocks, rng=SeededRng(1))
    assert not out.complete and not out.exhausted
    assert out.impossible == "vertex 4 is a cut vertex of the pruned shadow graph"
    assert out.rotations > 0 and out.restarts == 4
    assert validate(out.path, blocks).ok
    # pruning can leave a cut vertex that the unpruned shadow lacks
    out = rotation_extension_search(H(7, 2, [
        (0, 4), (0, 6), (1, 2), (1, 3), (1, 5), (2, 3), (3, 5), (4, 5), (4, 6), (5, 6)]))
    assert out.impossible == "vertex 5 is a cut vertex of the pruned shadow graph"
    assert out.rotations > 0


def _spans_v1_exactly(Hs):
    """Whether a weak cycle spans V1(Hs): the exact oracle on Hs with its
    non-isolated vertices relabelled 0..|V1|-1."""
    idx = {v: k for k, v in enumerate(non_isolated_vertices(Hs))}
    sub = Hypergraph.from_edges(len(idx), Hs.d, [tuple(idx[v] for v in e) for e in Hs.edges])
    return exact_weak_hamiltonian(sub).yes


@given(hypergraphs(max_n=12, ds=(2, 3, 4)))
def test_forced_edge_certificate_never_fires_on_a_yes(Hs):
    out = rotation_extension_search(Hs, rng=SeededRng(0))
    if len(non_isolated_vertices(Hs)) >= 3 and out.impossible is not None:
        assert not _spans_v1_exactly(Hs)
    if out.complete:
        assert out.impossible is None


@st.composite
def _near_window(draw):
    """G(n,p) at p = p_from_c(n, d, c), with c around the threshold window,
    so both stages of the certificate fire often."""
    n = draw(st.integers(5, 12))
    d = draw(st.sampled_from([2, 3, 4]))
    c = draw(st.sampled_from([-1.0, 0.0, 1.0, 2.0, 3.0]))
    return _gnp(n, d, min(1.0, p_from_c(n, d, c)), draw(st.integers(0, 2**16)))


@settings(max_examples=300)
@given(_near_window())
def test_either_certificate_stage_implies_no_on_v1(Hs):
    out = rotation_extension_search(Hs, rng=SeededRng(0))
    if len(non_isolated_vertices(Hs)) >= 3 and out.impossible is not None:
        assert not _spans_v1_exactly(Hs), out.impossible


def _two_connected_by_brute_force(masks, v1):
    """V1 connected, and connected again with any one vertex dropped: one
    _reach over each of these vertex sets."""
    full = sum(1 << v for v in v1)
    keep = [full] + [full & ~(1 << v) for v in v1]
    return all(_reach([m & rest for m in masks], rest & -rest) == rest for rest in keep)


@settings(max_examples=300)
@given(hypergraphs(min_n=3, max_n=12, ds=(2,)))
def test_cut_vertex_dfs_agrees_with_dropping_each_vertex(Hs):
    v1 = non_isolated_vertices(Hs)
    if len(v1) < 3:
        return
    shadow = Hs.shadow
    # the unpruned masks, and the pruned ones (read through _members)
    for masks in (list(shadow.adj_masks), _forced_edge_pruning(shadow, v1)[1]):
        note = _cut_vertex(shadow.adj, masks, v1)
        assert (note is None) == _two_connected_by_brute_force(masks, v1)
        if note is not None and note.startswith("vertex "):
            v = int(note.split()[1])
            rest = sum(1 << w for w in v1 if w != v)
            assert _reach([m & rest for m in masks], rest & -rest) != rest
        elif note is not None:
            assert _reach(masks, 1 << v1[0]).bit_count() < len(v1)


def test_search_deterministic_under_seed():
    Hs = _gnp(20, 3, 0.05, seed=9)
    a = rotation_extension_search(Hs, rng=SeededRng(10))
    b = rotation_extension_search(Hs, rng=SeededRng(10))
    assert a == b


# --------------------------------------------------------------- stalled path


def test_stalled_path_rejects_edgeless():
    with pytest.raises(InputError, match="no edges"):
        stalled_path(H(4, 3, []), rng=SeededRng(1))


def test_stalled_path_budget_capability():
    with pytest.raises(CapabilityError, match="budget exhausted"):
        stalled_path(complete_hypergraph(12, 3), rng=SeededRng(1), budget=0)


def test_stalled_path_spans_complete_graph():
    P = stalled_path(complete_hypergraph(9, 3), rng=SeededRng(4))
    assert sorted(P.vertices) == list(range(9))
    assert validate(P, complete_hypergraph(9, 3)).ok


def test_stalled_path_deterministic():
    Hs = _gnp(18, 3, 0.05, seed=41)
    assert stalled_path(Hs, rng=SeededRng(42)) == stalled_path(
        Hs, rng=SeededRng(42)
    )


@given(hypergraphs(min_n=4, max_n=10, min_edges=1, max_edges=14))
def test_stalled_path_is_valid_and_saturated(Hs):
    P = stalled_path(Hs, rng=SeededRng(7))
    assert validate(P, Hs).ok
    ps = posa_set(Hs, P, P.vertices[0])
    assert ps.saturated
    assert ps.posa_inequality


# --------------------------------------------------------------------- lifting


def test_lift_path_picks_lex_first_cover():
    P = lift_path(PATH_H, [0, 1, 3])
    assert P.vertices == (0, 1, 3)
    assert P.edges == ((0, 1, 2), (1, 2, 3))
    assert validate(P, PATH_H).ok


def test_lift_cycle_wraps_and_may_reuse():
    C = lift_cycle(PATH_H, [1, 2, 3])
    assert C.vertices == (1, 2, 3)
    assert C.edges == ((0, 1, 2), (1, 2, 3), (1, 2, 3))
    assert validate(C, PATH_H).ok
    assert not C.has_distinct_edges


def test_lift_refuses_non_integer_vertices():
    # int() truncated: [0, 1.7] was lifted as the path through (0, 1)
    with pytest.raises(InputError, match="vertex 1.7 is not an integer"):
        lift_path(PATH_H, [0, 1.7])
    with pytest.raises(InputError, match="vertex 1.2 is not an integer"):
        lift_cycle(PATH_H, [0, 1.2, 2.9])
    with pytest.raises(InputError, match="vertex True is not an integer"):
        lift_path(PATH_H, [True, 2])
    P = lift_path(PATH_H, np.array([0, 1, 3]))
    assert P == lift_path(PATH_H, [0, 1, 3]) and all(type(v) is int for v in P.vertices)


def test_lift_rejects_uncovered_pair():
    with pytest.raises(InputError, match=r"pair \(0, 4\) is not covered"):
        lift_path(PATH_H, [0, 4])
    with pytest.raises(InputError, match=r"pair \(4, 0\) is not covered"):
        lift_cycle(PATH_H, [0, 1, 4])


# ------------------------------------------------------------------------ JSON


def test_weak_path_json_exact():
    P = WeakPath((0, 1, 3), ((0, 1, 2), (1, 2, 3)))
    assert weak_to_json(P) == (
        '{"kind":"path","sequence":[0,[0,1,2],1,[1,2,3],3]}'
    )


def test_weak_cycle_json_exact():
    C = WeakCycle((1, 2, 3), ((0, 1, 2), (1, 2, 3), (1, 2, 3)))
    assert weak_to_json(C) == (
        '{"kind":"cycle","sequence":[1,[0,1,2],2,[1,2,3],3,[1,2,3],1],'
        '"strict_edges":false}'
    )


def test_weak_json_round_trips():
    P = WeakPath((0, 1, 3), ((0, 1, 2), (1, 2, 3)))
    C = WeakCycle((1, 2, 3), ((0, 1, 2), (1, 2, 3), (1, 2, 3)))
    assert weak_from_json(weak_to_json(P)) == P
    assert weak_from_json(weak_to_json(C)) == C
    assert isinstance(weak_from_json(weak_to_json(P)), WeakPath)
    assert isinstance(weak_from_json(weak_to_json(C)), WeakCycle)


def test_weak_json_is_parseable_json():
    P = WeakPath((4,), ())
    doc = json.loads(weak_to_json(P))
    assert doc["kind"] == "path"
    assert doc["sequence"] == [4]


def test_weak_json_rejects_bad_documents():
    with pytest.raises(InputError, match="unknown kind 'noodle'"):
        weak_from_json('{"kind":"noodle","sequence":[0,[0,1,2],1]}')
    with pytest.raises(InputError, match="bad weak path/cycle JSON"):
        weak_from_json("not json at all {")
    with pytest.raises(InputError, match="must alternate"):
        weak_from_json('{"kind":"path","sequence":[[0,1,2],0]}')
    with pytest.raises(InputError, match="vertex entries must be integers"):
        weak_from_json('{"kind":"path","sequence":[0,[0,1],true]}')
    # an int, a string, a float, a bool or null where an edge or its vertex belongs
    for seq in ("[0,5,1]", '[0,[0,"a"],1]', '[0,"01",1]', "[0,[0,1.5],1]", "[0,[0,true],1]",
                "[0,null,1]"):
        for kind in ("path", "cycle"):
            with pytest.raises(InputError, match="edge entries must be lists of integers"):
                weak_from_json(f'{{"kind":"{kind}","sequence":{seq}}}')


@given(hypergraphs(min_n=3, max_n=9, min_edges=1, max_edges=10))
def test_stalled_paths_survive_json(Hs):
    P = stalled_path(Hs, rng=SeededRng(11))
    assert weak_from_json(weak_to_json(P)) == P


# ------------------------------------------------------------------- budgeting


def test_default_rotation_budget_values():
    assert default_rotation_budget(5) == 1000
    assert default_rotation_budget(100) == 23025
    assert default_rotation_budget(1000) == 345387


@given(st.integers(min_value=2, max_value=10_000))
def test_default_rotation_budget_positive_monotone(n):
    assert default_rotation_budget(n) >= 1000
    assert default_rotation_budget(n + 1) >= default_rotation_budget(n)
