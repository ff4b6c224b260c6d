"""Core hypergraph representation: degrees, neighborhoods, shadow graph,
induced subhypergraphs, components, and the canonical text format."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakham import (
    CapabilityError,
    Hypergraph,
    InputError,
    components,
    degree,
    degrees,
    dump_hypergraph,
    format_hypergraph,
    induced,
    is_connected_on,
    isolated_vertices,
    load_hypergraph,
    neighbors,
    non_isolated_vertices,
    lift_cycle,
    lift_path,
    parse_hypergraph,
    shadow_graph,
)
from weakham import hypercore
from weakham.hypercore import _check_rows, _reach, _shadow_words

from conftest import complete_hypergraph, hypergraphs, vertex_subsets


def H(n, d, edges):
    return Hypergraph.from_edges(n, d, edges)


# ---------------------------------------------------------------- construction


def test_edges_stored_sorted_and_canonical():
    h = H(5, 3, [(4, 2, 3), (2, 1, 0)])
    assert h.edges == ((0, 1, 2), (2, 3, 4))
    assert h.m == 2 and h.n == 5 and h.d == 3


def test_duplicate_edge_rejected():
    with pytest.raises(InputError):
        H(4, 3, [(0, 1, 2), (2, 1, 0)])


def test_vertex_out_of_range_rejected():
    with pytest.raises(InputError):
        H(3, 3, [(0, 1, 3)])


def test_non_d_edge_rejected():
    with pytest.raises(InputError):
        H(4, 3, [(0, 1)])
    with pytest.raises(InputError):
        H(4, 3, [(0, 1, 1)])


def test_uniformity_below_two_rejected():
    with pytest.raises(InputError):
        H(3, 1, [(0,)])


def test_empty_hypergraph_allows_small_n():
    h = H(2, 3, [])
    assert h.m == 0 and isolated_vertices(h) == (0, 1)


# -------------------------------------------------------------------- degrees


def test_degree_single_edge():
    assert degree(H(3, 3, [(0, 1, 2)]), 0) == 1


def test_degree_empty():
    assert degree(H(5, 3, []), 3) == 0


def test_degree_two_incident_edges():
    assert degree(H(4, 3, [(0, 1, 2), (0, 1, 3)]), 1) == 2


def test_degree_out_of_range():
    with pytest.raises(InputError):
        degree(H(3, 3, [(0, 1, 2)]), 3)
    with pytest.raises(InputError):
        degree(H(3, 3, [(0, 1, 2)]), -1)


def test_degrees_vector_matches_scalar():
    h = H(6, 3, [(0, 1, 2), (2, 3, 4), (1, 2, 3)])
    assert degrees(h) == tuple(degree(h, v) for v in range(6))


# ----------------------------------------------------------- isolated vertices


def test_isolated_all_when_edgeless():
    assert isolated_vertices(H(5, 3, [])) == (0, 1, 2, 3, 4)


def test_isolated_single_leftover():
    assert isolated_vertices(H(4, 3, [(0, 1, 2)])) == (3,)


def test_isolated_after_degree_scan():
    assert isolated_vertices(H(6, 3, [(0, 1, 2), (2, 3, 4)])) == (5,)


def test_non_isolated_is_complement():
    h = H(6, 3, [(0, 1, 2), (2, 3, 4)])
    assert set(non_isolated_vertices(h)) == set(range(6)) - set(isolated_vertices(h))


# ------------------------------------------------------------------- neighbors


def test_neighbors_one_edge():
    assert neighbors(H(3, 3, [(0, 1, 2)]), {0}) == frozenset({1, 2})


def test_neighbors_empty_set():
    assert neighbors(H(3, 3, [(0, 1, 2)]), frozenset()) == frozenset()


def test_neighbors_union_minus_input():
    assert neighbors(H(5, 3, [(0, 1, 2), (2, 3, 4)]), {0, 3}) == frozenset({1, 2, 4})


def test_neighbors_out_of_range():
    with pytest.raises(InputError):
        neighbors(H(3, 3, [(0, 1, 2)]), {5})


def test_vertex_queries_refuse_non_integer_vertices():
    # a vertex is an integer operator.index accepts, not a bool: floats,
    # even integral ones, raised a raw TypeError or IndexError here
    h = H(5, 3, [(0, 1, 2), (1, 2, 3)])
    for call in (lambda: degree(h, 1.5), lambda: degree(h, True),
                 lambda: neighbors(h, [1.0]), lambda: induced(h, [0, 1, 2.0]),
                 lambda: is_connected_on(h, [0, 1.5]), lambda: is_connected_on(h, ["0"])):
        with pytest.raises(InputError, match="is not an integer"):
            call()


def test_vertex_queries_take_numpy_integers_as_ints():
    # 1 << np.int64(70) is a numpy shift, which overflowed in neighbors
    h = H(100, 3, [(0, 1, 70), (70, 71, 72)])
    assert neighbors(h, [np.int64(70)]) == frozenset({0, 1, 71, 72})
    assert degree(h, np.int64(70)) == 2
    assert induced(h, np.array([70, 71, 72])).edges == ((70, 71, 72),)
    assert is_connected_on(h, np.array([0, 1, 70]))


@given(hypergraphs(max_n=10, ds=(2, 3, 4)), st.data())
def test_neighbors_match_edge_scan(h, data):
    V = data.draw(vertex_subsets(h.n))
    want = set()
    for e in h.edges:
        if V & set(e):
            want.update(e)
    assert neighbors(h, V) == frozenset(want - V)


@given(hypergraphs(max_n=10))
def test_neighbors_disjoint_and_non_isolated(h):
    for size in range(min(h.n, 4)):
        V = frozenset(range(size))
        N = neighbors(h, V)
        assert N & V == frozenset()
        assert N <= set(non_isolated_vertices(h))


# ---------------------------------------------------------------- shadow graph


def test_shadow_one_edge_is_clique():
    s = shadow_graph(H(3, 3, [(0, 1, 2)]))
    pairs = {(u, v) for u in range(3) for v in range(3) if u != v and s.has_edge(u, v)}
    assert pairs == {(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)}


def test_shadow_edgeless():
    s = shadow_graph(H(4, 3, []))
    assert s.edge_count() == 0


def test_shadow_pair_union():
    s = shadow_graph(H(4, 3, [(0, 1, 2), (1, 2, 3)]))
    got = {(u, v) for u in range(4) for v in range(u + 1, 4) if s.has_edge(u, v)}
    assert got == {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}


@given(hypergraphs(max_n=10))
def test_shadow_symmetric_no_loops(h):
    s = shadow_graph(h)
    for u in range(h.n):
        assert not s.has_edge(u, u)
        for v in s.adj[u]:
            assert u in s.adj[v]


@given(hypergraphs(max_n=10))
def test_degree_zero_iff_no_shadow_neighbors(h):
    s = shadow_graph(h)
    for v in range(h.n):
        assert (degree(h, v) == 0) == (len(s.adj[v]) == 0)


def test_shadow_beyond_the_word_bound_is_capability_error():
    # n = 10**5 would need 1.25 GB of mask words; the bound is checked
    # before anything of size n**2 is allocated
    tracemalloc.start()
    try:
        with pytest.raises(CapabilityError, match="shadow bitmasks need 1250400000 bytes"):
            components(Hypergraph(10**5, 3, ()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert shadow_graph(Hypergraph(10**4, 3, ((0, 1, 2),))).has_edge(0, 2)


def test_shadow_words_are_packed_once_and_read_only(monkeypatch):
    packed = []
    pack = hypercore._bit_words
    monkeypatch.setattr(hypercore, "_bit_words", lambda *a: packed.append(a[3]) or pack(*a))
    h = H(5, 3, [(0, 1, 2), (2, 3, 4)])
    words = _shadow_words(h)
    assert _shadow_words(h) is words and not words.flags.writeable
    with pytest.raises(ValueError):
        words[0, 0] = 1
    assert h.shadow.adj_masks == (6, 5, 27, 20, 12) and components(h) == (frozenset(range(5)),)
    assert packed == [6]  # n + 1 rows, packed once for every reader of h


def test_pair_keys_beyond_int64_are_a_capability_error():
    # a pair code u*n + v wraps int64 at this n (cover_index once named
    # vertex -2**31); the composite sort key needs n**2 * m * C(d, 2) < 2**63
    big = 2**31
    h = Hypergraph(2**32, 3, [(big, big + 1, big + 2)])
    for read in (lambda: h.cover_index, lambda: lift_path(h, [big, big + 1]),
                 lambda: lift_cycle(h, [big, big + 1, big + 2])):
        with pytest.raises(CapabilityError, match=f"n={2**32} with 3 edge pairs"):
            read()
    with pytest.raises(CapabilityError):
        h.shadow
    # a large n with a few edges still fits
    h = Hypergraph(10**6, 3, [(0, 1, 999_999), (1, 2, 500_000)])
    assert h.cover_index[(1, 999_999)] == (0, 1, 999_999)
    assert lift_path(h, [999_999, 1, 500_000]).edges == ((0, 1, 999_999), (1, 2, 500_000))


# --------------------------------------------------------------------- induced


def test_induced_keeps_inside_edges():
    assert induced(H(5, 3, [(0, 1, 2), (2, 3, 4)]), {0, 1, 2}).edges == ((0, 1, 2),)


def test_induced_empty_subset():
    h = induced(H(5, 3, [(0, 1, 2)]), frozenset())
    assert h.m == 0 and h.n == 5


def test_induced_filters_by_containment():
    assert induced(H(4, 3, [(0, 1, 2), (1, 2, 3)]), {1, 2, 3}).edges == ((1, 2, 3),)


def test_induced_keeps_original_labels():
    h = induced(H(6, 3, [(3, 4, 5)]), {3, 4, 5})
    assert h.n == 6 and h.edges == ((3, 4, 5),)


@given(hypergraphs(max_n=10, ds=(2, 3, 4)), st.data())
def test_induced_matches_edge_filter(h, data):
    W = data.draw(vertex_subsets(h.n))
    want = Hypergraph(h.n, h.d, tuple(e for e in h.edges if set(e) <= W))
    got = induced(h, W)
    assert got == want
    assert np.array_equal(got.rows, want.rows)


@given(hypergraphs(max_n=9))
def test_shadow_of_induced_matches_inside_pairs(h):
    W = frozenset(v for v in range(h.n) if v % 2 == 0)
    s_ind = shadow_graph(induced(h, W))
    for u in range(h.n):
        for v in range(u + 1, h.n):
            covered_inside = any(
                u in e and v in e and set(e) <= W for e in h.edges
            )
            assert s_ind.has_edge(u, v) == covered_inside


# ------------------------------------------------------------------ components


def test_components_edge_plus_singleton():
    assert set(components(H(4, 3, [(0, 1, 2)]))) == {
        frozenset({0, 1, 2}),
        frozenset({3}),
    }


def test_components_edgeless_singletons():
    assert set(components(H(3, 3, []))) == {frozenset({v}) for v in range(3)}


def test_components_two_blocks():
    got = set(components(H(8, 3, [(0, 1, 2), (2, 3, 4), (5, 6, 7)])))
    assert got == {frozenset(range(5)), frozenset({5, 6, 7})}


def _merged_components(h):
    """Components by merging the vertices of each edge (union-find)."""
    parent = list(range(h.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in h.edges:
        for v in e[1:]:
            parent[find(v)] = find(e[0])
    groups = {}
    for v in range(h.n):
        groups.setdefault(find(v), set()).add(v)
    return {frozenset(g) for g in groups.values()}


@given(hypergraphs(max_n=12))
def test_components_agree_with_edge_merging(h):
    assert components(h) == tuple(sorted(_merged_components(h), key=min))


def test_is_connected_on():
    h = H(8, 3, [(0, 1, 2), (2, 3, 4), (5, 6, 7)])
    assert is_connected_on(h, range(5))
    assert not is_connected_on(h, range(8))
    assert is_connected_on(h, {3})
    assert is_connected_on(h, frozenset())


def test_is_connected_on_grows_with_w_not_n():
    # the n = 10**5 shadow would need 1.25 GB of mask words; a query on a
    # 5-vertex W searches 5 x 5 bitmasks
    h = Hypergraph(10**5, 3, ((0, 1, 2), (2, 3, 4), (7, 8, 9)))
    tracemalloc.start()
    try:
        assert is_connected_on(h, {0, 1, 2, 3, 4})
        assert not is_connected_on(h, {0, 1, 3})
        assert not is_connected_on(h, {0, 1, 2, 7, 8, 9})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# ------------------------------------- array-built structures vs scalar loops
#
# The degrees, shadow, masks and cover edges are built from the (m, d) row
# array with numpy, and connectivity is a search over the masks; these are
# the plain loops they replace.


def _scalar_degrees(h):
    deg = [0] * h.n
    for e in h.edges:
        for v in e:
            deg[v] += 1
    return tuple(deg)


def _scalar_adj(h):
    nbr = [set() for _ in range(h.n)]
    for e in h.edges:
        for a in range(h.d):
            for b in range(a + 1, h.d):
                nbr[e[a]].add(e[b])
                nbr[e[b]].add(e[a])
    return tuple(tuple(sorted(s)) for s in nbr)


def _scalar_cover(h):
    idx = {}
    for e in h.edges:
        for a in range(h.d):
            for b in range(a + 1, h.d):
                idx.setdefault((e[a], e[b]), e)
    return idx


def _scalar_lift(cover, pairs):
    """Cover edges of pairs, or the (u, v) of the first uncovered pair."""
    edges = []
    for u, v in pairs:
        e = cover.get((u, v) if u < v else (v, u))
        if e is None:
            return (u, v)
        edges.append(e)
    return edges


def _scalar_connected(h, W):
    ws = sorted(set(W))
    if len(ws) <= 1:
        return True
    seen, stack = {ws[0]}, [ws[0]]
    inside = [e for e in h.edges if set(e) <= set(ws)]
    while stack:
        v = stack.pop()
        for e in inside:
            if v in e:
                for w in e:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
    return seen == set(ws)


@st.composite
def row_hypergraphs(draw):
    """(hypergraph, vertex walk): n in [0, 40], d in [2, 4], n < d and empty
    edge sets included; built by from_edges or, as the samplers build
    theirs, by the constructor from an int64 array of rows sorted by
    numpy."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(0, 40))
    edges = []
    if n >= d:
        edges = draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=d, max_size=d, unique=True),
            unique_by=lambda e: tuple(sorted(e)), max_size=60,
        ))
    if draw(st.booleans()):
        rows = np.sort(np.array(edges, dtype=np.int64).reshape(-1, d), axis=1)
        h = Hypergraph(n, d, rows[np.lexsort(rows.T[::-1])])
    else:
        h = Hypergraph.from_edges(n, d, edges)
    walk = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12)) if n else []
    return h, walk


@settings(max_examples=300)
@given(row_hypergraphs())
def test_array_structures_match_scalar_loops(case):
    h, walk = case
    adj = _scalar_adj(h)
    cover = _scalar_cover(h)
    assert h.rows.shape == (h.m, h.d) and h.rows.tolist() == [list(e) for e in h.edges]
    same = Hypergraph.from_edges(h.n, h.d, h.edges)
    text = parse_hypergraph(format_hypergraph(h))
    assert h == same == text and hash(h) == hash(same) == hash(text)
    assert h._degrees == _scalar_degrees(h)
    assert h.shadow.adj == adj
    assert h.shadow.adj_masks == tuple(sum(1 << w for w in nbrs) for nbrs in adj)
    assert h.cover_index == cover
    v1 = non_isolated_vertices(h)
    assert is_connected_on(h, v1) == _scalar_connected(h, v1)
    if v1:
        spans = _reach(h.shadow.adj_masks, 1 << v1[0]).bit_count() == len(v1)
        assert spans == _scalar_connected(h, v1)
    assert is_connected_on(h, walk) == _scalar_connected(h, walk)
    if not walk:
        return
    # covered walks lift through the lexicographically smallest edges, and
    # the first uncovered pair is named in the error
    want = _scalar_lift(cover, list(zip(walk, walk[1:])))
    if isinstance(want, list):
        assert lift_path(h, walk).edges == tuple(want)
    else:
        with pytest.raises(InputError, match=rf"pair \({want[0]}, {want[1]}\) is not covered"):
            lift_path(h, walk)
    if len(walk) >= 3:
        want = _scalar_lift(cover, list(zip(walk[-1:] + walk[:-1], walk)))
        if isinstance(want, list):
            assert lift_cycle(h, walk).edges == tuple(want[1:] + want[:1])
        else:
            with pytest.raises(InputError, match=rf"pair \({want[0]}, {want[1]}\) is not covered"):
                lift_cycle(h, walk)


def test_lift_rejects_out_of_range_pairs():
    # code u*n + v of an out-of-range pair would alias a covered pair
    h = H(4, 2, [(1, 2)])
    with pytest.raises(InputError, match=r"pair \(0, 6\) is not covered"):
        lift_path(h, [0, 6])
    with pytest.raises(InputError, match=r"pair \(-1, 2\) is not covered"):
        lift_path(h, [-1, 2])
    # beyond int64 the conversion raised a raw OverflowError
    with pytest.raises(InputError, match=rf"pair \(0, {2**63}\) is not covered"):
        lift_path(h, [0, 2**63])
    with pytest.raises(InputError, match=rf"pair \({-(2**63) - 1}, 1\) is not covered"):
        lift_path(h, [-(2**63) - 1, 1])
    with pytest.raises(InputError, match=rf"pair \({2**64}, 1\) is not covered"):
        lift_cycle(h, [1, 2, 2**64])


@pytest.mark.parametrize(
    "n, rows",
    [
        (5, [(0, 1, 2), (1, 2, 5)]),  # vertex out of range
        (5, [(0, 1, 2), (-1, 2, 3)]),  # negative vertex
        (5, [(0, 2, 1), (1, 2, 3)]),  # not ascending
        (5, [(0, 1, 1), (1, 2, 3)]),  # repeated vertex
        (5, [(1, 2, 3), (0, 1, 2), (1, 2, 3)]),  # duplicate row
    ],
)
def test_row_constructor_raises_like_public_constructor(n, rows):
    arr = np.array(rows, dtype=np.int64)
    with pytest.raises(InputError) as public:
        Hypergraph(n, 3, tuple(sorted(rows)))
    with pytest.raises(InputError) as public_array:
        Hypergraph(n, 3, arr[np.lexsort(arr.T[::-1])])
    assert str(public_array.value) == str(public.value)


def _reference_check_rows(n, rows):
    """_check_rows as a loop over the rows: each row's range, then its
    order, then its place against the previous row (tuples compare
    lexicographically)."""
    prev = None
    for e in map(tuple, rows.tolist()):
        if any(not 0 <= v < n for v in e):
            raise InputError(f"edge {e} has a vertex outside [0, {n})")
        if any(a >= b for a, b in zip(e, e[1:])):
            raise InputError(f"edge {e} is not strictly ascending")
        if e == prev:
            raise InputError(f"duplicate edge {e}")
        if prev is not None and e < prev:
            raise InputError("edge list is not sorted lexicographically")
        prev = e


@st.composite
def _row_arrays(draw):
    """(n, rows): up to 8 rows of d = 2..4 entries in -1..n, the row list
    sorted or not."""
    n = draw(st.integers(0, 6))
    d = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(st.integers(-1, n), min_size=d, max_size=d), max_size=8))
    if draw(st.booleans()):
        rows.sort()
    return n, np.array(rows, dtype=np.int64).reshape(-1, d)


@settings(max_examples=500)
@given(_row_arrays())
def test_check_rows_matches_a_per_row_loop(case):
    n, rows = case
    try:
        _reference_check_rows(n, rows)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            _check_rows(n, rows)
        assert str(got.value) == str(exc)
    else:
        _check_rows(n, rows)


def test_public_constructor_takes_no_rows():
    # a rows array that disagreed with the edges used to be trusted, so the
    # shadow saw 2 ~ 3 where the only edge is (0, 1), and the caller's
    # array was made read-only
    arr = np.array([[2, 3]], dtype=np.int64)
    with pytest.raises(TypeError):
        Hypergraph(4, 2, ((0, 1),), arr)
    with pytest.raises(TypeError):
        Hypergraph(4, 2, ((0, 1),), rows=arr)
    assert arr.flags.writeable
    h = Hypergraph(4, 2, ((0, 1),))
    assert h.rows.tolist() == [[0, 1]]
    assert h.shadow.adj == ((1,), (0,), (), ())
    # an array given as the edges is copied: the caller's stays writeable,
    # and writing to it leaves the hypergraph as it was
    g = Hypergraph(4, 2, arr)
    assert arr.flags.writeable and not g.rows.flags.writeable
    arr[0] = (0, 1)
    assert g.rows.tolist() == [[2, 3]] and "edges" not in g.__dict__
    assert g.edges == ((2, 3),) and "edges" in g.__dict__


def test_constructor_reports_the_first_bad_edge_in_list_order():
    with pytest.raises(InputError, match=r"edge \(0, 1, 7\) has a vertex outside"):
        Hypergraph(5, 3, ((0, 1, 7), (0, 1)))
    with pytest.raises(InputError, match=r"edge \(0, 1\) has arity 2, expected 3"):
        Hypergraph(5, 3, ((0, 1, 2), (0, 1), (0, 1, 7)))
    with pytest.raises(InputError, match="not sorted lexicographically"):
        Hypergraph(5, 3, ((1, 2, 3), (0, 1, 2)))
    with pytest.raises(InputError, match="64-bit integers"):
        Hypergraph(5, 3, (("0", "1", "2"),))


def test_from_edges_refuses_unorderable_vertices_like_the_constructor():
    # sorting (0, 1, "a") fails before the constructor sees the edge
    for build in (Hypergraph, Hypergraph.from_edges):
        with pytest.raises(InputError, match="edge vertices must be 64-bit integers"):
            build(5, 3, [(0, 1, "a")])


def test_flat_edge_list_names_the_bad_entry():
    # a flat list of vertices where a list of edges belongs
    for build in (Hypergraph, Hypergraph.from_edges):
        with pytest.raises(InputError, match="edge list entry 0 is not a sequence of vertices"):
            build(5, 3, [0, 1, 2])
    with pytest.raises(InputError, match="edge list entry 7 is not a sequence"):
        Hypergraph.from_edges(5, 3, [(2, 1, 0), 7])
    # the constructor still reports the first bad edge in list order
    with pytest.raises(InputError, match=r"edge \(0, 1, 7\) has a vertex outside"):
        Hypergraph(5, 3, ((0, 1, 7), 3))


# ----------------------------------------------------------------- text format


def test_format_layout():
    text = format_hypergraph(H(5, 3, [(2, 3, 4), (0, 1, 2)]))
    assert text == "3 5 2\n0 1 2\n2 3 4\n"


def test_format_lines_sorted_lexicographically():
    text = format_hypergraph(H(12, 3, [(0, 2, 11), (0, 10, 11), (0, 2, 3)]))
    body = text.splitlines()[1:]
    assert body == sorted(body, key=lambda ln: tuple(map(int, ln.split())))


def test_parse_round_trip():
    h = H(6, 3, [(0, 1, 2), (2, 3, 4), (1, 4, 5)])
    assert parse_hypergraph(format_hypergraph(h)) == h


def test_parse_rejects_malformed():
    with pytest.raises(InputError):
        parse_hypergraph("3 5\n0 1 2\n")
    with pytest.raises(InputError):
        parse_hypergraph("3 5 1\n0 1\n")
    with pytest.raises(InputError):
        parse_hypergraph("3 5 2\n0 1 2\n")
    with pytest.raises(InputError):
        parse_hypergraph("3 5 1\n2 1 0\n")


def test_dump_load_round_trip_bytes(tmp_path):
    h = H(7, 3, [(0, 1, 6), (1, 2, 3)])
    path = tmp_path / "h.txt"
    dump_hypergraph(h, path)
    raw = path.read_bytes()
    assert raw == format_hypergraph(h).encode()
    assert b"\r" not in raw and not raw.decode().rstrip("\n").endswith(" ")
    assert load_hypergraph(path) == h


@given(hypergraphs(max_n=10))
def test_format_round_trip_property(h):
    assert parse_hypergraph(format_hypergraph(h)) == h


def test_complete_hypergraph_helper():
    h = complete_hypergraph(5, 3)
    assert h.m == 10
    assert len(set(h.edges)) == 10
    assert all(len(e) == 3 for e in h.edges)


@given(st.integers(4, 8))
def test_complete_shadow_is_complete(n):
    s = shadow_graph(complete_hypergraph(n, 3))
    assert s.edge_count() == n * (n - 1) // 2
