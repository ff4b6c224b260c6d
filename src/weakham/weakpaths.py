"""Weak Berge paths and cycles, their validation and lifts, and
rotation-extension search with its "no" certificate.

A weak path alternates distinct vertices with hyperedges, where consecutive
vertices must lie together in the connecting edge; edges may repeat. A weak
cycle is the closed variant with at least 3 vertices. Because repetition is
allowed, existence questions reduce to the shadow graph, but the objects
here carry concrete hyperedges so every result is a checkable witness.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import _engine
from .errors import InputError
from .hypercore import (Hypergraph, ShadowGraph, _members, _reach, _vertex_ids,
                        non_isolated_vertices)
from .randmodels import SeededRng

__all__ = [
    "WeakPath",
    "WeakCycle",
    "ValidationResult",
    "SearchOutcome",
    "validate",
    "rotation_extension_search",
    "lift_path",
    "lift_cycle",
    "weak_to_json",
    "weak_from_json",
]


def _store_as_tuples(obj) -> None:
    """Keep a weak path's or cycle's vertices as a tuple of Python ints, by
    the vertex rule (InputError otherwise), and its edges as tuples, each
    edge's vertices in ascending order, as Hypergraph stores them, whatever
    sequences they were given as, so they hash, compare, serialize and
    validate alike. Edge entries are not converted: validate calls an edge
    with a non-integer entry not an edge of H."""
    try:
        edges = tuple(tuple(sorted(e)) for e in obj.edges)
    except TypeError as exc:
        raise InputError(f"edges must be sequences of orderable vertices: {exc}") from exc
    object.__setattr__(obj, "vertices", _vertex_ids(obj.vertices))
    object.__setattr__(obj, "edges", edges)


@dataclass(frozen=True)
class WeakPath:
    """Alternating sequence v0, e1, v1, ..., eh, vh with distinct vertices.

    edges[k] must cover the pair (vertices[k], vertices[k+1]); h == len(edges).
    Structural shape is checked at construction; membership of the edges in a
    host hypergraph is checked by validate().
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _store_as_tuples(self)
        if len(self.vertices) == 0:
            raise InputError("a weak path needs at least one vertex")
        if len(self.edges) != len(self.vertices) - 1:
            raise InputError(
                f"{len(self.vertices)} vertices need {len(self.vertices) - 1} edges, "
                f"got {len(self.edges)}"
            )


@dataclass(frozen=True)
class WeakCycle:
    """Closed weak path: vertices v0..v_{l-1} distinct (l >= 3), edges e1..el
    where e_k covers (v_{k-1}, v_k) and e_l wraps to cover (v_{l-1}, v0)."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _store_as_tuples(self)
        if len(self.vertices) < 3:
            raise InputError("cycle too short: need at least 3 vertices")
        if len(self.edges) != len(self.vertices):
            raise InputError(
                f"cycle with {len(self.vertices)} vertices needs as many edges, "
                f"got {len(self.edges)}"
            )

    @property
    def length(self) -> int:
        return len(self.vertices)

    @property
    def spanned(self) -> frozenset[int]:
        return frozenset(self.vertices)

    @property
    def has_distinct_edges(self) -> bool:
        return len(set(self.edges)) == len(self.edges)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _edge_array(edges, H: Hypergraph) -> np.ndarray:
    """`edges` (ascending tuples) as an (len(edges), d) int64 array, for one
    `H._has_rows` lookup. numpy converts edges of d integers at once; an
    entry outside [0, n) matches no row (an entry of 2**63 or more, held as
    uint64, wraps negative). Other edges go through `_edge_row` one at a
    time."""
    d = H.d
    try:
        rows = np.array(edges)
    except ValueError:  # edges of unequal arities
        rows = None
    if rows is None or rows.dtype.kind not in "biu" or rows.shape != (len(edges), d):
        end = min(H.n, 2**63)  # rows hold int64 vertices
        rows = np.array([_edge_row(e, d, end) for e in edges], dtype=np.int64).reshape(-1, d)
    return rows.astype(np.int64, copy=False)


def _first_uncovered(rows: np.ndarray, vs, cycle: bool) -> int | None:
    """The index of the first row k that does not hold both vertices of pair
    k, (vs[k], vs[k + 1]) with a cycle's last pair wrapping to vs[0], or
    None, checked a column at a time. The rows are rows of H, so a vertex
    beyond int64 lies in none of them."""
    try:
        at = np.array(vs, dtype=np.int64)
    except OverflowError:
        at = np.array([v if v < 2**63 else -1 for v in vs], dtype=np.int64)
    us, ws = at[:len(rows)], (np.concatenate((at[1:], at[:1])) if cycle else at[1:])
    ok = rows[:, 0] == us
    has_w = rows[:, 0] == ws
    for col in rows.T[1:]:
        ok |= col == us
        has_w |= col == ws
    ok &= has_w
    return None if ok.all() else int(ok.argmin())


def _edge_row(e, d: int, end: int) -> list[int]:
    """e as a row of d vertex ids, or a row of -1s, which matches no row of
    a hypergraph, when e has another arity or an entry that is not an
    integer in [0, end) (a float, a string, an integer beyond int64)."""
    try:
        row = [operator.index(v) for v in e]
    except TypeError:
        return [-1] * d
    return row if len(row) == d and all(0 <= v < end for v in row) else [-1] * d


def validate(obj, H: Hypergraph) -> ValidationResult:
    """Check a WeakPath/WeakCycle against its host hypergraph.

    Reports the first violated clause: distinct vertices, vertex range,
    edge membership in E(H), consecutive-pair coverage. Weak objects may
    repeat edges; a cycle's `has_distinct_edges` is the strict Berge check.
    """
    is_cycle = isinstance(obj, WeakCycle)
    if not is_cycle and not isinstance(obj, WeakPath):
        raise InputError(f"expected WeakPath or WeakCycle, got {type(obj).__name__}")
    vs = obj.vertices
    if len(set(vs)) != len(vs):
        return ValidationResult(False, "vertices not distinct")
    for v in vs:
        if not (0 <= v < H.n):
            return ValidationResult(False, f"vertex {v} out of range [0, {H.n})")
    rows = _edge_array(obj.edges, H)
    hit = H._has_rows(rows)
    if not hit.all():
        k = int(hit.argmin())
        return ValidationResult(False, f"edge {k} = {obj.edges[k]} is not an edge of H")
    k = _first_uncovered(rows, vs, is_cycle)
    if k is not None:
        u, v = vs[k], vs[(k + 1) % len(vs)]
        return ValidationResult(
            False, f"edge {k} = {obj.edges[k]} does not cover consecutive pair ({u}, {v})"
        )
    return ValidationResult(True)


def _check_witness(cycle: WeakCycle, H: Hypergraph, size: int) -> WeakCycle:
    """cycle, once validate passes it and it runs through exactly `size`
    vertices; otherwise raises AssertionError naming the violation. Every
    vertex of a validated cycle lies on an edge of H, so `size` = |V1(H)|
    means the cycle spans V1(H), and `size` = n that it spans all of H.
    Every "yes" rests on this check, so it is a raise, which python -O
    keeps, not an assert."""
    violation = validate(cycle, H).violation
    if violation is None and len(cycle.vertices) != size:
        violation = f"it runs through {len(cycle.vertices)} vertices, not {size}"
    if violation is not None:
        raise AssertionError(f"invalid witness cycle: {violation}")
    return cycle


@dataclass(frozen=True)
class SearchOutcome:
    """Result of rotation_extension_search: a validated spanning weak cycle,
    or, after a failed search, `path`: the longest stalled orientation, or
    the last grown path when the budget ran out before any stall.
    `impossible` carries a certified reason when no spanning cycle can exist:
    fewer than 3 non-isolated vertices, V1 disconnected, the shadow edges
    forced at vertices with two usable edges rule one out (read off the
    degrees, or once the edges they exclude are pruned to a fixpoint), or,
    after a failed search, the pruned shadow graph is disconnected on V1 or
    has a cut vertex. `exhausted` flags rotation-budget exhaustion.
    `restarts` counts the random starts after the first, so a search that
    gave up without `exhausted` ran out of restarts instead; a "no" found
    after the search keeps the rotations and restarts it spent."""

    cycle: WeakCycle | None
    path: WeakPath | None
    complete: bool
    exhausted: bool
    rotations: int
    impossible: str | None = None
    restarts: int = 0


def default_rotation_budget(n: int) -> int:
    """Default rotation allowance: 50 * n * ln(n), floored at 1000."""
    return max(1000, int(50 * n * math.log(max(n, 2))))


def lift_path(H: Hypergraph, vseq) -> WeakPath:
    """Vertex sequence -> WeakPath, choosing for each consecutive pair the
    lexicographically smallest covering hyperedge."""
    return _lift(H, vseq, cycle=False)


def lift_cycle(H: Hypergraph, vseq) -> WeakCycle:
    """Vertex cycle (v0..v_{l-1}, wrap implied) -> WeakCycle, lex-smallest
    covering edge per pair."""
    return _lift(H, vseq, cycle=True)


def _lift(H: Hypergraph, vseq, cycle: bool) -> WeakPath | WeakCycle:
    """The one body of both lifts. Pair k is (v_{k-1}, v_k), from k=1 for a
    path and from the wrap pair k=0 for a cycle; its edge is the
    lexicographically smallest covering it, found by one binary search over
    H's covered-pair codes. Raises InputError naming the first pair that no
    edge covers, in the caller's vertex values."""
    vseq = _vertex_ids(vseq)
    if cycle and len(vseq) < 3:
        raise InputError("cycle too short")
    # a vertex outside [0, n) becomes -1, which fits int64 and no code matches
    vs = np.array([v if 0 <= v < H.n else -1 for v in vseq], dtype=np.int64)
    us = np.roll(vs, 1)
    if not cycle:
        us, vs = us[1:], vs[1:]
    codes, first = H._pairs
    lo, hi = np.minimum(us, vs), np.maximum(us, vs)
    key = lo * H.n + hi
    pos = np.searchsorted(codes, key)
    hit = (lo >= 0) & (pos < codes.size)
    hit[hit] = codes[pos[hit]] == key[hit]
    if not hit.all():
        k = int(hit.argmin()) + (not cycle)
        raise InputError(f"pair ({vseq[k - 1]}, {vseq[k]}) is not covered by any edge")
    edges = tuple(map(tuple, H.rows[first[pos]].tolist()))
    if cycle:
        # edges[k] covers (v_{k-1}, v_k); cycle edges are 1-based e_1..e_l
        return WeakCycle(vseq, edges[1:] + edges[:1])
    return WeakPath(vseq, edges)


def _forced_edge_pruning(shadow: ShadowGraph, v1) -> tuple[str | None, list[int]]:
    """Stage one of the "no" certificate: a reason no cycle spans V1, or
    None, and the shadow masks less the edges that no such cycle can use.

    A spanning cycle uses exactly two shadow edges at each vertex of V1, so a
    vertex with exactly two usable edges forces both, and a vertex on two
    forced edges cannot use its other edges: they are dropped at both ends,
    which can leave a neighbor with two usable edges in turn. The first round
    reads the shadow degrees alone: it fails if some vertex has fewer than
    two neighbors, lies on more than two forced edges, or if the forced edges
    close a cycle that misses part of V1 (of several such cycles, the note
    names the one through the smallest vertex). Propagation then runs to a
    fixpoint and fails on the same three events, noted as found once forced
    edges are pruned.
    """
    usable = list(shadow.adj_masks)
    forced = [0] * shadow.n  # forced[v]: bitmask of v's forced shadow neighbors
    for v in v1:
        k = len(shadow.adj[v])
        if k < 2:
            return f"vertex {v} has only {k} shadow neighbor (a spanning cycle needs 2)", usable
        if k == 2:
            forced[v] = usable[v]
            for w in shadow.adj[v]:
                forced[w] |= 1 << v
    stack = []  # vertices whose usable edges may still change
    for v in v1:
        k = forced[v].bit_count()
        if k > 2:
            return f"vertex {v} lies on {k} forced shadow edges (a spanning cycle uses 2)", usable
        if k == 2:
            stack.append(v)
    note = _forced_cycle(forced, v1)
    if note is not None:
        return note, usable
    # every change below removes or forces an edge, so the stack runs dry
    while stack:
        v = stack.pop()
        if usable[v] == forced[v]:
            continue
        if forced[v].bit_count() == 2:
            drop = usable[v] & ~forced[v]
            usable[v] = forced[v]
            for w in _members(drop):
                usable[w] &= ~(1 << v)
                stack.append(w)
            continue
        k = usable[v].bit_count()
        if k < 2:
            return (f"vertex {v} keeps only {k} shadow edge once forced edges are pruned "
                    "(a spanning cycle needs 2)"), usable
        if k == 2:
            for w in _members(usable[v] & ~forced[v]):
                forced[w] |= 1 << v
                if forced[w].bit_count() > 2:
                    return (f"vertex {w} lies on 3 forced shadow edges once forced edges "
                            "are pruned (a spanning cycle uses 2)"), usable
                stack.append(w)
            forced[v] = usable[v]
    return _forced_cycle(forced, v1, " once forced edges are pruned"), usable


def _forced_cycle(forced: list[int], v1, suffix: str = "") -> str | None:
    """A note naming a cycle of forced edges that misses part of V1, through
    the smallest vertex of any such cycle, or None. Every vertex lies on at
    most two forced edges, so the forced edges form paths and cycles; a part
    with no vertex on only one forced edge is a cycle."""
    ends = left = 0
    for v in v1:
        k = forced[v].bit_count()
        if k:
            left |= 1 << v
        if k == 1:
            ends |= 1 << v
    while left:
        part = _reach(forced, left & -left)
        k = part.bit_count()
        if not part & ends and k < len(v1):
            return (f"forced shadow edges close a cycle through {k} of {len(v1)} "
                    f"non-isolated vertices{suffix}")
        left &= ~part
    return None


def _cut_vertex(adj, masks: list[int], v1) -> str | None:
    """Stage two of the "no" certificate: a reason the graph of the pruned
    shadow masks on V1 is not 2-connected, or None. A spanning cycle of V1 is
    2-connected, so V1 disconnected or a cut vertex rules one out. `adj`
    holds the unpruned shadow lists, read wherever pruning left a vertex's
    mask whole.

    One iterative depth-first search from the smallest vertex keeps each
    vertex's discovery order and lowpoint (the earliest order reachable by
    tree edges then one more edge): a non-root vertex u is a cut vertex iff
    some tree child v has low[v] >= order[u], and the root iff it has two
    tree children. The note names the first cut vertex the search finishes.
    Linear in the size of the pruned graph. The parent edge counts towards
    the lowpoint here, which moves low[v] to order[u] at most and so leaves
    every test as it is.
    """

    # kept: at n=10^4 a cut test took 48 ms this way, the _members walks alone 296 ms
    def nbrs(v):
        return adj[v] if len(adj[v]) == masks[v].bit_count() else _members(masks[v])

    root = v1[0]
    order = [-1] * len(masks)
    low = [0] * len(masks)
    order[root] = 0
    seen = 1
    stack = [(root, iter(nbrs(root)))]
    children = 0
    while stack:
        v, it = stack[-1]
        for w in it:
            if order[w] < 0:
                order[w] = low[w] = seen
                seen += 1
                stack.append((w, iter(nbrs(w))))
                break
            if order[w] < low[v]:
                low[v] = order[w]
        else:
            stack.pop()
            if not stack:
                break
            u = stack[-1][0]
            if low[v] < low[u]:
                low[u] = low[v]
            if u == root:
                children += 1
                if children == 2:
                    return f"vertex {root} is a cut vertex of the pruned shadow graph"
            elif low[v] >= order[u]:
                return f"vertex {u} is a cut vertex of the pruned shadow graph"
    if seen < len(v1):
        return "the pruned shadow graph on the non-isolated vertices is disconnected"
    return None


def rotation_extension_search(
    H: Hypergraph,
    budget: int | None = None,
    rng: SeededRng | None = None,
) -> SearchOutcome:
    """Heuristic search for a weak cycle spanning the non-isolated vertices.

    Grows a path greedily on the shadow, closes rotation closures at stalls,
    splices non-spanning cycles open through the connectivity of V1, sweeps
    the far-side closures at a stall, and restarts within a global rotation
    budget. A "no" is certified (`impossible`) in three steps:
    - before any rotation, when V1 is too small or disconnected;
    - before any rotation, when forced shadow edges rule a spanning cycle
      out, propagated to a fixpoint (stage one of the certificate);
    - after a search that found no cycle, when the shadow graph pruned of
      the edges no spanning cycle can use is disconnected on V1 or has a cut
      vertex (stage two); rotations and restarts are reported as spent.
    Any returned cycle is validated and spans V1(H) exactly — the search can
    fail to find, but never returns a false positive. The search itself runs
    on the unpruned shadow. Deterministic for a fixed (H, budget, rng seed).
    """
    if budget is None:
        budget = default_rotation_budget(H.n)
    v1 = non_isolated_vertices(H)
    if len(v1) < 3:
        reason = f"only {len(v1)} non-isolated vertices (cycles need 3)"
    elif _reach(H.shadow.adj_masks, 1 << v1[0]).bit_count() < len(v1):
        reason = "non-isolated vertices are disconnected"
    else:
        reason, pruned = _forced_edge_pruning(H.shadow, v1)
    if reason is not None:
        return SearchOutcome(
            cycle=None, path=None, complete=False, exhausted=False, rotations=0,
            impossible=reason,
        )
    shadow = H.shadow
    gen = (rng or SeededRng(0, 0)).generator()
    cyc, best, rots, restarts, exhausted = _engine.search(
        shadow.adj, shadow.adj_masks, v1, gen, budget
    )
    if cyc is not None:
        return SearchOutcome(
            cycle=_check_witness(lift_cycle(H, cyc), H, len(v1)), path=None,
            complete=True, exhausted=False, rotations=rots, restarts=restarts,
        )
    return SearchOutcome(
        cycle=None, path=lift_path(H, best), complete=False, exhausted=exhausted,
        rotations=rots, impossible=_cut_vertex(shadow.adj, pruned, v1), restarts=restarts,
    )


# --- JSON serialization --------------------------------------------------------


def weak_to_json(obj: WeakPath | WeakCycle) -> str:
    """Serialize as an alternating array [v0, [e1...], v1, ...]; cycles close
    the loop explicitly by repeating v0 after the final edge. Edge entries
    that are numpy integers are written as integers."""
    if isinstance(obj, WeakCycle):
        doc = {"kind": "cycle", "strict_edges": obj.has_distinct_edges}
    elif isinstance(obj, WeakPath):
        doc = {"kind": "path"}
    else:
        raise InputError(f"cannot serialize {type(obj).__name__}")
    vs = obj.vertices
    seq: list = [vs[0]]
    # a path's edges run out before v0 comes round again; a cycle's last
    # edge leads back to v0
    for e, v in zip(obj.edges, vs[1:] + vs[:1]):
        seq += (list(e), v)
    doc["sequence"] = seq
    try:
        return json.dumps(doc, separators=(",", ":"), sort_keys=True, default=operator.index)
    except TypeError as exc:
        raise InputError(f"cannot serialize an edge entry: {exc}") from exc


def weak_from_json(text: str) -> WeakPath | WeakCycle:
    try:
        doc = json.loads(text)
        kind = doc["kind"]
        seq = doc["sequence"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise InputError(f"bad weak path/cycle JSON: {exc}") from exc
    if not isinstance(seq, list) or len(seq) % 2 == 0 or len(seq) < 1:
        raise InputError("sequence must alternate vertex, edge, ..., vertex")
    vertices = seq[0::2]
    # type(v) is int: JSON true/false load as bool, a subclass of int
    if not all(type(v) is int for v in vertices):
        raise InputError("vertex entries must be integers")
    if not all(type(e) is list and all(type(v) is int for v in e) for e in seq[1::2]):
        raise InputError("edge entries must be lists of integers")
    edges = seq[1::2]
    if kind == "path":
        return WeakPath(vertices, edges)
    if kind == "cycle":
        if len(vertices) < 2 or vertices[-1] != vertices[0]:
            raise InputError("cycle sequence must end at its starting vertex")
        return WeakCycle(vertices[:-1], edges)
    raise InputError(f"unknown kind {kind!r}")
