"""Core d-uniform hypergraph type, neighborhoods, components, and the shadow graph.

Everything downstream leans on one structural fact: because weak cycles may
reuse hyperedges, only *pair coverage* matters for path/cycle questions. Two
vertices are "shadow-adjacent" iff some hyperedge contains both, and a weak
cycle spanning a vertex set W exists iff the shadow graph restricted to W has
an ordinary graph Hamilton cycle on W. Path and cycle machinery therefore
consults the shadow; degree and expansion machinery consults the
hyperedges themselves.

Vertices are 0-based contiguous ids. A hypergraph stores its edges once, as
an (m, d) int64 array `rows` of strictly ascending rows in lexicographic
order, which gives a canonical form: equal hypergraphs serialize to
identical bytes. Edge tuples are built from `rows` only where a caller
reads them; the derived structures are built from it with numpy. A row is
found by one searchsorted among the rows' big-endian byte keys. Degrees
are a `bincount`. Every edge contributes its C(d, 2) pairs as codes u*n + v
(u < v), laid out edge-major, so one plain sort of the codes keyed by their
positions gives the covered pairs in order together with the first position
of each; that position over C(d, 2) is the lexicographically smallest edge
covering the pair, the edge a shadow path is lifted through. The shadow's
adjacency lists are split from the sorted symmetric pairs; its bitmasks are
packed once per hypergraph from the covered pairs as uint64 words, cached
on it read-only, which expansion reads as they are and the shadow as ints.

Neighborhoods and connectivity are read off those bitmasks: N(V) is the OR
of the masks of V less V, and every connectivity question in the package
(components, is_connected_on, the connectivity certificates of the oracle
and of the search) is one breadth-first search over masks, `_reach`. Only
the search's cut-vertex test walks the masks depth-first, in weakpaths.
"""

from __future__ import annotations

import operator
from collections.abc import Collection
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .errors import CapabilityError, InputError

__all__ = [
    "Hypergraph",
    "ShadowGraph",
    "degree",
    "degrees",
    "isolated_vertices",
    "non_isolated_vertices",
    "neighbors",
    "shadow_graph",
    "induced",
    "components",
    "is_connected_on",
    "parse_hypergraph",
    "format_hypergraph",
    "load_hypergraph",
    "dump_hypergraph",
]


@dataclass(frozen=True, init=False, eq=False)
class Hypergraph:
    """A d-uniform hypergraph on vertices 0..n-1 with a duplicate-free edge set.

    Invariants (enforced at construction):
      * every edge is a strictly ascending d-tuple over [0, n)
      * no repeated edges; edges in lexicographic order
      * d >= 2; n >= d whenever the edge set is non-empty

    `edges`, d-tuples or an (m, d) integer array, is copied into `rows`, the
    read-only (m, d) int64 array that is the only stored form of the edges
    and what equality and hashing compare (with n and d).
    """

    n: int
    d: int
    rows: np.ndarray

    def __init__(self, n: int, d: int, edges) -> None:
        if d < 2:
            raise InputError(f"d must be >= 2, got {d}")
        if n < 0:
            raise InputError(f"n must be >= 0, got {n}")
        if len(edges) and n < d:
            raise InputError(f"n={n} < d={d} with non-empty edge set")
        rows = _edge_rows(n, d, edges)
        _check_rows(n, rows)
        rows.flags.writeable = False
        self.__dict__.update(n=n, d=d, rows=rows)

    def __eq__(self, other) -> bool:
        same = isinstance(other, Hypergraph) and (self.n, self.d) == (other.n, other.d)
        return same and np.array_equal(self.rows, other.rows)

    def __hash__(self) -> int:
        return hash((self.n, self.d, self.rows.tobytes()))

    @staticmethod
    def from_edges(n: int, d: int, edges: Iterable[Sequence[int]]) -> "Hypergraph":
        """Canonicalize (sort each edge, sort the edge list) and validate.

        Duplicate edges (after per-edge sorting) raise InputError: the random
        models H_d(n,p) / H_d(n,m) are simple, so a duplicate is a bug
        upstream, not something to smooth over.
        """
        edges = tuple(edges)
        try:
            canon = sorted(tuple(sorted(e)) for e in edges)
        except TypeError:
            for e in edges:
                if not isinstance(e, Collection):
                    raise _entry_error(e) from None
            raise InputError("edge vertices must be 64-bit integers") from None
        return Hypergraph(n=n, d=d, edges=tuple(canon))

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """The rows as tuples of ints, built on first read."""
        return tuple(map(tuple, self.rows.tolist()))

    @property
    def m(self) -> int:
        return len(self.rows)

    @cached_property
    def _degrees(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.rows.ravel(), minlength=self.n).tolist())

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The covered pairs (u, v), u < v, as ascending codes u*n + v, and
        for each the index of the lexicographically smallest edge covering
        it: codes are laid out edge-major and edges are sorted, so the first
        occurrence of a code lies in that edge.

        The first occurrences come from one plain sort of the composite keys
        code * size + position, size = m * C(d, 2), which order the codes
        and, within a code, its positions. A key is below n**2 * size, so
        CapabilityError is raised, before anything is sorted, unless
        n**2 * size < 2**63."""
        a, b = _pair_columns(self.d)
        n, size = self.n, self.m * len(a)
        if n * n * size >= 2**63:
            raise CapabilityError(
                f"n={n} with {size} edge pairs: the covered-pair keys need "
                f"n**2 * {size} < 2**63"
            )
        codes = (self.rows[:, a] * n + self.rows[:, b]).ravel()
        codes, pos = np.divmod(np.sort(codes * size + np.arange(size)), size)
        first = np.empty(size, dtype=bool)
        first[:1] = True
        np.not_equal(codes[1:], codes[:-1], out=first[1:])
        return codes[first], pos[first] // len(a)

    @cached_property
    def shadow(self) -> "ShadowGraph":
        return shadow_graph(self)

    @cached_property
    def _words(self) -> np.ndarray:
        """The shadow's bitmasks, packed once: see `_shadow_words`."""
        n = self.n
        _check_mask_words(n)
        u, v = np.divmod(self._pairs[0], n)
        words = _bit_words(n, np.concatenate((u, v)), np.concatenate((v, u)), n + 1)
        words.flags.writeable = False
        return words

    @cached_property
    def cover_index(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Map each covered pair (u, v) with u < v to the lexicographically
        smallest hyperedge containing both: the edge that lift_path and
        lift_cycle choose for that pair."""
        codes, first = self._pairs
        u, v = np.divmod(codes, self.n)
        return dict(zip(zip(u.tolist(), v.tolist()), map(self.edges.__getitem__, first.tolist())))

    @cached_property
    def _keys(self) -> np.ndarray:
        """The rows as `_row_keys`, ascending like the rows, so a row is
        found by one searchsorted."""
        return _row_keys(self.rows)

    def _has_rows(self, rows: np.ndarray) -> np.ndarray:
        """For each row of an (k, d) integer array, whether it is a row of
        H, by one searchsorted of its `_row_keys` among H's. A row with an
        entry outside [0, n) matches none."""
        keys, known = _row_keys(rows), self._keys
        pos = np.searchsorted(known, keys)
        hit = pos < known.size
        hit[hit] = known[pos[hit]] == keys[hit]
        return hit


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of an (m, d) integer array as one key of its d big-endian
    int64 bytes: keys compare bytewise, which is lexicographic order on
    rows of non-negative entries."""
    big = np.ascontiguousarray(rows, dtype=">i8")
    return big.view(np.dtype((np.void, big.itemsize * big.shape[1]))).ravel()


def _edge_rows(n: int, d: int, edges) -> np.ndarray:
    """A copy of the edges as an (m, d) int64 array. Raises InputError for
    an edge of the wrong arity or an entry that is not a sequence, unless an
    earlier edge already breaks the invariants, and for vertices that are
    not 64-bit integers."""
    try:
        rows = np.array(edges) if len(edges) else np.empty((0, d), dtype=np.int64)
    except ValueError:  # edges of different arities
        rows = np.empty(0)
    if rows.shape[1:] != (d,):
        good = next(
            (i for i, e in enumerate(edges) if not isinstance(e, Collection) or len(e) != d),
            None,
        )
        if good is None:  # d entries each, but not all of them integers
            raise InputError("edge vertices must be 64-bit integers")
        _check_rows(n, _edge_rows(n, d, edges[:good]))
        e = edges[good]
        if not isinstance(e, Collection):
            raise _entry_error(e)
        raise InputError(f"edge {e} has arity {len(e)}, expected {d}")
    if rows.dtype.kind not in "iu":
        raise InputError("edge vertices must be 64-bit integers")
    return rows.astype(np.int64, copy=False)


def _entry_error(e) -> InputError:
    """The error for an edge-list entry that is not a sequence, such as a
    vertex of a flat list passed as the edges."""
    return InputError(f"edge list entry {e!r} is not a sequence of vertices")


def _check_rows(n: int, rows: np.ndarray) -> None:
    """Raise InputError naming the first row that breaks the invariants, in
    row order, checking each row's range, then its order, then its place
    against the previous row.

    The rows are checked a column at a time. A row is bad when it is not
    strictly ascending, when its first entry is negative or its last is at
    least n (which, for an ascending row, is any entry outside [0, n)), or
    when it is not lexicographically above the previous row; the first bad
    row's message is then found from that row alone."""
    m, d = rows.shape
    bad = (rows[:, 0] < 0) | (rows[:, -1] >= n)
    above = np.zeros(max(m - 1, 0), dtype=bool)  # above the previous row
    same = ~above  # equal to the previous row on the columns so far
    for j in range(d):
        col = rows[:, j]
        if j:
            bad |= col <= rows[:, j - 1]
        now, before = col[1:], col[:-1]
        above |= same & (now > before)
        same &= now == before
    bad[1:] |= ~above
    if not bad.any():
        return
    i = int(bad.argmax())
    e = tuple(rows[i].tolist())
    if any(not 0 <= v < n for v in e):
        raise InputError(f"edge {e} has a vertex outside [0, {n})")
    if any(a >= b for a, b in zip(e, e[1:])):
        raise InputError(f"edge {e} is not strictly ascending")
    if e == tuple(rows[i - 1].tolist()):
        raise InputError(f"duplicate edge {e}")
    raise InputError("edge list is not sorted lexicographically")


@dataclass(frozen=True)
class ShadowGraph:
    """The 2-uniform projection of a hypergraph: u ~ v iff some hyperedge
    contains both. Symmetric, no self-loops. `adj[v]` is an ascending tuple;
    `adj_masks[v]` is the same neighbor set as an int bitmask (bit w set iff
    v ~ w).
    """

    n: int
    adj: tuple[tuple[int, ...], ...]
    adj_masks: tuple[int, ...]

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2


def _vertex_id(v) -> int:
    """v as a Python int, by the vertex rule: a vertex is an integer that
    `operator.index` accepts, and not a bool (as JSON true is no vertex).
    Raises InputError otherwise."""
    if type(v) is not bool:
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise InputError(f"vertex {v!r} is not an integer")


def _vertex_ids(vs) -> tuple[int, ...]:
    """The vertices vs as a tuple of Python ints, by the vertex rule."""
    return tuple(map(_vertex_id, vs))


def _check_vertex(H: Hypergraph, v) -> int:
    """v as a Python int; InputError unless it is a vertex of H."""
    v = _vertex_id(v)
    if not (0 <= v < H.n):
        raise InputError(f"vertex {v} outside [0, {H.n})")
    return v


def degree(H: Hypergraph, v: int) -> int:
    """Number of hyperedges containing v."""
    return H._degrees[_check_vertex(H, v)]


def degrees(H: Hypergraph) -> tuple[int, ...]:
    """Degree sequence indexed by vertex id."""
    return H._degrees


def isolated_vertices(H: Hypergraph) -> tuple[int, ...]:
    """V0(H): vertices contained in no edge, ascending."""
    return tuple(v for v, k in enumerate(H._degrees) if k == 0)


def non_isolated_vertices(H: Hypergraph) -> tuple[int, ...]:
    """V1(H): vertices of degree >= 1, ascending."""
    return tuple(v for v, k in enumerate(H._degrees) if k > 0)


def neighbors(H: Hypergraph, V: Iterable[int]) -> frozenset[int]:
    """N(V) = {w not in V : some edge contains w and some v in V}: the union
    of the shadow neighborhoods of V, less V.

    Disjoint from V by definition; always a subset of V1(H).
    """
    masks = H.shadow.adj_masks
    vmask = reach = 0
    for v in set(V):
        v = _check_vertex(H, v)
        vmask |= 1 << v
        reach |= masks[v]
    return frozenset(_members(reach & ~vmask))


# the shadow's bitmasks are packed as n rows of n // 64 + 1 uint64 words,
# and building them peaks at about three times that; this bounds the words
# (n up to about 46,300)
_SHADOW_WORD_LIMIT = 1 << 28


def shadow_graph(H: Hypergraph) -> ShadowGraph:
    """Materialize the shadow: u ~ v iff some hyperedge contains both.

    Raises CapabilityError, before allocating, when the packed bitmasks
    would take more than _SHADOW_WORD_LIMIT."""
    n = H.n
    words = _shadow_words(H)
    codes, _ = H._pairs
    u, v = np.divmod(codes, n)
    src, dst = np.divmod(np.sort(np.concatenate((codes, v * n + u))), n)
    flat = dst.tolist()
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    adj = tuple(tuple(flat[a:b]) for a, b in zip([0, *ends], ends))
    return ShadowGraph(n=n, adj=adj, adj_masks=_word_ints(words[:n]))


def _shadow_words(H: Hypergraph) -> np.ndarray:
    """The shadow's bitmasks as (n+1) x (n // 64 + 1) uint64 words, the one
    packing of the shadow: bit w of row v is set iff v ~ w. Row n is all
    zero and bit n exists, so vertex n serves as padding in the index
    matrices of expansion; `shadow_graph` reads rows 0..n-1 as ints. Packed
    once per hypergraph, and cached on it read-only (`H._words`), so every
    reader of H shares one array. CapabilityError, before allocating, above
    _SHADOW_WORD_LIMIT."""
    return H._words


def _check_mask_words(n: int) -> None:
    need = 8 * n * (n // 64 + 1)
    if need > _SHADOW_WORD_LIMIT:
        raise CapabilityError(
            f"n={n}: the shadow bitmasks need {need} bytes, above the bound "
            f"of {_SHADOW_WORD_LIMIT}"
        )


def _bit_words(n: int, src: np.ndarray, dst: np.ndarray, rows: int) -> np.ndarray:
    """The rows x (n // 64 + 1) bit matrix, as little-endian uint64 words,
    with bit dst[i] set in row src[i]."""
    words = n // 64 + 1
    packed = np.zeros(rows * words, dtype="<u8")
    bits = np.left_shift(np.uint64(1), (dst & 63).astype(np.uint64))
    np.bitwise_or.at(packed, src * words + (dst >> 6), bits)
    return packed.reshape(rows, words)


def _word_ints(words: np.ndarray) -> tuple[int, ...]:
    """Each row of a C-contiguous matrix of little-endian uint64 words as an
    int, read from the row's bytes."""
    rows = words.view(np.dtype((np.void, 8 * words.shape[1]))).ravel().tolist()
    return tuple(map(int.from_bytes, rows, repeat("little")))


@lru_cache(maxsize=None)
def _pair_columns(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The column pairs (a, b), a < b, of a d-column row, as two read-only
    index arrays in `np.triu_indices` order."""
    cols = np.triu_indices(d, 1)
    for c in cols:
        c.flags.writeable = False
    return cols


def induced(H: Hypergraph, W: Iterable[int]) -> Hypergraph:
    """Sub-hypergraph keeping exactly the edges contained in W.

    Vertex labels are kept (no compaction): vertices outside W simply end up
    isolated. This keeps N(.) and path bookkeeping label-stable.
    """
    ws = {_check_vertex(H, v) for v in W}
    inw = np.zeros(H.n, dtype=bool)
    inw[list(ws)] = True
    return Hypergraph(H.n, H.d, H.rows[inw[H.rows].all(axis=1)])


def _reach(masks: Sequence[int], seed: int) -> int:
    """The vertices that breadth-first search over the adjacency bitmasks
    `masks` reaches from the vertex bitmask `seed`, as a bitmask that
    includes `seed`."""
    seen = frontier = seed
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier
    return seen


def _members(mask: int) -> list[int]:
    """The set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def components(H: Hypergraph) -> tuple[frozenset[int], ...]:
    """Connected components of the shadow graph, isolated vertices as
    singletons, ordered by smallest member: each is the search of `_reach`
    from the smallest vertex not yet in a component."""
    masks = H.shadow.adj_masks
    left = (1 << H.n) - 1
    out = []
    while left:
        comp = _reach(masks, left & -left)
        out.append(frozenset(_members(comp)))
        left &= ~comp
    return tuple(out)


def is_connected_on(H: Hypergraph, W: Iterable[int]) -> bool:
    """True iff the edges of H lying inside W connect all of W.

    |W| <= 1 counts as connected. This is connectivity of induced(H, W)
    restricted to W, not connectivity of W inside the full shadow. W is
    relabelled to 0..|W|-1, so the bitmasks searched are |W| x |W|, and the
    _SHADOW_WORD_LIMIT bound applies to |W|, not to n.
    """
    ws = sorted({_check_vertex(H, v) for v in W})
    k = len(ws)
    if k <= 1:
        return True
    _check_mask_words(k)
    label = np.full(H.n, -1, dtype=np.int64)
    label[ws] = np.arange(k)
    rows = label[H.rows]
    rows = rows[(rows >= 0).all(axis=1)]
    a, b = _pair_columns(H.d)
    u, v = rows[:, a].ravel(), rows[:, b].ravel()
    masks = _word_ints(_bit_words(k, np.concatenate((u, v)), np.concatenate((v, u)), k))
    return _reach(masks, 1).bit_count() == k


# --- text format ------------------------------------------------------------
#
# Line 1: "d n m". Then m lines of d space-separated ascending vertex ids,
# sorted lexicographically. LF line endings, no trailing whitespace, and a
# final newline. Canonical: serialize(parse(text)) == text.


def format_hypergraph(H: Hypergraph) -> str:
    lines = [f"{H.d} {H.n} {H.m}"]
    lines.extend(" ".join(map(str, e)) for e in H.rows.tolist())
    return "\n".join(lines) + "\n"


def parse_hypergraph(text: str) -> Hypergraph:
    if not text.endswith("\n"):
        raise InputError("hypergraph text must end with a newline")
    lines = text.split("\n")[:-1]
    if not lines:
        raise InputError("empty hypergraph text")
    head = lines[0].split(" ")
    if len(head) != 3 or "" in head or lines[0].strip() != lines[0]:
        raise InputError(f"bad header line {lines[0]!r}, expected 'd n m'")
    try:
        d, n, m = (int(x) for x in head)
    except ValueError as exc:
        raise InputError(f"non-integer header field in {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise InputError(f"header says m={m} but {len(lines) - 1} edge lines found")
    edges = []
    for ln in lines[1:]:
        parts = ln.split(" ")
        if "" in parts or ln.strip() != ln:
            raise InputError(f"bad edge line {ln!r} (stray whitespace)")
        try:
            e = tuple(int(x) for x in parts)
        except ValueError as exc:
            raise InputError(f"non-integer vertex in edge line {ln!r}") from exc
        edges.append(e)
    H = Hypergraph(n=n, d=d, edges=tuple(edges))  # validates arity/order/dups
    return H


def _read_text(path) -> str:
    """A file's text with its newlines untranslated; InputError unless it is
    UTF-8."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc


def load_hypergraph(path) -> Hypergraph:
    text = _read_text(path)
    if "\r" in text:
        raise InputError("hypergraph files must use LF line endings")
    return parse_hypergraph(text)


def dump_hypergraph(H: Hypergraph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_hypergraph(H))
