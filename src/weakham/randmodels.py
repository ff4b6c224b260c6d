"""Random models for d-uniform hypergraphs and their parameter maps.

Two standard models:
  * G(n,p): each of the C(n,d) potential edges present independently w.p. p.
    Sampled as K ~ Binomial(C(n,d), p) followed by K distinct d-sets drawn
    uniformly without replacement — distributionally identical to per-edge
    coin flips but feasible at C(1000,3) ~ 1.7e8 potential edges.
  * G(n,m): exactly m distinct edges, uniform over all m-subsets.

The scaling regime of interest couples p (or m) to a single offset c:
p = (d-1)!*(ln n + c)/n^(d-1), m = n*(ln n + c)/d. As c varies, P(min degree
>= 1) sweeps from 0 to 1 with limit exp(-exp(-c)); the experiments in the
harness measure how tightly weak Hamiltonicity tracks that curve.

All sampling is keyed by SeededRng(master_seed, stream): equal keys give
bit-identical samples, and independent trials use distinct streams, so
parallel runs are reproducible regardless of worker count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapabilityError, InputError
from .hypercore import Hypergraph

__all__ = [
    "GnpParams",
    "GnmParams",
    "SeededRng",
    "p_from_c",
    "m_from_c",
    "limiting_probability",
    "sample_gnp",
    "sample_gnm",
    "sampled_covered_vertices",
    "edge_process",
]


@dataclass(frozen=True)
class SeededRng:
    """Counter-based splittable seed: (master_seed, stream) fully determines
    the generator. Trial t of an experiment uses stream = base + t; no
    sequential RNG state is ever shared across trials."""

    master_seed: int
    stream: int = 0

    def __post_init__(self):
        if self.master_seed < 0 or self.stream < 0:
            raise InputError(
                f"seed and stream must be >= 0, got seed={self.master_seed}, stream={self.stream}"
            )

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=[int(self.master_seed), int(self.stream)])
        return np.random.default_rng(ss)

    def shifted(self, offset: int) -> "SeededRng":
        return SeededRng(self.master_seed, self.stream + int(offset))


@dataclass(frozen=True)
class GnpParams:
    n: int
    d: int
    p: float

    def __post_init__(self):
        if self.d < 2:
            raise InputError(f"d must be >= 2, got {self.d}")
        if self.n < 0:
            raise InputError(f"n must be >= 0, got {self.n}")
        if not (0.0 <= self.p <= 1.0):
            raise InputError(f"p={self.p} outside [0, 1]")


@dataclass(frozen=True)
class GnmParams:
    n: int
    d: int
    m: int

    def __post_init__(self):
        if self.d < 2:
            raise InputError(f"d must be >= 2, got {self.d}")
        if self.n < 0:
            raise InputError(f"n must be >= 0, got {self.n}")
        total = math.comb(self.n, self.d)
        if not (0 <= self.m <= total):
            raise InputError(f"m={self.m} outside [0, C({self.n},{self.d})={total}]")


# --- parameter maps ---------------------------------------------------------


def _check_offset(n: int, c: float) -> None:
    if n < 2:
        raise InputError(f"n must be >= 2, got {n}")
    if not math.isfinite(c):
        raise InputError(f"c must be finite, got {c}")


def p_from_c(n: int, d: int, c: float) -> float:
    """Edge probability at offset c: (d-1)!*(ln n + c)/n^(d-1), clamped to [0,1].

    Clamping (very negative c, or tiny n pushing the value above 1) emits a
    UserWarning rather than failing: sweeps over wide c-grids are expected.
    """
    _check_offset(n, c)
    raw = math.factorial(d - 1) * (math.log(n) + c) / n ** (d - 1)
    if raw < 0.0:
        warnings.warn(f"p_from_c(n={n}, d={d}, c={c}) = {raw} clamped to 0", stacklevel=2)
        return 0.0
    if raw > 1.0:
        warnings.warn(f"p_from_c(n={n}, d={d}, c={c}) = {raw} clamped to 1", stacklevel=2)
        return 1.0
    return raw


def m_from_c(n: int, d: int, c: float) -> int:
    """Edge count at offset c: round(n*(ln n + c)/d), clamped to [0, C(n,d)]."""
    _check_offset(n, c)
    raw = n * (math.log(n) + c) / d
    # a huge finite c makes raw ±inf, which is clamped as it stands
    m = round(raw) if math.isfinite(raw) else raw
    total = math.comb(n, d)
    if m < 0:
        warnings.warn(f"m_from_c(n={n}, d={d}, c={c}) = {m} clamped to 0", stacklevel=2)
        return 0
    if m > total:
        warnings.warn(f"m_from_c(n={n}, d={d}, c={c}) = {m} clamped to {total}", stacklevel=2)
        return total
    return m


def limiting_probability(c: float) -> float:
    """Limit of P(min degree >= 1) (and of P(weak Hamiltonian)) at offset c:
    exp(-exp(-c))."""
    return math.exp(-math.exp(-c))


# --- numpy's bounded draws from raw PCG64 words ------------------------------
#
# numpy takes the draws of `Generator.integers(k)` (1 <= k <= 2**32) from
# PCG64's `next_uint32` stream: each 64-bit output's low half, then its high
# half. k = 1 gives 0 without a word; otherwise the draw is Lemire's
# `_bounded` of the next word, and a word it rejects is dropped for the next.
# The expansion replay and the rotation engine both read the stream here.


def _uint32_words(block: np.ndarray) -> np.ndarray:
    """The `next_uint32` words of a `random_raw` block, in stream order, as
    a uint32 array: each output's low half, then its high half."""
    return block.astype("<u8", copy=False).view("<u4")


def _bounded(words, ex):
    """Lemire's draw in [0, ex) from 32-bit words (Python ints, or uint64
    arrays elementwise; ex >= 1), as numpy's bounded integers take it, and
    whether numpy rejects the word and draws again: the product's low half
    lies below (2**32 - ex) % ex. An ex of 1 gives 0 and never rejects."""
    m = words * ex
    return m >> 32, (m & 0xFFFFFFFF) < (2**32 - ex) % ex


# raw outputs read at a time: 128 words, a few µs to read, so a search on a
# few dozen vertices wastes little and one at n=1000 reads about 8 blocks
_DRAW_BLOCK = 64


def _bounded_draws(gen: np.random.Generator):
    """`draw(k)`, which returns what `gen.integers(k)` would (1 <= k <= 2**32),
    one call after another, from raw words that it reads in blocks.

    The generator must be a PCG64 with no pending half word, and it is
    spent: it runs ahead of numpy by up to one block, so nothing else may
    draw from it once `draw` is in use."""
    bg = gen.bit_generator
    if not isinstance(bg, np.random.PCG64) or bg.state["has_uint32"]:
        raise InputError("bounded draws need a PCG64 generator with no pending half word")
    words = iter(())

    def draw(k: int) -> int:
        nonlocal words
        if k == 1:
            return 0
        while True:
            for w in words:
                v, rejected = _bounded(w, k)
                if not rejected:
                    return v
            words = iter(_uint32_words(bg.random_raw(_DRAW_BLOCK)).tolist())

    return draw


# --- distinct d-set sampling core --------------------------------------------

_DENSE_ENUM_LIMIT = 200_000
_ENUM_LIMIT = 2_000_000


def _all_dsets(n: int, d: int) -> np.ndarray:
    """All d-subsets of [0,n) as a lexicographically ordered (C(n,d), d) array.
    Raises CapabilityError, before allocating, above _ENUM_LIMIT d-sets."""
    total = math.comb(n, d)
    if total > _ENUM_LIMIT:
        raise CapabilityError(
            f"C({n},{d}) = {total} d-sets exceed the in-memory enumeration limit {_ENUM_LIMIT}"
        )
    return _enumerate_dsets(n, d)


@lru_cache(maxsize=8)
def _enumerate_dsets(n: int, d: int) -> np.ndarray:
    from itertools import combinations

    total = math.comb(n, d)
    arr = np.empty((total, d), dtype=np.int64)
    for i, combo in enumerate(combinations(range(n), d)):
        arr[i] = combo
    return arr


def _sample_distinct_rows(
    n: int, d: int, k: int, gen: np.random.Generator, lex: bool = False
) -> np.ndarray:
    """k distinct d-sets, uniform without replacement, as a (k, d) int64
    array in draw order, or, with `lex`, in lexicographic order: the row
    indices or row codes are sorted before they are decoded, one 1-D sort in
    place of a sort of the rows.

    Dense regime enumerates and index-samples. Sparse regime rejection-samples
    batches of (batch, d) uniform draws held as d columns: a bubble network of
    column-wise minimum/maximum sorts each row, column compares drop rows with
    a repeated vertex, and each kept row becomes one injective radix-n int64
    code. The d-sets kept are the first occurrence of each code in draw order
    (exactly sequential without-replacement sampling), found without a stable
    sort: a plain sort of the codes reveals the repeated ones, and only their
    positions are resolved. Further batches are drawn until k codes are
    distinct; the first k are decoded back to rows. Raises CapabilityError,
    before any draw, when the dense regime would enumerate more than
    _ENUM_LIMIT d-sets, or when the sparse regime's int64 row codes would
    overflow or it would draw more than _ENUM_LIMIT rows."""
    total = math.comb(n, d)
    if k < 0 or k > total:
        raise InputError(f"cannot draw {k} distinct d-sets from {total}")
    if k == 0:
        return np.empty((0, d), dtype=np.int64)
    if total <= _DENSE_ENUM_LIMIT or 2 * k >= total:
        allsets = _all_dsets(n, d)
        idx = gen.choice(total, size=k, replace=False)
        return allsets[np.sort(idx) if lex else idx]
    if n**d >= 2**62:
        raise CapabilityError(f"n={n}, d={d} too large for packed sampling")
    if k > _ENUM_LIMIT:
        raise CapabilityError(
            f"{k} edges exceed the in-memory sampling limit {_ENUM_LIMIT}"
        )
    parts: list[np.ndarray] = []
    batch = int(1.25 * k) + 32
    while True:
        draw = gen.integers(0, n, size=(batch, d))
        cols = [draw[:, j] for j in range(d)]
        for top in range(d - 1, 0, -1):
            for j in range(top):
                lo = np.minimum(cols[j], cols[j + 1])
                cols[j + 1] = np.maximum(cols[j], cols[j + 1])
                cols[j] = lo
        ok = np.logical_and.reduce([cols[j] > cols[j - 1] for j in range(1, d)])
        code = cols[0]
        for col in cols[1:]:
            code = code * n + col
        parts.append(code[ok])
        # kept: always concatenating read poisson-n2000 about 8% slower (8 of 8 pairs)
        codes = parts[0] if len(parts) == 1 else np.concatenate(parts)
        first = _first_occurrences(codes)
        if first.size >= k:
            break
        batch = max(256, 2 * (k - first.size))
    rows = np.empty((k, d), dtype=np.int64)
    # radix-n codes of ascending rows order like the rows
    rest = np.sort(first[:k]) if lex else first[:k]
    for j in range(d - 1, 0, -1):
        high = rest // n  # floor_divide by a scalar is faster than divmod
        rows[:, j] = rest - high * n
        rest = high
    rows[:, 0] = rest
    return rows


def _first_occurrences(codes: np.ndarray) -> np.ndarray:
    """codes with every repeat after its first occurrence removed, in order."""
    s = np.sort(codes)
    repeated = s[1:][s[1:] == s[:-1]]
    if repeated.size == 0:  # kept: resolving zero repeats read poisson-n2000 ~10% slower
        return codes
    at = np.flatnonzero(np.isin(codes, repeated))
    values = np.unique(repeated)
    lead = np.full(values.size, codes.size)
    np.minimum.at(lead, np.searchsorted(values, codes[at]), at)
    keep = np.ones(codes.size, dtype=bool)
    keep[at] = False
    keep[lead] = True
    return codes[keep]


# --- samplers -----------------------------------------------------------------


def _gnp_rows(params: GnpParams, rng: SeededRng, lex: bool = False) -> np.ndarray:
    """The edge rows of one G(n,p) draw: a binomial edge count (drawn only
    when 0 < p < 1 and some d-set exists), then that many distinct rows, in
    draw order or, with `lex`, in lexicographic order.
    Raises CapabilityError, before the draw, when C(n,d) does not fit the
    int64 trial count of the binomial."""
    gen = rng.generator()
    total = math.comb(params.n, params.d)
    if params.p == 0.0 or total == 0:
        k = 0
    elif params.p == 1.0:
        k = total
    else:
        if total >= 2**63:
            raise CapabilityError(
                f"C({params.n},{params.d}) = {total} potential edges exceed the "
                "int64 binomial edge-count draw"
            )
        k = int(gen.binomial(total, params.p))
    return _sample_distinct_rows(params.n, params.d, k, gen, lex)


def sample_gnp(params: GnpParams, rng: SeededRng) -> Hypergraph:
    """One draw of G(n,p): binomial edge count, then that many distinct edges."""
    return Hypergraph(params.n, params.d, _gnp_rows(params, rng, lex=True))


def sample_gnm(params: GnmParams, rng: SeededRng) -> Hypergraph:
    """One draw of G(n,m): exactly m distinct edges, uniform."""
    gen = rng.generator()
    rows = _sample_distinct_rows(params.n, params.d, params.m, gen, lex=True)
    return Hypergraph(params.n, params.d, rows)


def sampled_covered_vertices(params: GnpParams, rng: SeededRng) -> np.ndarray:
    """Boolean coverage mask of a fresh G(n,p) draw without materializing the
    Hypergraph. Same distribution as sample_gnp (same sampling core); used by
    the harness for fast min-degree-only trials."""
    covered = np.zeros(params.n, dtype=bool)
    covered[_gnp_rows(params, rng).ravel()] = True
    return covered


def _process_order(n: int, d: int, rng: SeededRng) -> tuple[np.ndarray, np.ndarray]:
    """The edge process as (allsets, order): every d-set, in lexicographic
    order, and a uniform permutation of their indices; row order[i] of
    allsets is the i-th edge of the stream, so the sorted indices of a
    prefix give its rows in lexicographic order."""
    allsets = _all_dsets(n, d)
    return allsets, rng.generator().permutation(len(allsets))


def edge_process(n: int, d: int, rng: SeededRng) -> tuple[tuple[int, ...], ...]:
    """Uniformly random permutation of all C(n,d) potential edges.

    The length-m prefix is distributed as G(n,m); scanning the stream and
    recording hitting times is the edge-process experiment. Raises
    CapabilityError when C(n,d) is above the enumeration limit.
    """
    allsets, order = _process_order(n, d, rng)
    return tuple(map(tuple, allsets[order].tolist()))
