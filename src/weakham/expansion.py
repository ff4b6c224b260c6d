"""Non-expanding-set analytics and the two-block greedy edge-finding probe.

A vertex set A is non-expanding when its external neighborhood is small:
|N(A)| < 2|A|. The quantity u(H) — the size of the smallest non-expanding
set of non-isolated vertices, or |V1|+1 when none exists — controls how many
absent "booster" d-sets every longest path generates, so the module pairs
exhaustive and randomized searches for such sets with structural predicates
(connectedness of A together with its neighborhood for minimal A). Both
searches test their sets with one kernel, `_non_expanding`, over the
shadow's bitmasks as uint64 rows.

The greedy probe is a standalone Monte Carlo of the two-block edge-finding
argument: fix disjoint blocks A (|A| = a) and B (|B| = b) and draw each
d-set inside A ∪ B independently with probability p. P(a, b) is the
probability that every B-vertex is adjacent to A through a present edge
inside A ∪ B; it is compared against a closed-form exact bound and a
simpler product-form bound. The proof's greedy walk covers B-vertices in
index order with the first present candidate each has not yet scanned, and
it succeeds exactly when every B-vertex lies in some present candidate,
because it only ever passes over absent candidates; the probe counts that
covering event directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Iterable

import numpy as np

from .errors import CapabilityError, InputError
from .hypercore import Hypergraph, is_connected_on, neighbors, non_isolated_vertices
from .randmodels import SeededRng

__all__ = [
    "ExpansionReport",
    "SampledCheck",
    "GreedyProbeResult",
    "is_non_expanding",
    "u_exact",
    "u_sampled_check",
    "minimal_nonexpanding_connected",
    "greedy_probe",
    "pab_bound_exact",
    "pab_bound_simple",
    "U_EXACT_MAX_V1",
]

U_EXACT_MAX_V1 = 22


def is_non_expanding(H: Hypergraph, A: Iterable[int]) -> bool:
    """|N(A)| < 2|A| with N the external neighborhood. The empty set is
    expanding by convention (0 < 0 fails)."""
    A = frozenset(A)
    for v in A:
        if not (0 <= v < H.n):
            raise InputError(f"vertex {v} out of range [0, {H.n})")
    return len(neighbors(H, A)) < 2 * len(A)


@dataclass(frozen=True)
class ExpansionReport:
    """u and its witness: u is the size of the smallest non-expanding subset
    of the non-isolated vertices (|V1| + 1 when none exists, which happens
    exactly when V1 is empty); witness is the first such set of size u in
    `itertools.combinations` order over the sorted V1."""

    u: int
    witness: frozenset[int] | None
    v1_size: int


def _size_cap(v1_size: int) -> int:
    # any A of size floor(|V1|/3) + 1 inside V1 is already non-expanding,
    # so no larger size ever needs to be enumerated
    return v1_size // 3 + 1


def u_exact(H: Hypergraph) -> ExpansionReport:
    """Exhaustive u(H): smallest non-expanding A ⊆ V1(H) by ascending size
    and `combinations` order within each size, each size scanned by
    `_first_hit`. Requires |V1| <= U_EXACT_MAX_V1 (22); larger inputs raise
    CapabilityError (use u_sampled_check there).

    Equivalently, u(H) is the largest u such that every nonempty A ⊆ V1 with
    |A| < u expands. Adding edges to a connected hypergraph cannot decrease
    it. Enumeration stops at size floor(|V1|/3) + 1, beyond which sets are
    unconditionally non-expanding.
    """
    v1 = non_isolated_vertices(H)
    if not v1:
        return ExpansionReport(u=1, witness=None, v1_size=0)
    if len(v1) > U_EXACT_MAX_V1:
        raise CapabilityError(
            f"|V1| = {len(v1)} exceeds the exhaustive bound {U_EXACT_MAX_V1}; "
            "use u_sampled_check for one-sided evidence"
        )
    words = _shadow_words(H)
    for s in range(1, _size_cap(len(v1)) + 1):
        _, hit = _first_hit(words, v1, s)
        if hit is not None:
            return ExpansionReport(u=s, witness=frozenset(hit), v1_size=len(v1))
    raise AssertionError("size cap violated: some set of the cap size must fail")


@dataclass(frozen=True)
class SampledCheck:
    """Outcome of a randomized counterexample hunt: ok means no non-expanding
    set below the target size was found — one-sided evidence, not a proof."""

    ok: bool
    counterexample: frozenset[int] | None
    samples_used: int


# random draws are checked for non-expansion this many at a time, which
# bounds the memory of one test whatever the number of samples
_SAMPLE_CHUNK = 256
# subsets scanned in order are checked this many at a time
_SCAN_CHUNK = 1 << 14


def _shadow_words(H: Hypergraph) -> np.ndarray:
    """The shadow's bitmasks as (n+1) x (n // 64 + 1) uint64 words: bit w of
    row v is set iff v ~ w. Row n is all zero and bit n exists, so vertex n
    serves as padding in index matrices."""
    width = 8 * (H.n // 64 + 1)
    buf = b"".join(m.to_bytes(width, "little") for m in H.shadow.adj_masks)
    return np.frombuffer(buf + bytes(width), dtype="<u8").reshape(H.n + 1, -1)


def _non_expanding(words: np.ndarray, idx: np.ndarray, sizes) -> np.ndarray:
    """Whether each row A of idx (vertex ids, padded with vertex n, whose
    row is empty) is non-expanding: |N(A)| < 2|A|, where |N(A)| is the
    popcount of the union of the members' rows less the members that lie in
    that union."""
    nbr = np.bitwise_or.reduce(words[idx], axis=1)
    inside = np.take_along_axis(nbr, idx >> 6, axis=1) >> (idx & 63).astype(np.uint64)
    size = np.bitwise_count(nbr).sum(axis=1, dtype=np.int64)
    size -= (inside & np.uint64(1)).sum(axis=1, dtype=np.int64)
    return size < 2 * np.asarray(sizes)


def _first_hit(words: np.ndarray, pool, s: int) -> tuple[int, tuple[int, ...] | None]:
    """Scan the s-subsets of `pool` (ascending vertex ids) in `combinations`
    order; return (subsets scanned, first non-expanding subset or None).
    N(A) holds N(u) less the other members for each u in A, so a member of
    a non-expanding s-set has deg u - (s - 1) < 2s: only the subsets of the
    pool vertices of shadow degree below 3s - 1 are checked, and a hit's
    1-based rank in the full order, C(k, s) - sum_i C(k - 1 - c_i, s - i)
    for pool positions c_0 < ... < c_{s-1}, gives the subsets scanned."""
    pool = np.asarray(pool, dtype=np.int64)
    k = pool.size
    deg = np.bitwise_count(words[pool]).sum(axis=1)
    combos = combinations(np.flatnonzero(deg < 3 * s - 1).tolist(), s)
    while True:
        flat = chain.from_iterable(islice(combos, _SCAN_CHUNK))
        pos = np.fromiter(flat, dtype=np.int64).reshape(-1, s)
        if pos.size == 0:
            return math.comb(k, s), None
        hits = np.flatnonzero(_non_expanding(words, pool[pos], s))
        if hits.size:
            c = pos[hits[0]].tolist()
            after = sum(math.comb(k - 1 - ci, s - i) for i, ci in enumerate(c))
            return math.comb(k, s) - after, tuple(pool[c].tolist())


def u_sampled_check(
    H: Hypergraph,
    u_target: int,
    samples: int,
    rng: SeededRng | None = None,
    include_isolated: bool = False,
) -> SampledCheck:
    """Hunt for a non-expanding A with 1 <= |A| < u_target.

    Candidate pool is V1(H) unless include_isolated, in which case any vertex
    may participate (an isolated vertex alone is trivially non-expanding).
    Strategy, over the sorted pool:

    - Sizes 1 then 2 (when below u_target) are scanned exhaustively in
      `itertools.combinations` order by `_first_hit`, stopping at the first
      non-expanding set; a size is skipped when it has more than 50,000
      subsets, so pairs are skipped for pools of more than 316 vertices.
      Only subsets of vertices of shadow degree below 3s - 1 can fail
      (deg < 2 for singletons, deg <= 4 for pairs), so only those are checked.
    - Then `samples` random subsets: each draws its size uniformly from
      [1, min(u_target - 1, |pool|)] and its members without replacement.
    - A random hit is greedily shrunk to a (locally) minimal counterexample:
      repeatedly drop the first vertex, in a fresh random order, whose
      removal leaves the set non-expanding.

    samples_used counts every subset checked, exhaustive ones included. A
    pass is one-sided evidence only.
    """
    if u_target < 0:
        raise InputError(f"u_target must be >= 0, got {u_target}")
    if samples < 0:
        raise InputError(f"samples must be >= 0, got {samples}")
    pool = np.array(range(H.n) if include_isolated else non_isolated_vertices(H), dtype=np.int64)
    if u_target <= 1 or not pool.size:
        return SampledCheck(ok=True, counterexample=None, samples_used=0)
    k = pool.size
    words = _shadow_words(H)

    def found(A, used: int) -> SampledCheck:
        return SampledCheck(ok=False, counterexample=frozenset(A), samples_used=used)

    used = 0
    max_size = min(u_target - 1, k)
    for s in (1, 2):
        if s > max_size or math.comb(k, s) > 50_000:
            continue
        scanned, hit = _first_hit(words, pool, s)
        used += scanned
        if hit is not None:
            return found(hit, used)

    gen = (rng or SeededRng(0, 0)).generator()

    def draw() -> np.ndarray:
        s = int(gen.integers(1, max_size + 1))
        return pool[gen.choice(k, size=s, replace=False)]

    def shrink(A: list[int]) -> list[int]:
        changed = True
        while changed and len(A) > 1:
            changed = False
            for v in gen.permutation(A):
                trial = [w for w in A if w != v]
                if _non_expanding(words, np.array([trial]), len(trial))[0]:
                    A = trial
                    changed = True
                    break
        return A

    for start in range(0, samples, _SAMPLE_CHUNK):
        state = gen.bit_generator.state
        drawn = [draw() for _ in range(min(_SAMPLE_CHUNK, samples - start))]
        sizes = np.array([A.size for A in drawn])
        idx = np.full((len(drawn), max_size), H.n, dtype=np.int64)
        idx[np.arange(max_size) < sizes[:, None]] = np.concatenate(drawn)
        hits = np.flatnonzero(_non_expanding(words, idx, sizes))
        if hits.size:
            # replay the chunk up to the hit so shrink draws from the
            # generator state a one-at-a-time scan would have left
            gen.bit_generator.state = state
            for _ in range(int(hits[0]) + 1):
                A = draw()
            return found(shrink(A.tolist()), used + start + int(hits[0]) + 1)
    return SampledCheck(ok=True, counterexample=None, samples_used=used + samples)


def minimal_nonexpanding_connected(H: Hypergraph, A: Iterable[int]) -> bool:
    """Whether the sub-hypergraph induced on A together with N(A) is
    connected. For a minimal non-expanding A (no proper non-expanding
    subset — the caller's contract, checkable exhaustively only at small
    sizes) this must hold; exposed as a predicate so experiments can report
    violations instead of assuming them away."""
    A = frozenset(A)
    if not A:
        raise InputError("A must be nonempty")
    T = A | neighbors(H, A)
    return is_connected_on(H, T)


# --- greedy two-block edge probe ---------------------------------------------


@dataclass(frozen=True)
class GreedyProbeResult:
    """Monte Carlo record of the greedy covering walk. Successes count
    trials in which every B-vertex became adjacent to A using only edges
    inside the two blocks."""

    a: int
    b: int
    d: int
    p: float
    trials: int
    successes: int

    @property
    def phat(self) -> float:
        return self.successes / self.trials if self.trials else 0.0


def _mixed_candidates(a: int, b: int, d: int) -> list[tuple[int, ...]]:
    """All d-sets inside A ∪ B = [0, a+b) that touch both blocks, in
    lexicographic order. A = [0, a), B = [a, a+b): each is k vertices of A
    followed by d - k of B, for 1 <= k < d."""
    return sorted(
        x + y
        for k in range(1, d)
        for x in combinations(range(a), k)
        for y in combinations(range(a, a + b), d - k)
    )


def greedy_probe(
    a: int,
    b: int,
    d: int,
    p: float,
    trials: int,
    rng: SeededRng | None = None,
) -> GreedyProbeResult:
    """Monte Carlo of the greedy edge-finding walk on blocks A = [0, a) and
    B = [a, a+b).

    Per trial, every d-set inside A ∪ B is independently present with
    probability p (only sets meeting both blocks are materialized — sets
    inside a single block can neither be scanned nor create A-B adjacency,
    so the restriction does not change any reported quantity). The walk
    repeatedly takes the lowest-index B-vertex not yet adjacent to A and
    scans its candidates in lexicographic order, skipping those already
    scanned; the first present one is accepted and covers every B-vertex it
    contains. As the module docstring shows, the walk succeeds exactly when
    every B-vertex lies in some present candidate, so that covering event
    is what is counted, on presence drawn as `gen.random((k, ncand)) < p`
    for batches of k trials.
    """
    if a < 1 or b < 1:
        raise InputError(f"need a, b >= 1, got a={a}, b={b}")
    if d < 2:
        raise InputError(f"need d >= 2, got {d}")
    if a + b < d:
        raise InputError(f"need a + b >= d, got {a + b} < {d}")
    if not (0.0 <= p <= 1.0):
        raise InputError(f"p must lie in [0, 1], got {p}")
    if trials < 0:
        raise InputError(f"trials must be >= 0, got {trials}")
    cand = np.array(_mixed_candidates(a, b, d), dtype=np.int64)
    ncand = len(cand)
    where, col = np.nonzero(cand >= a)
    bvert = cand[where, col] - a
    # members[j]: the candidates containing B-vertex a + j
    members = [where[bvert == j] for j in range(b)]

    gen = (rng or SeededRng(0, 0)).generator()
    successes = 0
    batch = max(1, 4_000_000 // ncand)
    done = 0
    while done < trials:
        k = min(batch, trials - done)
        pres = gen.random((k, ncand)) < p
        ok = np.ones(k, dtype=bool)
        for arr in members:
            ok &= pres[:, arr].any(axis=1)
        successes += int(ok.sum())
        done += k
    return GreedyProbeResult(a=a, b=b, d=d, p=float(p), trials=trials, successes=successes)


def pab_bound_exact(a: int, b: int, d: int, q: float) -> float:
    """Closed-form bound (1 - q^(C(a+b-1,d-1) - C(b-1,d-1)))^ceil(b/(d-1))
    on the greedy covering probability, with q the per-set absence
    probability."""
    if a < 1 or b < 1:
        raise InputError(f"need a, b >= 1, got a={a}, b={b}")
    if d < 2:
        raise InputError(f"need d >= 2, got {d}")
    if a + b < d:
        raise InputError(f"need a + b >= d, got {a + b} < {d}")
    if not (0.0 <= q <= 1.0):
        raise InputError(f"q must lie in [0, 1], got {q}")
    exponent = math.comb(a + b - 1, d - 1) - math.comb(b - 1, d - 1)
    return (1.0 - q**exponent) ** (-(-b // (d - 1)))


def pab_bound_simple(a: int, b: int, d: int, p: float) -> float:
    """Product-form bound (2a * p^(1/(d-1)))^b. Valid only under the
    hypothesis a >= d, 1 <= b <= 2a, and 2a * p^(1/(d-1)) <= 1; inputs
    outside it are rejected rather than extrapolated."""
    if d < 2:
        raise InputError(f"need d >= 2, got {d}")
    if not (0.0 <= p <= 1.0):
        raise InputError(f"p must lie in [0, 1], got {p}")
    if a < d:
        raise InputError(f"hypothesis a >= d violated: a={a} < d={d}")
    if not (1 <= b <= 2 * a):
        raise InputError(f"hypothesis 1 <= b <= 2a violated: b={b}, a={a}")
    base = 2 * a * p ** (1.0 / (d - 1))
    if base > 1.0:
        raise InputError(
            f"hypothesis 2a * p^(1/(d-1)) <= 1 violated: value {base!r}"
        )
    return base**b
