"""Non-expanding-set analytics and the two-block greedy edge-finding probe.

A vertex set A is non-expanding when its external neighborhood is small:
|N(A)| < 2|A|. The quantity u(H) — the size of the smallest non-expanding
set of non-isolated vertices, or |V1|+1 when none exists — bounds how many
absent d-sets would close a longest path into a weak cycle, so the module pairs
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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Iterable

import numpy as np

from .errors import CapabilityError, InputError
from .hypercore import (
    Hypergraph,
    _shadow_words,
    is_connected_on,
    neighbors,
    non_isolated_vertices,
)
from .randmodels import SeededRng, _bounded, _uint32_words

__all__ = [
    "ExpansionReport",
    "SampledCheck",
    "u_exact",
    "u_sampled_check",
    "minimal_nonexpanding_connected",
    "greedy_probe",
    "pab_bound_exact",
    "pab_bound_simple",
]

U_EXACT_MAX_V1 = 22


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


# random draws are replayed and checked for non-expansion at most this many
# at a time, and fewer when their rows would pass _CHUNK_BYTES: the member
# rows of the shadow words plus _REPLAY_WORDS uint64 words of replay scratch
# (word stream, draw matrices, the tail shuffle's position map) per member
_SAMPLE_CHUNK = 256
_CHUNK_BYTES = 1 << 24
_REPLAY_WORDS = 96
# subsets scanned in order are checked this many at a time
_SCAN_CHUNK = 1 << 14
# numpy's choice without replacement shuffles the tail of arange(k) instead
# of running Floyd's algorithm when k > _TAIL_POOL and s > k // _TAIL_SHARE
_TAIL_POOL = 10_000
_TAIL_SHARE = 50


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


def _floyd_draws(words, st, s, k: int, max_size: int):
    """numpy's Floyd branch of `choice(k, s, replace=False)` for rounds whose
    words start at st: step t draws v in [0, j], j = k - s + t (no word for
    j = 0), and keeps v unless it was drawn before, else j; then
    `_shuffle_int` swaps position i with a draw in [0, i], i = s - 1 .. 1.
    Works step-major (max_size x rounds), so each step is a contiguous row.
    Returns (members padded with k, positions of rejected words)."""
    m = s.size
    t = np.arange(max_size)[:, None]
    rounds = np.arange(m)
    live = t < s
    j = k - s + t
    full = s == k  # its j = 0 step takes no word
    pos = np.where(live, st + t - full, 0)
    v, rej = _bounded(words[pos], np.where(live, j + 1, 1).astype(np.uint64))
    v = v.astype(np.int64)
    # v is already in the set when it repeats an earlier step's v (kept
    # then, or present already) or equals the j an earlier step kept in
    # place of a repeat; repeats come from one stable sort, so the work is
    # rounds x s log s, not s^2
    order = np.argsort(v, axis=0, kind="stable")
    sv = v[order, rounds]
    dup = np.zeros((max_size, m), dtype=bool)
    dup[order[1:], rounds] = sv[1:] == sv[:-1]
    step = v - (k - s)
    by_j = (step >= 0) & (step < t)
    at = np.where(by_j, step, 0) * m + rounds
    flat = dup.reshape(-1)
    for c in range(1, max_size):
        dup[c] |= by_j[c] & flat[at[c]]
    out = np.where(live, np.where(dup, j, v), k)

    live &= t >= 1
    pos2 = np.where(live, st + 2 * s - full - 1 - t, 0)
    swap, rej2 = _bounded(words[pos2], np.where(live, t + 1, 1).astype(np.uint64))
    to = np.where(live, swap.astype(np.int64), t) * m + rounds
    flat = out.reshape(-1)
    for i in range(max_size - 1, 0, -1):
        held = flat[to[i]]
        flat[to[i]] = out[i]
        out[i] = held
    return out.T, np.concatenate([pos[rej], pos2[rej2]])


def _tail_draws(words, st, s, k: int, max_size: int):
    """numpy's tail branch of `choice(k, s, replace=False)` for rounds whose
    words start at st: `_shuffle_int` over arange(k) swaps position i with a
    draw in [0, i] for i = k - 1 .. max(k - s, 1), and the last s positions
    are the members. The rounds x k position map is linear in rounds x s,
    since this branch runs only for s > k // _TAIL_SHARE. Step-major, as
    `_floyd_draws`, with the same return."""
    m = s.size
    t = np.arange(max_size)[:, None]
    rounds = np.arange(m)
    live = t < np.minimum(s, k - 1)
    pos = np.where(live, st + t, 0)
    swap, rej = _bounded(words[pos], np.where(live, k - t, 1).astype(np.uint64))
    swap = np.where(live, swap.astype(np.int64), k - 1 - t)
    perm = np.tile(np.arange(k, dtype=np.int64), (m, 1))
    for c in range(max_size):
        i = k - 1 - c
        held = perm[rounds, swap[c]]
        perm[rounds, swap[c]] = perm[:, i]
        perm[:, i] = held
    out = np.where(t < s, perm[rounds, np.minimum(k - s + t, k - 1)], k)
    return out.T, pos[rej]


def _replay_draws(gen: np.random.Generator, k: int, max_size: int, count: int):
    """`count` rounds of `s = gen.integers(1, max_size + 1)` then
    `gen.choice(k, s, replace=False)`, computed from one block of raw PCG64
    words instead of 2 * count Generator calls.

    numpy takes every draw of a round from PCG64's `next_uint32` stream
    (`randmodels._uint32_words`), a pending half first. The size is one
    Lemire draw (`randmodels._bounded`; none when max_size is 1), then come
    the choice's draws (`_floyd_draws`, `_tail_draws`). A size draw at every
    word gives the words each round would take from there, and a loop over
    the rounds follows the chain of their starts. A word that a Lemire draw
    rejects is deleted from the stream, and the rounds are recomputed from
    the one that drew it.

    Returns (members, sizes, seek): row i of members (count x max_size)
    holds round i's draws in numpy's order, padded with k, and seek(i)
    leaves gen exactly as numpy leaves it after round i. Needs a PCG64
    generator and k < 2**32.
    """
    bg = gen.bit_generator
    saved = bg.state
    half = saved["has_uint32"]
    off = int(max_size > 1)
    # enough words for every round when none is rejected, and the next start
    need = count * (off + 2 * max_size - 1) + 1
    raw = np.empty(0, dtype=np.uint64)
    words = np.full(half, saved["uinteger"], dtype=np.uint64)
    gone: list[int] = []  # stream positions of rejected words, ascending
    starts = [0] * (count + 1)
    sizes = np.empty(count, dtype=np.int64)
    members = np.empty((count, max_size), dtype=np.int64)
    first = 0
    while True:
        if words.size < need:
            block = bg.random_raw((need - words.size + 1) // 2)
            raw = np.concatenate([raw, block])
            words = np.concatenate([words, _uint32_words(block).astype(np.uint64)])
        size_at, size_rej = _bounded(words, max_size)
        size_at = size_at.astype(np.int64) + 1
        tail = (k > _TAIL_POOL) & (size_at > k // _TAIL_SHARE)
        span = off + np.where(
            tail, np.minimum(size_at, k - 1), 2 * size_at - 1 - (size_at == k)
        )
        span = span.tolist()
        p = starts[first]
        for i in range(first, count):
            starts[i] = p
            p += span[p]
        starts[count] = p
        st = np.array(starts[first:count], dtype=np.int64)
        s = size_at[st]
        sizes[first:] = s
        rejected = [st[size_rej[st]]]
        for draws, pick in ((_floyd_draws, ~tail[st]), (_tail_draws, tail[st])):
            at = np.flatnonzero(pick)
            if at.size:
                out, rej = draws(words, st[at] + off, s[at], k, max_size)
                members[first + at] = out
                rejected.append(rej)
        bad = min((int(r.min()) for r in rejected if r.size), default=None)
        if bad is None:
            break
        first = bisect_right(starts, bad, 0, count) - 1
        words = np.delete(words, bad)
        gone.append(bad)

    def seek(i: int) -> None:
        q = starts[i]
        used = q + bisect_left(gone, q) - half  # halves taken from raw outputs
        bg.state = saved
        if used >= 0:
            r = (used + 1) // 2
            bg.advance(r)
            state = bg.state
            # numpy leaves the stale high half in uinteger when none is pending
            state["has_uint32"] = used & 1
            state["uinteger"] = int(raw[r - 1] >> 32) if r else saved["uinteger"]
            bg.state = state

    return members, sizes, seek


def u_sampled_check(
    H: Hypergraph,
    u_target: int,
    samples: int,
    rng: SeededRng | None = None,
) -> SampledCheck:
    """Hunt for a non-expanding A with 1 <= |A| < u_target.

    Candidate pool is V1(H). Strategy, over the sorted pool:

    - Sizes 1 then 2 (when below u_target) are scanned exhaustively in
      `itertools.combinations` order by `_first_hit`, stopping at the first
      non-expanding set; a size is skipped when it has more than 50,000
      subsets, so pairs are skipped for pools of more than 316 vertices.
      Only subsets of vertices of shadow degree below 3s - 1 can fail
      (deg < 2 for singletons, deg <= 4 for pairs), so only those are checked.
    - Then `samples` random subsets: each draws its size uniformly from
      [1, min(u_target - 1, |pool|)] and its members without replacement,
      as `gen.integers(1, max_size + 1)` then `gen.choice(|pool|, s,
      replace=False)` would, one subset after another. `_replay_draws`
      computes these draws a chunk at a time from raw PCG64 words, with the
      same bytes; a chunk holds at most 256 subsets and about _CHUNK_BYTES
      (16 MiB) of replay scratch and gathered shadow words, so memory does
      not grow with n^2 as the target grows with n.
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
    pool = np.array(non_isolated_vertices(H), dtype=np.int64)
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

    padded = np.append(pool, H.n)  # member k of a replayed round is padding
    slot_bytes = 8 * max_size * (words.shape[1] + _REPLAY_WORDS)
    rows = max(1, min(_SAMPLE_CHUNK, _CHUNK_BYTES // slot_bytes))
    for start in range(0, samples, rows):
        count = min(rows, samples - start)
        members, sizes, seek = _replay_draws(gen, k, max_size, count)
        hits = np.flatnonzero(_non_expanding(words, padded[members], sizes))
        if hits.size:
            h = int(hits[0])
            # leave the generator where a one-at-a-time scan would have
            # stopped, so shrink draws the same permutations
            seek(h + 1)
            A = padded[members[h, : sizes[h]]].tolist()
            return found(shrink(A), used + start + h + 1)
        seek(count)
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


_PROBE_ENUM_LIMIT = 2_000_000


def _probe_candidates(a: int, b: int, d: int) -> int:
    """The number of mixed d-sets of blocks of sizes a and b, which never
    decreases as b grows. Raises CapabilityError above _PROBE_ENUM_LIMIT."""
    ncand = math.comb(a + b, d) - math.comb(a, d) - math.comb(b, d)
    if ncand > _PROBE_ENUM_LIMIT:
        raise CapabilityError(
            f"greedy probe over {ncand} mixed {d}-sets of a={a}, b={b} exceeds "
            f"the in-memory enumeration limit {_PROBE_ENUM_LIMIT}"
        )
    return ncand


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
) -> int:
    """Monte Carlo of the greedy edge-finding walk on blocks A = [0, a) and
    B = [a, a+b): the number of the `trials` in which every B-vertex became
    adjacent to A using only edges inside the two blocks.

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
    for batches of k trials. Raises CapabilityError, before enumerating,
    above _PROBE_ENUM_LIMIT candidates.
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
    ncand = _probe_candidates(a, b, d)
    cand = np.array(_mixed_candidates(a, b, d), dtype=np.int64)
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
    return successes


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
