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

from .errors import CapabilityError, InputError, ScheduleInfeasibleError
from .hypercore import Hypergraph

__all__ = [
    "GnpParams",
    "GnmParams",
    "SeededRng",
    "SprinkleSchedule",
    "p_from_c",
    "m_from_c",
    "limiting_probability",
    "sample_gnp",
    "sample_gnm",
    "union_overlay",
    "edge_process",
    "default_sprinkle_constant",
    "max_sprinkle_constant",
    "sprinkle_schedule",
]


@dataclass(frozen=True)
class SeededRng:
    """Counter-based splittable seed: (master_seed, stream) fully determines
    the generator. Trial t of an experiment uses stream = base + t; no
    sequential RNG state is ever shared across trials."""

    master_seed: int
    stream: int = 0

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

    @property
    def q(self) -> float:
        return 1.0 - self.p


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


def p_from_c(n: int, d: int, c: float) -> float:
    """Edge probability at offset c: (d-1)!*(ln n + c)/n^(d-1), clamped to [0,1].

    Clamping (very negative c, or tiny n pushing the value above 1) emits a
    UserWarning rather than failing: sweeps over wide c-grids are expected.
    """
    if n < 2:
        raise InputError(f"n must be >= 2, got {n}")
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
    if n < 2:
        raise InputError(f"n must be >= 2, got {n}")
    raw = n * (math.log(n) + c) / d
    m = round(raw)
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


def _pack_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Injective int64 code for sorted rows (radix-n digits)."""
    code = rows[:, 0].astype(np.int64).copy()
    for j in range(1, rows.shape[1]):
        code *= n
        code += rows[:, j]
    return code


def _sample_distinct_rows(n: int, d: int, k: int, gen: np.random.Generator) -> np.ndarray:
    """k distinct d-sets, uniform without replacement, as a (k, d) array in
    draw order. Dense regime enumerates and index-samples; sparse regime
    rejection-samples sorted rows and dedups by first occurrence (which is
    exactly sequential without-replacement sampling). Raises CapabilityError
    when the dense regime would enumerate more than _ENUM_LIMIT d-sets, or
    the sparse regime's int64 row codes would overflow."""
    total = math.comb(n, d)
    if k < 0 or k > total:
        raise InputError(f"cannot draw {k} distinct d-sets from {total}")
    if k == 0:
        return np.empty((0, d), dtype=np.int64)
    if total <= _DENSE_ENUM_LIMIT or 2 * k >= total:
        allsets = _all_dsets(n, d)
        idx = gen.choice(total, size=k, replace=False)
        return allsets[idx]
    if n**d >= 2**62:
        raise CapabilityError(f"n={n}, d={d} too large for packed sampling")
    parts: list[np.ndarray] = []
    batch = int(1.25 * k) + 32
    while True:
        rows = gen.integers(0, n, size=(batch, d))
        rows.sort(axis=1)
        ok = np.all(rows[:, 1:] > rows[:, :-1], axis=1)
        parts.append(rows[ok])
        allrows = parts[0] if len(parts) == 1 else np.concatenate(parts)
        codes = _pack_rows(allrows, n)
        _, first = np.unique(codes, return_index=True)
        if first.size >= k:
            keep = np.sort(first)[:k]
            return allrows[keep]
        batch = max(256, 2 * (k - first.size))


# --- samplers -----------------------------------------------------------------


def _gnp_rows(params: GnpParams, rng: SeededRng) -> np.ndarray:
    """The edge rows of one G(n,p) draw: a binomial edge count (drawn only
    when 0 < p < 1 and some d-set exists), then that many distinct rows."""
    gen = rng.generator()
    total = math.comb(params.n, params.d)
    if params.p == 0.0 or total == 0:
        k = 0
    elif params.p == 1.0:
        k = total
    else:
        k = int(gen.binomial(total, params.p))
    return _sample_distinct_rows(params.n, params.d, k, gen)


def sample_gnp(params: GnpParams, rng: SeededRng) -> Hypergraph:
    """One draw of G(n,p): binomial edge count, then that many distinct edges."""
    return Hypergraph._from_rows(params.n, params.d, _gnp_rows(params, rng))


def sample_gnm(params: GnmParams, rng: SeededRng) -> Hypergraph:
    """One draw of G(n,m): exactly m distinct edges, uniform."""
    gen = rng.generator()
    rows = _sample_distinct_rows(params.n, params.d, params.m, gen)
    return Hypergraph._from_rows(params.n, params.d, rows)


def sampled_covered_vertices(params: GnpParams, rng: SeededRng) -> np.ndarray:
    """Boolean coverage mask of a fresh G(n,p) draw without materializing the
    Hypergraph. Same distribution as sample_gnp (same sampling core); used by
    the harness for fast min-degree-only trials."""
    covered = np.zeros(params.n, dtype=bool)
    covered[_gnp_rows(params, rng).ravel()] = True
    return covered


def union_overlay(H1: Hypergraph, H2: Hypergraph) -> Hypergraph:
    """Edge-set union of two hypergraphs on the same (n, d).

    For independent G(n,p_a) and G(n,p_b) the overlay is distributed as
    G(n, 1-(1-p_a)(1-p_b)) — the sprinkling primitive.
    """
    if H1.n != H2.n or H1.d != H2.d:
        raise InputError(
            f"overlay mismatch: ({H1.n},{H1.d}) vs ({H2.n},{H2.d})"
        )
    merged = sorted(set(H1.edges) | set(H2.edges))
    return Hypergraph(n=H1.n, d=H1.d, edges=tuple(merged))


def _process_rows(n: int, d: int, rng: SeededRng) -> np.ndarray:
    """The edge process as a (C(n,d), d) int64 array: row i is the i-th
    edge of the stream."""
    gen = rng.generator()
    allsets = _all_dsets(n, d)
    return allsets[gen.permutation(len(allsets))]


def edge_process(n: int, d: int, rng: SeededRng) -> tuple[tuple[int, ...], ...]:
    """Uniformly random permutation of all C(n,d) potential edges.

    The length-m prefix is distributed as G(n,m); scanning the stream and
    recording hitting times is the edge-process experiment. Raises
    CapabilityError when C(n,d) is above the enumeration limit.
    """
    return tuple(map(tuple, _process_rows(n, d, rng).tolist()))


# --- sprinkling schedule -------------------------------------------------------


def max_sprinkle_constant(d: int) -> float:
    """Upper limit for the booster-density constant: (1-(1-1/D)^d)/(D*d!)
    with D = 3^d. Valid schedules must use C strictly below this."""
    D = 3**d
    return (1.0 - (1.0 - 1.0 / D) ** d) / (D * math.factorial(d))


def default_sprinkle_constant(d: int) -> float:
    """0.9 * max_sprinkle_constant(d): strictly inside the admissible range."""
    return 0.9 * max_sprinkle_constant(d)


@dataclass(frozen=True)
class SprinkleSchedule:
    """Two-stage edge-probability ladder for incremental sprinkling.

    Fields follow the construction: target p at offset c; a lower anchor
    p1 = p - (ln n)^3/n^d; a base p0 = p1 - (2^(d+4)/C)*ln n/n^d; increment
    dp = (2/C)*ln n/n^d; k0 = ceil(2^(d+3)*n/ln n) steps from p0 and
    k1 = ceil(ln n) steps from p1.

    The feasibility chain p0 < p0 + k0*dp < p1 < p1 + k1*dp < p is *checked*,
    not assumed: with these literal formulas the first chain fails for every
    n (k0*dp exceeds p1-p0 by a factor n/ln n), so sprinkle_schedule() raises
    ScheduleInfeasibleError naming the failed inequality. build_unchecked()
    exposes the raw field values for inspection regardless.
    """

    n: int
    d: int
    c: float
    C: float
    p: float
    p1: float
    p0: float
    dp: float
    k0: int
    k1: int

    @staticmethod
    def build_unchecked(n: int, d: int, c: float, C: float | None = None) -> "SprinkleSchedule":
        if n < 2:
            raise InputError(f"n must be >= 2, got {n}")
        if d < 2:
            raise InputError(f"d must be >= 2, got {d}")
        if C is None:
            C = default_sprinkle_constant(d)
        if not (0.0 < C < max_sprinkle_constant(d)):
            raise InputError(
                f"C={C} outside (0, {max_sprinkle_constant(d)}) for d={d}"
            )
        ln = math.log(n)
        p = p_from_c(n, d, c)
        p1 = p - ln**3 / n**d
        p0 = p1 - (2 ** (d + 4) / C) * ln / n**d
        dp = (2.0 / C) * ln / n**d
        k0 = math.ceil(2 ** (d + 3) * n / ln)
        k1 = math.ceil(ln)
        return SprinkleSchedule(n=n, d=d, c=c, C=C, p=p, p1=p1, p0=p0, dp=dp, k0=k0, k1=k1)

    @property
    def p_prime(self) -> float:
        """Effective probability of the k0-fold overlay on top of p0:
        1-(1-p0)(1-dp)^k0. Union-bounded by p0 + k0*dp."""
        log_term = self.k0 * math.log1p(-self.dp)
        return 1.0 - (1.0 - self.p0) * math.exp(log_term)

    def check(self) -> None:
        """Raise ScheduleInfeasibleError naming the first failed condition."""
        for name, value in (
            ("p in (0,1)", self.p),
            ("p1 in (0,1)", self.p1),
            ("p0 in (0,1)", self.p0),
            ("dp in (0,1)", self.dp),
            ("p_prime in (0,1)", self.p_prime),
        ):
            if not (0.0 < value < 1.0):
                raise ScheduleInfeasibleError(name, f"value = {value}")
        if not (self.p0 + self.k0 * self.dp < self.p1):
            raise ScheduleInfeasibleError(
                "p0 + k0*dp < p1",
                f"p0 + k0*dp = {self.p0 + self.k0 * self.dp}, p1 = {self.p1}",
            )
        if not (self.p1 + self.k1 * self.dp < self.p):
            raise ScheduleInfeasibleError(
                "p1 + k1*dp < p",
                f"p1 + k1*dp = {self.p1 + self.k1 * self.dp}, p = {self.p}",
            )


def sprinkle_schedule(n: int, d: int, c: float, C: float | None = None) -> SprinkleSchedule:
    """Build and validate a sprinkling schedule.

    Note: with the literal step count k0 = ceil(2^(d+3)*n/ln n) and increment
    dp = (2/C)*ln n/n^d, the chain p0 + k0*dp < p1 requires n < ln n and so
    fails for every n >= 2; this function then raises ScheduleInfeasibleError
    naming that inequality. The checked construction is kept (rather than a
    silently "repaired" one) so the infeasibility is visible and tested.
    """
    sched = SprinkleSchedule.build_unchecked(n, d, c, C)
    sched.check()
    return sched
