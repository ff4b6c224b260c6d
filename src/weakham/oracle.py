"""Exact oracles for weak Hamiltonicity and related small-instance questions.

Two deliberately independent decision procedures are provided:

* "dp": Held–Karp style subset dynamic programming on the shadow graph
  (u ~ v iff some hyperedge contains both). Correct because a weak Hamilton
  cycle exists iff the shadow graph has a Hamilton cycle — weak objects may
  repeat hyperedges, so any shadow cycle lifts by choosing, for each
  consecutive pair, any covering hyperedge.

* "backtracking-direct": depth-first search over hyperedge incidence lists
  with memoized dead states, never consulting the shadow reduction. Witness
  edges are the hyperedges actually walked.

Agreement of the two on random instances is one of the package's acceptance
checks. Every "yes" carries a validated witness; notes explain fast "no"s.
decide_weak_hamiltonian puts the rotation search in front of the dp oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from . import _bitdp
from .errors import CapabilityError, InputError
from .hypercore import Hypergraph, _reach, isolated_vertices
from .randmodels import SeededRng
from .weakpaths import (SearchOutcome, WeakCycle, _check_witness, lift_cycle,
                        rotation_extension_search, weak_to_json)

__all__ = [
    "OracleVerdict",
    "decide_weak_hamiltonian",
    "exact_weak_hamiltonian",
    "has_weak_cycle_of_length",
    "weak_cycle_of_length",
]

DP_MAX_VERTICES = 20
DIRECT_MAX_VERTICES = 16


@dataclass(frozen=True)
class OracleVerdict:
    """Answer with provenance: answer in {"yes", "no"} ("unknown" too from
    decide_weak_hamiltonian), a validated witness cycle for "yes", the deciding
    method ("dp", "backtracking-direct" or "search"), a reason note, and the
    search outcome (rotations, restarts, exhausted) whenever the search ran."""

    answer: str
    witness: WeakCycle | None
    method: str
    note: str | None = None
    search: SearchOutcome | None = None

    @property
    def yes(self) -> bool:
        return self.answer == "yes"

    def to_json(self) -> str:
        doc = {
            "answer": self.answer,
            "method": self.method,
            "note": self.note,
            "witness": json.loads(weak_to_json(self.witness)) if self.witness else None,
        }
        return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _backtrack(dp, masks: list[int], S: int, v: int) -> list[int]:
    """The path that dp records with vertex set S ending at v, from its start
    to v. Each step back takes the lowest endpoint adjacent to v."""
    seq = [v]
    S ^= 1 << v
    while S:
        cand = int(dp[S]) & masks[v]
        if not cand:
            raise AssertionError("dp backtrack lost its trail")
        v = _lowest_bit(cand)
        seq.append(v)
        S ^= 1 << v
    return seq[::-1]


def _dp_cycle(adj_masks, n: int, ell: int) -> list[int] | None:
    """A cycle through exactly ell vertices of a graph given as bitmask
    adjacency, as a vertex list starting at its smallest vertex, or None.
    Anchors on each possible smallest vertex a in turn and runs the subset
    DP from a over the vertices >= a, up to popcount ell; at ell == n that is
    one Hamilton-cycle DP from vertex 0. Requires 3 <= ell."""
    for a in range(n - ell + 1):
        k = n - a
        sub = [(adj_masks[a + i] >> a) for i in range(k)]
        dp = _bitdp.endpoints(sub, k, ell)
        T = _bitdp.layer(k, ell)
        found = T[(dp[T] & sub[0]) != 0]
        if found.size:
            S = int(found[0])
            path = _backtrack(dp, sub, S, _lowest_bit(int(dp[S]) & sub[0]))
            return [a + w for w in path]
    return None


def _direct_hamilton(H: Hypergraph) -> WeakCycle | None:
    """Backtracking search for a weak Hamilton cycle over hyperedge incidence
    lists, memoizing (visited-set, last-vertex) states that cannot finish.
    Returns the walked witness or None. Requires n >= 3 and no isolated
    vertices (callers pre-check)."""
    n = H.n
    full = (1 << n) - 1
    inc: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for e in map(tuple, H.rows.tolist()):
        for v in e:
            inc[v].append(e)
    dead: set[tuple[int, int]] = set()
    verts = [0]
    used: list[tuple[int, ...]] = []

    def go(mask: int, last: int) -> bool:
        if mask == full:
            for e in inc[last]:
                if 0 in e:
                    used.append(e)
                    return True
            return False
        if (mask, last) in dead:
            return False
        tried = 0
        for e in inc[last]:
            for w in e:
                bit = 1 << w
                if mask & bit or tried & bit:
                    continue
                tried |= bit
                verts.append(w)
                used.append(e)
                if go(mask | bit, w):
                    return True
                verts.pop()
                used.pop()
        dead.add((mask, last))
        return False

    if not go(1, 0):
        return None
    return WeakCycle(tuple(verts), tuple(used))


def _trivial_no(H: Hypergraph) -> str | None:
    """Why H certainly has no weak Hamilton cycle, read off its size and
    degrees (n < 3, or an isolated vertex), or None."""
    if H.n < 3:
        return f"n = {H.n} < 3"
    iso = isolated_vertices(H)
    if iso:
        return f"vertex {min(iso)} is isolated"
    return None


def exact_weak_hamiltonian(H: Hypergraph, method: str = "dp") -> OracleVerdict:
    """Decide whether H has a weak Hamilton cycle (all n vertices).

    method "dp" handles n <= 20; "backtracking-direct" handles n <= 16 and is
    algorithmically independent of the shadow reduction. Larger inputs raise
    CapabilityError. Trivial negatives (n < 3, an isolated vertex, a
    disconnected vertex set) are certified without search.
    """
    if method not in ("dp", "backtracking-direct"):
        raise InputError(f"unknown oracle method {method!r}")
    note = _trivial_no(H)
    if note is None and _reach(H.shadow.adj_masks, 1) != (1 << H.n) - 1:
        note = "vertex set is disconnected"
    if note is not None:
        return OracleVerdict("no", None, method, note=note)
    if method == "dp":
        if H.n > DP_MAX_VERTICES:
            raise CapabilityError(
                f"dp oracle handles n <= {DP_MAX_VERTICES}, got n = {H.n}"
            )
        cyc = _dp_cycle(H.shadow.adj_masks, H.n, H.n)
        if cyc is None:
            return OracleVerdict("no", None, "dp")
        witness = lift_cycle(H, cyc)
    else:
        if H.n > DIRECT_MAX_VERTICES:
            raise CapabilityError(
                f"direct oracle handles n <= {DIRECT_MAX_VERTICES}, got n = {H.n}"
            )
        witness = _direct_hamilton(H)
        if witness is None:
            return OracleVerdict("no", None, "backtracking-direct")
    return OracleVerdict("yes", _check_witness(witness, H, H.n), method)


def decide_weak_hamiltonian(
    H: Hypergraph, budget: int | None = None, rng: SeededRng | None = None,
    oracle_cutoff: int = 0,
) -> OracleVerdict:
    """Decide whether H has a weak Hamilton cycle at any size: n < 3 or an
    isolated vertex gives the dp oracle's certified "no"; else
    rotation_extension_search(H, budget, rng) gives "yes" with its validated
    witness or a certified "no" (its `impossible` reason); else the dp oracle
    decides when n <= oracle_cutoff; else "unknown". A search failure is
    never a "no", so up to the cutoff the answer is the exact oracle's."""
    note = _trivial_no(H)
    if note is not None:
        return OracleVerdict("no", None, "dp", note=note)
    outcome = rotation_extension_search(H, budget=budget, rng=rng)
    if outcome.complete:
        return OracleVerdict("yes", outcome.cycle, "search", search=outcome)
    if outcome.impossible is not None:
        return OracleVerdict("no", None, "search", note=outcome.impossible, search=outcome)
    if H.n <= oracle_cutoff:
        return replace(exact_weak_hamiltonian(H, method="dp"), search=outcome)
    return OracleVerdict("unknown", None, "search",
                         note="search gave up without a certificate", search=outcome)


def weak_cycle_of_length(H: Hypergraph, ell: int) -> WeakCycle | None:
    """A weak cycle through exactly ell distinct vertices, or None. Anchors
    the search on each possible minimum cycle vertex; n <= 20."""
    if ell < 3:
        raise InputError(f"weak cycles have length >= 3, got {ell}")
    if H.n > DP_MAX_VERTICES:
        raise CapabilityError(
            f"cycle-length probe handles n <= {DP_MAX_VERTICES}, got n = {H.n}"
        )
    cyc = _dp_cycle(H.shadow.adj_masks, H.n, ell)
    if cyc is None:
        return None
    return _check_witness(lift_cycle(H, cyc), H, ell)


def has_weak_cycle_of_length(H: Hypergraph, ell: int) -> bool:
    """Whether some weak cycle visits exactly ell distinct vertices."""
    return weak_cycle_of_length(H, ell) is not None
