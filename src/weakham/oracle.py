"""The exact oracle for weak Hamiltonicity, and the experiments' verdict policy:

* "dp": Held–Karp style subset dynamic programming on the shadow graph
  (u ~ v iff some hyperedge contains both). Correct because a weak Hamilton
  cycle exists iff the shadow graph has a Hamilton cycle — weak objects may
  repeat hyperedges, so any shadow cycle lifts by choosing, for each
  consecutive pair, any covering hyperedge.

Every "yes" carries a validated witness; notes explain fast "no"s.
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
]

DP_MAX_VERTICES = 20


@dataclass(frozen=True)
class OracleVerdict:
    """Answer with provenance: answer in {"yes", "no"} ("unknown" too from
    decide_weak_hamiltonian), a validated witness cycle for "yes", the deciding
    method ("dp" or "search"), a reason note, and the search outcome
    (rotations, restarts, exhausted) whenever the search ran."""

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


def _dp_cycle(adj_masks, n: int) -> list[int] | None:
    """A Hamilton cycle of a graph given as bitmask adjacency, as a vertex
    list from vertex 0, or None: one subset DP of the paths from vertex 0."""
    dp = _bitdp.endpoints(adj_masks, n)
    full = (1 << n) - 1
    ends = int(dp[full]) & adj_masks[0]
    if not ends:
        return None
    return _backtrack(dp, adj_masks, full, _lowest_bit(ends))


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

    method "dp", the only one, handles n <= 20; larger inputs raise
    CapabilityError. Trivial negatives (n < 3, an isolated vertex, a
    disconnected vertex set) are certified without search.
    """
    # kept as a keyword because bench/rebuild.py passes method="dp"
    if method != "dp":
        raise InputError(f"unknown oracle method {method!r}")
    note = _trivial_no(H)
    if note is None and _reach(H.shadow.adj_masks, 1) != (1 << H.n) - 1:
        note = "vertex set is disconnected"
    if note is not None:
        return OracleVerdict("no", None, method, note=note)
    if H.n > DP_MAX_VERTICES:
        raise CapabilityError(f"dp oracle handles n <= {DP_MAX_VERTICES}, got n = {H.n}")
    cyc = _dp_cycle(H.shadow.adj_masks, H.n)
    if cyc is None:
        return OracleVerdict("no", None, "dp")
    witness = lift_cycle(H, cyc)
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
        return replace(exact_weak_hamiltonian(H), search=outcome)
    return OracleVerdict("unknown", None, "search",
                         note="search gave up without a certificate", search=outcome)
