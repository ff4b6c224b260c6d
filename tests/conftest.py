"""Shared fixtures and hypothesis strategies for the weakham test suite."""

from __future__ import annotations

from itertools import combinations

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from weakham import Hypergraph

# Deterministic, deadline-free profile: exact oracles near their size cutoffs
# can outlast hypothesis's default deadline, and the whole suite is meant to
# be reproducible.
settings.register_profile(
    "weakham",
    deadline=None,
    max_examples=60,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("weakham")


def complete_hypergraph(n: int, d: int) -> Hypergraph:
    return Hypergraph.from_edges(n, d, combinations(range(n), d))


def petersen() -> Hypergraph:
    """The Petersen graph (d=2, n=10): 3-regular and 3-connected, so no
    forced edge or cut vertex certifies that it has no Hamilton cycle."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Hypergraph.from_edges(10, 2, outer + spokes + inner)


@st.composite
def hypergraphs(draw, min_n=3, max_n=12, ds=(3, 4), min_edges=0, max_edges=None):
    """Random small Hypergraph: uniformity from `ds`, n in [min_n, max_n],
    a duplicate-free edge list drawn from the full d-set universe."""
    d = draw(st.sampled_from([x for x in ds if x <= max_n]))
    n = draw(st.integers(min_value=max(min_n, d), max_value=max_n))
    universe = list(combinations(range(n), d))
    cap = len(universe) if max_edges is None else min(max_edges, len(universe))
    edges = draw(
        st.lists(st.sampled_from(universe), unique=True, min_size=min_edges, max_size=cap)
    )
    return Hypergraph.from_edges(n, d, edges)


@st.composite
def vertex_subsets(draw, n: int):
    return frozenset(draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)))
