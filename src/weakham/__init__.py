"""weak-ham-lab: a random-hypergraph laboratory for weak Hamilton cycles.

A weak cycle alternates distinct vertices with hyperedges (repeats allowed)
such that consecutive vertices share their connecting edge; existence
questions therefore reduce to the shadow graph, which the whole package
exploits. The library samples the binomial and fixed-size random d-uniform
models, decides weak Hamiltonicity exactly on small instances and
heuristically via rotation-extension at scale, analyzes non-expanding vertex
sets and booster edges, and runs reproducible threshold experiments against
the limit law exp(-exp(-c)).
"""

from .errors import CapabilityError, InputError
from .expansion import (
    ExpansionReport,
    GreedyProbeResult,
    SampledCheck,
    greedy_probe,
    is_non_expanding,
    minimal_nonexpanding_connected,
    pab_bound_exact,
    pab_bound_simple,
    u_exact,
    u_sampled_check,
)
from .harness import (
    ExperimentConfig,
    Table,
    estimate_mindeg_probability,
    load_table,
    make_config,
    parse_config_text,
    read_table,
    run_experiment,
    wilson_interval,
)
from .hypercore import (
    Hypergraph,
    ShadowGraph,
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
    parse_hypergraph,
    shadow_graph,
)
from .oracle import (
    OracleVerdict,
    decide_weak_hamiltonian,
    exact_weak_hamiltonian,
    has_weak_cycle_of_length,
    weak_cycle_of_length,
)
from .plotting import emit_plot, render_threshold_svg
from .randmodels import (
    GnmParams,
    GnpParams,
    SeededRng,
    edge_process,
    limiting_probability,
    m_from_c,
    p_from_c,
    sample_gnm,
    sample_gnp,
    sampled_covered_vertices,
)
from .weakpaths import (
    PosaSet,
    SearchOutcome,
    ValidationResult,
    WeakCycle,
    WeakPath,
    booster_edges,
    booster_lower_bound,
    lift_cycle,
    lift_path,
    posa_set,
    rotate,
    rotation_extension_search,
    stalled_path,
    validate,
    weak_from_json,
    weak_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "InputError",
    "CapabilityError",
    # hypercore
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
    "format_hypergraph",
    "parse_hypergraph",
    "load_hypergraph",
    "dump_hypergraph",
    # random models
    "SeededRng",
    "GnpParams",
    "GnmParams",
    "p_from_c",
    "m_from_c",
    "limiting_probability",
    "sample_gnp",
    "sample_gnm",
    "sampled_covered_vertices",
    "edge_process",
    # weak paths and cycles
    "WeakPath",
    "WeakCycle",
    "ValidationResult",
    "PosaSet",
    "SearchOutcome",
    "validate",
    "rotate",
    "posa_set",
    "booster_edges",
    "booster_lower_bound",
    "rotation_extension_search",
    "stalled_path",
    "lift_path",
    "lift_cycle",
    "weak_to_json",
    "weak_from_json",
    # oracle
    "OracleVerdict",
    "decide_weak_hamiltonian",
    "exact_weak_hamiltonian",
    "has_weak_cycle_of_length",
    "weak_cycle_of_length",
    # expansion
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
    # harness
    "ExperimentConfig",
    "Table",
    "parse_config_text",
    "make_config",
    "wilson_interval",
    "run_experiment",
    "estimate_mindeg_probability",
    "read_table",
    "load_table",
    # plotting
    "emit_plot",
    "render_threshold_svg",
]
