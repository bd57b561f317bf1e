"""Tail bounds, exact pair combinatorics and Monte Carlo verification for
bounded random fields on exponentially growing trees."""

from .bounds import (
    BernsteinInput,
    BoundBreakdown,
    ConcentrationInput,
    ConcentrationSchedule,
    GridSpec,
    MixingEnvelope,
    asymptotic_fit,
    bernstein_bound,
    beta_cap,
    concentration_bound,
    concentration_schedule,
    optimize_params,
    summability_ratio,
    variance_proxy,
)
from .embed import (
    LatticeMap,
    breadth_first_row_layout,
    chebyshev,
    distortion_constant,
    lipschitz_check,
    mixing_transfer,
    packed_layout,
    parse_lattice_map,
    refutation_witness,
)
from .errors import AmplitudeError, CapacityError, InfeasibleGridError, ValidationError
from .fields import (
    FieldCertificate,
    FieldSpec,
    field_certificate,
    field_to_csv,
    field_values,
    node_sums,
    region_sums,
    sample_field,
)
from .paircount import (
    count_pairs_closed,
    count_pairs_enum,
    count_pairs_sum,
    growth_ratio,
    total_ordered_pairs,
)
from .tree import (
    DEFAULT_NODE_CAP,
    Generations,
    GraphSpec,
    NodeId,
    Region,
    ROOT,
    Strip,
    Subtree,
    ancestor,
    children,
    graph_distance,
    parent,
    parse_edge_list,
    region_arrays,
    region_node_count,
    region_nodes,
    tree_distance,
)
from .verify import (
    AlphaLowerBound,
    AlphaSamplePlan,
    DavydovResult,
    EventPair,
    FiniteSpace,
    StripParams,
    TailEstimate,
    binomial_lower_99,
    binomial_upper_99,
    davydov_check,
    davydov_checks,
    empirical_alpha_lower,
    exact_alpha,
    mc_tail,
    random_finite_space,
    tail_estimates_to_jsonl,
)

__version__ = "0.1.0"
