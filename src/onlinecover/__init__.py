"""Online fractional vertex cover and matching.

Water-filling and primal-dual algorithms with a tunable allocation
function, exact offline oracles for competitive-ratio measurement,
threshold rounding for bipartite instances, adversarial instance
generators, and a CLI harness.
"""

from .allocation import (
    ALPHA,
    AllocationFunction,
    BetaReport,
    QuadratureTable,
    beta_of,
    ode_residual,
    optimal_k,
    product_identity_residual,
    smooth_to_constant,
)
from .engine import (
    Algorithm,
    CoverState,
    MatchingState,
    PrimalDualState,
    WaterLevelOutcome,
    check_invariants,
    greedy_allocation_step,
    greedy_baseline_step,
    primal_dual_step,
    round_bipartite,
    run_stream,
)
from .instance import (
    InstanceStream,
    Side,
    SkiRentalSpec,
    VertexEvent,
    gen_complete_bipartite,
    gen_random,
    gen_triangular,
    gen_two_phase_matching_hard,
    parse_instance,
    reduce_ski_rental,
    serialize_instance,
)
from .oracle import (
    OracleResult,
    brute_force_half_integral,
    fractional_optima_general,
    prefix_optimal_values,
    prefix_ratios,
    static_from_stream,
)

__all__ = [name for name in dir() if not name.startswith("_")]
