"""Exact arithmetic for concentration maxima of lattice random sums.

The package computes hit probabilities P(a_1 X_1 + ... + a_n X_n = x) for
independent finitely supported lattice variables in exact rational
arithmetic, implements the constructive comparisons that bound them
(balancing, symmetrization, quasi-uniform ceilings, rearrangements,
peakedness), and pairs the exact values with the classical floating-point
expansions so residuals can be measured rather than trusted.
"""

from .asymptotics import (
    OddTailRatios,
    alternating_zero_asym,
    alternating_zero_exact,
    local_limit_bound,
    middle_coeff_asym,
    middle_coeff_exact,
    odd_tail_ratios,
    small_dev_ratio_approx,
    small_dev_ratio_exact,
)
from .dist import (
    Dist,
    Point,
    ScaledDist,
    as_fraction,
    as_point,
    convolve_all,
    delta,
    format_fraction,
    self_convolve,
    uniform_on,
    weighted_sum,
)
from .families import (
    alternating_bernoulli,
    bernoulli,
    binomial,
    extreme_point_measure,
    quasi_uniform,
    quasi_uniform_variance,
    signed_binomial_diff,
)
from .reduction import (
    AgmStep,
    BalancingBound,
    Extremal,
    Mixture,
    agm_step,
    balancing_bound,
    extreme_decompose,
)
from .search import (
    GridSearchResult,
    KScanResult,
    PhaseDiagram,
    default_p_grid,
    k_phase_scan,
    monotonicity_check,
    optimal_k_scan,
    quasi_uniform_bound_check,
    sign_vector_max,
    weight_grid_search,
)
from .transforms import (
    CenteredSeq,
    birnbaum_sides,
    gabriel_sides,
    is_symmetrizable,
    peakedness_dominates,
    rearrange_left,
    rearrange_right,
    rearrange_symmetric,
)

__version__ = "0.1.0"

__all__ = [
    "AgmStep",
    "BalancingBound",
    "CenteredSeq",
    "Dist",
    "Extremal",
    "GridSearchResult",
    "KScanResult",
    "Mixture",
    "OddTailRatios",
    "PhaseDiagram",
    "Point",
    "ScaledDist",
    "agm_step",
    "alternating_bernoulli",
    "alternating_zero_asym",
    "alternating_zero_exact",
    "as_fraction",
    "as_point",
    "balancing_bound",
    "bernoulli",
    "binomial",
    "birnbaum_sides",
    "convolve_all",
    "default_p_grid",
    "delta",
    "extreme_decompose",
    "extreme_point_measure",
    "format_fraction",
    "gabriel_sides",
    "is_symmetrizable",
    "k_phase_scan",
    "local_limit_bound",
    "middle_coeff_asym",
    "middle_coeff_exact",
    "monotonicity_check",
    "odd_tail_ratios",
    "optimal_k_scan",
    "peakedness_dominates",
    "quasi_uniform",
    "quasi_uniform_bound_check",
    "quasi_uniform_variance",
    "rearrange_left",
    "rearrange_right",
    "rearrange_symmetric",
    "self_convolve",
    "sign_vector_max",
    "signed_binomial_diff",
    "small_dev_ratio_approx",
    "small_dev_ratio_exact",
    "uniform_on",
    "weight_grid_search",
    "weighted_sum",
]
