"""The public surface of the package, and the contract the benchmark tracer relies on.

`perfbench/tracing.py` wraps every public function of every anticonc module
and the `Dist` methods it names, and sorts each span into a per-layer group.
Loading it here makes a removed traced method, or a public `dist` function
the tracer has no group for, fail in the plain test run rather than only in a
traced benchmark run.
"""

import importlib.util
from pathlib import Path

import anticonc

PUBLIC = [
    "AgmStep", "BalancingBound", "CenteredSeq", "Dist", "Extremal", "GridSearchResult", "KScanResult", "Mixture",
    "OddTailRatios", "PhaseDiagram", "Point", "ScaledDist", "agm_step", "alternating_bernoulli",
    "alternating_zero_asym", "alternating_zero_exact", "as_fraction", "as_point", "balancing_bound", "bernoulli",
    "binomial", "birnbaum_sides", "convolve_all", "default_p_grid", "delta", "extreme_decompose",
    "extreme_point_measure", "format_fraction", "gabriel_sides", "is_symmetrizable", "k_phase_scan",
    "local_limit_bound", "middle_coeff_asym", "middle_coeff_exact", "monotonicity_check", "odd_tail_ratios",
    "optimal_k_scan", "peakedness_dominates", "quasi_uniform", "quasi_uniform_bound_check",
    "quasi_uniform_variance", "rearrange_left", "rearrange_right", "rearrange_symmetric", "self_convolve",
    "sign_vector_max", "signed_binomial_diff", "small_dev_ratio_approx", "small_dev_ratio_exact", "uniform_on",
    "weight_grid_search", "weighted_sum",
]

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC) == 52
    assert sorted(anticonc.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(anticonc, name) is not None


def test_tracer_knows_every_span():
    tracing = _load_tracing()
    tracing.Tracer()   # reads Dist.__dict__[name] for every traced method
    spans = [*tracing._targets().values(), *(f"dist.{name}" for name in tracing.DIST_METHOD_GROUPS)]
    assert "dist.convolve" in spans and "search.optimal_k_scan" in spans
    for span in spans:
        assert tracing.group_of(span)
