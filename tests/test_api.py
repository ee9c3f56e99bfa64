"""The public surface of the package, and the contract the benchmark tracer relies on.

The optional parameters of the public callables are pinned too, so a new
knob has to be listed here; so are the names of the work caps.  Each
parameter domain has one validator whose message every guard of that
domain shares.  The guards that only a direct call reaches are checked for
their exception type and message.

`perfbench/tracing.py` wraps every public function of every anticonc module
and the `Dist` methods it names, and sorts each span into a per-layer group.
Loading it here makes a removed traced method, or a public `dist` function
the tracer has no group for, fail in the plain test run rather than only in a
traced benchmark run.
"""

import importlib
import importlib.util
import inspect
import pkgutil
from fractions import Fraction as F
from pathlib import Path

import pytest

import anticonc
from anticonc import (Dist, alternating_bernoulli, bernoulli, binomial, birnbaum_sides, convolve_all,
                      default_p_grid, k_phase_scan, peakedness_dominates, self_convolve, uniform_on,
                      weight_grid_search)
from anticonc import sampling
from anticonc.errors import (AssertionFailed, DimensionMismatch, ParamOutOfRange, _require_at_least, _require_p,
                             require_bound)

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


def test_each_module_declares_the_names_it_exports():
    # the package's list is the union of its modules' lists, each name in exactly one
    modules = [anticonc.asymptotics, anticonc.dist, anticonc.families, anticonc.reduction, anticonc.search,
               anticonc.transforms]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(names) == PUBLIC
    for module in modules:
        assert all(getattr(anticonc, name) is getattr(module, name) for name in module.__all__)


def test_tracer_knows_every_span():
    tracing = _load_tracing()
    tracing.Tracer()   # reads Dist.__dict__[name] for every traced method
    spans = [*tracing._targets().values(), *(f"dist.{name}" for name in tracing.DIST_METHOD_GROUPS)]
    assert "dist.convolve" in spans and "search.optimal_k_scan" in spans
    for span in spans:
        assert tracing.group_of(span)


OPTIONAL = ["extreme_point_measure.rest", "sign_vector_max.x"]


def _optional_parameters():
    callables = [(name, getattr(anticonc, name)) for name in anticonc.__all__]
    callables += [(f"sampling.{name}", obj) for name, obj in vars(sampling).items()
                  if inspect.isfunction(obj) and obj.__module__ == sampling.__name__ and not name.startswith("_")]
    callables += [(f"Dist.{name}", getattr(Dist, name)) for name in vars(Dist) if not name.startswith("_")]
    return sorted(
        f"{name}.{param.name}"
        for name, obj in callables if inspect.isfunction(obj) or inspect.isclass(obj)
        for param in inspect.signature(obj).parameters.values() if param.default is not param.empty
    )


def test_optional_parameters_are_pinned():
    assert _optional_parameters() == OPTIONAL


CAPS = ["MAX_ATOMS", "MAX_WORK"]


def test_cap_constants_are_pinned_and_checked_by_one_gate():
    # the support of one law and the steps of one search; a new cap has to be listed here
    modules = [importlib.import_module(f"anticonc.{info.name}") for info in pkgutil.iter_modules(anticonc.__path__)
               if not info.name.startswith("_")]
    assert sorted({name for module in modules for name in vars(module) if name.startswith("MAX_")}) == CAPS
    sources = [Path(module.__file__).read_text() for module in modules]
    assert sum(source.count("raise TooLarge") for source in sources) == 1
    # and one plan gate prices every step: no second step gate and none of the old per-caller pricings
    assert sum(source.count('"steps")') for source in sources) == 1
    assert not any(old in source for source in sources for old in ("_require_support", "_require_scan_work"))


def test_only_dist_sums_given_laws():
    # every sum of given laws is the gated fold of `dist`, which holds the one atom predictor of a sum and is the only
    # code that turns groups into prices; outside it the kernel is read only by the search's chain and laws, which
    # `dist._fold` prices
    sources = {path.stem: path.read_text() for path in Path(anticonc.__file__).parent.glob("*.py")}
    assert [name for name, source in sources.items() if ".convolve(" in source] == ["dist"]
    assert sorted(name for name, source in sources.items() if "Dist.convolve" in source) == ["dist", "search"]
    assert "def _sum_atoms" in sources["dist"] and "_atom_count" not in sources["search"]
    assert not [price for price in ("_product", "_lookups", "_sum_atoms") if price in sources["search"]]


def test_one_json_writer_and_no_indenting_encoder():
    # every JSON text the CLI writes comes from cli._dumps, which renders the indented layout itself; json.dumps with an
    # indent would take the pure-Python encoder
    sources = {path.stem: path.read_text() for path in Path(anticonc.__file__).parent.glob("*.py")}
    assert [name for name, source in sources.items() if "indent=" in source] == []
    assert [name for name, source in sources.items() if "def _dumps(" in source] == ["cli"]


@pytest.mark.parametrize("call, validator", [
    (lambda: binomial(-1, F(1, 3)), lambda: _require_at_least("n", -1, 0)),
    (lambda: alternating_bernoulli(0, F(1, 3)), lambda: _require_at_least("n", 0, 1)),
    (lambda: default_p_grid(0), lambda: _require_at_least("grid", 0, 1)),
    (lambda: self_convolve(bernoulli(F(1, 3)), -1), lambda: _require_at_least("n", -1, 0)),
    (lambda: bernoulli(F(1, 3)).interval_prob(-1), lambda: _require_at_least("k", -1, 0)),
    (lambda: k_phase_scan(3, [F(1, 4), F(3, 5)]), lambda: _require_p(F(3, 5))),
], ids=["binomial", "alternating_bernoulli", "default_p_grid", "self_convolve", "interval_prob", "k_phase_scan"])
def test_guards_share_their_domain_validator(call, validator):
    with pytest.raises(ParamOutOfRange) as shared:
        validator()
    with pytest.raises(ParamOutOfRange) as raised:
        call()
    assert str(raised.value) == str(shared.value)


PLANE = Dist.from_entries([((0, 0), F(1, 2)), ((1, 1), F(1, 2))])


@pytest.mark.parametrize("call, kind, message", [
    (lambda: Dist.from_entries([]), ValueError, "no atoms given"),
    (lambda: uniform_on([]), ValueError, "no points given"),
    (lambda: convolve_all([]), ValueError, "need at least one distribution"),
    (lambda: PLANE.interval_prob(1), DimensionMismatch, "interval probabilities need dimension 1"),
    (lambda: PLANE.is_unimodal(), DimensionMismatch, "unimodality is defined here for dimension 1"),
    (lambda: PLANE.mean(), DimensionMismatch, "moments are defined here for dimension 1"),
    (lambda: PLANE.shift((1,)), DimensionMismatch, "shift (1,) has dim 1, expected 2"),
    (lambda: peakedness_dominates(PLANE, PLANE), DimensionMismatch, "peakedness comparisons need dimension 1"),
    (lambda: birnbaum_sides(PLANE, PLANE, PLANE, 1), DimensionMismatch, "peakedness comparisons need dimension 1"),
    (lambda: weight_grid_search(bernoulli(F(1, 2)), 2, []), ParamOutOfRange, "empty weight grid"),
    (lambda: require_bound("m", 2, 1, x=1), AssertionFailed, "m"),
], ids=["from_entries", "uniform_on", "convolve_all", "interval_prob", "is_unimodal", "mean", "shift",
        "peakedness_dominates", "birnbaum_sides", "weight_grid_search", "require_bound"])
def test_guards_raise_their_type_and_message(call, kind, message):
    with pytest.raises(kind) as raised:
        call()
    assert str(raised.value) == message


def test_a_violated_bound_carries_its_witness_then_both_sides():
    with pytest.raises(AssertionFailed) as raised:
        require_bound("m", 2, 1, x=1)
    assert list(raised.value.witness.items()) == [("x", 1), ("lhs", 2), ("rhs", 1)]
