import math
import random
from fractions import Fraction as F

import pytest
import hypothesis.strategies as st
from hypothesis import given

from anticonc import (
    Dist,
    Extremal,
    Mixture,
    agm_step,
    balancing_bound,
    bernoulli,
    convolve_all,
    delta,
    extreme_decompose,
    extreme_point_measure,
    quasi_uniform,
    uniform_on,
)
from anticonc import reduction
from anticonc.errors import AlphaOutOfRange, AssertionFailed, OddN, QTooLarge
from anticonc.sampling import random_capped_dist, random_dist

from conftest import dists, fractions_in_unit


class TestAgmStep:
    def test_bernoulli_halves(self):
        b = bernoulli(F(1, 3))
        step = agm_step([b], [b])
        assert step.joint_zero == F(4, 9)
        assert step.first_sym_zero == step.second_sym_zero == F(5, 9)
        assert not step.mirror

    def test_mirrored_halves_reach_equality(self):
        b = bernoulli(F(1, 3))
        step = agm_step([b], [b.negate()])
        assert step.mirror
        assert step.joint_zero == step.first_sym_zero == F(5, 9)

    def test_point_masses(self):
        step = agm_step([delta(0)], [delta(0)])
        assert step == agm_step([delta(0)], [delta(0)])
        assert (step.joint_zero, step.mirror) == (F(1), True)

    def test_multi_summand_halves(self):
        first = [bernoulli(F(1, 2)), uniform_on([0, 1, 2])]
        second = [bernoulli(F(1, 3)).negate(), uniform_on([-1, 0])]
        step = agm_step(first, second)
        assert step.joint_zero <= max(step.first_sym_zero, step.second_sym_zero)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            agm_step([bernoulli(F(1, 2))], [])
        with pytest.raises(ValueError):
            agm_step([bernoulli(F(1, 2))], [bernoulli(F(1, 2))] * 2)

    @given(dists(dim=1), dists(dim=1))
    def test_bound_holds(self, a, b):
        step = agm_step([a], [b])
        assert step.joint_zero <= max(step.first_sym_zero, step.second_sym_zero)

    def test_a_failed_bound_raises_with_its_witness(self, monkeypatch):
        monkeypatch.setattr(reduction, "_alternating_zero", lambda laws, n: [F(0)] * len(laws))
        b = bernoulli(F(1, 3))
        with pytest.raises(AssertionFailed, match="^split-and-symmetrize bound failed$") as raised:
            agm_step([b], [b])
        assert raised.value.witness == {"joint": F(4, 9), "first": F(0), "second": F(0), "mirror": False}


class TestBalancingBound:
    def test_pair_of_bernoullis(self):
        b = bernoulli(F(1, 3))
        bound = balancing_bound([b, b], (0,))
        assert bound.lhs == F(4, 9)
        assert bound.rhs == F(5, 9)
        assert bound.index == 0
        assert bound.strict

    def test_mirrored_pair_is_tight(self):
        b = bernoulli(F(1, 3))
        bound = balancing_bound([b, b.negate()], (0,))
        assert bound.lhs == bound.rhs == F(5, 9)
        assert not bound.strict

    def test_picks_most_concentrated_summand(self):
        spread = uniform_on([0, 1, 2, 3])
        tight = bernoulli(F(1, 2))
        bound = balancing_bound([spread, tight], (1,))
        assert bound.index == 1
        assert bound.rhs == F(1, 2)

    def test_one_power_per_distinct_law(self, monkeypatch):
        calls = []
        convolve = Dist.convolve
        monkeypatch.setattr(Dist, "convolve", lambda a, b: calls.append(1) or convolve(a, b))
        b = bernoulli(F(1, 3))
        bound = balancing_bound([b] * 4, (0,))
        # 2 for the lhs, whose last product is a lookup; one squaring for the half power of the single rhs
        assert len(calls) == 3
        assert (bound.index, bound.rhs) == (0, F(11, 27))

    def test_odd_count_rejected(self):
        with pytest.raises(OddN):
            balancing_bound([bernoulli(F(1, 2))], (0,))

    def test_two_dimensional(self):
        d = uniform_on([(0, 0), (1, 2)])
        bound = balancing_bound([d, d], (1, 2))
        assert bound.lhs == F(1, 2)
        assert bound.rhs == F(1, 2)

    def test_holds_across_all_targets(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.choice((2, 4))
            dim = rng.choice((1, 2))
            ds = [random_dist(rng, dim=dim) for _ in range(n)]
            joint = convolve_all(ds)
            bound = balancing_bound(ds, joint.concentration()[1])
            assert all(mass <= bound.rhs for _, mass in joint.atoms)


class TestExtremeDecompose:
    def test_recognizes_extremal_without_rest(self):
        result = extreme_decompose(uniform_on([0, 1]), F(1, 2))
        assert result == Extremal(points=((0,), (1,)), rest=None)

    def test_recognizes_extremal_with_rest(self):
        d = Dist.from_entries([(0, "2/5"), (1, "2/5"), (2, "1/5")])
        result = extreme_decompose(d, F(2, 5))
        assert result == Extremal(points=((0,), (1,)), rest=(2,))
        # the rest point may sort before the main points
        d = Dist.from_entries([(-3, "1/5"), (1, "2/5"), (4, "2/5")])
        assert extreme_decompose(d, F(2, 5)) == Extremal(points=((1,), (4,)), rest=(-3,))

    @given(fractions_in_unit(), st.integers(1, 2), st.data())
    def test_every_extreme_point_is_recognized(self, alpha, dim, data):
        k = math.floor(1 / alpha)
        points = st.tuples(*[st.integers(-20, 20)] * dim)
        pts = data.draw(st.lists(points, min_size=k + 1, max_size=k + 1, unique=True))
        rest = pts[k] if k * alpha < 1 else None
        result = extreme_decompose(extreme_point_measure(alpha, pts[:k], rest), alpha)
        assert result == Extremal(tuple(sorted(pts[:k])), rest)

    def test_worked_mixture(self):
        # cap 1/2 leaves room to stretch: the bound from the level, not a
        # vanishing atom, limits the extremal share here
        d = Dist.from_entries([(0, "1/2"), (1, "3/10"), (2, "1/5")])
        result = extreme_decompose(d, F(1, 2))
        assert isinstance(result, Mixture)
        assert result.p == F(2, 3)
        assert result.mu2 == extreme_point_measure(F(1, 2), [0, 1])
        assert result.mu1 == Dist.from_entries([(0, "1/2"), (1, "1/5"), (2, "3/10")])

    def test_uniform_under_loose_cap(self):
        result = extreme_decompose(uniform_on([0, 1, 2]), F(1, 2))
        assert isinstance(result, Mixture)
        rebuilt = {}
        for pt in {*result.mu1.support, *result.mu2.support}:
            rebuilt[pt] = result.p * result.mu1.atom(pt) + (1 - result.p) * result.mu2.atom(pt)
        assert rebuilt == dict(uniform_on([0, 1, 2]).atoms)

    def test_a_failed_reconstruction_raises_with_its_witness(self, monkeypatch):
        # a wrong extreme point stretches mu1 to 3/5 at 1, past the cap 1/2
        monkeypatch.setattr(reduction, "extreme_point_measure", lambda alpha, points, rest=None: delta(points[0]))
        mu = Dist.from_entries([(0, "1/2"), (1, "2/5"), (2, "1/10")])
        with pytest.raises(AssertionFailed, match="^decomposition failed to reconstruct the measure$") as raised:
            extreme_decompose(mu, F(1, 2))
        mu1 = Dist.from_entries([(0, "1/4"), (1, "3/5"), (2, "3/20")])
        assert raised.value.witness == {
            "mu": mu.to_json_obj(), "p": F(2, 3), "mu1": mu1.to_json_obj(), "mu2": delta(0).to_json_obj()}

    def test_cap_violation_rejected(self):
        with pytest.raises(QTooLarge):
            extreme_decompose(bernoulli(F(1, 3)), F(1, 2))
        with pytest.raises(AlphaOutOfRange):
            extreme_decompose(bernoulli(F(1, 2)), F(0))

    def test_random_capped_measures_decompose_exactly(self):
        rng = random.Random(9)
        levels = (F(1, 3), F(2, 5), F(1, 2), F(3, 4))
        for _ in range(150):
            alpha = rng.choice(levels)
            d = random_capped_dist(rng, alpha)
            result = extreme_decompose(d, alpha)
            if isinstance(result, Extremal):
                masses = sorted((d.atom(p) for p in result.points), reverse=True)
                assert all(m == alpha for m in masses)
                continue
            assert 0 < result.p < 1
            assert result.mu1.concentration()[0] <= alpha
            assert result.mu2.concentration()[0] <= alpha
            support = {*result.mu1.support, *result.mu2.support}
            for pt in support:
                got = result.p * result.mu1.atom(pt) + (1 - result.p) * result.mu2.atom(pt)
                assert got == d.atom(pt)

    @given(fractions_in_unit())
    def test_quasi_uniform_is_extremal_at_its_level(self, alpha):
        result = extreme_decompose(quasi_uniform(alpha), alpha)
        assert isinstance(result, Extremal)


# -- extreme_decompose against the Fraction construction it replaced ----------


def fraction_decompose(mu, alpha):
    """The reference: rank the atoms as Fractions, stretch by a Fraction eps,
    build mu1 from Fraction entries and re-check by rebuilding mu."""
    a = F(alpha)
    k = math.floor(1 / a)
    ranked = sorted(mu.atoms, key=lambda pm: (-pm[1], pm[0]))
    main = [p for p, _ in ranked[:k]]
    rest = ranked[k][0] if len(ranked) > k else None
    mu2 = extreme_point_measure(a, main, rest)
    if mu2 == mu:
        return Extremal(tuple(main), rest)
    eps = a * (k + 1) - 1
    for p in [*main, rest]:
        gap = mu2.atom(p) - mu.atom(p)
        if gap > 0:
            eps = min(eps, mu.atom(p) / gap)
    p_weight = 1 / (1 + eps)
    mu1 = Dist.from_entries(
        [(pt, (1 + eps) * mu.atom(pt) - eps * mu2.atom(pt)) for pt in sorted({*mu.support, *mu2.support})])
    rebuilt = Dist.from_entries([(pt, p_weight * mu1.atom(pt)) for pt in mu1.support]
                                + [(pt, (1 - p_weight) * mu2.atom(pt)) for pt in mu2.support])
    assert rebuilt == mu and mu1.concentration()[0] <= a
    return Mixture(p_weight, mu1, mu2)


@st.composite
def capped_laws(draw):
    """A law and a level at least its largest atom: a random law, often capped at exactly its largest
    atom so that ties at the top are common, or an extreme point of the cap, in dimension 1 or 2."""
    dim = draw(st.integers(1, 2))
    if draw(st.booleans()):
        alpha = draw(fractions_in_unit())
        k = math.floor(1 / alpha)
        pts = draw(st.lists(st.tuples(*[st.integers(-5, 5)] * dim), min_size=k + 1, max_size=k + 1, unique=True))
        return extreme_point_measure(alpha, pts[:k], pts[k] if k * alpha < 1 else None), alpha
    mu = draw(dists(dim=dim, max_support=6, coprime=draw(st.booleans())))
    top = mu.concentration()[0]
    if top == 1:
        mu, top = uniform_on([(0,) * dim, (1,) * dim]), F(1, 2)
    alpha = top if draw(st.booleans()) else top + (1 - top) * draw(fractions_in_unit())
    return mu, alpha


@given(capped_laws())
def test_decompose_matches_the_fraction_reference(case):
    mu, alpha = case
    assert extreme_decompose(mu, alpha) == fraction_decompose(mu, alpha)


def test_decompose_matches_the_fraction_reference_on_random_capped_laws():
    rng = random.Random(14)
    kinds = set()
    for _ in range(200):
        alpha = rng.choice((F(1, 3), F(2, 5), F(1, 2), F(3, 4), F(2, 7)))
        mu = random_capped_dist(rng, alpha)
        if rng.random() < 0.5:     # the same law on the diagonal of the plane
            mu = Dist.from_entries([((x, x), m) for (x,), m in mu.atoms])
        result = extreme_decompose(mu, alpha)
        assert result == fraction_decompose(mu, alpha)
        kinds.add((type(result), mu.dim))
    assert kinds == {(Mixture, 1), (Mixture, 2), (Extremal, 1), (Extremal, 2)}


def test_a_corrupt_mu1_fails_the_integer_reconstruction(monkeypatch):
    # one unit of numerator moved between two atoms of mu1: its mass is still 1 and its cap
    # still holds, so only the identity p mu1 + (1 - p) mu2 = mu, checked on the returned laws, fails
    canonical = reduction._canonical

    def corrupt(dim, mass, den):
        heavy, light = max(mass, key=mass.get), min((p for p in mass if mass[p]), key=mass.get)
        return canonical(dim, {**mass, heavy: mass[heavy] - 1, light: mass[light] + 1}, den)

    monkeypatch.setattr(reduction, "_canonical", corrupt)
    mu = Dist.from_entries([(0, "1/2"), (1, "3/10"), (2, "1/5")])
    with pytest.raises(AssertionFailed, match="^decomposition failed to reconstruct the measure$") as raised:
        extreme_decompose(mu, F(1, 2))
    witness = raised.value.witness
    mu1 = Dist.from_json_obj(witness["mu1"])
    assert mu1 != Dist.from_entries([(0, "1/2"), (1, "1/5"), (2, "3/10")])
    assert mu1.concentration()[0] <= F(1, 2)
    assert (witness["mu"], witness["p"], witness["mu2"]) == (
        mu.to_json_obj(), F(2, 3), extreme_point_measure(F(1, 2), [0, 1]).to_json_obj())
