import math
from fractions import Fraction as F

import pytest
import hypothesis.strategies as st
from hypothesis import given

from anticonc import (
    alternating_bernoulli,
    bernoulli,
    binomial,
    delta,
    extreme_point_measure,
    quasi_uniform,
    quasi_uniform_variance,
    self_convolve,
    weighted_sum,
)
from anticonc.families import _binomial_nums
from anticonc.errors import AlphaOutOfRange, ParamOutOfRange, RestPointInSupport, TooLarge, WrongSupportSize

from conftest import fractions_in_unit


def binom_pmf(n, k, p):
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


class TestQuasiUniform:
    def test_reciprocal_levels_are_uniform(self):
        assert quasi_uniform(F(1, 3)).atoms == (
            ((0,), F(1, 3)), ((1,), F(1, 3)), ((2,), F(1, 3)),
        )

    def test_remainder_atom(self):
        assert quasi_uniform(F(2, 5)).atoms == (
            ((0,), F(2, 5)), ((1,), F(2, 5)), ((2,), F(1, 5)),
        )
        assert quasi_uniform(F(3, 4)).atoms == (((0,), F(3, 4)), ((1,), F(1, 4)))

    @given(fractions_in_unit())
    def test_largest_atom_is_the_level(self, alpha):
        value, point = quasi_uniform(alpha).concentration()
        assert value == alpha
        assert point == (0,)

    def test_level_domain(self):
        for bad in (F(0), F(1), F(3, 2), F(-1, 4)):
            with pytest.raises(AlphaOutOfRange):
                quasi_uniform(bad)

    def test_variance_closed_form_frozen_values(self):
        assert quasi_uniform_variance(F(1, 2)) == F(1, 4)
        assert quasi_uniform_variance(F(1, 3)) == F(2, 3)
        assert quasi_uniform_variance(F(2, 5)) == F(14, 25)

    @given(fractions_in_unit())
    def test_variance_closed_form_matches_moments(self, alpha):
        assert quasi_uniform_variance(alpha) == quasi_uniform(alpha).variance()


class TestExtremePointMeasure:
    def test_flat_part_plus_rest(self):
        d = extreme_point_measure(F(2, 5), [0, 3], rest=7)
        assert d.atoms == (((0,), F(2, 5)), ((3,), F(2, 5)), ((7,), F(1, 5)))

    def test_no_rest_needed_at_reciprocal_level(self):
        d = extreme_point_measure(F(1, 2), [4, -4])
        assert d.atoms == (((-4,), F(1, 2)), ((4,), F(1, 2)))

    def test_support_size_enforced(self):
        with pytest.raises(WrongSupportSize):
            extreme_point_measure(F(1, 2), [0, 1, 2], rest=5)

    def test_rest_collision_rejected(self):
        with pytest.raises(RestPointInSupport):
            extreme_point_measure(F(2, 5), [0, 1], rest=1)

    def test_missing_rest_rejected(self):
        with pytest.raises(ValueError):
            extreme_point_measure(F(2, 5), [0, 1])


class TestBinomial:
    def test_closed_form_matches_convolution(self):
        for n in range(7):
            for p in (F(1, 2), F(1, 3), F(2, 7)):
                assert binomial(n, p) == self_convolve(bernoulli(p), n)

    @given(st.integers(0, 60), st.integers(1, 50), st.integers(0, 50))
    def test_numerators_match_the_closed_form(self, n, a, c):
        # the running ratio gives each C(n, k) a^k c^(n - k) exactly, c = 0 (p = 1) and n = 0 included
        assert _binomial_nums(n, a, c) == [math.comb(n, k) * a**k * c ** (n - k) for k in range(n + 1)]

    def test_degenerate_edges(self):
        assert binomial(0, F(1, 3)) == delta(0)
        assert binomial(3, F(1)).atoms == (((3,), F(1)),)

    def test_domain(self):
        with pytest.raises(ParamOutOfRange):
            binomial(-1, F(1, 2))
        with pytest.raises(ParamOutOfRange):
            binomial(3, F(0))
        with pytest.raises(ParamOutOfRange):
            bernoulli(F(7, 5))


class TestAlternating:
    def test_single_summand_is_bernoulli(self):
        assert alternating_bernoulli(1, F(1, 3)) == bernoulli(F(1, 3))

    def test_pair_at_half(self):
        assert alternating_bernoulli(2, F(1, 2)).atoms == (
            ((-1,), F(1, 4)), ((0,), F(1, 2)), ((1,), F(1, 4)),
        )

    def test_zero_mass_oracle_via_pmf_sum(self):
        # P(B - B' = 0) = sum_k P(B = k) P(B' = k), computed without convolve()
        p = F(1, 3)
        expected = sum(binom_pmf(2, k, p) * binom_pmf(1, k, p) for k in range(2))
        assert alternating_bernoulli(3, p).atom(0) == expected == F(4, 9)

    def test_matches_alternating_weighted_sum(self):
        p = F(2, 7)
        for n in (2, 3, 4, 5):
            signs = [(-1) ** i for i in range(n)]
            assert weighted_sum(signs, [bernoulli(p)] * n).dist == alternating_bernoulli(n, p)

    def test_central_binomial_at_half(self):
        for n in range(2, 13, 2):
            expected = F(math.comb(n, n // 2), 2**n)
            assert alternating_bernoulli(n, F(1, 2)).atom(0) == expected

    def test_even_case_is_symmetric_unimodal_with_mode_zero(self):
        for n, p in ((2, F(1, 4)), (6, F(1, 3)), (10, F(1, 2))):
            d = alternating_bernoulli(n, p)
            assert d.is_symmetric()
            assert d.is_unimodal()
            assert d.concentration()[1] == (0,)

    def test_strict_alternation_chain_for_odd_n(self):
        # zero first, then each positive value beats its negative mirror,
        # which beats the next positive value
        for n in (3, 5, 7, 9, 11):
            for p in (F(1, 10), F(1, 3), F(2, 5)):
                d = alternating_bernoulli(n, p)
                hi, lo = (n + 1) // 2, n // 2
                order = [0]
                for i in range(1, hi + 1):
                    order.append(i)
                    if i <= lo:
                        order.append(-i)
                masses = [d.atom(x) for x in order]
                assert all(a > b for a, b in zip(masses, masses[1:]))
                assert masses[-1] > 0

    def test_domain(self):
        with pytest.raises(ParamOutOfRange):
            alternating_bernoulli(0, F(1, 2))
        with pytest.raises(ParamOutOfRange):
            alternating_bernoulli(3, F(2, 3))


@pytest.mark.parametrize("family", [binomial, alternating_bernoulli])
def test_bernoulli_sums_are_capped_by_their_predicted_support(family):
    # n summands of 2 atoms each: 2048 is the largest n under the cap of 4,096 atoms
    assert len(family(2048, F(1, 3)).support) == 2049
    with pytest.raises(TooLarge, match="predict 4098 atoms"):
        family(2049, F(1, 3))
