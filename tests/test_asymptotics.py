import math
from fractions import Fraction as F

import pytest

from anticonc import (
    Dist,
    alternating_bernoulli,
    alternating_zero_asym,
    alternating_zero_exact,
    local_limit_bound,
    middle_coeff_asym,
    middle_coeff_exact,
    odd_tail_ratios,
    small_dev_ratio_approx,
    small_dev_ratio_exact,
)
from anticonc.asymptotics import local_limit_exact
from anticonc.dist import convolve_all, self_convolve
from anticonc.errors import ParamOutOfRange, TooLarge
from anticonc.families import quasi_uniform


def binom_pmf(n, k, p):
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


class TestLocalLimitBound:
    def test_value(self):
        assert local_limit_bound(100, F(1, 2)) == pytest.approx(1.0 / math.sqrt(50.0 * math.pi), rel=1e-14)

    def test_quadrupling_n_halves_the_bound(self):
        for alpha in (F(1, 3), F(2, 5)):
            assert local_limit_bound(400, alpha) == pytest.approx(local_limit_bound(100, alpha) / 2, rel=1e-13)

    def test_domain(self):
        with pytest.raises(ParamOutOfRange):
            local_limit_bound(0, F(1, 2))


class TestSmallDeviationRatio:
    def test_exact_against_central_binomials(self):
        # at p = 1/2 the ratio collapses to a quotient of binomial coefficients
        assert small_dev_ratio_exact(10, F(1, 2), 1) == F(math.comb(20, 11), math.comb(20, 10)) == F(10, 11)

    def test_zero_deviation_is_trivial(self):
        assert small_dev_ratio_exact(7, F(1, 3), 0) == 1
        assert small_dev_ratio_approx(7, F(1, 3), 0) == 1.0

    def test_approx_value(self):
        assert small_dev_ratio_approx(10, F(1, 2), 1) == pytest.approx(0.9, abs=1e-15)

    def test_scaled_residual_bounded(self):
        for p in (F(1, 4), F(1, 2)):
            for k in (1, 2):
                scaled = [
                    abs(float(small_dev_ratio_exact(n, p, k)) - small_dev_ratio_approx(n, p, k)) * n
                    for n in (25, 50, 100, 200)
                ]
                assert all(a >= b for a, b in zip(scaled, scaled[1:]))
                assert scaled[0] < 1.0


class TestAlternatingZero:
    def test_even_exact_is_squared_pmf_sum(self):
        # the 2n-summand zero mass equals sum_k P(B_{n,p} = k)^2
        for n in (3, 5, 8):
            for p in (F(1, 3), F(1, 2)):
                expected = sum(binom_pmf(n, k, p) ** 2 for k in range(n + 1))
                assert alternating_zero_exact(2 * n, p) == expected

    def test_central_binomial_at_half(self):
        assert alternating_zero_exact(20, F(1, 2)) == F(math.comb(20, 10), 2**20)
        assert alternating_zero_exact(4, F(1, 2)) == F(3, 8)

    def test_odd_exact(self):
        assert alternating_zero_exact(3, F(1, 3)) == F(4, 9)

    def test_even_scaled_residual_doubling_bounded(self):
        for p in (F(1, 10), F(1, 4), F(1, 2)):
            scaled = [
                abs(float(alternating_zero_exact(n, p)) - alternating_zero_asym(n, p)) * n * n
                for n in (16, 32, 64, 128)
            ]
            assert all(b <= 2 * a for a, b in zip(scaled, scaled[1:]))

    def test_odd_scaled_residual_decreases(self):
        for p in (F(1, 10), F(1, 4), F(1, 2)):
            scaled = [
                abs(float(alternating_zero_exact(n, p)) - alternating_zero_asym(n, p)) * n
                for n in (17, 33, 65, 129)
            ]
            assert all(a > b for a, b in zip(scaled, scaled[1:]))

    def test_exact_at_one_half_is_central_binomial(self):
        for n in range(1, 41):
            assert local_limit_exact(n, F(1, 2)) == F(math.comb(n, n // 2), 2**n)

    def test_exact_matches_the_product_of_n_summands(self):
        for alpha in (F(1, 3), F(2, 5), F(3, 4)):
            u = quasi_uniform(alpha)
            for n in range(1, 10):
                parts = [u] * ((n + 1) // 2) + [u.negate()] * (n // 2)
                assert local_limit_exact(n, alpha) == convolve_all(parts).atom(0)

    def test_domain(self):
        with pytest.raises(ParamOutOfRange):
            alternating_zero_exact(4, F(2, 3))
        with pytest.raises(ParamOutOfRange):
            alternating_zero_asym(0, F(1, 2))


class TestMiddleCoefficient:
    def test_unit_case_is_central_binomial(self):
        for n in range(1, 16):
            assert middle_coeff_exact(n, 2, 1) == math.comb(2 * n, n)

    def test_matches_trinomial_closed_form(self):
        # [x^n](x^2 + b x + c)^n = sum_i n! / (i! i! (n - 2i)!) b^(n-2i) c^i
        for n, b, c in ((5, F(1), F(1)), (7, F(3), F(2)), (6, F(1, 2), F(5, 3))):
            expected = sum(
                F(math.factorial(n), math.factorial(i) ** 2 * math.factorial(n - 2 * i))
                * b ** (n - 2 * i)
                * c**i
                for i in range(n // 2 + 1)
            )
            assert middle_coeff_exact(n, b, c) == expected

    def test_matches_the_convolution_route(self):
        # (x^2 + b x + c)^n / (1 + b + c)^n is the n-th power of the law c, b, 1 on 0, 1, 2
        for n, b, c in ((1, F(7, 2), F(9)), (7, F(3), F(2)), (8, F(1, 2), F(5, 3)), (15, F(2), F(1)), (17, F(3, 2), F(2))):
            total = 1 + b + c
            law = Dist.from_entries([(0, c / total), (1, b / total), (2, 1 / total)])
            assert middle_coeff_exact(n, b, c) == self_convolve(law, n).atom(n) * total**n

    def test_single_factor(self):
        assert middle_coeff_exact(1, F(7, 2), F(9)) == F(7, 2)

    def test_asym_relative_error(self):
        for b, c in ((F(2), F(1)), (F(1), F(1)), (F(3), F(2))):
            exact = middle_coeff_exact(20, b, c)
            approx = middle_coeff_asym(20, b, c)
            assert abs(float(exact) - approx) / float(exact) < 1e-3

    def test_domain(self):
        with pytest.raises(ParamOutOfRange):
            middle_coeff_exact(3, F(0), F(1))
        with pytest.raises(ParamOutOfRange):
            middle_coeff_asym(0, F(1), F(1))

    def test_asym_names_the_float_range_when_a_coefficient_underflows(self):
        # the exact side takes c = 10^-400; its float is 0.0, which is not the coefficient's sign
        tiny = F(1, 10**400)
        assert middle_coeff_exact(5, F(1), tiny) > 0
        with pytest.raises(ParamOutOfRange, match="^a positive coefficient is below the float range$"):
            middle_coeff_asym(5, F(1), tiny)
        with pytest.raises(ParamOutOfRange, match="^coefficients must be positive$"):
            middle_coeff_asym(5, F(1), -tiny)


class TestOddTailRatios:
    def test_doubled_pair_zero_mass(self):
        # the scaled alternating pair hits 0 exactly when the pair is tied
        for p in (F(1, 5), F(1, 3), F(1, 2)):
            d = alternating_bernoulli(2, p).scale(2)
            assert d.atom(0) == p * p + (1 - p) * (1 - p)

    def test_smallest_case_by_enumeration(self):
        # m = 2, p = 1/2, enumerated over the underlying coin flips:
        # the doubled pair only cancels when both differences vanish,
        # so the numerator is (1/2)^2 and the base is 1/2; the triple
        # numerator counts {k: C(3,k) C(2,k)} / 32 = (1 + 6 + 3) / 32
        r = odd_tail_ratios(2, F(1, 2))
        assert r.exact_double_pair == F(1, 4) / F(1, 2)
        assert r.exact_triple == F(5, 16) / F(1, 2)
        assert r.n_eff == 2

    def test_scaled_residuals_decrease(self):
        for p in (F(1, 3), F(1, 2)):
            rows = [odd_tail_ratios(m, p) for m in (11, 21, 41)]
            pair = [abs(float(r.exact_double_pair) - r.approx_double_pair) * r.n_eff for r in rows]
            tri = [abs(float(r.exact_triple) - r.approx_triple) * r.n_eff for r in rows]
            assert all(a > b for a, b in zip(pair, pair[1:]))
            assert all(a > b for a, b in zip(tri, tri[1:]))

    def test_ratios_are_below_one(self):
        r = odd_tail_ratios(10, F(1, 4))
        assert 0 < r.exact_double_pair < 1
        assert 0 < r.exact_triple < 1
        assert r.exact_double_pair < r.exact_triple

    def test_domain(self):
        with pytest.raises(ParamOutOfRange):
            odd_tail_ratios(1, F(1, 2))


@pytest.mark.parametrize("exact, args, atoms", [
    (local_limit_exact, (1366, F(1, 3)), 4098),
    (alternating_zero_exact, (2049, F(1, 3)), 4098),
    (small_dev_ratio_exact, (1025, F(1, 3), 1), 4100),
    (odd_tail_ratios, (1024, F(1, 3)), 4098),
])
def test_exact_sides_are_capped_by_their_predicted_support(exact, args, atoms):
    with pytest.raises(TooLarge, match=f"predict {atoms} atoms"):
        exact(*args)
