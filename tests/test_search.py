import itertools
import math
import random
from fractions import Fraction as F

import pytest
import hypothesis.strategies as st
from hypothesis import example, given

from anticonc import (
    Dist,
    alternating_bernoulli,
    bernoulli,
    binomial,
    convolve_all,
    default_p_grid,
    k_phase_scan,
    monotonicity_check,
    optimal_k_scan,
    quasi_uniform,
    quasi_uniform_bound_check,
    sign_vector_max,
    signed_binomial_diff,
    uniform_on,
    weight_grid_search,
    weighted_sum,
)
from anticonc import errors, search
from anticonc.errors import AssertionFailed, EvenN, OddN, ParamOutOfRange, QTooLarge, TooLarge, ZeroWeight
from anticonc.sampling import random_capped_dist, random_dist
from conftest import dists


def binom_pmf(n, k, p):
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


class TestSignedBinomialDiff:
    def test_edges(self):
        p = F(1, 3)
        assert signed_binomial_diff(4, 0, p) == binomial(4, p)
        assert signed_binomial_diff(4, 4, p) == binomial(4, p).negate()
        assert signed_binomial_diff(5, 2, p) == alternating_bernoulli(5, p)

    def test_zero_atom_oracle(self):
        # P(B_2 - B_1 = 0) = sum_k P(B_2 = k) P(B_1 = k)
        p = F(2, 5)
        expected = sum(binom_pmf(2, k, p) * binom_pmf(1, k, p) for k in range(2))
        assert signed_binomial_diff(3, 1, p).atom(0) == expected == F(51, 125)

    def test_domain(self):
        with pytest.raises(ParamOutOfRange):
            signed_binomial_diff(3, 4, F(1, 2))
        with pytest.raises(ParamOutOfRange):
            signed_binomial_diff(3, 1, F(3, 5))


class TestOptimalKScan:
    def test_balanced_loses_for_moderate_p(self):
        result = optimal_k_scan(3, F(2, 5))
        assert (result.best_k, result.best_x, result.best_value) == (0, 1, F(54, 125))
        assert result.rows[1].value == F(51, 125)

    def test_ties_report_every_maximizer(self):
        assert optimal_k_scan(3, F(1, 3)).tied_ks() == (0, 1)
        assert optimal_k_scan(3, F(1, 2)).tied_ks() == (0, 1)
        assert optimal_k_scan(3, F(1, 2)).best_value == F(3, 8)

    def test_rows_match_brute_force_over_targets(self):
        for n, p in ((5, F(1, 4)), (7, F(2, 5))):
            result = optimal_k_scan(n, p)
            for row in result.rows:
                d = signed_binomial_diff(n, row.k, p)
                assert row.value == max(m for _, m in d.atoms)

    def test_even_rejected_by_default(self):
        with pytest.raises(EvenN):
            k_phase_scan(4, [F(1, 3)])

    def test_even_optimum_is_the_balanced_split(self):
        for n in (2, 4, 6):
            for p in (F(1, 10), F(1, 3)):
                result = optimal_k_scan(n, p)
                assert result.best_k == n // 2
                assert result.best_x == 0

    @given(st.integers(1, 41), st.integers(2, 64).flatmap(lambda b: st.tuples(st.integers(1, b // 2), st.just(b))))
    @example(31, (1, 2))
    @example(40, (32, 64))
    def test_rows_match_the_signed_binomial_oracle(self, n, ab):
        # the row ladder against the convolution of two binomials, at every row
        p = F(*ab)
        result = optimal_k_scan(n, p)
        assert [r.k for r in result.rows] == list(range(n // 2 + 1))
        for row in result.rows:
            assert (row.value, (row.x,)) == signed_binomial_diff(n, row.k, p).concentration()

    def test_mode_containment_explicitly(self):
        # the most likely value of the signed difference is floor or ceil
        # of its mean, re-checked here without going through the scan
        for n in (3, 6, 9):
            for k in range(n // 2 + 1):
                for p in (F(1, 10), F(1, 3), F(1, 2)):
                    d = signed_binomial_diff(n, k, p)
                    mean = (n - 2 * k) * p
                    _, (mode,) = d.concentration()
                    assert mode in {math.floor(mean), math.ceil(mean)}

    def test_a_mode_outside_the_window_raises(self, monkeypatch):
        # a ladder step that puts every mass on the top point moves row 1's mode to 2
        monkeypatch.setattr(search, "_next_split", lambda row, a, c: [0] * (len(row) - 1) + [1])
        with pytest.raises(AssertionFailed, match="^mode left the floor/ceil window of the mean$") as raised:
            optimal_k_scan(3, F(1, 4))
        assert raised.value.witness == {"n": 3, "k": 1, "p": F(1, 4), "mode": 2, "candidates": (0, 1)}


class TestKPhaseScan:
    def test_five_summands_cross_all_three_phases(self):
        diagram = k_phase_scan(5, default_p_grid(16))
        assert diagram.observed_ks == (0, 1, 2)
        by_p = {c.p: c for c in diagram.cells}
        assert by_p[F(1, 8)].best_ks == (2,)
        assert by_p[F(1, 8)].best_value == F(9443, 16384)
        assert by_p[F(3, 8)].best_ks == (1,)
        assert by_p[F(1, 2)].best_ks == (0, 1, 2)
        assert by_p[F(1, 2)].best_value == F(5, 16)

    def test_grid_is_sorted_and_deduplicated(self):
        diagram = k_phase_scan(3, [F(1, 2), F(1, 4), F(1, 2)])
        assert [c.p for c in diagram.cells] == [F(1, 4), F(1, 2)]

    def test_default_grid(self):
        grid = default_p_grid(4)
        assert grid == [F(1, 8), F(1, 4), F(3, 8), F(1, 2)]
        with pytest.raises(ParamOutOfRange):
            default_p_grid(0)

    def test_work_is_capped_before_the_scan(self):
        with pytest.raises(TooLarge, match="above the cap"):
            k_phase_scan(1001, default_p_grid(512))
        with pytest.raises(TooLarge, match="6002 atoms"):
            k_phase_scan(3001, [F(1, 2)])

    def test_grid_domain(self):
        with pytest.raises(ParamOutOfRange):
            k_phase_scan(3, [F(3, 5)])
        with pytest.raises(ParamOutOfRange):
            k_phase_scan(3, [])


def brute_sign_max(dist, n, x=None):
    best = None
    for signs in itertools.product((-1, 1), repeat=n):
        law = weighted_sum(signs, [dist] * n).dist
        value = law.concentration()[0] if x is None else law.atom(x)
        if best is None or value > best[0]:
            best = (value, signs)
    return best


class TestSignVectorMax:
    def test_matches_brute_force(self):
        cases = [
            (uniform_on([0, 1, 2]), 3, None),
            (uniform_on([0, 1, 2]), 3, (0,)),
            (Dist.from_entries([(0, "1/2"), (1, "3/10"), (2, "1/5")]), 3, None),
            (bernoulli(F(1, 3)), 4, None),
            (bernoulli(F(1, 3)), 4, (0,)),
            (uniform_on([(0, 0), (1, 1), (1, -1)]), 3, None),
        ]
        for dist, n, x in cases:
            assert sign_vector_max(dist, n, x) == brute_sign_max(dist, n, x)

    def test_even_count_favors_balance(self):
        # with half the signs flipped the sum telescopes to an alternating law
        b = bernoulli(F(1, 3))
        value, signs = sign_vector_max(b, 4)
        assert value == alternating_bernoulli(4, F(1, 3)).atom(0)
        assert sorted(signs) == [-1, -1, 1, 1]

    def test_single_summand(self):
        value, signs = sign_vector_max(bernoulli(F(1, 3)), 1)
        assert (value, signs) == (F(2, 3), (-1,))

    def test_cap(self):
        # the cap is a prediction of work, not of n: 25 Bernoulli summands are cheap, 24 of 8 spread atoms are not
        assert sign_vector_max(bernoulli(F(1, 2)), 25) == (F(1300075, 8388608), (-1,) * 25)
        msg = "49 sign-search convolutions of 24 summands predict 5885728 steps, above the cap 5000000"
        with pytest.raises(TooLarge, match=msg):
            sign_vector_max(uniform_on([0, 1, 7, 50, 333, 2000, 15000, 99999]), 24)

    @given(st.one_of(dists(coord_bound=2), dists(coord_bound=1000)), st.integers(1, 8), st.integers(0, 2**400))
    @example(uniform_on([0, 1, 100, 10000]), 8, 2**400)
    def test_sign_budget_never_undercounts(self, law, n, tilt):
        # each convolution the search forms costs 40 steps plus its atom products, each weighted by the bits
        # of the two numerators, so a budget one below the steps counted through Dist.convolve always refuses
        # it; a heavy first atom gives long numerators, which the prediction must cover too
        weights = [m + tilt * (i == 0) for i, m in enumerate(law.nums)]
        law = Dist.from_entries((p, F(w, sum(weights))) for p, w in zip(law.support, weights))
        steps = []
        convolve = Dist.convolve

        def counted(a, b):
            bits = max(a.nums).bit_length() * max(b.nums).bit_length()
            steps.append(40 + len(a.support) * len(b.support) * (1 + bits // 2**20))
            return convolve(a, b)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Dist, "convolve", counted)
            patch.setattr(errors, "MAX_WORK", math.inf)
            sign_vector_max(law, n)
            patch.setattr(errors, "MAX_WORK", sum(steps) - 1)
            with pytest.raises(TooLarge, match="sign-search convolutions"):
                sign_vector_max(law, n)


class TestWeightGridSearch:
    def test_sign_grid_reduces_to_sign_search(self):
        u = uniform_on([0, 1, 2])
        result = weight_grid_search(u, 3, [F(-1), F(1)])
        assert result.value == result.sign_value
        assert not result.exceeds_signs

    def test_matches_undeduplicated_enumeration(self):
        d = Dist.from_entries([(0, "1/2"), (1, "3/10"), (2, "1/5")])
        grid = [F(-2), F(-1), F(1), F(2)]
        best = F(0)
        for tup in itertools.product(grid, repeat=2):
            law = weighted_sum(tup, [d] * 2).dist
            best = max(best, law.concentration()[0])
        result = weight_grid_search(d, 2, grid)
        assert result.value == best
        assert result.weights == next(
            tup for tup in itertools.product(grid, repeat=2)
            if weighted_sum(tup, [d] * 2).dist.concentration()[0] == best
        )

    def test_scaled_grid_gives_scaled_witness_same_value(self):
        b = bernoulli(F(1, 3))
        plain = weight_grid_search(b, 2, [F(-1), F(1)])
        scaled = weight_grid_search(b, 2, [F(-1, 2), F(1, 2)])
        assert plain.value == scaled.value

    def test_zero_weight_rejected(self):
        with pytest.raises(ZeroWeight):
            weight_grid_search(bernoulli(F(1, 2)), 2, [F(0), F(1)])

    def test_cap(self):
        # C(19, 14) = 11,628 sorted tuples of 14 summands exceed the fixed cap; refused before any law is built
        msg = "11628 sorted weight tuples of 14 summands predict 16279200 steps, above the cap 5000000"
        with pytest.raises(TooLarge, match=msg):
            weight_grid_search(bernoulli(F(1, 2)), 14, [F(v) for v in range(1, 7)])

    def test_atom_budget_never_undercounts(self, monkeypatch):
        # every law the search builds, one per orbit, has at most its predicted atoms, so the
        # steps predicted for the orbits are at least n times their real total
        supports, predicted = [], {}

        def recorded(weights, components):
            scaled = weighted_sum(weights, components)
            supports.append(len(scaled.dist.support))
            return scaled

        monkeypatch.setattr(search, "weighted_sum", recorded)
        monkeypatch.setattr(search, "_require_within", lambda what, count, unit: predicted.update({what: count}))
        rng = random.Random(3)
        for dim in (1, 2):
            for _ in range(25):
                d = random_dist(rng, dim=dim)
                grid = sorted({F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)) for _ in range(3)})
                n = rng.randint(1, 4)
                supports.clear()
                predicted.clear()
                weight_grid_search(d, n, grid)
                (orbits,) = [count for what, count in predicted.items() if "weight orbits" in what]
                assert orbits >= n * sum(supports)


class TestQuasiUniformBoundCheck:
    def test_uniform_pair_attains_the_ceiling(self):
        u3 = uniform_on([0, 1, 2])
        assert quasi_uniform_bound_check([u3, u3], F(1, 3), (2,)) == (F(1, 3), F(1, 3))
        assert quasi_uniform_bound_check([u3, u3], F(1, 3), (0,)) == (F(1, 9), F(1, 3))

    def test_mixed_supports(self):
        a = uniform_on([0, 1])
        b = uniform_on([0, 3])
        assert quasi_uniform_bound_check([a, b], F(1, 2), (0,)) == (F(1, 4), F(1, 2))

    def test_alternating_quasi_uniform_is_tight(self):
        for alpha in (F(1, 3), F(2, 5), F(1, 2), F(3, 4)):
            u = quasi_uniform(alpha)
            for n in (2, 4):
                parts = [u, u.negate()] * (n // 2)
                lhs, rhs = quasi_uniform_bound_check(parts, alpha, (0,) )
                assert lhs == rhs

    def test_domain(self):
        u = quasi_uniform(F(1, 2))
        with pytest.raises(OddN):
            quasi_uniform_bound_check([u], F(1, 2), (0,))
        with pytest.raises(QTooLarge):
            quasi_uniform_bound_check([bernoulli(F(2, 3)), u], F(1, 2), (0,))

    def test_random_capped_instances(self):
        rng = random.Random(23)
        for _ in range(60):
            alpha = rng.choice((F(1, 3), F(2, 5), F(1, 2), F(3, 4)))
            ds = [random_capped_dist(rng, alpha) for _ in range(rng.choice((2, 4)))]
            x = convolve_all(ds).concentration()[1]
            lhs, rhs = quasi_uniform_bound_check(ds, alpha, x)
            assert lhs <= rhs


class TestMonotonicity:
    def test_bernoulli_prefixes(self):
        b = bernoulli(F(1, 2))
        assert monotonicity_check([b] * 4) == (F(1, 2), F(1, 2), F(3, 8), F(3, 8))

    def test_point_masses_stay_flat(self):
        from anticonc import delta

        assert monotonicity_check([delta(3)] * 3) == (F(1), F(1), F(1))

    def test_single_distribution(self):
        assert monotonicity_check([uniform_on([0, 5])]) == (F(1, 2),)

    def test_random_prefixes(self):
        rng = random.Random(29)
        for _ in range(60):
            dim = rng.choice((1, 2))
            ds = [random_dist(rng, dim=dim) for _ in range(rng.randint(2, 5))]
            maxima = monotonicity_check(ds)
            assert all(a >= b for a, b in zip(maxima, maxima[1:]))
