import itertools
import math
import random
import time
from fractions import Fraction as F
from functools import reduce

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
    delta,
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
from anticonc import errors, families, search
from anticonc.dist import _hit, _sum_atoms
from anticonc.search import GridSearchResult
from anticonc.errors import AssertionFailed, EvenN, OddN, ParamOutOfRange, QTooLarge, TooLarge, ZeroWeight
from anticonc.sampling import random_capped_dist, random_dist
from conftest import dists, recurrence_steps


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

    # Grid values whose floats tie: p nudged by less than an ulp, and p whose float underflows to 0.0.
    @given(st.lists(st.one_of(
        st.builds(lambda p, nudge: p - nudge * F(1, 10**30),
                  st.builds(F, st.integers(1, 15), st.integers(2, 30)).filter(lambda p: p <= F(1, 2)),
                  st.sampled_from((0, 1, 2))),
        st.integers(1, 10**6).map(lambda a: F(a, 10**400)),
    ), min_size=1, max_size=12))
    @example([F(1, 3) + F(1, 10**30), F(1, 3), F(2, 10**400), F(1, 10**400), F(1, 2)])
    def test_grid_order_is_the_exact_order_of_fractions(self, grid):
        assert [c.p for c in k_phase_scan(1, grid).cells] == sorted(set(grid))

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

    @given(st.integers(0, 10).map(lambda h: 2 * h + 1),
           st.lists(st.integers(2, 80).flatmap(lambda b: st.builds(F, st.integers(1, b // 2), st.just(b))),
                    min_size=1, max_size=6))
    def test_cells_are_the_rows_of_optimal_k_scan(self, n, grid):
        cells = {c.p: c for c in k_phase_scan(n, grid).cells}
        for p in grid:
            result = optimal_k_scan(n, p)
            assert (cells[p].best_ks, cells[p].best_value) == (result.tied_ks(), result.best_value)

    def test_each_grid_value_is_validated_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(search, "_require_p", lambda q: calls.append(q) or errors._require_p(q))
        k_phase_scan(5, default_p_grid(8))
        assert calls == default_p_grid(8)

    def test_grid_domain(self):
        with pytest.raises(ParamOutOfRange):
            k_phase_scan(3, [F(3, 5)])
        with pytest.raises(ParamOutOfRange):
            k_phase_scan(3, [])


@pytest.mark.parametrize("scan", [optimal_k_scan, lambda n, p: k_phase_scan(n, [p])], ids=["optimal_k", "k_phase"])
def test_a_long_denominator_is_priced_by_its_limbs(scan):
    # each of the 33,153 coefficient updates divides by a number of 16 limbs, about 1,000 steps apiece
    start = time.perf_counter()
    message = r"^1 values of p at n = 256 \(denominators up to 10{300}\) predict 33086774 steps"
    with pytest.raises(TooLarge, match=message):
        scan(256, F(1, 10**300))
    assert time.perf_counter() - start < 1


def brute_sign_max(dist, n, x=None):
    best = None
    for signs in itertools.product((-1, 1), repeat=n):
        law = weighted_sum(signs, [dist] * n).dist
        value = law.concentration()[0] if x is None else law.atom(x)
        if best is None or value > best[0]:
            best = (value, signs)
    return best


GRID = st.lists(st.sampled_from([F(v, d) for v in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3)]), min_size=1, max_size=4)


def tilted(law, tilt):
    # the law with `tilt` added to its first numerator: a heavy first atom gives long numerators
    weights = [m + tilt * (i == 0) for i, m in enumerate(law.nums)]
    return Dist.from_entries((p, F(w, sum(weights))) for p, w in zip(law.support, weights))


def counting_kernels(patch, steps):
    # the work each kernel call does, priced by the rule of its kernel from what it actually formed: a convolution
    # 40 steps plus its atom products, each weighted by the bits of the two numerators; a hit one step per atom of
    # the last law's table and one lookup and product per atom of its head; a pass of coefficient updates 80 steps
    # plus its updates of 1 + bits limbs / 4096, a pass of the recurrence kernel one update per coefficient and run
    convolve, ladder, recurrence = Dist.convolve, search._next_split, search._recurrence

    def counted(a, b):
        bits = max(a.nums).bit_length() * max(b.nums).bit_length()
        steps.append(40 + len(a.support) * len(b.support) * (2**20 + bits) // 2**20)
        return convolve(a, b)

    def hit(dists, x):
        head = reduce(convolve, dists[:-1]) if len(dists) > 1 else delta((0,) * dists[0].dim)
        bits = max(head.nums).bit_length() * max(dists[-1].nums).bit_length()
        steps.append(len(dists[-1].support) + len(head.support) * (2**21 + bits) // 2**20)
        return _hit(dists, x)

    def updates(row, a, c):
        out = ladder(row, a, c)
        limbs = -(-(a + c).bit_length() // 64)
        steps.append(len(out) * (4096 + max(out).bit_length() * limbs) // 4096)
        return out

    def recurred(g, e):
        out = recurrence(g, e)
        steps.append(recurrence_steps(g, e, out))
        return out

    patch.setattr(Dist, "convolve", counted)
    patch.setattr(search, "_hit", hit)
    patch.setattr(search, "_recurrence", recurred)
    patch.setattr(search, "_next_split", updates)


def refused_below_largest_law(run, what):
    # no search forms a law past MAX_ATOMS: with the cap one below the largest law its kernel forms, the search is
    # refused by atoms, before the law is formed (a cap of 0 is no cap)
    sizes, convolve = [], Dist.convolve

    def counted(a, b):
        out = convolve(a, b)
        sizes.append(len(out.support))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Dist, "convolve", counted)
        for cap in ("MAX_ATOMS", "MAX_WORK"):
            patch.setattr(errors, cap, math.inf)
        run()
        if max(sizes, default=0) > 1:
            patch.setattr(errors, "MAX_ATOMS", max(sizes) - 1)
            with pytest.raises(TooLarge, match=f"{what} .* atoms"):
                run()


P = st.builds(lambda a, b: F(a, 2 * a + b), st.integers(1, 2**70), st.integers(0, 2**70))


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

    @given(st.integers(1, 2).flatmap(lambda dim: st.tuples(
        dists(dim=dim, coord_bound=3), st.integers(1, 6), st.tuples(*[st.integers(-10, 10)] * dim))))
    def test_a_target_reads_the_law_it_used_to_form(self, case):
        # the form that built -P_(n - j) * P_j for each j and read its atom at x
        law, n, x = case
        powers = list(itertools.accumulate([law] * n, Dist.convolve, initial=delta((0,) * law.dim)))
        values = [powers[n - j].negate().convolve(powers[j]).atom(x) for j in range(n + 1)]
        j = values.index(max(values))
        assert sign_vector_max(law, n, x) == (values[j], (-1,) * (n - j) + (1,) * j)

    def test_single_summand(self):
        value, signs = sign_vector_max(bernoulli(F(1, 3)), 1)
        assert (value, signs) == (F(2, 3), (-1,))

    def test_cap(self):
        # the cap is a prediction of size and work, not of n: 25 Bernoulli summands are cheap, while 24 of 8 spread
        # atoms form P_8 of C(15, 7) atoms on the way
        assert sign_vector_max(bernoulli(F(1, 2)), 25) == (F(1300075, 8388608), (-1,) * 25)
        msg = "13 sign laws of 24 summands predict 6435 atoms, above the cap 4096"
        with pytest.raises(TooLarge, match=msg):
            sign_vector_max(uniform_on([0, 1, 7, 50, 333, 2000, 15000, 99999]), 24)

    @given(st.integers(1, 2).flatmap(lambda dim: st.tuples(
        st.one_of(dists(dim=dim, coord_bound=2), dists(dim=dim, coord_bound=1000)), st.integers(1, 8),
        st.none() | st.tuples(*[st.integers(-4, 4)] * dim))), st.integers(0, 2**400), P)
    @example((uniform_on([0, 1, 100, 10000]), 8, None), 2**400, F(1, 3))
    @example((uniform_on([(0, 0), (1, 0), (0, 1), (3, 2)]), 6, (1, 1)), 2**400, F(1, 2**70 + 1))
    def test_sign_budget_never_undercounts(self, case, tilt, p):
        # a budget one below the steps counted through the kernels always refuses the search: the sign laws'
        # convolutions and hits, and the ladder's coefficient updates at the same n; and a cap one below its
        # largest law refuses the sign search by atoms
        law, n, x = case
        law = tilted(law, tilt)
        for run, what in ((lambda: sign_vector_max(law, n, x), "sign laws"),
                          (lambda: optimal_k_scan(n, p), "values of p")):
            steps = []
            with pytest.MonkeyPatch.context() as patch:
                counting_kernels(patch, steps)
                patch.setattr(errors, "MAX_WORK", math.inf)
                run()
                patch.setattr(errors, "MAX_WORK", sum(steps) - 1)
                with pytest.raises(TooLarge, match=what):
                    run()
        refused_below_largest_law(lambda: sign_vector_max(law, n, x), "sign laws")


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

    @given(st.integers(1, 2).flatmap(lambda dim: st.tuples(
        st.one_of(dists(dim=dim, coord_bound=2), dists(dim=dim, coord_bound=1000)), st.integers(1, 6), GRID)),
        st.integers(0, 2**400))
    @example((uniform_on([0, 1, 100, 10000]), 6, [F(1), F(2), F(3)]), 2**400)
    @example((uniform_on([(-5, 0), (-2, 4), (1, 2), (4, 0)]), 6, [F(2, 3), F(1), F(-3, 2)]), 0)
    def test_atom_budget_never_undercounts(self, case, tilt):
        # the steps the plans predict are never fewer than those counted through the kernels: the weight orbits
        # and sign laws (the walk cap before them counts no convolution), and the two binomials of a signed
        # difference at the same n with their product; and a cap one below its largest law refuses the weight
        # search by atoms
        law, n, grid = case
        law, p = tilted(law, tilt), F(1 + tilt % 5, 2 + 2 * (tilt % 5) + tilt % 7)
        for run, what in ((lambda: weight_grid_search(law, n, grid), "weight orbits"),
                          (lambda: signed_binomial_diff(n, n // 2, p), "")):
            steps, predicted = [], []
            with pytest.MonkeyPatch.context() as patch:
                counting_kernels(patch, steps)
                patch.setattr(families, "_recurrence", search._recurrence)
                patch.setattr(errors, "_require_within", lambda *call: predicted.append(call))
                run()
            plans = [count for name, count, unit in predicted if unit == "steps" and what in name]
            assert (plans[-1] if what else sum(plans)) >= sum(steps)
        refused_below_largest_law(lambda: weight_grid_search(law, n, grid), "weight orbits")


def reference_sign_vector_max(dist, n, x=None):
    # the search before the plan: every law j = 0..n formed from P_(n - j) and P_j, or read at x
    powers = list(itertools.accumulate([dist] * n, Dist.convolve, initial=delta((0,) * dist.dim)))
    best = None
    for j in range(n + 1):
        minus = powers[n - j].negate()
        value = minus.convolve(powers[j]).concentration()[0] if x is None else _hit([minus, powers[j]], x)
        if best is None or value > best[0]:
            best = (value, j)
    value, j = best
    return value, (-1,) * (n - j) + (1,) * j


def reference_atom_count(runs, atoms, spans):
    # the search's own predictor before `dist._sum_atoms`: runs (w, m) of iid summands of `atoms` atoms spanning
    # `spans` steps of their lattice, the fewer of the multisets and the box points on the sublattice of gcd(w)
    multisets, width, g = 1, 0, 0
    for w, m in runs:
        multisets, width, g = multisets * math.comb(m + atoms - 1, atoms - 1), width + m * abs(w), math.gcd(g, w)
    return min(multisets, math.prod([width // g * span + 1 for span in spans]))


@given(st.integers(1, 3).flatmap(lambda dim: dists(dim=dim, coord_bound=6)),
       st.lists(st.tuples(st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 40)), min_size=1, max_size=4,
                unique_by=lambda run: run[0]))
@example(uniform_on([0, 2, 6]), [(2, 5), (-3, 7)])
def test_sum_atoms_is_the_search_predictor_on_one_law(law, runs):
    # on the runs of a search law, of distinct weights, the predictor of every sum gives the search's own counts
    offsets = [[v - min(c) for v in c] for c in zip(*law.support)]
    spans = [max(c) // (math.gcd(*c) or 1) for c in offsets]
    predicted = list(_sum_atoms([(law, w, m) for w, m in runs]))
    assert predicted == [reference_atom_count(runs[:i], len(law.support), spans) for i in range(1, len(runs) + 1)]


def reference_weight_orbit_key(weights):
    # canonical form under permutation and global rescaling
    denom = math.lcm(*(w.denominator for w in weights))
    ints = sorted(int(w * denom) for w in weights)
    g = math.gcd(*(abs(i) for i in ints))
    primitive = tuple(i // g for i in ints)
    flipped = tuple(sorted(-i for i in primitive))
    return min(primitive, flipped)


def reference_weight_grid_search(dist, n, grid):
    # the search before the plan: each orbit's law from n summands through weighted_sum, and a separate sign search
    orbits = {}
    for tup in itertools.combinations_with_replacement(sorted(set(grid)), n):
        orbits.setdefault(reference_weight_orbit_key(tup), tup)
    sign_value, sign_vector = reference_sign_vector_max(dist, n)
    best = None
    for tup in orbits.values():
        value, argmax = weighted_sum(tup, [dist] * n).dist.concentration()
        if best is None or value > best[0]:
            best = (value, tup, argmax)
    value, weights, argmax = best
    return GridSearchResult(value, weights, argmax, sign_value, sign_vector, value > sign_value)


@given(st.integers(1, 2).flatmap(lambda dim: st.tuples(
    dists(dim=dim, coord_bound=3), st.integers(1, 5), st.tuples(*[st.integers(-6, 6)] * dim), GRID)))
@example((uniform_on([0, 1, 2]), 4, (0,), [F(-1), F(1), F(2)]))
@example((bernoulli(F(1, 2)), 5, (1,), [F(-1, 2), F(1, 2), F(1)]))
@example((uniform_on([(0, 0), (1, 1), (1, -1)]), 3, (1, 1), [F(-2, 3), F(1, 3), F(2)]))
def test_searches_match_the_reference(case):
    # field by field, ties included: the same values, witnesses and argmax as the searches built law by law
    law, n, x, grid = case
    assert sign_vector_max(law, n) == reference_sign_vector_max(law, n)
    assert sign_vector_max(law, n, x) == reference_sign_vector_max(law, n, x)
    assert vars(weight_grid_search(law, n, grid)) == vars(reference_weight_grid_search(law, n, grid))


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
