"""Acceptance suite: one test per pinned criterion, with wall-clock budgets.

Each test prints a single PASS line (visible with -s or in the -v test
listing) and enforces both the mathematical statement and its time budget.
Budgets are generous on purpose; the suite must stay green on modest
hardware, not benchmark it.
"""

import argparse
import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from anticonc import (
    Dist,
    alternating_zero_asym,
    alternating_zero_exact,
    bernoulli,
    birnbaum_sides,
    balancing_bound,
    convolve_all,
    default_p_grid,
    gabriel_sides,
    k_phase_scan,
    middle_coeff_asym,
    middle_coeff_exact,
    monotonicity_check,
    quasi_uniform,
    quasi_uniform_bound_check,
    quasi_uniform_variance,
    signed_binomial_diff,
    small_dev_ratio_approx,
    small_dev_ratio_exact,
    uniform_on,
    weight_grid_search,
)
from anticonc.cli import CHECKS
from anticonc.sampling import random_dist

LEVELS = (F(1, 3), F(2, 5), F(1, 2), F(3, 4))


def draw(check, rng):
    """One seeded instance, drawn as `anticonc check <check> --trials` draws it."""
    return CHECKS[check].draw(argparse.Namespace(alpha=None), rng)


@contextmanager
def budget(label, seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{label}: {elapsed:.2f}s exceeded the {seconds}s budget"
    print(f"[{label}] PASS ({elapsed:.2f}s < {seconds}s)")


def test_criterion_01_central_binomial_zero_mass_exact():
    with budget("C-01 central binomial zero mass", 1.0):
        for n in range(2, 41, 2):
            assert alternating_zero_exact(n, F(1, 2)) == F(math.comb(n, n // 2), 2**n)


def test_criterion_02_balancing_bound_on_random_instances():
    with budget("C-02 balancing bound, 1000 instances, all targets", 60.0):
        rng = random.Random(202)
        for _ in range(1000):
            dists = draw("balancing", rng)["dists"]
            joint = convolve_all(dists)
            bound = balancing_bound(dists, joint.concentration()[1])
            assert bound.lhs <= bound.rhs
            assert all(mass <= bound.rhs for _, mass in joint.atoms)


def test_criterion_03_quasi_uniform_ceiling_and_tightness():
    with budget("C-03 quasi-uniform ceiling, 500 instances + tightness", 60.0):
        rng = random.Random(303)
        for _ in range(500):
            instance = draw("theorem2", rng)
            alpha, dists = instance["alpha"], instance["dists"]
            x = convolve_all(dists).concentration()[1]
            lhs, rhs = quasi_uniform_bound_check(dists, alpha, x)
            assert lhs <= rhs
        for alpha in LEVELS:
            u = quasi_uniform(alpha)
            for n in (2, 4):
                parts = [u, u.negate()] * (n // 2)
                lhs, rhs = quasi_uniform_bound_check(parts, alpha, (0,))
                assert lhs == rhs


def test_criterion_04_quasi_uniform_variance_closed_form():
    with budget("C-04 variance closed form, 1000 levels", 5.0):
        rng = random.Random(404)
        seen = 0
        while seen < 1000:
            den = rng.randint(2, 40)
            num = rng.randint(1, den - 1)
            alpha = F(num, den)
            assert quasi_uniform_variance(alpha) == quasi_uniform(alpha).variance()
            seen += 1


def test_criterion_05_rearrangement_and_peakedness_inequalities():
    with budget("C-05 rearrangement + peakedness, 500 each", 60.0):
        rng = random.Random(505)
        for _ in range(500):
            lhs, rhs = gabriel_sides(draw("gabriel", rng)["seqs"])
            assert lhs <= rhs
        for _ in range(500):
            instance = draw("birnbaum", rng)
            x, y, yp = instance["X"], instance["Y"], instance["Yp"]
            radius = max(abs(v) for d in (x, y, yp) for (v,), _ in d.atoms)
            for k in range(2 * radius + 1):
                lhs, rhs = birnbaum_sides(x, y, yp, k)
                assert lhs <= rhs


def test_criterion_06_alternating_zero_expansion_residuals():
    with budget("C-06 alternating zero expansion residuals", 10.0):
        for p in (F(1, 10), F(1, 4), F(1, 2)):
            even = [
                abs(float(alternating_zero_exact(n, p)) - alternating_zero_asym(n, p)) * n * n
                for n in (16, 32, 64, 128)
            ]
            assert all(nxt <= 2 * prev for prev, nxt in zip(even, even[1:]))
            odd = [
                abs(float(alternating_zero_exact(n, p)) - alternating_zero_asym(n, p)) * n
                for n in (17, 33, 65, 129)
            ]
            assert all(nxt < prev for prev, nxt in zip(odd, odd[1:]))


def test_criterion_07_small_deviation_ratio_residuals():
    with budget("C-07 small deviation residuals", 10.0):
        for p in (F(1, 4), F(1, 2)):
            for k in (1, 2):
                scaled = [
                    abs(float(small_dev_ratio_exact(n, p, k)) - small_dev_ratio_approx(n, p, k)) * n
                    for n in (25, 50, 100, 200)
                ]
                assert max(scaled) == scaled[0]
                assert scaled[0] < 1.0


def test_criterion_08_middle_coefficient_checks():
    with budget("C-08 middle coefficient", 5.0):
        for n in range(1, 31):
            assert middle_coeff_exact(n, 2, 1) == math.comb(2 * n, n)
        exact = middle_coeff_exact(20, 2, 1)
        approx = middle_coeff_asym(20, 2, 1)
        assert abs(float(exact) - approx) / float(exact) < 1e-3


def test_criterion_09_phase_scan_31_summands_512_grid():
    with budget("C-09 split-point phase scan n=31, 512 grid", 600.0):
        diagram = k_phase_scan(31, default_p_grid(512))
        assert len(diagram.cells) == 512
        assert len(diagram.observed_ks) >= 3
        print(f"  observed best splits: {diagram.observed_ks}")


def test_criterion_10_mode_containment_every_cell():
    # independent of the scan's internal check: recompute the mode and the
    # floor/ceil window directly for every (p, k) cell of the default grid
    with budget("C-10 mode containment on the full grid", 600.0):
        for p in default_p_grid(512):
            for k in range(31 // 2 + 1):
                d = signed_binomial_diff(31, k, p)
                mean = (31 - 2 * k) * p
                mode_value, (mode,) = d.concentration()
                assert mode in {math.floor(mean), math.ceil(mean)}
                assert mode_value == max(d.atom(math.floor(mean)), d.atom(math.ceil(mean)))


def test_criterion_11_weight_grid_never_beats_signs():
    with budget("C-11 weight grid vs signs, 3 summands", 300.0):
        grid = [F(v) for v in (-3, -2, -1, 1, 2, 3)]
        cases = [
            uniform_on([0, 1, 2]),
            bernoulli(F(1, 3)),
            Dist.from_entries([(0, "1/2"), (1, "1/4"), (2, "1/4")]),
        ]
        for dist in cases:
            result = weight_grid_search(dist, 3, grid)
            assert result.value >= result.sign_value  # signs sit inside the grid
            assert not result.exceeds_signs


def test_criterion_12_monotone_concentration_along_prefixes():
    with budget("C-12 monotone concentration, 200 prefixes", 10.0):
        rng = random.Random(1212)
        for _ in range(200):
            dist = random_dist(rng, dim=rng.choice((1, 2)))
            maxima = monotonicity_check([dist] * rng.randint(2, 5))
            assert all(a >= b for a, b in zip(maxima, maxima[1:]))
