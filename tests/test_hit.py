"""`dist._hit`, one atom of a sum of independent laws without the law of the sum,
and every site that reads its atom through it.

Each site is checked against the body it replaced, kept here as the oracle:
the whole last law, then `.atom`.
"""

import math
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given

from anticonc import (
    Dist,
    alternating_bernoulli,
    alternating_zero_exact,
    convolve_all,
    middle_coeff_exact,
    odd_tail_ratios,
    self_convolve,
    small_dev_ratio_exact,
)
from anticonc.dist import _alternating_zero, _hit

from conftest import dists

P_HALF = st.integers(2, 30).flatmap(lambda den: st.builds(F, st.integers(1, den // 2), st.just(den)))
POSITIVE = st.builds(F, st.integers(1, 20), st.integers(1, 12))


def pair_power_zero(mu, n):
    """The zero mass by a power of the alternating pair, times mu once more when n is odd."""
    law = self_convolve(mu.convolve(mu.negate()), n // 2)
    return (law.convolve(mu) if n % 2 else law).atom((0,) * mu.dim)


@st.composite
def laws_and_target(draw):
    dim = draw(st.integers(1, 2))
    laws = draw(st.lists(dists(dim=dim), min_size=1, max_size=4))
    on = draw(st.sampled_from(convolve_all(laws).support))
    return laws, draw(st.sampled_from([on, draw(st.tuples(*[st.integers(-20, 20)] * dim))]))


@given(laws_and_target())
def test_hit_is_the_atom_of_the_sum(case):
    laws, x = case
    assert _hit(laws, x) == convolve_all(laws).atom(x)
    assert _hit(laws, (17,) * laws[0].dim) == 0     # 4 summands of coordinates in [-4, 4] stay below 17


@given(st.integers(1, 2).flatmap(dists), st.integers(1, 9))
def test_alternating_zero_equals_the_pair_power(mu, n):
    assert _alternating_zero(mu, n) == pair_power_zero(mu, n)


@given(st.integers(1, 60), P_HALF)
def test_alternating_zero_exact_is_the_atom_of_the_law(n, p):
    assert alternating_zero_exact(n, p) == alternating_bernoulli(n, p).atom(0)


@given(st.integers(1, 30), P_HALF, st.integers(0, 8))
def test_small_dev_ratio_exact_is_the_ratio_of_two_atoms(n, p, k):
    d = alternating_bernoulli(2 * n, p)
    assert small_dev_ratio_exact(n, p, k) == d.atom(k) / d.atom(0)


@given(st.integers(2, 30), P_HALF)
def test_odd_tail_ratios_are_the_atoms_of_the_sums(m, p):
    x = alternating_bernoulli(2 * (m - 1), p)
    ratios = odd_tail_ratios(m, p)
    assert ratios.exact_double_pair == x.convolve(alternating_bernoulli(2, p).scale(2)).atom(0) / x.atom(0)
    assert ratios.exact_triple == x.convolve(alternating_bernoulli(3, p)).atom(0) / x.atom(0)


@given(st.integers(1, 40), POSITIVE, POSITIVE)
def test_middle_coeff_exact_is_the_fraction_sum(n, b, c):
    expected = sum(math.comb(n, 2 * i) * math.comb(2 * i, i) * b ** (n - 2 * i) * c**i for i in range(n // 2 + 1))
    assert middle_coeff_exact(n, b, c) == expected


@pytest.fixture
def convolutions(monkeypatch):
    """The supports of the two operands of every Dist.convolve call."""
    sizes = []
    convolve = Dist.convolve
    monkeypatch.setattr(Dist, "convolve", lambda a, b: sizes.append((len(a.support), len(b.support))) or convolve(a, b))
    return sizes


def test_bernoulli_zero_masses_convolve_nothing(convolutions):
    alternating_zero_exact(200, F(1, 3))
    small_dev_ratio_exact(100, F(2, 5), 3)
    assert convolutions == []


def test_odd_tail_convolves_no_two_laws_that_grow_with_m(convolutions):
    # the alternating pair and triple have at most 4 atoms; each product has one of them as an operand
    odd_tail_ratios(100, F(1, 4))
    assert max(min(sizes) for sizes in convolutions) <= 4
