"""Closed forms that share no code with any kernel, checked against the library.

Each is a finite sum of binomial coefficients, so a fault shared by the dict
kernel and the recurrence (in packing, shifting or reducing a law) cannot
hide from them.
"""

import math
from fractions import Fraction as F

import hypothesis.strategies as st
from hypothesis import example, given

from anticonc import alternating_bernoulli, alternating_zero_exact
from anticonc.asymptotics import local_limit_exact

from conftest import fractions_in_unit


def flat_zero_mass(n, k):
    # n iid uniform laws on 0..k - 1, alternately signed: with b = n // 2 minus summands, each k - 1 - U is uniform
    # too, so the zero mass is the coefficient of x^(b (k - 1)) in ((1 - x^k) / (1 - x))^n over k^n
    top = n // 2 * (k - 1)
    total = sum((-1) ** i * math.comb(n, i) * math.comb(top - i * k + n - 1, n - 1) for i in range(top // k + 1))
    return F(total, k**n)


@given(st.integers(1, 29), st.integers(2, 11))
@example(29, 11)
def test_flat_zero_mass_is_inclusion_exclusion(n, k):
    assert local_limit_exact(n, F(1, k)) == flat_zero_mass(n, k)


def bernoulli_zero_mass(n, p):
    # the plus side B ~ Binomial(n - n // 2, p) equals the minus side B' ~ Binomial(n // 2, p) at some j
    u, v = n - n // 2, n // 2
    return sum(math.comb(u, j) * math.comb(v, j) * p ** (2 * j) * (1 - p) ** (n - 2 * j) for j in range(v + 1))


@given(st.integers(1, 39), fractions_in_unit().filter(lambda p: p <= F(1, 2)))
@example(39, F(1, 7))
@example(38, F(2, 5))
def test_alternating_bernoulli_zero_mass_is_a_sum_of_matched_binomials(n, p):
    assert alternating_zero_exact(n, p) == alternating_bernoulli(n, p).atom(0) == bernoulli_zero_mass(n, p)
