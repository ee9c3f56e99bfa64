"""Shared strategies and brute-force oracles for the test suite."""

from __future__ import annotations

import itertools
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import settings

from anticonc import Dist

settings.register_profile("repro", derandomize=True)
settings.load_profile("repro")


@st.composite
def fractions_in_unit(draw, max_den: int = 30) -> Fraction:
    den = draw(st.integers(2, max_den))
    num = draw(st.integers(1, den - 1))
    return Fraction(num, den)


@st.composite
def dists(draw, dim: int | None = None, max_support: int = 4, coord_bound: int = 4, coprime: bool = False) -> Dist:
    """A law on distinct points; its masses share one denominator, or with
    `coprime` each is cut from the rest by its own fraction (stick breaking)."""
    d = dim if dim is not None else draw(st.integers(1, 2))
    count = draw(st.integers(1, max_support))
    points = draw(
        st.lists(
            st.tuples(*[st.integers(-coord_bound, coord_bound)] * d),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    if coprime:
        masses, rest = [], Fraction(1)
        for _ in range(count - 1):
            masses.append(rest * draw(fractions_in_unit()))
            rest -= masses[-1]
        return Dist.from_entries(zip(points, masses + [rest]))
    weights = [draw(st.integers(1, 9)) for _ in range(count)]
    total = sum(weights)
    return Dist.from_entries((p, Fraction(w, total)) for p, w in zip(points, weights))


def fraction_convolve(a: Dist, b: Dist) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """The plain Fraction convolution over a point dict, in canonical atom order."""
    mass: dict[tuple[int, ...], Fraction] = {}
    for p, mp in a.atoms:
        for q, mq in b.atoms:
            r = tuple(x + y for x, y in zip(p, q))
            mass[r] = mass.get(r, Fraction(0)) + mp * mq
    return tuple(sorted((p, m) for p, m in mass.items() if m != 0))


def brute_weighted_law(weights, components) -> dict[tuple[int, ...], Fraction]:
    """Enumerate the joint product space directly; independent of convolve()."""
    law: dict[tuple[int, ...], Fraction] = {}
    for combo in itertools.product(*[d.atoms for d in components]):
        mass = Fraction(1)
        total = None
        for w, (point, m) in zip(weights, combo):
            mass *= m
            term = tuple(w * c for c in point)
            total = term if total is None else tuple(a + b for a, b in zip(total, term))
        law[total] = law.get(total, Fraction(0)) + mass
    return law
