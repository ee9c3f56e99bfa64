"""Exact finitely supported probability measures on integer lattices.

A law is stored as integer numerators over one common denominator, reduced
so that gcd(den, *nums) == 1; convolution multiplies integers and no
operation ever rounds.  Masses cross the API as `fractions.Fraction`.
Distributions are immutable; every operation returns a new one.  Points are
kept in lexicographic order, so the stored form is unique and equality,
hashing and serialization are canonical.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .errors import DimensionMismatch, MassNotOne, NegativeMass, ZeroWeight, _require_at_least, _require_common_dim

__all__ = [
    "Dist",
    "Point",
    "ScaledDist",
    "as_fraction",
    "as_point",
    "convolve_all",
    "delta",
    "format_fraction",
    "self_convolve",
    "uniform_on",
    "weighted_sum",
]

Point = tuple[int, ...]
RationalLike = Union[Fraction, int, str]
PointLike = Union[int, Sequence[int]]

_RATIONAL = re.compile(r"(-?\d+)(?:/(0*[1-9]\d*))?", re.ASCII)    # no zero denominator


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints and 'num/den' strings to Fraction; Fractions pass through.

    A string is [-]digits or [-]digits/digits with a nonzero denominator.
    Floats, decimals, bools and other strings raise ValueError; none is
    coerced.
    """
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    match = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise ValueError(f"not a rational: {value!r}")
    return Fraction(int(match[1]), int(match[2] or 1))


def as_point(value: PointLike) -> Point:
    """Coerce an int (dimension 1) or a sequence of ints to a lattice point."""
    if isinstance(value, int):
        return (value,)
    return tuple(int(c) for c in value)


def format_fraction(q: Fraction) -> str:
    """Render a rational as 'num/den', denominator always explicit."""
    return f"{q.numerator}/{q.denominator}"


def _canonical(dim: int, mass: dict[Point, int], den: int) -> "Dist":
    # shared exit point for all constructors: drop nulls, sort, check mass, reduce
    support = sorted([p for p, m in mass.items() if m])
    nums = [mass[p] for p in support]
    total = sum(nums)
    if total != den:
        raise MassNotOne(Fraction(den - total, den))
    g = math.gcd(den, *nums)
    if g > 1:  # products of reduced laws are reduced (Gauss's lemma); merged images need not be
        nums = [m // g for m in nums]
    return Dist(dim, tuple(support), tuple(nums), den // g)


@dataclass(frozen=True)
class Dist:
    """A probability measure with finite support on the lattice Z^dim.

    The mass at support[i] is nums[i] / den: points in lexicographic order,
    positive numerators, and gcd(den, *nums) == 1.
    """

    dim: int
    support: tuple[Point, ...]
    nums: tuple[int, ...]
    den: int

    @staticmethod
    def from_entries(entries: Iterable[tuple[PointLike, RationalLike]]) -> "Dist":
        """Build a distribution from (point, mass) pairs.

        Duplicate points are merged, zero masses dropped.  Raises
        NegativeMass, DimensionMismatch, or MassNotOne (with the exact
        deficit) when the input is not a probability distribution.
        """
        mass: dict[Point, Fraction] = {}
        dim = None
        for pt, m in entries:
            p = as_point(pt)
            q = as_fraction(m)
            if q < 0:
                raise NegativeMass(f"mass {q} at {p}")
            if dim is None:
                dim = len(p)
            elif len(p) != dim:
                raise DimensionMismatch(f"point {p} has dim {len(p)}, expected {dim}")
            mass[p] = mass.get(p, Fraction(0)) + q
        if dim is None:
            raise ValueError("no atoms given")
        den = math.lcm(*[q.denominator for q in mass.values()])
        return _canonical(dim, {p: q.numerator * (den // q.denominator) for p, q in mass.items()}, den)

    # -- queries -------------------------------------------------------

    @cached_property
    def atoms(self) -> tuple[tuple[Point, Fraction], ...]:
        """The (point, mass) pairs in point order."""
        return tuple([(p, Fraction(m, self.den)) for p, m in zip(self.support, self.nums)])

    @cached_property
    def _mass(self) -> dict[Point, int]:
        return dict(zip(self.support, self.nums))

    def atom(self, x: PointLike) -> Fraction:
        """Mass at the point x (0 if x is not an atom)."""
        p = as_point(x)
        if len(p) != self.dim:
            raise DimensionMismatch(f"point {p} has dim {len(p)}, expected {self.dim}")
        return Fraction(self._mass.get(p, 0), self.den)

    def concentration(self) -> tuple[Fraction, Point]:
        """Largest atom and its location.

        Ties broken toward the lexicographically smallest point; points are
        stored in lex order, so the first maximum wins.
        """
        i = self.nums.index(max(self.nums))
        return Fraction(self.nums[i], self.den), self.support[i]

    def interval_prob(self, k: int) -> Fraction:
        """P(|X| <= k) for a one-dimensional distribution."""
        if self.dim != 1:
            raise DimensionMismatch("interval probabilities need dimension 1")
        _require_at_least("k", k, 0)
        return Fraction(sum([m for (x,), m in zip(self.support, self.nums) if -k <= x <= k]), self.den)

    def is_symmetric(self) -> bool:
        """True when the law is invariant under x -> -x."""
        return self == self.negate()

    def is_unimodal(self) -> bool:
        """True when the pmf on the integer range of the support rises then falls.

        Interior lattice points with zero mass count as zeros, so a gap
        between two massive points breaks unimodality.
        """
        if self.dim != 1:
            raise DimensionMismatch("unimodality is defined here for dimension 1")
        lo, hi = self.support[0][0], self.support[-1][0]
        pmf = [self._mass.get((x,), 0) for x in range(lo, hi + 1)]
        i = 0
        while i + 1 < len(pmf) and pmf[i] <= pmf[i + 1]:
            i += 1
        while i + 1 < len(pmf) and pmf[i] >= pmf[i + 1]:
            i += 1
        return i == len(pmf) - 1

    def mean(self) -> Fraction:
        if self.dim != 1:
            raise DimensionMismatch("moments are defined here for dimension 1")
        return sum((m * x for (x,), m in self.atoms), start=Fraction(0))

    def variance(self) -> Fraction:
        mu = self.mean()
        return sum((m * (x - mu) ** 2 for (x,), m in self.atoms), start=Fraction(0))

    # -- transforms ----------------------------------------------------

    def map_points(self, fn: Callable[[Point], PointLike]) -> "Dist":
        """Pushforward along a point map into the same dimension; colliding images merge."""
        mass: dict[Point, int] = {}
        for p, m in zip(self.support, self.nums):
            q = as_point(fn(p))
            if len(q) != self.dim:
                raise DimensionMismatch(f"image point {q} has dim {len(q)}, expected {self.dim}")
            mass[q] = mass.get(q, 0) + m
        return _canonical(self.dim, mass, self.den)

    def negate(self) -> "Dist":
        """Law of -X."""
        return self.map_points(lambda p: tuple(-c for c in p))

    def shift(self, v: PointLike) -> "Dist":
        """Law of X + v."""
        w = as_point(v)
        if len(w) != self.dim:
            raise DimensionMismatch(f"shift {w} has dim {len(w)}, expected {self.dim}")
        return self.map_points(lambda p: tuple(c + d for c, d in zip(p, w)))

    def scale(self, c: int) -> "Dist":
        """Law of c * X for a nonzero integer c."""
        if c == 0:
            raise ZeroWeight("scaling by 0 collapses the lattice")
        return self.map_points(lambda p: tuple(c * x for x in p))

    def convolve(self, other: "Dist") -> "Dist":
        """Law of X + Y for independent X ~ self, Y ~ other."""
        if self.dim != other.dim:
            raise DimensionMismatch(f"cannot convolve dim {self.dim} with dim {other.dim}")
        # Each point becomes one int in balanced base `radix`, first coordinate
        # most significant; the radix leaves room for every coordinate of a
        # sum, so adding two keys adds the points without carries.
        half = 2 * max([abs(c) for d in (self, other) for p in d.support for c in p])
        radix = 2 * half + 1
        left, right = ([(reduce(lambda k, c: k * radix + c, p, 0), m) for p, m in zip(d.support, d.nums)]
                       for d in (self, other))
        mass: dict[int, int] = {}
        get = mass.get
        for kp, mp in left:
            for kq, mq in right:
                k = kp + kq
                mass[k] = get(k, 0) + mp * mq
        points: dict[Point, int] = {}
        for k, m in mass.items():
            coords = []
            for _ in range(self.dim):
                coords.append((k + half) % radix - half)
                k = (k - coords[-1]) // radix
            points[tuple(coords[::-1])] = m
        return _canonical(self.dim, points, self.den * other.den)

    # -- serialization -------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "dim": self.dim,
            "atoms": [[list(p), format_fraction(m)] for p, m in self.atoms],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "Dist":
        """Parse the canonical JSON object; any other shape, a coordinate that is
        not a JSON integer or a mass as_fraction rejects raises ValueError."""
        if not (isinstance(obj, dict) and type(obj.get("dim")) is int and isinstance(obj.get("atoms"), list)):
            raise ValueError('a law is a JSON object {"dim": d, "atoms": [[point, mass], ...]}')
        entries = []
        for atom in obj["atoms"]:
            if not (isinstance(atom, list) and len(atom) == 2 and isinstance(atom[0], list)
                    and all(type(c) is int for c in atom[0])):
                raise ValueError(f"an atom is [[c1, ..., cd], mass] with integer coordinates, got {atom!r}")
            entries.append((atom[0], as_fraction(atom[1])))
        dist = Dist.from_entries(entries)
        if dist.dim != obj["dim"]:
            raise DimensionMismatch(f"declared dim {obj['dim']} but atoms have dim {dist.dim}")
        return dist

    def to_json(self) -> str:
        """Canonical compact JSON; equal distributions serialize identically."""
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "Dist":
        return Dist.from_json_obj(json.loads(text))


# -- module-level constructors and combinators -------------------------


def delta(point: PointLike) -> Dist:
    """Point mass at the given lattice point."""
    return Dist.from_entries([(point, Fraction(1))])


def uniform_on(points: Iterable[PointLike]) -> Dist:
    """Uniform distribution over distinct lattice points."""
    pts = sorted({as_point(p) for p in points})
    if not pts:
        raise ValueError("no points given")
    m = Fraction(1, len(pts))
    return Dist.from_entries((p, m) for p in pts)


def convolve_all(dists: Sequence[Dist]) -> Dist:
    """Law of the sum of independent draws, one per distribution."""
    if not dists:
        raise ValueError("need at least one distribution")
    return reduce(Dist.convolve, dists)


def self_convolve(dist: Dist, n: int) -> Dist:
    """n-fold convolution power by square and multiply; n = 0 gives the point
    mass at the origin.  Exact, canonical laws make the product order moot."""
    _require_at_least("n", n, 0)
    out = delta((0,) * dist.dim) if n == 0 else None
    while n:
        if n & 1:
            out = dist if out is None else out.convolve(dist)
        n >>= 1
        if n:
            dist = dist.convolve(dist)
    return out


def _alternating_zero(mu: Dist, n: int) -> Fraction:
    """P(Y_1 - Y_2 + Y_3 - ... = 0) for n iid copies of mu: a power of the
    alternating pair, times mu once more when n is odd, at the origin."""
    law = self_convolve(mu.convolve(mu.negate()), n // 2)
    return (law.convolve(mu) if n % 2 else law).atom((0,) * mu.dim)


class ScaledDist(NamedTuple):
    """A distribution together with the integer factor its lattice was scaled by."""

    scale: int
    dist: Dist


def weighted_sum(weights: Sequence[RationalLike], components: Sequence[Dist]) -> ScaledDist:
    """Exact law of sum_i a_i X_i with rational weights.

    Rational weights are cleared to integers by the least common multiple of
    their denominators; the returned law lives on the scaled lattice and the
    factor is returned alongside it.
    """
    if len(weights) != len(components):
        raise ValueError(f"{len(weights)} weights for {len(components)} components")
    fracs = [as_fraction(w) for w in weights]
    if any(w == 0 for w in fracs):
        raise ZeroWeight("each weight must be nonzero")
    _require_common_dim(components, "component")
    denom = math.lcm(*(w.denominator for w in fracs))
    ints = [int(w * denom) for w in fracs]
    parts = [comp.scale(w) for w, comp in zip(ints, components)]
    return ScaledDist(denom, convolve_all(parts))
