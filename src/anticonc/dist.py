"""Exact finitely supported probability measures on integer lattices.

A law is stored as integer numerators over one common denominator, reduced
so that gcd(den, *nums) == 1; convolution multiplies integers and no
operation ever rounds.  Masses cross the API as `fractions.Fraction`.
Distributions are immutable; every operation returns a new one.  Points are
kept in lexicographic order, so the stored form is unique and equality,
hashing and serialization are canonical.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import (MAX_ATOMS, MAX_WORK, DimensionMismatch, MassNotOne, NegativeMass, ZeroWeight, _product,
                     _require_at_least, _require_common_dim, _require_digits, _require_plan, _require_within)

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


def _point_in(value: PointLike, dim: int) -> Point:
    p = as_point(value)
    if len(p) != dim:
        raise DimensionMismatch(f"point {p} has dim {len(p)}, expected {dim}")
    return p


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
        pairs: list[tuple[Point, Fraction]] = []
        dim = None
        for pt, m in entries:
            p = as_point(pt)
            q = as_fraction(m)
            if q.numerator < 0:
                raise NegativeMass(f"mass {q} at {p}")
            if dim is None:
                dim = len(p)
            elif len(p) != dim:
                raise DimensionMismatch(f"point {p} has dim {len(p)}, expected {dim}")
            pairs.append((p, q))
        if dim is None:
            raise ValueError("no atoms given")
        den = math.lcm(*{q.denominator for _, q in pairs})
        mass: dict[Point, int] = {}
        for p, q in pairs:
            mass[p] = mass.get(p, 0) + q.numerator * (den // q.denominator)
        return _canonical(dim, mass, den)

    # -- queries -------------------------------------------------------

    @cached_property
    def atoms(self) -> tuple[tuple[Point, Fraction], ...]:
        """The (point, mass) pairs in point order."""
        return tuple([(p, Fraction(m, self.den)) for p, m in zip(self.support, self.nums)])

    @cached_property
    def _mass(self) -> dict[Point, int]:
        return dict(zip(self.support, self.nums))

    @cached_property
    def _lattice(self) -> tuple[tuple[int, int], ...]:
        """Per coordinate, the span of the atoms and the gcd of their offsets, the step of the lattice they lie on."""
        return tuple([(max(c) - min(c), math.gcd(*[v - c[0] for v in c])) for c in zip(*self.support)])

    def atom(self, x: PointLike) -> Fraction:
        """Mass at the point x (0 if x is not an atom)."""
        return Fraction(self._mass.get(_point_in(x, self.dim), 0), self.den)

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
        top = self.nums.index(max(self.nums))
        no_gap = self.support[-1][0] - self.support[0][0] == len(self.nums) - 1
        return no_gap and list(self.nums) == sorted(self.nums[:top]) + sorted(self.nums[top:], reverse=True)

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
        """Law of -X: negated points run in reverse lexicographic order, so the numerators are reused as they are."""
        return Dist(self.dim, tuple([tuple([-c for c in p]) for p in self.support[::-1]]), self.nums[::-1], self.den)

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
        return self if c == 1 else self.negate() if c == -1 else self.map_points(lambda p: tuple(c * x for x in p))

    def convolve(self, other: "Dist") -> "Dist":
        """Law of X + Y for independent X ~ self, Y ~ other."""
        if self.dim != other.dim:
            raise DimensionMismatch(f"cannot convolve dim {self.dim} with dim {other.dim}")
        # Each point becomes one int in balanced base `radix`, first coordinate
        # most significant; the radix leaves room for every coordinate of a
        # sum, so adding two keys adds the points without carries, and key
        # order is point order.
        half = 2 * max([abs(c) for d in (self, other) for p in d.support for c in p])
        radix = 2 * half + 1
        weights = [radix**i for i in reversed(range(self.dim))]
        left, right = ([(sum(map(operator.mul, p, weights)), m) for p, m in zip(d.support, d.nums)]
                       for d in (self, other))
        mass: dict[int, int] = {}
        get = mass.get
        for kp, mp in left:
            for kq, mq in right:
                k = kp + kq
                mass[k] = get(k, 0) + mp * mq
        shift = half * sum(weights)     # every digit of k + shift lies in 0..radix - 1
        points = {tuple([(k + shift) // w % radix - half for w in weights]): m for k, m in sorted(mass.items())}
        return _canonical(self.dim, points, self.den * other.den)

    # -- serialization -------------------------------------------------

    def to_json_obj(self) -> dict:
        # each mass reduced by one gcd of integers, written as format_fraction writes it
        atoms, den = [], self.den
        for p, m in zip(self.support, self.nums):
            g = math.gcd(m, den)
            atoms.append([list(p), f"{m // g}/{den // g}"])
        return {"dim": self.dim, "atoms": atoms}

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
    """Law of the sum of independent draws, one per distribution, within the atom and step caps."""
    return deque(_prefix_sums(dists), maxlen=1)[0]


def _prefix_sums(dists: Sequence[Dist]) -> Iterator[Dist]:
    """The laws of X_1, X_1 + X_2, ... for independent X_i ~ dists[i], the fold priced before its first product."""
    _require_common_dim(dists, "distribution")
    if len(dists) > 1:
        _require_digits(len(dists), sum([math.log10(d.den) for d in dists]))
        _require_plan(f"the sum of {len(dists)} laws", _fold(f"the sum of {len(dists)} laws", dists))
    return itertools.accumulate(dists, Dist.convolve)


def _sum_atoms(groups: Iterable[tuple[Dist, int, int]]) -> Iterator[int]:
    """Predicted atoms of the sum of the first 1, 2, ... groups (law X, weight w, count m), m iid copies of w X: the
    fewer of the multisets, the product of C(m + |X| - 1, m) over each law object X and w, and the points of the box,
    each coordinate stepping by the gcd over the groups of |w| times the gcd of X's offsets there; in one pass."""
    counts, multisets, box = {}, 1, {}
    for law, w, m in groups:
        k, s = counts.get((id(law), w), 0), len(law.support)
        counts[id(law), w] = k + m
        multisets = multisets // math.comb(k + s - 1, k) * math.comb(k + m + s - 1, k + m)
        for c, (span, step) in enumerate(law._lattice):
            width, g = box.get(c, (0, 0))
            box[c] = (width + m * abs(w) * span, math.gcd(g, w * step))
        yield min(multisets, math.prod([width // (g or 1) + 1 for width, g in box.values()]))


def _fold(what: str, dists: Sequence[Dist]) -> Iterable[int]:
    """Steps of each product of the left fold of `dists`: the sum of the first i laws, refused above MAX_ATOMS, has
    the i-th count of `_sum_atoms` of its laws, equal laws as one, and numerators of at most their dens' summed bits.
    No count exceeds the product P of all the atom counts, so when P and n - 1 products of P atoms of all the bits
    fit the caps, that one price stands for the fold and nothing is counted."""
    bound, total = math.prod([len(d.support) for d in dists]), sum([(d.den - 1).bit_length() for d in dists])
    if bound <= MAX_ATOMS and (crude := (len(dists) - 1) * _product(bound, 1, total, total)) <= MAX_WORK:
        yield crude
        return
    atoms, bits, equal = 1, 0, {}
    for i, (d, summed) in enumerate(zip(dists, _sum_atoms([(equal.setdefault(d, d), 1, 1) for d in dists]))):
        if i:
            _require_within(what, summed, "atoms")
            yield _product(atoms, len(d.support), bits, (d.den - 1).bit_length())
        atoms, bits = summed, bits + (d.den - 1).bit_length()


def self_convolve(dist: Dist, n: int) -> Dist:
    """n-fold convolution power by square and multiply; n = 0 gives the point
    mass at the origin.  Exact, canonical laws make the product order moot."""
    _require_at_least("n", n, 0)
    return _power(dist, n, 0)


def _power(dist: Dist, n: int, more: int) -> Dist:
    """dist's n-th power, priced first with the `more` products by dist that follow it: a copies times b copies (the
    squares, each set bit of n above the lowest times the bits below, then n times 1) have the `_sum_atoms` count
    of a + b copies, at most that of n + more, and a and b times dist's bits.  No law formed has more atoms than the
    multisets of n + more of dist's atoms, so when 2 log2 n + more products of that many atoms fit the caps, that
    price stands and nothing is counted."""
    copies, bits = n + more, (dist.den - 1).bit_length()
    top = math.comb(copies + len(dist.support) - 1, copies)
    if top > MAX_ATOMS or (2 * n.bit_length() + more) * _product(top, top, copies * bits, copies * bits) > MAX_WORK:
        what = f"{copies} copies of a law"
        plan = [(1 << j, 1 << j) for j in range(n.bit_length() - 1)]
        plan += [(n & (1 << i) - 1, 1 << i) for i in range(n.bit_length()) if n >> i & 1 and n & (1 << i) - 1]
        plan += [(n, 1)] * more
        atoms = {c: next(_sum_atoms([(dist, 1, c)])) for c in {copies, *itertools.chain(*plan)}}
        _require_within(what, atoms[copies], "atoms")
        _require_plan(what, [_product(atoms[a], atoms[b], a * bits, b * bits) for a, b in plan])
    out = delta((0,) * dist.dim) if n == 0 else None
    while n:
        if n & 1:
            out = dist if out is None else out.convolve(dist)
        n >>= 1
        if n:
            dist = dist.convolve(dist)
    return out


def _hit(dists: Sequence[Dist], x: PointLike) -> Fraction:
    """P(X_1 + ... + X_n = x) for independent X_i ~ dists[i], without the law of
    the whole sum: the law of all but the last summand, then one lookup in the
    last law per atom p of it, at x - p.  This costs |head| lookups where the
    last convolution would cost |head| * |last| products."""
    dim = _require_common_dim(dists, "distribution")
    target = _point_in(x, dim)
    *rest, last = dists
    head = convolve_all(rest) if rest else delta((0,) * dim)
    get = last._mass.get
    total = sum([m * get(tuple([a - b for a, b in zip(target, p)]), 0) for p, m in zip(head.support, head.nums)])
    return Fraction(total, head.den * last.den)


def _alternating_zero(mu: Dist, n: int) -> Fraction:
    """P(Y_1 - Y_2 + Y_3 - ... = 0) for n iid copies of mu: the ceil(n/2) plus
    summands against the floor(n/2) minus summands, one hit at the origin.  With
    h = n // 2 the minus side is -S_h and the plus side S_h, times mu once more
    when n is odd, so no pair law and no full power is formed; at even n this is
    the sum of the squared atoms of S_h."""
    half = _power(mu, n // 2, n % 2)
    return _hit([half.convolve(mu) if n % 2 else half, half.negate()], (0,) * mu.dim)


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
