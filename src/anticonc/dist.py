"""Exact finitely supported probability measures on integer lattices.

A law is stored as integer numerators over one common denominator, reduced
so that gcd(den, *nums) == 1; convolution multiplies integers and no
operation ever rounds.  Masses cross the API as `fractions.Fraction`.
Distributions are immutable; every operation returns a new one.  Points are
kept in lexicographic order, so the stored form is unique and equality,
hashing and serialization are canonical.

Two kernels form sums.  The dict kernel (`Dist.convolve`) multiplies every
pair of atoms.  The recurrence kernel (`_recurrence`) forms a power of one
dense integer polynomial, one coefficient at a time, with one short multiply
per run of equal coefficients (`_runs`) and one exact division; a law enters
it as its numerators packed into one dense list (`_dense_form`).
One predicate (`_dense`) sends a power to the recurrence only when that is
priced below the dict products it replaces; every entry point is still
gated by the plan of those dict products, so the plan over-charges the
recurrence and no admission depends on which kernel runs.
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
from functools import cached_property, reduce
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import (AssertionFailed, DimensionMismatch, MassNotOne, NegativeMass, ZeroWeight, _fits, _lookups,
                     _product, _require_at_least, _require_common_dim, _require_digits, _require_line, _require_plan,
                     _require_within, _updates)

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
    return value if isinstance(value, Fraction) else Fraction(*_ratio(value))


def _ratio(value: RationalLike) -> tuple[int, int]:
    """The rational as_fraction reads, as a numerator over a positive denominator, reduced by one gcd."""
    if isinstance(value, str) and (match := _RATIONAL.fullmatch(value)):
        num, den = int(match[1]), int(match[2] or 1)
        g = math.gcd(num, den)
        return num // g, den // g
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if type(value) is int:
        return value, 1
    raise ValueError(f"not a rational: {value!r}")


def _integral(coords: Iterable) -> bool:
    """The one coordinate rule of a lattice point: every coordinate is an int, and not a bool."""
    return all(type(c) is int for c in coords)


def as_point(value: PointLike) -> Point:
    """Coerce an int (dimension 1) or a sequence of ints to a lattice point; a bool or a float raises ValueError."""
    p = tuple(value) if hasattr(value, "__iter__") else (value,)
    if _integral(p):
        return p
    raise ValueError(f"not a lattice point: {value!r}")


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


def _from_ratios(entries: Iterable[tuple[Point, tuple[int, int]]]) -> "Dist":
    # the two readers' one law rule: each (point, (num, den)) checked in turn, the numerators summed over the lcm
    pairs, dim = [], None
    for p, (num, den) in entries:
        if num < 0:
            raise NegativeMass(f"mass {Fraction(num, den)} at {p}")
        if dim is None:
            dim = len(p)
        elif len(p) != dim:
            raise DimensionMismatch(f"point {p} has dim {len(p)}, expected {dim}")
        pairs.append((p, num, den))
    if dim is None:
        raise ValueError("no atoms given")
    den = math.lcm(*{d for _, _, d in pairs})
    mass: dict[Point, int] = {}
    for p, num, d in pairs:
        mass[p] = mass.get(p, 0) + num * (den // d)
    return _canonical(dim, mass, den)


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
        return _from_ratios((as_point(pt), _ratio(m)) for pt, m in entries)

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
        _require_line("interval probabilities", self)
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
        _require_line("unimodality checks", self)
        top = self.nums.index(max(self.nums))
        no_gap = self.support[-1][0] - self.support[0][0] == len(self.nums) - 1
        return no_gap and list(self.nums) == sorted(self.nums[:top]) + sorted(self.nums[top:], reverse=True)

    def mean(self) -> Fraction:
        _require_line("moments", self)
        return sum((m * x for (x,), m in self.atoms), start=Fraction(0))

    def variance(self) -> Fraction:
        mu = self.mean()
        return sum((m * (x - mu) ** 2 for (x,), m in self.atoms), start=Fraction(0))

    # -- transforms ----------------------------------------------------

    def map_points(self, fn: Callable[[Point], PointLike]) -> "Dist":
        """Pushforward along a point map into the same dimension; colliding images merge."""
        mass: dict[Point, int] = {}
        for p, m in zip(self.support, self.nums):
            q = _point_in(fn(p), self.dim)
            mass[q] = mass.get(q, 0) + m
        return _canonical(self.dim, mass, self.den)

    def negate(self) -> "Dist":
        """Law of -X: negated points run in reverse lexicographic order, so the numerators are reused as they are."""
        return Dist(self.dim, tuple([tuple([-c for c in p]) for p in self.support[::-1]]), self.nums[::-1], self.den)

    def shift(self, v: PointLike) -> "Dist":
        """Law of X + v."""
        w = _point_in(v, self.dim)
        return self.map_points(lambda p: tuple(c + d for c, d in zip(p, w)))

    def scale(self, c: int) -> "Dist":
        """Law of c * X for a nonzero integer c."""
        if c == 0:
            raise ZeroWeight("scaling by 0 collapses the lattice")
        return self if c == 1 else self.negate() if c == -1 else self.map_points(lambda p: tuple(c * x for x in p))

    def convolve(self, other: "Dist") -> "Dist":
        """Law of X + Y for independent X ~ self, Y ~ other."""
        _require_common_dim((self, other), "distribution")
        # Each point becomes one int in balanced base `radix`, first coordinate
        # most significant; the radix leaves room for every coordinate of a
        # sum, so adding two keys adds the points without carries, and key
        # order is point order.
        half = 2 * max([abs(c) for d in (self, other) for p in d.support for c in p], default=0)
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

    def _mass_texts(self) -> list[str]:
        """Each mass as format_fraction writes it, reduced by one gcd of integers."""
        den = self.den
        return [f"{m // (g := math.gcd(m, den))}/{den // g}" for m in self.nums]

    def to_json_obj(self) -> dict:
        return {"dim": self.dim, "atoms": [[list(p), q] for p, q in zip(self.support, self._mass_texts())]}

    @staticmethod
    def from_json_obj(obj: dict) -> "Dist":
        """Parse the canonical JSON object; any other shape, a coordinate that is
        not a JSON integer or a mass as_fraction rejects raises ValueError."""
        if not (isinstance(obj, dict) and type(obj.get("dim")) is int and isinstance(obj.get("atoms"), list)):
            raise ValueError('a law is a JSON object {"dim": d, "atoms": [[point, mass], ...]}')
        entries = []
        for atom in obj["atoms"]:
            if not (isinstance(atom, list) and len(atom) == 2 and isinstance(atom[0], list) and _integral(atom[0])):
                raise ValueError(f"an atom is [[c1, ..., cd], mass] with integer coordinates, got {atom!r}")
            entries.append((tuple(atom[0]), _ratio(atom[1])))
        dist = _from_ratios(entries)
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
    """Law of the sum of independent draws, one per distribution, within the atom and step caps.  A leading run of m
    equal laws is one power, which the recurrence forms when `_dense` prices it below the run's m - 1 products."""
    _require_sum(dists)
    law, m = dists[0], len(list(itertools.takewhile(dists[0].__eq__, dists)))
    if _dense(law, [m], [(i, 1) for i in range(1, m)]):
        return reduce(Dist.convolve, dists[m:], _recurrence_powers(law, [m])[m])
    return deque(itertools.accumulate(dists, Dist.convolve), maxlen=1)[0]


def _prefix_sums(dists: Sequence[Dist]) -> Iterator[Dist]:
    """The laws of X_1, X_1 + X_2, ... for independent X_i ~ dists[i], the fold priced before its first product."""
    _require_sum(dists)
    return itertools.accumulate(dists, Dist.convolve)


def _require_sum(dists: Sequence[Dist]) -> None:
    """The gate of a sum of given laws: a common dimension, then digits and the left fold's plan."""
    _require_common_dim(dists, "distribution")
    if len(dists) > 1:
        what = f"the sum of {len(dists)} laws"
        _require_digits(len(dists), sum([math.log10(d.den) for d in dists]))
        _require_plan(what, _fold(what, [(d, 1, 1) for d in dists]))


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


def _fold(what: str, groups: Sequence[tuple[Dist, int, int]], hit: bool = False) -> Iterator[int]:
    """Steps of each product of the left fold of groups (law X, weight w, count m), each the law of m iid copies of
    w X formed beforehand, of numerators of m times X's bits: the sum of the first i groups, refused above MAX_ATOMS,
    has the i-th count of `_sum_atoms`, equal laws as one, and group i alone its first.  No law formed and no
    product's atom pairs exceed the product P of the groups' multisets C(m + |X| - 1, m), so when P and the fold's
    products priced at P atoms of all the bits fit the caps, that one price stands and nothing is counted.  With
    `hit` the last group is read at one point, not summed: a hit on the sum before it, always counted."""
    bound, total = 1, 0
    for x, _, m in groups:
        bound, total = bound * math.comb(m + len(x.support) - 1, m), total + m * (x.den - 1).bit_length()
    if not hit and _fits(bound, crude := (len(groups) - 1) * _product(bound, 1, total, total)):
        yield crude
        return
    atoms, before, equal = 1, 0, {}
    groups = [(equal.setdefault(x, x), w, m) for x, w, m in groups]
    for i, ((x, w, m), summed) in enumerate(zip(groups, _sum_atoms(groups))):
        bits = m * (x.den - 1).bit_length()
        if hit and i == len(groups) - 1:
            yield _lookups(atoms, next(_sum_atoms([(x, w, m)])), before, bits)
        elif i:
            _require_within(what, summed, "atoms")
            yield _product(atoms, next(_sum_atoms([(x, w, m)])), before, bits)
        atoms, before = summed, before + bits


def self_convolve(dist: Dist, n: int) -> Dist:
    """n-fold convolution power; n = 0 gives the point mass at the origin.
    Exact, canonical laws make the product order moot."""
    _require_at_least("n", n, 0)
    return next(_power([dist], n, 0))[0]


def _power(laws: Sequence[Dist], n: int, odd: int) -> Iterator[tuple[Dist, Dist]]:
    """Per law in turn, its powers of n and n + odd copies.  One plan prices the products of all the laws before the
    first, as square and multiply forms them: a copies times b copies (the squares, each set bit of n above the lowest
    times the bits below, then n times 1 when odd) is the fold of groups (law, 1, a), (law, 1, b).  The recurrence
    forms a law's powers instead when `_dense` prices it below those products."""
    what = f"{n + odd} copies of " + ("a law" if len(laws) == 1 else f"{len(laws)} laws")
    plan = [(1 << j, 1 << j) for j in range(n.bit_length() - 1)]
    plan += [(n & (1 << i) - 1, 1 << i) for i in range(n.bit_length()) if n >> i & 1 and n & (1 << i) - 1]
    plan += [(n, 1)] * odd
    _require_plan(what, itertools.chain(*[_fold(what, [(mu, 1, a), (mu, 1, b)]) for mu in laws for a, b in plan]))
    for mu in laws:
        if _dense(mu, {n, n + odd}, plan):
            power = _recurrence_powers(mu, {n, n + odd})
        else:
            power = {1: mu, 0: delta((0,) * mu.dim)} if n == 0 else {1: mu}
            for a, b in plan:
                power[a + b] = power[a].convolve(power[b])
        yield power[n], power[n + odd]


# -- the recurrence kernel -------------------------------------------------


def _dense_form(law: Dist, copies: int) -> tuple[list[int], Callable[[int, int], list[Point]]]:
    """The index of each atom in the law's dense coefficient list g, the first 0, and the map from (h, size) to the
    points of the coefficients 0..size - 1 of g^h, h <= copies.  Each point is packed into one integer, first
    coordinate most significant, in the tight radix copies * span + 1 per coordinate measured from the minima;
    packing is a ring map, injective on the box of the sum of `copies` laws, so the power of g is the packed power of
    the law.  The keys are then shifted by the first atom's and divided by the gcd of the offsets (the lattice step in
    one dimension)."""
    lows = [min(c) for c in zip(*law.support)]
    radices = [copies * span + 1 for span, _ in law._lattice]
    weights = [math.prod(radices[c + 1:]) for c in range(law.dim)]
    keys = [sum(map(operator.mul, p, weights)) for p in law.support]
    first = keys[0] - sum(map(operator.mul, lows, weights))
    step = math.gcd(*[k - keys[0] for k in keys]) or 1

    def points(h: int, size: int) -> list[Point]:
        packed = range(h * first, h * first + size * step, step)
        columns = [[h * lo + key // w % r for key in packed] for lo, w, r in zip(lows, weights, radices)]
        return list(zip(*columns)) if columns else [()] * size

    return [(k - keys[0]) // step for k in keys], points


def _dense(law: Dist, copies: Collection[int], pairs: Sequence[tuple[int, int]]) -> bool:
    """The one choice of kernel for powers of a law: the recurrence forms the powers of `copies` copies when its
    passes cost no more than the dict products `pairs` (a copies times b copies) that would form them.  A pass is
    priced by `errors._updates` at the box of coefficients times the `_runs` of the law's atoms past the first, a
    product by `errors._product` at the atoms `_sum_atoms` predicts, both on numerators of copies times the law's
    bits; read from the atoms alone, so no box is built.
    So a sparse law, whose box is wide next to its atoms, keeps the dict kernel, and so does a power with no product."""
    if not pairs:
        return False
    keys, _ = _dense_form(law, max(copies))
    runs = len(_runs(zip(keys[1:], law.nums[1:])))
    bits = (law.den - 1).bit_length()
    kernel = sum([_updates((keys[-1] * h + 1) * runs, h * bits, law.den) for h in copies])
    steps = itertools.accumulate(_product(*[next(_sum_atoms([(law, 1, m)])) for m in (a, b)], a * bits, b * bits)
                                 for a, b in pairs)
    return any(total >= kernel for total in steps)


def _recurrence_powers(law: Dist, copies: Collection[int]) -> dict[int, Dist]:
    """The laws of h iid copies of `law` for each h of `copies`, from the powers of its dense list."""
    keys, points = _dense_form(law, max(copies))
    g = [0] * (keys[-1] + 1)
    for k, m in zip(keys, law.nums):
        g[k] = m
    powers = {h: _recurrence(g, h) for h in copies}
    return {h: _canonical(law.dim, dict(zip(points(h, len(f)), f)), law.den**h) for h, f in powers.items()}


def _runs(terms: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The runs of the recurrence over a polynomial's terms (k, g_k) past g_0: each [lo, hi, c] a longest stretch of
    consecutive k over which g_k is one nonzero c, so a flat stretch, whatever its length, is one run."""
    runs: list[list[int]] = []
    for k, c in terms:
        if runs and runs[-1][1] == k - 1 and runs[-1][2] == c:
            runs[-1][1] = k
        elif c:
            runs.append([k, k, c])
    return runs


def _recurrence(g: Sequence[int], e: int) -> list[int]:
    """The coefficients of g^e, lowest degree first, for a nonzero integer list g and e >= 0: J. C. P. Miller's power
    recurrence (Knuth, TAOCP vol. 2, 4.7), m g_0 F_m = sum_(k >= 1) ((e + 1) k - m) g_k F_(m - k).  Leading zeros of
    g are a shift.  Each coefficient costs one short multiply per run of `_runs` (a run longer than one term reads two
    running window sums, of F_j and of j F_j) and one exact division by m g_0, whose remainder is checked: a nonzero
    one raises AssertionFailed."""
    shift = next(k for k, c in enumerate(g) if c)
    g0, *rest = g[shift:]
    f = [g0**e]
    if len(rest) == 1:    # g_0 + a x, as in a binomial: m g_0 F_m = (e + 1 - m) a F_(m - 1)
        [a] = rest
        for m in range(1, e + 1):
            value, remainder = divmod((e + 1 - m) * a * f[-1], m * g0)
            if remainder:
                raise _inexact(g, e, m)
            f.append(value)
        return [0] * (shift * e) + f
    runs = _runs(enumerate(rest, 1))
    pad = max([hi for _, hi, _ in runs], default=0)
    f = [0] * pad + f     # F_j at f[pad + j], so F_(m - k) at f[-k]
    singles = [(lo, (e + 1) * lo * c, c) for lo, hi, c in runs if lo == hi]
    spans = [[lo, hi, e * c, (e + 1) * c, 0, 0] for lo, hi, c in runs if lo < hi]
    for m in range(1, e * len(rest) + 1):
        total = 0
        for k, alpha, c in singles:
            total += (alpha - m * c) * f[-k]
        for span in spans:
            lo, hi, ec, beta, w0, w1 = span
            enter, leave = f[-lo], f[-hi - 1]
            span[4] = w0 = w0 + enter - leave
            span[5] = w1 = w1 + (m - lo) * enter - (m - hi - 1) * leave
            total += ec * m * w0 - beta * w1
        value, remainder = divmod(total, m * g0)
        if remainder:
            raise _inexact(g, e, m)
        f.append(value)
    return [0] * (shift * e) + f[pad:]


def _inexact(g: Sequence[int], e: int, m: int) -> AssertionFailed:
    return AssertionFailed("a power recurrence left a remainder", witness={"g": list(g), "e": e, "m": m})


def _hit(dists: Sequence[Dist], x: PointLike) -> Fraction:
    """P(X_1 + ... + X_n = x) for independent X_i ~ dists[i], without the law of
    the whole sum: the law of all but the last summand, then one lookup in the
    last law per atom p of it, at x - p.  This costs |head| lookups where the
    last convolution would cost |head| * |last| products."""
    dim = _require_common_dim(dists, "distribution")
    target = _point_in(x, dim)
    _require_digits(len(dists), sum([math.log10(d.den) for d in dists]))
    *rest, last = dists
    head = convolve_all(rest) if rest else delta((0,) * dim)
    get = last._mass.get
    total = sum([m * get(tuple([a - b for a, b in zip(target, p)]), 0) for p, m in zip(head.support, head.nums)])
    return Fraction(total, head.den * last.den)


def _alternating_zero(laws: Sequence[Dist], n: int) -> list[Fraction]:
    """P(Y_1 - Y_2 + Y_3 - ... = 0) for n iid copies of each law: the ceil(n/2) plus summands against the floor(n/2)
    minus summands, one hit at the origin.  With h = n // 2 the minus side is -S_h and the plus side S_h, times the
    law once more when n is odd, so no pair law and no full power is formed; at even n this is the sum of the squared
    atoms of S_h.  The powers of all the laws, odd products included, are priced in one plan before the first, and
    each law's den^n, which its value divides, must print before that."""
    _require_digits(n, n * math.log10(max([law.den for law in laws])))
    h, odd = n // 2, n % 2
    return [_hit([plus, minus.negate()], (0,) * plus.dim) for minus, plus in _power(laws, h, odd)]


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
