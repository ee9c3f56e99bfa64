"""Rearrangements of centered sequences and peakedness comparisons.

A centered sequence assigns a nonnegative rational to every lattice position
-k..k.  The three rearrangements redistribute the same multiset of values:

  left   largest value at 0, then dealing -1, 1, -2, 2, ...
  right  largest value at 0, then dealing 1, -1, 2, -2, ...
  sym    largest value at 0, ties paired onto +-1, +-2, ...; only defined
         when the sorted values pair up below the top one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .dist import Dist, RationalLike, _canonical, _hit, as_fraction, convolve_all
from .errors import NotSymmetrizable, PreconditionViolated, _require_line, require_bound

__all__ = [
    "CenteredSeq",
    "birnbaum_sides",
    "gabriel_sides",
    "is_symmetrizable",
    "peakedness_dominates",
    "rearrange_left",
    "rearrange_right",
    "rearrange_symmetric",
]

@dataclass(frozen=True)
class CenteredSeq:
    """Nonnegative rationals on positions -k..k, stored left to right."""

    values: tuple[Fraction, ...]

    @staticmethod
    def from_values(values: Iterable[RationalLike]) -> "CenteredSeq":
        vals = tuple(as_fraction(v) for v in values)
        if len(vals) % 2 == 0:
            raise ValueError(f"need an odd number of values, got {len(vals)}")
        if any(v < 0 for v in vals):
            raise ValueError("values must be nonnegative")
        return CenteredSeq(vals)

    @property
    def radius(self) -> int:
        return (len(self.values) - 1) // 2

    def value_at(self, position: int) -> Fraction:
        """Value at a signed position; zero outside -radius..radius."""
        i = position + self.radius
        if 0 <= i < len(self.values):
            return self.values[i]
        return Fraction(0)


def rearrange_left(seq: CenteredSeq) -> CenteredSeq:
    """Largest value at 0, then decreasing values at -1, 1, -2, 2, ..."""
    ordered = sorted(seq.values, reverse=True)
    return CenteredSeq(tuple(ordered[1::2][::-1] + ordered[:1] + ordered[2::2]))


def rearrange_right(seq: CenteredSeq) -> CenteredSeq:
    """Largest value at 0, next on the positive side first: the mirror image of left."""
    return CenteredSeq(rearrange_left(seq).values[::-1])


def rearrange_symmetric(seq: CenteredSeq) -> CenteredSeq:
    """Symmetric decreasing rearrangement, when one exists.

    It exists exactly when the left rearrangement reads the same backwards;
    otherwise the value at -i, for the smallest i whose positions -i and i
    differ, is reported as the one that cannot be paired.
    """
    out = rearrange_left(seq)
    k = out.radius
    for a, b in zip(reversed(out.values[:k]), out.values[k + 1:]):
        if a != b:
            raise NotSymmetrizable(a)
    return out


def is_symmetrizable(seq: CenteredSeq) -> bool:
    values = rearrange_left(seq).values
    return values == values[::-1]


def _zero_sum_coefficient(seqs: Sequence[CenteredSeq]) -> Fraction:
    # coefficient of position 0 in the formal convolution of the sequences: the
    # product of their totals times the hit probability at 0 of the normalized laws;
    # each law is its sequence's numerators over their lcm, divided by their sum
    dens = [math.lcm(*{v.denominator for v in seq.values}) for seq in seqs]
    nums = [[v.numerator * (den // v.denominator) for v in seq.values] for seq, den in zip(seqs, dens)]
    totals = [sum(ns) for ns in nums]
    if not all(totals):
        return Fraction(0)
    laws = [_canonical(1, {(i,): m for i, m in enumerate(ns, -seq.radius)}, t) for seq, ns, t in zip(seqs, nums, totals)]
    return Fraction(math.prod(totals), math.prod(dens)) * _hit(laws, 0)


def gabriel_sides(seqs: Sequence[CenteredSeq]) -> tuple[Fraction, Fraction]:
    """Zero-sum coefficient before and after the canonical rearrangements.

    The first sequence is rearranged left, the second right, and every
    further sequence is replaced by its symmetric decreasing rearrangement.
    Returns (original, rearranged); the rearranged side is never smaller,
    and AssertionFailed is raised if it is.
    """
    if len(seqs) < 2:
        raise ValueError("need at least two sequences")
    transformed = [rearrange_left(seqs[0]), rearrange_right(seqs[1]), *map(rearrange_symmetric, seqs[2:])]
    lhs, rhs = _zero_sum_coefficient(seqs), _zero_sum_coefficient(transformed)
    require_bound("rearranged zero-sum coefficient decreased", lhs, rhs, seqs=list(seqs))
    return lhs, rhs


# -- peakedness ------------------------------------------------------------


def _first_gap(a: Dist, b: Dist, otherwise: int | None = None) -> int | None:
    """The smallest radius r with P(|A| <= r) > P(|B| <= r), A ~ a and B ~ b, else `otherwise`.  Both sides rise
    only at the radii of atoms: one pass over the atoms by radius, on numerators over a.den * b.den, meets each, and
    at one radius B's negative terms come first, so the running gap passes 0 there only if its total does."""
    steps = sorted([(abs(x), b.den * m) for (x,), m in zip(a.support, a.nums)]
                   + [(abs(x), -a.den * m) for (x,), m in zip(b.support, b.nums)])
    gaps = itertools.accumulate([step for _, step in steps])
    return next((r for (r, _), gap in zip(steps, gaps) if gap > 0), otherwise)


def peakedness_dominates(mu: Dist, nu: Dist) -> bool:
    """True when P(|Y'| <= k) >= P(|Y| <= k) for all k, Y ~ mu, Y' ~ nu."""
    _require_line("peakedness comparisons", mu, nu)
    return _first_gap(mu, nu) is None


def birnbaum_sides(mu_x: Dist, mu_y: Dist, mu_yp: Dist, k: int) -> tuple[Fraction, Fraction]:
    """Central interval mass of X + Y versus X + Y' at radius k.

    Requires X, Y and Y' symmetric unimodal and Y' at least as peaked as Y;
    then P(|X + Y| <= r) <= P(|X + Y'| <= r) at every radius r.  Raises
    PreconditionViolated naming the hypothesis that fails, and
    AssertionFailed, its witness k the smallest r where the inequality does.
    """
    _require_line("peakedness comparisons", mu_x, mu_y, mu_yp)
    for name, d in (("X", mu_x), ("Y", mu_y), ("Y'", mu_yp)):
        if not d.is_symmetric():
            raise PreconditionViolated(f"{name} is not symmetric about 0")
        if not d.is_unimodal():
            raise PreconditionViolated(f"{name} is not unimodal")
    if not peakedness_dominates(mu_y, mu_yp):
        raise PreconditionViolated("Y' is not at least as peaked as Y")
    sums = convolve_all([mu_x, mu_y]), convolve_all([mu_x, mu_yp])
    r = _first_gap(*sums, k)
    lhs, rhs = sums[0].interval_prob(r), sums[1].interval_prob(r)
    require_bound("peakedness failed to transfer through the convolution", lhs, rhs, k=r, X=mu_x, Y=mu_y, Yp=mu_yp)
    return lhs, rhs
