"""Reductions that trade a target sum for symmetrized or canonical pieces.

These are the constructive steps behind the main comparison results: split a
sum in half and dominate the hit probability by a symmetrized half, bound it
by the best alternating iid replacement, and peel a measure down to the
extreme points of a concentration cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .dist import (Dist, Point, PointLike, RationalLike, _alternating_zero, _canonical, _hit, _point_in, as_fraction,
                   convolve_all)
from .errors import (AssertionFailed, NegativeMass, QTooLarge, _require_alpha, _require_common_dim, _require_even,
                     require_bound)
from .families import extreme_point_measure

__all__ = [
    "AgmStep",
    "BalancingBound",
    "Extremal",
    "Mixture",
    "agm_step",
    "balancing_bound",
    "extreme_decompose",
]


@dataclass(frozen=True)
class AgmStep:
    """Outcome of one split-and-symmetrize step on a zero target."""

    joint_zero: Fraction        # P(S + T = 0)
    first_sym_zero: Fraction    # P(S - S' = 0), S' an independent copy
    second_sym_zero: Fraction   # P(T - T' = 0)
    mirror: bool                # whether T has the law of -S


def agm_step(first_half: Sequence[Dist], second_half: Sequence[Dist]) -> AgmStep:
    """Dominate P(S + T = 0) by the larger of the two symmetrized zero masses.

    A target x other than 0 is handled by shifting one summand by -x before
    calling.  Equality holds exactly when T has the law of -S; this is
    verified and a failure raises AssertionFailed.
    """
    if not first_half or not second_half:
        raise ValueError("both halves must be nonempty")
    if len(first_half) != len(second_half):
        raise ValueError("halves must have equal length")
    dim = _require_common_dim([*first_half, *second_half], "distribution")
    s = convolve_all(first_half)
    t = convolve_all(second_half)
    joint = _hit([s, t], (0,) * dim)
    first_sym, second_sym = _alternating_zero([s, t], 2)
    mirror = t == s.negate()
    bound = max(first_sym, second_sym)
    if joint > bound or (joint == bound and not mirror):
        raise AssertionFailed(
            "split-and-symmetrize bound failed",
            witness={"joint": joint, "first": first_sym, "second": second_sym, "mirror": mirror},
        )
    return AgmStep(joint, first_sym, second_sym, mirror)


@dataclass(frozen=True)
class BalancingBound:
    """P(sum = x) dominated by the best single-summand alternation."""

    index: int          # which summand's law achieves the bound
    lhs: Fraction       # P(X_1 + ... + X_n = x)
    rhs: Fraction       # P(Y_1 - Y_2 + ... - Y_n = 0), Y_i iid copies of that law
    strict: bool


def balancing_bound(dists: Sequence[Dist], x: PointLike) -> BalancingBound:
    """Bound a hit probability by the best alternating iid replacement.

    For an even number of independent summands, P(sum = x) is at most the
    zero mass of an alternating sum of n iid copies of some single input
    law; the maximizing law (smallest index on ties) is reported.  The
    bound is x-independent, so callers may reuse rhs across targets.
    """
    n = len(dists)
    _require_even(n)
    target = _point_in(x, _require_common_dim(dists, "distribution"))
    laws = list(dict.fromkeys(dists))     # one zero mass per distinct law, all priced before the hit is formed
    zero_mass = dict(zip(laws, _alternating_zero(laws, n)))
    lhs = _hit(dists, target)
    rhs = [zero_mass[mu] for mu in dists]
    best_rhs = max(rhs)
    best_index = rhs.index(best_rhs)    # the first maximum: smallest index on ties
    require_bound("balancing bound failed", lhs, best_rhs, dists=list(dists), x=target, index=best_index)
    return BalancingBound(best_index, lhs, best_rhs, lhs < best_rhs)


@dataclass(frozen=True)
class Extremal:
    """The measure is itself an extreme point of the concentration cap."""

    points: tuple[Point, ...]
    rest: Point | None


@dataclass(frozen=True)
class Mixture:
    """mu = p * mu1 + (1 - p) * mu2 with mu2 extremal and its share 1 - p maximal."""

    p: Fraction
    mu1: Dist
    mu2: Dist


def extreme_decompose(mu: Dist, alpha: RationalLike) -> Union[Extremal, Mixture]:
    """Peel one extreme point of the concentration cap off a measure.

    For a measure whose largest atom is at most alpha, either recognize it
    as an extreme point of that cap, or write it as p * mu1 + (1 - p) * mu2
    where mu2 is extremal (built on the k = floor(1/alpha) heaviest atoms
    plus the next heaviest as rest point, ties toward smaller points) and
    the weight 1 - p on mu2 is as large as this choice of mu2 allows while
    mu1 still respects the cap.  The reconstruction identity and both caps
    are re-checked exactly.
    """
    a = _require_alpha(as_fraction(alpha))
    q, _ = mu.concentration()
    if q > a:
        raise QTooLarge(f"largest atom {q} exceeds level {a}")

    # masses of at most a summing to 1 take more than k atoms unless a = 1/k and
    # all k equal a, so rest is None only then, when mu2 needs no rest and is mu;
    # the sort is stable, so ties keep the stored point order
    k = math.floor(1 / a)
    ranked = sorted(range(len(mu.nums)), key=mu.nums.__getitem__, reverse=True)[:k + 1]
    main = [mu.support[i] for i in ranked[:k]]
    rest = mu.support[ranked[k]] if len(ranked) > k else None
    mu2 = extreme_point_measure(a, main, rest)
    if mu2 == mu:
        return Extremal(tuple(main), rest)

    # the cap on mu1's atoms bounds the stretch eps = en / ed away from mu2: where
    # mu = m / d1 and mu2 = m2 / d2, a gap g = m2 d1 - m d2 > 0 caps it at m d2 / g
    (an, ad), d1, d2 = a.as_integer_ratio(), mu.den, mu2.den
    en, ed = an * (k + 1) - ad, ad
    for i in ranked:
        m = mu.nums[i]
        gap = mu2._mass.get(mu.support[i], 0) * d1 - m * d2
        if gap > 0 and m * d2 * ed < en * gap:
            en, ed = m * d2, gap
    p_weight = Fraction(ed, ed + en)

    # mu1 = (1 + eps) mu - eps mu2, in numerators over ed d1 d2
    den = ed * d1 * d2
    mass = {pt: (ed + en) * d2 * m for pt, m in zip(mu.support, mu.nums)}
    for pt, m in zip(mu2.support, mu2.nums):
        mass[pt] = mass.get(pt, 0) - en * d1 * m
    if min(mass.values()) < 0:
        pt = min(pt for pt, m in mass.items() if m < 0)
        raise NegativeMass(f"mass {Fraction(mass[pt], den)} at {pt}")
    mu1 = _canonical(mu.dim, mass, den)

    # re-check the returned laws: p mu1 + (1 - p) mu2 = mu at every point, multiplied
    # through by p's denominator and the three laws' denominators, and mu1's cap
    pn, pd, e1 = p_weight.numerator, p_weight.denominator, mu1.den
    c1, c2, c0 = pn * d2 * d1, (pd - pn) * e1 * d1, pd * e1 * d2
    m0, m1, m2 = mu._mass, mu1._mass, mu2._mass
    if (any(c1 * m1.get(pt, 0) + c2 * m2.get(pt, 0) != c0 * m0.get(pt, 0) for pt in {*m0, *m1, *m2})
            or max(mu1.nums) * ad > an * e1):
        raise AssertionFailed(
            "decomposition failed to reconstruct the measure",
            witness={"mu": mu.to_json_obj(), "p": p_weight, "mu1": mu1.to_json_obj(), "mu2": mu2.to_json_obj()},
        )
    return Mixture(p_weight, mu1, mu2)
