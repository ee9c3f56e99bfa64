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

from .dist import Dist, Point, PointLike, RationalLike, _alternating_zero, as_fraction, as_point, convolve_all
from .errors import AssertionFailed, QTooLarge, _require_alpha, _require_common_dim, _require_even, require_bound
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
    joint = s.convolve(t).atom((0,) * dim)
    first_sym = _alternating_zero(s, 2)
    second_sym = _alternating_zero(t, 2)
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
    _require_common_dim(dists, "distribution")
    target = as_point(x)
    lhs = convolve_all(dists).atom(target)
    zero_mass = {mu: _alternating_zero(mu, n) for mu in dict.fromkeys(dists)}   # once per distinct law
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
    # all k equal a, so rest is None only then, when mu2 needs no rest and is mu
    k = math.floor(1 / a)
    ranked = sorted(mu.atoms, key=lambda pm: (-pm[1], pm[0]))
    main = [p for p, _ in ranked[:k]]
    rest = ranked[k][0] if len(ranked) > k else None
    mu2 = extreme_point_measure(a, main, rest)
    if mu2 == mu:
        return Extremal(tuple(main), rest)

    # the cap on mu1's atoms bounds the stretch away from mu2
    eps = a * (k + 1) - 1
    for p in [*main, rest]:
        gap = mu2.atom(p) - mu.atom(p)
        if gap > 0:
            eps = min(eps, mu.atom(p) / gap)
    p_weight = 1 / (1 + eps)

    entries = []
    for pt in sorted({*mu.support, *mu2.support}):
        entries.append((pt, (1 + eps) * mu.atom(pt) - eps * mu2.atom(pt)))
    mu1 = Dist.from_entries(entries)

    rebuilt = Dist.from_entries(
        [(pt, p_weight * mu1.atom(pt)) for pt in mu1.support]
        + [(pt, (1 - p_weight) * mu2.atom(pt)) for pt in mu2.support]
    )
    if rebuilt != mu or mu1.concentration()[0] > a:
        raise AssertionFailed(
            "decomposition failed to reconstruct the measure",
            witness={"mu": mu.to_json_obj(), "p": p_weight, "mu1": mu1.to_json_obj(), "mu2": mu2.to_json_obj()},
        )
    return Mixture(p_weight, mu1, mu2)
