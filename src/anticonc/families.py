"""Named distribution families used by the verification harnesses.

Everything here is exact.  Closed forms (binomial pmf, quasi-uniform
variance) are deliberately written without convolutions so the tests can
cross-check them against the convolution route.  In the other direction,
`signed_binomial_diff` convolves two binomials, and it is the oracle that
the row ladder of `search.optimal_k_scan`, the alternating zero masses read
with `dist._hit` (one atom of a sum, the sum never formed) and the power of
the pair law in `alternating_bernoulli` are tested against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .dist import (Dist, PointLike, RationalLike, _canonical, _recurrence, _require_sum, as_fraction, as_point,
                   convolve_all)
from .errors import (ParamOutOfRange, RestPointInSupport, WrongSupportSize, _require_alpha, _require_at_least,
                     _require_flat, _require_p, _require_plan, _require_summands, _updates)

__all__ = [
    "alternating_bernoulli",
    "bernoulli",
    "binomial",
    "extreme_point_measure",
    "quasi_uniform",
    "quasi_uniform_variance",
    "signed_binomial_diff",
]


def quasi_uniform(alpha: RationalLike) -> Dist:
    """Flattest law with largest atom exactly alpha.

    Mass alpha on each of 0, 1, ..., floor(1/alpha) - 1 and the remainder,
    if positive, on floor(1/alpha).
    """
    a = _require_flat(as_fraction(alpha))
    k = math.floor(1 / a)
    return extreme_point_measure(a, range(k), k)


def quasi_uniform_variance(alpha: RationalLike) -> Fraction:
    """Closed-form variance of quasi_uniform(alpha).

    With k = floor(1/alpha):
        k (k + 1) alpha (2 + 4k - 3 alpha k - 3 alpha k^2) / 12
    which collapses to (1 - alpha^2) / (12 alpha^2) when 1/alpha is integer.
    """
    a = _require_alpha(as_fraction(alpha))
    k = math.floor(1 / a)
    return Fraction(k * (k + 1), 12) * a * (2 + 4 * k - 3 * a * k - 3 * a * k * k)


def extreme_point_measure(alpha: RationalLike, points: Iterable[PointLike], rest: PointLike | None = None) -> Dist:
    """Law with mass alpha on each given point and the remainder on `rest`.

    These are the extreme points of the convex set of laws whose largest
    atom is at most alpha: exactly floor(1/alpha) points carry alpha and one
    further point carries 1 - floor(1/alpha) * alpha when that is positive.
    """
    a = _require_alpha(as_fraction(alpha))
    k = math.floor(1 / a)
    pts = sorted({as_point(p) for p in points})
    if len(pts) != k:
        raise WrongSupportSize(f"need exactly {k} main points for level {a}, got {len(pts)}")
    remainder = 1 - k * a
    entries: list[tuple[PointLike, Fraction]] = [(p, a) for p in pts]
    if remainder > 0:
        if rest is None:
            raise ValueError(f"level {a} leaves remainder {remainder}; a rest point is required")
        r = as_point(rest)
        if r in pts:
            raise RestPointInSupport(f"rest point {r} already carries mass {a}")
        entries.append((r, remainder))
    return Dist.from_entries(entries)


def bernoulli(p: RationalLike) -> Dist:
    """Law on {0, 1} with success mass p."""
    return binomial(1, p)


def binomial(n: int, p: RationalLike) -> Dist:
    """Binomial law via the exact closed-form pmf; n = 0 is the point mass at 0.

    With p = a/b the mass at k is C(n, k) a^k (b - a)^(n - k) / b^n, the coefficients of (b - a + a x)^n, which
    the recurrence kernel forms (p = 1 is the shift x^n); b^n must print.
    """
    q = as_fraction(p)
    _require_at_least("n", n, 0)
    if not 0 < q <= 1:
        raise ParamOutOfRange(f"success mass must lie in (0, 1], got {q}")
    a, b = q.numerator, q.denominator
    _require_summands(n, 2, b)
    _require_plan(f"a binomial law of {n} summands", [_updates(n + 1, n * (b - 1).bit_length(), b)])
    return _canonical(1, {(k,): m for k, m in enumerate(_recurrence([b - a, a], n))}, b**n)


def alternating_bernoulli(n: int, p: RationalLike) -> Dist:
    """Law of an alternating-signed sum of n iid Bernoulli(p) variables.

    ceil(n/2) summands enter with sign +1 and floor(n/2) with sign -1, so
    the result is the difference of two independent binomials: the sum of
    v = floor(n/2) iid pairs X - X', plus one more X when n is odd.  With
    p = a/b and c = b - a, the pair law's numerators, shifted by 1, are the
    coefficients of (c + a x)(a + c x); so the law's numerators, shifted by v,
    are those of its v-th power, which the recurrence kernel forms, times
    c + a x at odd n.  The two binomials and their product pass the gates of
    `convolve_all` first.
    """
    halves = _alternating_halves(n, p)
    _require_sum(halves)
    q = as_fraction(p)
    a, c, v = q.numerator, q.denominator - q.numerator, n // 2
    nums = _recurrence([a * c, a * a + c * c, a * c], v)
    if n % 2:
        nums = [c * x + a * y for x, y in zip(nums + [0], [0] + nums)]
    return _canonical(1, {(k - v,): m for k, m in enumerate(nums)}, q.denominator**n)


def _alternating_halves(n: int, p: RationalLike) -> list[Dist]:
    """Binomial(ceil(n/2), p) and the law of minus a Binomial(floor(n/2), p):
    the two sides of alternating_bernoulli(n, p), so that one atom of their sum
    can be read with `dist._hit` without forming it."""
    _require_at_least("n", n, 1)
    q = _require_p(as_fraction(p))
    _require_summands(n, 2, q.denominator)
    return [binomial(n - n // 2, q), binomial(n // 2, q).negate()]


def signed_binomial_diff(n: int, k: int, p: RationalLike) -> Dist:
    """Law of B - B' with B ~ Binomial(n - k, p), B' ~ Binomial(k, p) independent: their product within the step cap."""
    if not 0 <= k <= n:
        raise ParamOutOfRange(f"need 0 <= k <= n, got k={k}, n={n}")
    q = _require_p(as_fraction(p))
    return convolve_all([binomial(n - k, q), binomial(k, q).negate()])
