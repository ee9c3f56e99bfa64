"""Named distribution families used by the verification harnesses.

Everything here is exact.  Closed forms (binomial pmf, quasi-uniform
variance) are deliberately written without convolutions so the tests can
cross-check them against the convolution route.  In the other direction,
`signed_binomial_diff` convolves two binomials, and it is the oracle that
the row ladder of `search.optimal_k_scan` is tested against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .dist import Dist, PointLike, RationalLike, _canonical, as_fraction, as_point
from .errors import (ParamOutOfRange, RestPointInSupport, WrongSupportSize, _require_alpha, _require_at_least,
                     _require_p, _require_support)

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
    a = _require_alpha(as_fraction(alpha))
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

    With p = a/b the mass at k is C(n, k) a^k (b - a)^(n - k) / b^n.
    """
    q = as_fraction(p)
    _require_at_least("n", n, 0)
    if not 0 < q <= 1:
        raise ParamOutOfRange(f"success mass must lie in (0, 1], got {q}")
    _require_support(n, 2)
    a, b = q.numerator, q.denominator
    return _canonical(1, {(k,): math.comb(n, k) * a**k * (b - a) ** (n - k) for k in range(n + 1)}, b**n)


def alternating_bernoulli(n: int, p: RationalLike) -> Dist:
    """Law of an alternating-signed sum of n iid Bernoulli(p) variables.

    ceil(n/2) summands enter with sign +1 and floor(n/2) with sign -1, so
    the result is the difference of two independent binomials.
    """
    _require_at_least("n", n, 1)
    _require_support(n, 2)
    return signed_binomial_diff(n, n // 2, p)


def signed_binomial_diff(n: int, k: int, p: RationalLike) -> Dist:
    """Law of B - B' with B ~ Binomial(n - k, p), B' ~ Binomial(k, p) independent."""
    if not 0 <= k <= n:
        raise ParamOutOfRange(f"need 0 <= k <= n, got k={k}, n={n}")
    q = _require_p(as_fraction(p))
    return binomial(n - k, q).convolve(binomial(k, q).negate())
