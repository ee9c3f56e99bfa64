"""Float approximations paired with their exact counterparts.

This is the only module that touches floating point.  Every approximation
here has an exact partner computed with rationals; callers compare the two
and study the residual.  Exact values are computed first and converted to
float at the last possible moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .dist import RationalLike, _alternating_zero, as_fraction
from .errors import ParamOutOfRange, _require_at_least, _require_p, _require_positive_coeffs, _require_support
from .families import alternating_bernoulli, quasi_uniform, quasi_uniform_variance

__all__ = [
    "OddTailRatios",
    "alternating_zero_asym",
    "alternating_zero_exact",
    "local_limit_bound",
    "middle_coeff_asym",
    "middle_coeff_exact",
    "odd_tail_ratios",
    "small_dev_ratio_approx",
    "small_dev_ratio_exact",
]


def local_limit_bound(n: int, alpha: RationalLike) -> float:
    """First-order ceiling (2 pi n v)^(-1/2) with v the quasi-uniform variance.

    This is the leading coefficient of the concentration maximum for n
    summands capped at level alpha; it scales like n^(-1/2).  Its exact
    partner is local_limit_exact.
    """
    _require_at_least("n", n, 1)
    v = quasi_uniform_variance(alpha)
    return 1.0 / math.sqrt(2.0 * math.pi * n * float(v))


def local_limit_exact(n: int, alpha: RationalLike) -> Fraction:
    """P(U_1 - U_2 + U_3 - ... = 0) for n iid quasi-uniform(alpha) summands:
    a power of the alternating pair, and one more +1 summand when n is odd."""
    _require_at_least("n", n, 1)
    u = quasi_uniform(alpha)
    _require_support(n, len(u.support))
    return _alternating_zero(u, n)


def small_dev_ratio_exact(n: int, p: RationalLike, k: int) -> Fraction:
    """P(D = k) / P(D = 0) for D the alternating sum of 2n Bernoulli(p)."""
    _require_at_least("n", n, 1)
    _require_at_least("k", k, 0)
    q = _require_p(as_fraction(p))
    d = alternating_bernoulli(2 * n, q)
    return d.atom(k) / d.atom(0)


def small_dev_ratio_approx(n: int, p: RationalLike, k: int) -> float:
    """Second-order ratio 1 - k^2 / (4 p (1 - p) n)."""
    _require_at_least("n", n, 1)
    _require_at_least("k", k, 0)
    q = _require_p(as_fraction(p))
    return float(1 - Fraction(k * k) / (4 * q * (1 - q) * n))


def alternating_zero_exact(n: int, p: RationalLike) -> Fraction:
    """P(D = 0) for D the alternating sum of n Bernoulli(p)."""
    q = _require_p(as_fraction(p))
    return alternating_bernoulli(n, q).atom(0)


def alternating_zero_asym(n: int, p: RationalLike) -> float:
    """Two-term expansion of the alternating zero mass; branches on parity.

    Both branches share the leading factor (2 pi n p (1 - p))^(-1/2); the
    relative correction is (1 / (2 p (1 - p)) - 3) / (4 n) for even n and
    (2 p^2 - 6 p + 1) / (8 n p (1 - p)) for odd n.
    """
    _require_at_least("n", n, 1)
    q = _require_p(as_fraction(p))
    pq = q * (1 - q)
    if n % 2 == 0:
        correction = 1 + Fraction(1, 4 * n) * (1 / (2 * pq) - 3)
    else:
        correction = 1 + (2 * q * q - 6 * q + 1) / (8 * n * pq)
    return float(correction) / math.sqrt(2.0 * math.pi * n * float(pq))


def middle_coeff_exact(n: int, b: RationalLike, c: RationalLike) -> Fraction:
    """Central coefficient of (x^2 + b x + c)^n: x^n takes x^2 from i factors,
    c from i and b x from n - 2i, so it is sum_i C(n, 2i) C(2i, i) b^(n-2i) c^i."""
    _require_at_least("n", n, 1)
    bf, cf = _require_positive_coeffs(as_fraction(b), as_fraction(c))
    return sum(math.comb(n, 2 * i) * math.comb(2 * i, i) * bf ** (n - 2 * i) * cf**i for i in range(n // 2 + 1))


def middle_coeff_asym(n: int, b: RationalLike, c: RationalLike) -> float:
    """Two-term expansion of the central coefficient of (x^2 + b x + c)^n.

    (b + 2 sqrt(c))^(n + 1/2) / (2 c^(1/4) sqrt(pi n))
        * (1 + (b - 4 sqrt(c)) / (16 n sqrt(c)))
    """
    _require_at_least("n", n, 1)
    bf, cf = map(float, _require_positive_coeffs(as_fraction(b), as_fraction(c)))
    if bf == 0 or cf == 0:
        raise ParamOutOfRange("a positive coefficient is below the float range")
    root = math.sqrt(cf)
    try:
        lead = (bf + 2.0 * root) ** (n + 0.5) / (2.0 * cf**0.25 * math.sqrt(math.pi * n))
    except OverflowError:  # float ** raises where * and / give inf
        lead = math.inf
    value = lead * (1.0 + (bf - 4.0 * root) / (16.0 * n * root))
    if value == math.inf:
        raise ParamOutOfRange(f"the expansion at n = {n} exceeds the float range")
    return value


@dataclass(frozen=True)
class OddTailRatios:
    """Exact and approximate costs of absorbing the odd tail of a long sum.

    With X the alternating sum of 2(m - 1) Bernoulli(p) summands:
      double_pair  P(X + 2 Y2 = 0) / P(X = 0), Y2 an alternating pair scaled by 2
      triple       P(X + Y3 = 0) / P(X = 0),  Y3 an alternating triple
    """

    exact_double_pair: Fraction
    exact_triple: Fraction
    approx_double_pair: float   # 1 - 4 / n_eff
    approx_triple: float        # 1 - (3 - 2 p) / (2 n_eff (1 - p))
    n_eff: int                  # 2 (m - 1)


def odd_tail_ratios(m: int, p: RationalLike) -> OddTailRatios:
    _require_at_least("m", m, 2)
    q = _require_p(as_fraction(p))
    n_eff = 2 * (m - 1)
    _require_support(n_eff + 3, 2)  # x and the alternating triple
    x = alternating_bernoulli(n_eff, q)
    x_zero = x.atom(0)
    pair_doubled = alternating_bernoulli(2, q).scale(2)
    triple = alternating_bernoulli(3, q)
    exact_pair = x.convolve(pair_doubled).atom(0) / x_zero
    exact_triple = x.convolve(triple).atom(0) / x_zero
    approx_pair = 1.0 - 4.0 / n_eff
    approx_triple = 1.0 - float((3 - 2 * q) / (2 * n_eff * (1 - q)))
    return OddTailRatios(exact_pair, exact_triple, approx_pair, approx_triple, n_eff)
