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

from .dist import RationalLike, _alternating_zero, _hit, as_fraction, convolve_all
from .errors import (ParamOutOfRange, _require_at_least, _require_p, _require_positive_coeffs, _require_summands,
                     _require_within)
from .families import _alternating_halves, alternating_bernoulli, quasi_uniform, quasi_uniform_variance

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
    _require_summands(n, len(u.support), u.den)
    return _alternating_zero(u, n)


def small_dev_ratio_exact(n: int, p: RationalLike, k: int) -> Fraction:
    """P(D = k) / P(D = 0) for D the alternating sum of 2n Bernoulli(p)."""
    _require_at_least("n", n, 1)
    _require_at_least("k", k, 0)
    q = _require_p(as_fraction(p))
    halves = _alternating_halves(2 * n, q)
    return _hit(halves, k) / _hit(halves, 0)


def small_dev_ratio_approx(n: int, p: RationalLike, k: int) -> float:
    """Second-order ratio 1 - k^2 / (4 p (1 - p) n)."""
    _require_at_least("n", n, 1)
    _require_at_least("k", k, 0)
    q = _require_p(as_fraction(p))
    return float(1 - Fraction(k * k) / (4 * q * (1 - q) * n))


def alternating_zero_exact(n: int, p: RationalLike) -> Fraction:
    """P(D = 0) for D the alternating sum of n Bernoulli(p)."""
    q = _require_p(as_fraction(p))
    return _hit(_alternating_halves(n, q), 0)


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
    c from i and b x from n - 2i, so it is sum_i C(n, 2i) C(2i, i) b^(n-2i) c^i.

    With b = bn/bd, c = cn/cd and h = n // 2 every term's denominator
    bd^(n - 2i) cd^i divides D = bd^(n - 2h) l^h, l = lcm(bd^2, cd), so the
    terms are summed as integers over D: term i is bn^(n - 2h) u^(h - i) v^i
    times its coefficient, with u = bn^2 l / bd^2 and v = cn l / cd, and one
    Horner pass in u sums them.  The value is the constant term of
    (x + b + c / x)^n, whose coefficients are all positive, so it is at most
    that Laurent polynomial at x = sqrt(c), (b + 2 sqrt(c))^n.  The reduced
    denominator divides D and the reduced numerator is at most D times the
    value, so the value is refused before the sum when D max(1, b + 2 sqrt(c))^n
    has more decimal digits than the interpreter converts to a string (no cap
    when its limit is 0).
    """
    _require_at_least("n", n, 1)
    bf, cf = _require_positive_coeffs(as_fraction(b), as_fraction(c))
    (bn, bd), (cn, cd), h = bf.as_integer_ratio(), cf.as_integer_ratio(), n // 2
    l = math.lcm(bd * bd, cd)
    lb, lc = _log10(bf), math.log10(2) + _log10(cf) / 2     # of b and of 2 sqrt(c)
    top = max(lb, lc) + math.log10(1 + 10 ** -abs(lb - lc))  # of b + 2 sqrt(c), with no float overflow
    digits = (n - 2 * h) * math.log10(bd) + h * math.log10(l) + n * max(top, 0)
    _require_within(f"{h + 1} terms of the central coefficient at n = {n}", math.floor(digits) + 1, "digits")
    u, v = bn * bn * (l // (bd * bd)), cn * (l // cd)
    total, coef, v_i = 0, 1, 1       # coef = C(n, 2i) C(2i, i) = n! / ((n - 2i)! i! i!)
    for i in range(h + 1):
        total = total * u + coef * v_i
        coef, v_i = coef * (n - 2 * i) * (n - 2 * i - 1) // (i + 1) ** 2, v_i * v
    return Fraction(total * bn ** (n - 2 * h), bd ** (n - 2 * h) * l**h)


def _log10(q: Fraction) -> float:
    return math.log10(q.numerator) - math.log10(q.denominator)


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
    if value == 0.0:  # the correction is at least 1 - 1 / (4 n), so only an underflow gives 0
        raise ParamOutOfRange(f"the expansion at n = {n} is below the float range")
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
    _require_summands(n_eff + 3, 2, q.denominator)  # x and the alternating triple
    plus, minus = _alternating_halves(n_eff, q)    # X = plus + minus; Y2 and Y3 join the minus side
    x_zero = _hit([plus, minus], 0)
    pair_doubled = alternating_bernoulli(2, q).scale(2)
    triple = alternating_bernoulli(3, q)
    exact_pair = _hit([plus, convolve_all([minus, pair_doubled])], 0) / x_zero
    exact_triple = _hit([plus, convolve_all([minus, triple])], 0) / x_zero
    approx_pair = 1.0 - 4.0 / n_eff
    approx_triple = 1.0 - float((3 - 2 * q) / (2 * n_eff * (1 - q)))
    return OddTailRatios(exact_pair, exact_triple, approx_pair, approx_triple, n_eff)
