"""Exception types shared across the package, and the checks that raise them."""

from __future__ import annotations

import math
from fractions import Fraction


class DimensionMismatch(ValueError):
    """Lattice points or distributions of different dimensions were combined."""


class MassNotOne(ValueError):
    """Total mass of a distribution is not exactly 1.

    `deficit` is the exact rational 1 - total.
    """

    def __init__(self, deficit):
        self.deficit = deficit
        super().__init__(f"total mass differs from 1 by {deficit}")


class NegativeMass(ValueError):
    """An atom was given negative mass."""


class ZeroWeight(ValueError):
    """A weighted sum was requested with a zero weight."""


class AlphaOutOfRange(ValueError):
    """A concentration level was outside the open interval (0, 1)."""


class ParamOutOfRange(ValueError):
    """A numeric parameter violated its documented domain."""


class WrongSupportSize(ValueError):
    """An extreme-point measure was requested with the wrong number of points."""


class RestPointInSupport(ValueError):
    """The remainder point of an extreme-point measure collides with the main support."""


class NotSymmetrizable(ValueError):
    """A sequence admits no symmetric decreasing rearrangement.

    `offending` is a value whose multiplicity cannot be paired.
    """

    def __init__(self, offending):
        self.offending = offending
        super().__init__(f"no symmetric decreasing rearrangement: value {offending} cannot be paired")


class PreconditionViolated(ValueError):
    """A hypothesis of a comparison theorem fails; the message names it."""


class OddN(ValueError):
    """An operation requiring an even number of summands got an odd one."""


class EvenN(ValueError):
    """An operation requiring an odd number of summands got an even one."""


class QTooLarge(ValueError):
    """A distribution's largest atom exceeds the allowed concentration level."""


class TooLarge(ValueError):
    """A search space or an exact law exceeds its work cap."""


class AssertionFailed(RuntimeError):
    """An identity or inequality the library guarantees failed to hold.

    This signals a bug or numeric impossibility, never bad user input.
    `witness` carries the exact values needed to replay the failure.
    """

    def __init__(self, message, witness=None):
        self.witness = dict(witness or {})
        super().__init__(message)


def require_bound(message, lhs, rhs, **witness):
    """Raise AssertionFailed unless the checked bound lhs <= rhs holds.

    The one place where a violated comparison becomes a failure; the witness
    holds the caller's replay fields followed by both sides.
    """
    if lhs > rhs:
        raise AssertionFailed(message, witness={**witness, "lhs": lhs, "rhs": rhs})


# -- parameter domains: one validator each, shared by every module ---------


def _require_at_least(name, value, low):
    if value < low:
        raise ParamOutOfRange(f"need {name} >= {low}, got {value}")


def _require_even(n):
    if n == 0 or n % 2 == 1:
        raise OddN(f"need an even number of summands, got {n}")


def _require_alpha(a):
    if not 0 < a < 1:
        raise AlphaOutOfRange(f"level must lie in (0, 1), got {a}")
    return a


def _require_p(q):
    if not 0 < q <= Fraction(1, 2):
        raise ParamOutOfRange(f"success mass must lie in (0, 1/2], got {q}")
    return q


# -- work caps: one gate, and one budget of steps for every search ---------

MAX_ATOMS = 4096                # atoms of one exact law
MAX_WORK = 5_000_000            # steps of one search, each near a microsecond


def _require_within(what, count, unit):
    """The one gate of every work cap: `what` predict `count` `unit`, atoms of one exact law against
    MAX_ATOMS or steps of one search against MAX_WORK."""
    cap = MAX_ATOMS if unit == "atoms" else MAX_WORK
    if count > cap:
        raise TooLarge(f"{what} predict {count} {unit}, above the cap {cap}")


def _require_support(summands, width):
    """Cap an exact sum of iid summands by its predicted support, summands * width."""
    _require_within(f"{summands} summands of {width} atoms", summands * width, "atoms")


def _atom_count(runs, atoms, spans):
    """Predicted atoms of sum_i w_i X_i, the X_i iid of `atoms` atoms whose coordinates span `spans` and the
    weights given as (weight, times) runs: the smaller of the multisets of atoms, the product over runs of
    C(times + atoms - 1, atoms - 1), and the points of the lattice box, the product over coordinates of
    (L sum times |weight| span + 1), with L the lcm of the denominators."""
    multisets = math.prod(math.comb(m + atoms - 1, atoms - 1) for _, m in runs)
    scale = int(math.lcm(*(w.denominator for w, _ in runs)) * sum(m * abs(w) for w, m in runs))
    return min(multisets, math.prod(scale * span + 1 for span in spans))


def _sign_steps(n, dist):
    """Predicted steps of a sign search over n iid copies of `dist`.

    With P_j the law of j summands, the search forms P_j times the law for j < n, then -P_(n - j) times
    P_j for j <= n.  Each of these 2n + 1 convolutions costs 40 steps, plus 1 + x y / 2^20 per atom
    product of numerators of x and y bits; P_j has `_atom_count` atoms and numerators of at most
    j log2(den) bits, den the law's denominator.  The count stops once it passes MAX_WORK, so n alone can
    refuse the search.
    """
    atoms, spans = len(dist.support), [max(c) - min(c) for c in zip(*dist.support)]
    bits, steps, sizes = (dist.den - 1).bit_length(), (2 * n + 1) * 40, [1]
    while steps <= MAX_WORK and len(sizes) <= n:    # P_j times the law is P_(j + 1)
        j = len(sizes) - 1
        steps += sizes[j] * atoms * (1 + j * bits * bits // 2**20)
        sizes.append(_atom_count([(1, j + 1)], atoms, spans))
    if steps <= MAX_WORK:
        steps += sum(sizes[n - j] * sizes[j] * (1 + (n - j) * j * bits * bits // 2**20) for j in range(n + 1))
    return steps


def _require_scan_work(n, points, den):
    """Cap a sign-split scan of n summands at `points` values of p by its predicted work.

    Each p costs a fixed 80 steps plus (n // 2 + 1) rows of n + 1 big-int
    coefficient updates; an update counts 1 + bits / 4096 steps, where bits =
    n log2(den) bounds a numerator and `den` is the largest denominator of p.
    """
    _require_at_least("n", n, 1)
    _require_support(n, 2)
    bits = n * (den - 1).bit_length()
    steps = points * (80 + (n // 2 + 1) * (n + 1) * (4096 + bits) // 4096)
    _require_within(f"{points} values of p at n = {n} (denominators up to {den})", steps, "steps")


def _require_positive_coeffs(b, c):
    """The exact coefficients b and c of x^2 + b x + c, both positive."""
    if b <= 0 or c <= 0:
        raise ParamOutOfRange("coefficients must be positive")
    return b, c


def _require_common_dim(dists, noun):
    """The dimension of a nonempty list of laws; `noun` names them in errors."""
    if not dists:
        raise ValueError(f"need at least one {noun}")
    dim = dists[0].dim
    if any(d.dim != dim for d in dists):
        raise DimensionMismatch(f"{noun}s must share one dimension")
    return dim
