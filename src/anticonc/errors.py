"""Exception types shared across the package, and the checks that raise them."""

from __future__ import annotations

import itertools
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


MAX_ATOMS = 4096
MAX_SIGN_SUMMANDS = 24          # sign_vector_max forms n + 1 laws of up to n summands each
MAX_WEIGHT_WORK = 50_000        # weight_grid_search: sorted weight tuples times n
MAX_WEIGHT_ATOMS = 5_000_000    # weight_grid_search: predicted atoms of every law it builds, times n


def _require_support(summands, width):
    """Cap an exact sum of iid summands by its predicted support, summands * width."""
    atoms = summands * width
    if atoms > MAX_ATOMS:
        raise TooLarge(f"{summands} summands of {width} atoms predict {atoms} atoms, above the cap {MAX_ATOMS}")


def _require_weight_work(size, n):
    """Cap a search over the sorted weight tuples of n iid summands from a grid of `size` values:
    the C(size + n - 1, n) tuples times n must stay within MAX_WEIGHT_WORK."""
    tuples = math.comb(size + n - 1, n)
    if tuples * n > MAX_WEIGHT_WORK:
        raise TooLarge(f"{tuples} sorted weight tuples of {n} summands predict {tuples * n} steps, "
                       f"above the cap {MAX_WEIGHT_WORK}")


def _require_weight_atoms(tuples, n, atoms, spans):
    """Cap a weight search by the predicted atoms of the laws it builds, one per orbit representative in `tuples`.

    n times their sum must stay within MAX_WEIGHT_ATOMS.  For a law of
    `atoms` atoms whose coordinates span `spans`, sum_i w_i X_i has at most
    the smaller of two counts: the product over distinct weights, each m
    times, of C(m + atoms - 1, atoms - 1) multisets of atoms, and the points
    of its lattice box, the product over coordinates of (L sum |w_i| span + 1),
    with L the lcm of the denominators.  Each tuple must be sorted.
    """
    total = 0
    for weights in tuples:
        multisets = math.prod(math.comb(len(list(run)) + atoms - 1, atoms - 1)
                              for _, run in itertools.groupby(weights))
        scale = int(math.lcm(*(w.denominator for w in weights)) * sum(map(abs, weights)))
        total += min(multisets, math.prod(scale * span + 1 for span in spans))
    if total * n > MAX_WEIGHT_ATOMS:
        raise TooLarge(f"{len(tuples)} weight orbits of {n} summands of {atoms} atoms predict "
                       f"{total * n} atoms times n, above the cap {MAX_WEIGHT_ATOMS}")


MAX_SCAN_STEPS = 5_000_000


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
    if steps > MAX_SCAN_STEPS:
        raise TooLarge(
            f"a scan of n = {n} at {points} values of p (denominators up to {den}) predicts {steps} steps, "
            f"above the cap {MAX_SCAN_STEPS}")


def _require_positive_coeffs(b, c):
    """The coefficients b and c of x^2 + b x + c, exact or float, both positive."""
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
