"""Exception types shared across the package, and the checks that raise them."""

from __future__ import annotations

import itertools
import math
import sys


class DimensionMismatch(ValueError):
    """Lattice points or distributions of different dimensions were combined."""


class MassNotOne(ValueError):
    """Total mass of a distribution is not exactly 1; `deficit` is the exact rational 1 - total."""

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
    """Raise AssertionFailed unless lhs <= rhs: the one place where a violated bound becomes a failure, its
    witness holding the caller's replay fields followed by both sides."""
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
    if not 0 < 2 * q.numerator <= q.denominator:
        raise ParamOutOfRange(f"success mass must lie in (0, 1/2], got {q}")
    return q


# -- work caps: one gate per unit, and one price per kernel ---------------

MAX_ATOMS = 4096                # atoms of one exact law
MAX_WORK = 5_000_000            # steps of one plan, each near a microsecond


def _require_within(what, count, unit):
    """The one gate of every work cap: `what` predict `count` `unit`, atoms of one exact law against MAX_ATOMS, steps
    of one plan against MAX_WORK, or digits of one exact number against the interpreter's int-to-str limit (if any)."""
    cap = MAX_ATOMS if unit == "atoms" else MAX_WORK if unit == "steps" else sys.get_int_max_str_digits()
    if cap and count > cap:
        raise TooLarge(f"{what} predict {count} {unit}, above the cap {cap}")


def _fits(atoms, steps):
    """Whether a law of `atoms` atoms and a plan of `steps` steps are within the caps, read as the gate runs."""
    return atoms <= MAX_ATOMS and steps <= MAX_WORK


def _require_flat(a):
    """A level in (0, 1) whose flat law, of ceil(1/a) atoms, fits MAX_ATOMS."""
    _require_alpha(a)
    _require_within(f"the flat law at level {a}", math.ceil(1 / a), "atoms")
    return a


def _require_digits(n, log10):
    """The product of n summands' denominators, 10^log10, which their exact values divide, must print."""
    _require_within(f"exact values of {n} summands", math.floor(log10) + 1, "digits")


def _require_summands(n, atoms, den):
    """n summands of `atoms` atoms each, counted as n * atoms, and of denominator den."""
    _require_within(f"{n} summands of {atoms} atoms", n * atoms, "atoms")
    _require_digits(n, n * math.log10(den))


def _product(a, b, x, y):
    """Steps of one dict convolution of a- and b-atom laws of x- and y-bit numerators: 40, plus 1 + x y / 2^20 each."""
    return 40 + a * b * (2**20 + x * y) // 2**20


def _lookups(head, last, x, y):
    """Steps of one hit: a table of the last law's atoms, then per head atom a lookup and a product (2 + x y / 2^20)."""
    return last + head * (2**21 + x * y) // 2**20


def _updates(count, bits, den):
    """Steps of a pass of `count` updates of `bits`-bit coefficients (binomial recurrence, row ladder) dividing by
    factors of p's denominator den: 80, plus 1 + bits limbs / 4096 each, limbs the 64-bit limbs of den."""
    return 80 + count * (4096 + bits * -(-den.bit_length() // 64)) // 4096


def _require_plan(what, prices):
    """The one gate of MAX_WORK: `what` predict the sum of `prices`, the steps of a plan's kernel calls in order.
    The sum stops once it passes the cap, so a refusal costs O(cap) and reports the steps counted so far."""
    steps = 0
    for steps in itertools.accumulate(prices):
        if steps > MAX_WORK:
            break
    _require_within(what, steps, "steps")


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
