"""Exhaustive and structured searches over signs, weights and split points.

Everything returns exact rationals with deterministic tie-breaking, so runs
are reproducible byte for byte.  The iid structure of the inputs is used to
prune orbits (sign counts, weight rescalings); the tests check the pruned
searches against plain enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

from .dist import (Dist, Point, PointLike, RationalLike, _fold, _hit, _point_in, _prefix_sums, _recurrence, as_fraction,
                   as_point, delta)
from .asymptotics import local_limit_exact
from .errors import (AssertionFailed, EvenN, ParamOutOfRange, QTooLarge, ZeroWeight, _require_alpha, _require_at_least,
                     _require_common_dim, _require_digits, _require_even, _require_p, _require_plan, _require_within,
                     _updates, require_bound)

__all__ = [
    "GridSearchResult",
    "KScanResult",
    "PhaseDiagram",
    "default_p_grid",
    "k_phase_scan",
    "monotonicity_check",
    "optimal_k_scan",
    "quasi_uniform_bound_check",
    "sign_vector_max",
    "weight_grid_search",
]


@dataclass(frozen=True)
class KRow:
    """Best integer target for one sign split k."""

    k: int
    x: int
    value: Fraction


@dataclass(frozen=True)
class KScanResult:
    n: int
    p: Fraction
    best_k: int
    best_x: int
    best_value: Fraction
    rows: tuple[KRow, ...]

    def tied_ks(self) -> tuple[int, ...]:
        return tuple(r.k for r in self.rows if r.value == self.best_value)


def optimal_k_scan(n: int, p: RationalLike) -> KScanResult:
    """Scan sign splits k = 0..floor(n/2) of n Bernoulli(p) summands.

    Row k is the law of B - B' with B ~ Binomial(n - k, p) and B' ~
    Binomial(k, p).  With p = a/b and c = b - a, shifting it by k turns it
    into the integer polynomial (c + a x)^(n - k) (c x + a)^k over b^n: the
    coefficient at j is the numerator of the mass at j - k.  Row 0 is the
    binomial numerators C(n, j) a^j c^(n - j), and row k + 1 is row k times
    (c x + a), divided exactly by (a x + c), in one synthetic pass.  A scan
    is O(n^2) big-int steps and no convolutions.

    Each row is still the whole law, so its mode (the smallest point of
    largest mass) is taken over every point, and the check that it lies in
    the floor/ceil window of the mean (n - 2k) p stays exhaustive in every
    cell; a mode outside raises AssertionFailed.  Smaller k and smaller x
    win ties.
    """
    q = _require_p(as_fraction(p))
    _require_ladder(n, 1, q.denominator)
    rows = _split_rows(n, q)
    best = max(rows, key=lambda r: (r.value, -r.k))
    return KScanResult(n, q, best.k, best.x, best.value, rows)


def _require_ladder(n: int, points: int, den: int) -> None:
    """Gate `points` values of p of denominators up to den: each is a pass of `_split_rows`, on n log2(den) bits."""
    _require_at_least("n", n, 1)
    _require_within(f"{n} summands of 2 atoms", 2 * n, "atoms")
    price = _updates((n // 2 + 1) * (n + 1), n * (den - 1).bit_length(), den)
    _require_plan(f"{points} values of p at n = {n} (denominators up to {den})", [points * price])


def _split_rows(n: int, q: Fraction) -> tuple[KRow, ...]:
    """The rows of `optimal_k_scan` for n and a p that its callers validated."""
    a, b = q.numerator, q.denominator
    c, den = b - a, b**n
    row = _recurrence([c, a], n)
    rows = []
    for k in range(n // 2 + 1):
        if k:
            row = _next_split(row, a, c)
        top = max(row)
        x = row.index(top) - k
        lo, hi = (n - 2 * k) * a // b, -(-(n - 2 * k) * a // b)    # floor and ceil of the mean (n - 2k) p
        candidates = (lo,) if lo == hi else (lo, hi)
        if x not in candidates:
            raise AssertionFailed(
                "mode left the floor/ceil window of the mean",
                witness={"n": n, "k": k, "p": q, "mode": x, "candidates": candidates},
            )
        rows.append(KRow(k, x, Fraction(top, den)))
    return tuple(rows)


def _next_split(row: list[int], a: int, c: int) -> list[int]:
    """Row times (c x + a), divided by (a x + c): one more summand enters with sign -1.

    The quotient Q of R = P (c x + a) by (a x + c) satisfies
    c Q[j] = R[j] - a Q[j - 1] = c P[j - 1] + a (P[j] - Q[j - 1]); a and c
    are coprime, so c divides P[j] - Q[j - 1] and every step is exact.
    """
    out = []
    last_in = last_out = 0
    for coef in row:
        last_out = last_in + a * ((coef - last_out) // c)
        out.append(last_out)
        last_in = coef
    return out


@dataclass(frozen=True)
class PhaseCell:
    p: Fraction
    best_ks: tuple[int, ...]    # all sign splits tied at the maximum
    best_value: Fraction


@dataclass(frozen=True)
class PhaseDiagram:
    n: int
    cells: tuple[PhaseCell, ...]
    observed_ks: tuple[int, ...]


def default_p_grid(count: int) -> list[Fraction]:
    """The grid i / (2 count) for i = 1..count, filling (0, 1/2]."""
    _require_at_least("grid", count, 1)
    return [Fraction(i, 2 * count) for i in range(1, count + 1)]


def k_phase_scan(n: int, p_grid: Sequence[RationalLike]) -> PhaseDiagram:
    """Best sign split as a function of p over a grid in (0, 1/2], for odd n."""
    # A correctly rounded float never reverses the order and equal floats fall back to the exact compare.
    ps = sorted({_require_p(as_fraction(p)) for p in p_grid}, key=lambda p: (float(p), p))
    if not ps:
        raise ParamOutOfRange("empty grid")
    _require_ladder(n, len(ps), max(p.denominator for p in ps))
    if n % 2 == 0:
        raise EvenN(f"scan is defined for odd n, got {n}")
    cells = []
    observed: set[int] = set()
    for p in ps:
        rows = _split_rows(n, p)
        top = max(r.value for r in rows)
        ks = tuple(r.k for r in rows if r.value == top)
        observed.update(ks)
        cells.append(PhaseCell(p, ks, top))
    return PhaseDiagram(n, tuple(cells), tuple(sorted(observed)))


def sign_vector_max(dist: Dist, n: int, x: PointLike | None = None) -> tuple[Fraction, tuple[int, ...]]:
    """Best sign vector for n iid summands.

    Maximizes P(sum_i s_i X_i = x) over s in {-1, +1}^n, or the largest atom
    of the signed sum when x is None.  Because the summands are iid the law
    depends only on the number j of +1 signs: laws j = 0..n are read at x
    without being formed, or j <= n/2 formed (law n - j is law j mirrored);
    the reported witness is the lexicographically smallest maximizer.
    """
    _require_at_least("n", n, 1)
    if x is not None:
        x = _point_in(x, dist.dim)
    last = n if x is not None else n // 2
    powers = _powers(f"{last + 1} sign laws of {n} summands", dist, n, _sign_laws(n, last), x)
    value, j, _ = _best(powers, _sign_laws(n, last), x)
    return value, (-1,) * (n - j) + (1,) * j


def _sign_laws(n: int, last: int) -> Iterable[list[tuple[int, int]]]:
    """The runs of sign laws j = 0..last: n - j summands with sign -1, then j with sign +1."""
    return ([(s, m) for s, m in ((-1, n - j), (1, j)) if m] for j in range(last + 1))


def _best(powers: list[Dist], laws: Iterable[list[tuple[int, int]]], x: PointLike | None) -> tuple[Fraction, int, Point]:
    """Value, index and point of the first of `laws` with the largest atom (or hit at x).  The law of runs (w, m)
    is the left fold of powers[m] scaled by w, as scaling commutes with iid sums: the law weighted_sum gives."""
    best = None
    for i, runs in enumerate(laws):
        parts = [powers[m].scale(w) for w, m in runs]
        value, point = reduce(Dist.convolve, parts).concentration() if x is None else (_hit(parts, x), x)
        if best is None or value > best[0]:
            best = (value, i, point)
    return best


def _powers(what: str, dist: Dist, n: int, laws: Iterable[list[tuple[int, int]]], x: PointLike | None) -> list[Dist]:
    """P_0..P_n, P_m the law of m iid copies of `dist`, by the chain P_(m + 1) = P_m * dist, for a search that forms
    `laws` from them: its values (dividing den^n) must print, and one plan must fit the caps: the chain's 40 steps per
    convolution summed at once, then the chain as the fold of n groups (dist, 1, 1) and each law of runs (w, m) as the
    fold of its groups (dist, w, m), the last read at x when there is one."""
    _require_digits(n, n * math.log10(dist.den))
    _require_plan(what, [40 * (n - 1)])    # the chain's fixed steps alone, before a group is listed
    folds = (_fold(what, [(dist, w, m) for w, m in runs], x is not None) for runs in laws)
    _require_plan(what, itertools.chain(_fold(what, [(dist, 1, 1)] * n), itertools.chain.from_iterable(folds)))
    return [delta((0,) * dist.dim), *itertools.accumulate([dist] * (n - 1), Dist.convolve, initial=dist)]


@dataclass(frozen=True)
class GridSearchResult:
    """Best rational weight vector from a grid, compared to the best signs."""

    value: Fraction
    weights: tuple[Fraction, ...]
    x: Point                    # argmax of the weighted sum's law (scaled lattice)
    sign_value: Fraction
    sign_vector: tuple[int, ...]
    exceeds_signs: bool


def weight_grid_search(dist: Dist, n: int, grid: Sequence[RationalLike]) -> GridSearchResult:
    """Maximize the largest atom of sum_i a_i X_i over a_i from a finite grid.

    X_i are iid copies of `dist`.  Weight tuples equivalent under global
    rescaling or reordering give the same maximum, so each orbit is
    evaluated once.  Because the summands are iid, the smallest tuple of an
    orbit in lexicographic order is sorted, so only sorted tuples are
    enumerated, in lexicographic order; the first one met represents its
    orbit, making the reported witness the smallest maximizer.  The orbit and
    sign laws come from one chain of powers under one budget, after a walk cap.
    """
    _require_at_least("n", n, 1)
    values = sorted({as_fraction(g) for g in grid})
    if not values:
        raise ParamOutOfRange("empty weight grid")
    if any(v == 0 for v in values):
        raise ZeroWeight("grid must not contain 0")
    size = math.comb(len(values) + n - 1, n)
    _require_plan(f"{size} sorted weight tuples of {n} summands", [100 * size * n])
    orbits: dict[tuple[tuple[int, int], ...], tuple[tuple[Fraction, ...], list[tuple[int, int]]]] = {}
    for tup in itertools.combinations_with_replacement(values, n):
        # runs on the lattice scaled by the tuple's lcm; its orbit's key is its primitive runs or their mirror
        scale = math.lcm(*(w.denominator for w in tup))
        runs = [(int(w * scale), len(list(same))) for w, same in itertools.groupby(tup)]
        g = math.gcd(*(w for w, _ in runs))
        key = min(tuple((w // g, m) for w, m in runs), tuple((-w // g, m) for w, m in reversed(runs)))
        orbits.setdefault(key, (tup, runs))
    tuples, laws = zip(*orbits.values())
    what = f"{len(laws)} weight orbits and {n // 2 + 1} sign laws of {n} summands"
    powers = _powers(what, dist, n, itertools.chain(laws, _sign_laws(n, n // 2)), None)
    value, i, argmax = _best(powers, laws, None)
    sign_value, j, _ = _best(powers, _sign_laws(n, n // 2), None)
    return GridSearchResult(value, tuples[i], argmax, sign_value, (-1,) * (n - j) + (1,) * j, value > sign_value)


def quasi_uniform_bound_check(dists: Sequence[Dist], alpha: RationalLike, x: PointLike) -> tuple[Fraction, Fraction]:
    """Compare P(sum = x) against the alternating quasi-uniform ceiling.

    For an even number of independent summands each with largest atom at
    most alpha, the hit probability is at most the zero mass of the
    alternating sum of n iid quasi-uniform(alpha) variables.  Returns
    (lhs, rhs) and raises AssertionFailed if the ceiling fails.
    """
    _require_even(len(dists))
    a = _require_alpha(as_fraction(alpha))
    _require_common_dim(dists, "distribution")
    for i, mu in enumerate(dists):
        q, _ = mu.concentration()
        if q > a:
            raise QTooLarge(f"summand {i} has largest atom {q} > {a}")
    target = as_point(x)
    lhs = _hit(dists, target)
    rhs = local_limit_exact(len(dists), a)
    require_bound("quasi-uniform ceiling failed", lhs, rhs, dists=list(dists), x=target, alpha=a)
    return lhs, rhs


def monotonicity_check(dists: Sequence[Dist]) -> tuple[Fraction, ...]:
    """Largest atom along the prefix sums; verifies it never increases.

    Returns the sequence of concentration maxima for X_1, X_1 + X_2, ...;
    a violation raises AssertionFailed with the offending prefix.
    """
    maxima = tuple([law.concentration()[0] for law in _prefix_sums(dists)])
    for i, (before, after) in enumerate(zip(maxima, maxima[1:]), start=2):
        require_bound("concentration maximum increased along a prefix", after, before, dists=list(dists), prefix=i)
    return maxima
