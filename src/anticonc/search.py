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
from typing import Sequence

from .dist import (
    Dist,
    Point,
    PointLike,
    RationalLike,
    as_fraction,
    as_point,
    convolve_all,
    delta,
    weighted_sum,
)
from .asymptotics import local_limit_exact
from .errors import (
    AssertionFailed,
    EvenN,
    ParamOutOfRange,
    QTooLarge,
    ZeroWeight,
    _atom_count,
    _require_alpha,
    _require_at_least,
    _require_common_dim,
    _require_even,
    _require_p,
    _require_scan_work,
    _require_support,
    _require_within,
    _sign_steps,
    require_bound,
)

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
    _require_at_least("n", n, 1)
    _require_support(n, 2)
    q = _require_p(as_fraction(p))
    a, b = q.numerator, q.denominator
    c, den = b - a, b**n
    row = [c**n]  # C(n, j) a^j c^(n - j), each from the last by an exact division
    for j in range(n):
        row.append(row[-1] * (n - j) * a // ((j + 1) * c))
    rows = []
    for k in range(n // 2 + 1):
        if k:
            row = _next_split(row, a, c)
        top = max(row)
        x = row.index(top) - k
        mean = (n - 2 * k) * q
        lo, hi = math.floor(mean), math.ceil(mean)
        candidates = (lo,) if lo == hi else (lo, hi)
        if x not in candidates:
            raise AssertionFailed(
                "mode left the floor/ceil window of the mean",
                witness={"n": n, "k": k, "p": q, "mode": x, "candidates": candidates},
            )
        rows.append(KRow(k, x, Fraction(top, den)))
    best = max(rows, key=lambda r: (r.value, -r.k))
    return KScanResult(n, q, best.k, best.x, best.value, tuple(rows))


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
    ps = sorted({_require_p(as_fraction(p)) for p in p_grid})
    if not ps:
        raise ParamOutOfRange("empty grid")
    _require_scan_work(n, len(ps), max(p.denominator for p in ps))
    if n % 2 == 0:
        raise EvenN(f"scan is defined for odd n, got {n}")
    cells = []
    observed: set[int] = set()
    for p in ps:
        res = optimal_k_scan(n, p)
        ks = res.tied_ks()
        observed.update(ks)
        cells.append(PhaseCell(p, ks, res.best_value))
    return PhaseDiagram(n, tuple(cells), tuple(sorted(observed)))


def sign_vector_max(dist: Dist, n: int, x: PointLike | None = None) -> tuple[Fraction, tuple[int, ...]]:
    """Best sign vector for n iid summands.

    Maximizes P(sum_i s_i X_i = x) over s in {-1, +1}^n, or the largest atom
    of the signed sum when x is None.  Because the summands are iid the law
    depends only on the number of +1 signs, so only n + 1 laws are formed;
    the reported witness is the lexicographically smallest maximizer.
    """
    _require_at_least("n", n, 1)
    _require_within(f"{2 * n + 1} sign-search convolutions of {n} summands", _sign_steps(n, dist), "steps")
    powers = list(itertools.accumulate([dist] * n, Dist.convolve, initial=delta((0,) * dist.dim)))
    best: tuple[Fraction, int] | None = None
    for j in range(n + 1):
        law = powers[n - j].negate().convolve(powers[j])
        value = law.concentration()[0] if x is None else law.atom(x)
        if best is None or value > best[0]:
            best = (value, j)
    value, j = best
    return value, (-1,) * (n - j) + (1,) * j


def _weight_orbit_key(weights: tuple[Fraction, ...]) -> tuple[int, ...]:
    # canonical form under permutation and global rescaling
    denom = math.lcm(*(w.denominator for w in weights))
    ints = sorted(int(w * denom) for w in weights)
    g = math.gcd(*(abs(i) for i in ints))
    primitive = tuple(i // g for i in ints)
    flipped = tuple(sorted(-i for i in primitive))
    return min(primitive, flipped)


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
    orbit, making the reported witness the smallest maximizer.  Its work is
    predicted before any law is built: 100 steps per sorted tuple and summand
    for the walk, then one step per predicted atom and summand of each law;
    the sign search it is compared with has its own budget.
    """
    _require_at_least("n", n, 1)
    values = sorted({as_fraction(g) for g in grid})
    if not values:
        raise ParamOutOfRange("empty weight grid")
    if any(v == 0 for v in values):
        raise ZeroWeight("grid must not contain 0")
    size = math.comb(len(values) + n - 1, n)
    _require_within(f"{size} sorted weight tuples of {n} summands", 100 * size * n, "steps")
    orbits: dict[tuple[int, ...], tuple[Fraction, ...]] = {}
    for tup in itertools.combinations_with_replacement(values, n):
        orbits.setdefault(_weight_orbit_key(tup), tup)
    tuples = list(orbits.values())
    atoms, spans = len(dist.support), [max(c) - min(c) for c in zip(*dist.support)]
    laws = sum(_atom_count([(w, len(list(run))) for w, run in itertools.groupby(t)], atoms, spans) for t in tuples)
    _require_within(f"{len(tuples)} weight orbits of {n} summands of {atoms} atoms", n * laws, "steps")
    sign_value, sign_vector = sign_vector_max(dist, n)
    best: tuple[Fraction, tuple[Fraction, ...], Point] | None = None
    for tup in tuples:
        law = weighted_sum(tup, [dist] * n).dist
        value, argmax = law.concentration()
        if best is None or value > best[0]:
            best = (value, tup, argmax)
    value, weights, argmax = best
    return GridSearchResult(value, weights, argmax, sign_value, sign_vector, value > sign_value)


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
    lhs = convolve_all(dists).atom(target)
    rhs = local_limit_exact(len(dists), a)
    require_bound("quasi-uniform ceiling failed", lhs, rhs, dists=list(dists), x=target, alpha=a)
    return lhs, rhs


def monotonicity_check(dists: Sequence[Dist]) -> tuple[Fraction, ...]:
    """Largest atom along the prefix sums; verifies it never increases.

    Returns the sequence of concentration maxima for X_1, X_1 + X_2, ...;
    a violation raises AssertionFailed with the offending prefix.
    """
    _require_common_dim(dists, "distribution")
    acc = dists[0]
    maxima = [acc.concentration()[0]]
    for i, mu in enumerate(dists[1:], start=2):
        acc = acc.convolve(mu)
        q = acc.concentration()[0]
        require_bound("concentration maximum increased along a prefix", q, maxima[-1], dists=list(dists), prefix=i)
        maxima.append(q)
    return tuple(maxima)
