"""Seeded random instance generators for the property harnesses.

Shared by the test suite and the CLI trial runners so a (seed, index) pair
always regenerates the same instance.  All outputs are exact; the generators
only ever choose integers and take exact quotients.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .dist import Dist, as_fraction
from .errors import _require_flat
from .transforms import CenteredSeq


def random_masses(rng: random.Random, count: int) -> list[Fraction]:
    """Positive rationals summing to exactly 1."""
    weights = [rng.randint(1, 9) for _ in range(count)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def random_dist(rng: random.Random, dim: int) -> Dist:
    """A random distribution on 1 to 4 distinct points of {-3..3}^dim."""
    count = rng.randint(1, 4)
    points: set[tuple[int, ...]] = set()
    while len(points) < count:
        points.add(tuple(rng.randint(-3, 3) for _ in range(dim)))
    return Dist.from_entries(zip(sorted(points), random_masses(rng, count)))


def random_capped_dist(rng: random.Random, alpha) -> Dist:
    """A random distribution whose largest atom is at most alpha.

    Built as a convex combination of extreme points of the cap (each a flat
    measure at level alpha plus remainder), so the cap holds by convexity.
    Its 1 to 3 parts draw points from -6..6, widened to hold floor(1/alpha) + 1.
    """
    a = _require_flat(as_fraction(alpha))
    k = math.floor(1 / a)
    span = max(6, (k + 1) // 2)
    entries = []
    for weight in random_masses(rng, rng.randint(1, 3)):
        chosen = rng.sample(range(-span, span + 1), k + 1)
        main = sorted(chosen[:k])
        remainder = 1 - k * a
        for pt in main:
            entries.append((pt, weight * a))
        if remainder > 0:
            entries.append((chosen[k], weight * remainder))
    return Dist.from_entries(entries)


def _layer_dist(layers: list[Fraction]) -> Dist:
    # mass m of a layer of radius r spread evenly over -r..r
    return Dist.from_entries((x, m / (2 * r + 1)) for r, m in enumerate(layers) if m for x in range(-r, r + 1))


def random_symmetric_unimodal(rng: random.Random) -> Dist:
    """A random mixture of centered uniform blocks of radius at most 4: symmetric and unimodal."""
    radius = rng.randint(0, 4)
    return _layer_dist(random_masses(rng, radius + 1))


def random_peaked_pair(rng: random.Random) -> tuple[Dist, Dist]:
    """(Y, Y') symmetric unimodal with Y' at least as peaked as Y.

    Y' is obtained from Y's block mixture by moving mass from wide blocks
    to narrower ones, which can only raise every central interval mass.
    """
    radius = rng.randint(1, 4)
    layers = random_masses(rng, radius + 1)
    peaked = list(layers)
    for i in range(radius, 0, -1):
        share = Fraction(rng.randint(0, 4), 4)
        if share == 0 or peaked[i] == 0:
            continue
        moved = peaked[i] * share
        j = rng.randint(0, i - 1)
        peaked[i] -= moved
        peaked[j] += moved
    return _layer_dist(layers), _layer_dist(peaked)


def _random_value(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(0, 8), rng.randint(1, 9))


def random_centered_seq(rng: random.Random) -> CenteredSeq:
    """A random nonnegative sequence on -k..k, k <= 3; not necessarily symmetrizable."""
    radius = rng.randint(0, 3)
    values = [_random_value(rng) for _ in range(2 * radius + 1)]
    if all(v == 0 for v in values):
        values[rng.randrange(len(values))] = Fraction(1)
    return CenteredSeq.from_values(values)


def random_symmetrizable_seq(rng: random.Random) -> CenteredSeq:
    """A random sequence on -k..k, k <= 3, whose values pair up below the top one."""
    radius = rng.randint(0, 3)
    pairs = [_random_value(rng) for _ in range(radius)]
    top = max(pairs, default=Fraction(0)) + Fraction(rng.randint(0, 4), 4)
    if top == 0:
        top = Fraction(1)
    values = [top] + [v for v in pairs for _ in range(2)]
    rng.shuffle(values)
    return CenteredSeq.from_values(values)
