import math
import random
from fractions import Fraction as F

import pytest

from anticonc import Dist, is_symmetrizable, peakedness_dominates
from anticonc.sampling import (
    random_capped_dist,
    random_centered_seq,
    random_dist,
    random_masses,
    random_peaked_pair,
    random_symmetric_unimodal,
    random_symmetrizable_seq,
)


def test_generators_are_seed_deterministic():
    a = random_dist(random.Random(42), dim=1)
    b = random_dist(random.Random(42), dim=1)
    assert a == b


def test_random_masses_sum_to_one():
    rng = random.Random(1)
    for count in (1, 3, 7):
        masses = random_masses(rng, count)
        assert sum(masses) == 1
        assert all(m > 0 for m in masses)


def test_random_dist_shape():
    rng = random.Random(2)
    for _ in range(50):
        d = random_dist(rng, dim=2)
        assert d.dim == 2
        assert 1 <= len(d.atoms) <= 4
        assert all(abs(c) <= 3 for p, _ in d.atoms for c in p)


def test_random_capped_dist_respects_level():
    rng = random.Random(3)
    for alpha in (F(1, 3), F(2, 5), F(1, 2), F(3, 4)):
        for _ in range(30):
            d = random_capped_dist(rng, alpha)
            assert d.concentration()[0] <= alpha


# One draw from random.Random(7) per level of `check theorem2`, and one at 1/12,
# where floor(1/alpha) + 1 = 13 points fill the default span -6..6 exactly.
@pytest.mark.parametrize("alpha, atoms", [
    (F(1, 3), [(-6, "1/10"), (-5, "1/3"), (-1, "7/30"), (3, "7/30"), (4, "1/10")]),
    (F(2, 5), [(-6, "3/25"), (-5, "17/50"), (-1, "7/50"), (2, "7/25"), (4, "3/25")]),
    (F(1, 2), [(-6, "3/20"), (-5, "7/20"), (2, "7/20"), (4, "3/20")]),
    (F(3, 4), [(-6, "3/40"), (-5, "21/40"), (2, "7/40"), (4, "9/40")]),
    (F(1, 12), [(-6, "1/12"), (-5, "1/12"), (-4, "1/12"), (-3, "7/120"), (-2, "1/12"), (-1, "1/12"), (0, "1/12"),
                (1, "1/12"), (2, "1/12"), (3, "1/12"), (4, "1/40"), (5, "1/12"), (6, "1/12")]),
])
def test_random_capped_dist_draws_are_pinned(alpha, atoms):
    assert random_capped_dist(random.Random(7), alpha) == Dist.from_entries(atoms)


def test_random_capped_dist_widens_its_span_at_small_levels():
    rng = random.Random(8)
    for alpha in (F(1, 13), F(1, 20), F(2, 41), F(1, 1000)):
        k = math.floor(1 / alpha)
        d = random_capped_dist(rng, alpha)
        assert d.concentration()[0] <= alpha
        assert len(d.support) >= k
        assert all(abs(x) <= (k + 1) // 2 for (x,) in d.support)


def test_random_symmetric_unimodal_shape():
    rng = random.Random(4)
    for _ in range(50):
        d = random_symmetric_unimodal(rng)
        assert d.is_symmetric()
        assert d.is_unimodal()


def test_random_peaked_pair_dominates():
    rng = random.Random(5)
    for _ in range(50):
        y, yp = random_peaked_pair(rng)
        assert y.is_symmetric() and y.is_unimodal()
        assert yp.is_symmetric() and yp.is_unimodal()
        assert peakedness_dominates(y, yp)


def test_random_symmetrizable_seq_is_symmetrizable():
    rng = random.Random(6)
    for _ in range(100):
        assert is_symmetrizable(random_symmetrizable_seq(rng))


def test_random_centered_seq_is_valid():
    rng = random.Random(7)
    for _ in range(50):
        s = random_centered_seq(rng)
        assert len(s.values) % 2 == 1
        assert all(v >= 0 for v in s.values)
        assert any(v > 0 for v in s.values)
