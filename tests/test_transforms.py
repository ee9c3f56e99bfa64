import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from anticonc import (
    CenteredSeq,
    Dist,
    birnbaum_sides,
    delta,
    is_symmetrizable,
    peakedness_dominates,
    rearrange_left,
    rearrange_right,
    rearrange_symmetric,
    gabriel_sides,
    uniform_on,
)
from anticonc import transforms
from anticonc.errors import AssertionFailed, NotSymmetrizable, PreconditionViolated
from anticonc.sampling import (
    random_centered_seq,
    random_peaked_pair,
    random_symmetric_unimodal,
    random_symmetrizable_seq,
)


def seq(*values):
    return CenteredSeq.from_values([F(v) if isinstance(v, int) else F(*map(int, v.split("/"))) for v in values])


def brute_zero_coefficient(seqs):
    """Sum of products over index tuples adding to zero, by full enumeration."""
    total = F(0)
    ranges = [range(-s.radius, s.radius + 1) for s in seqs]
    for combo in itertools.product(*ranges):
        if sum(combo) == 0:
            prod = F(1)
            for s, i in zip(seqs, combo):
                prod *= s.value_at(i)
            total += prod
    return total


centered_seqs = st.builds(
    lambda vals: CenteredSeq.from_values(vals),
    st.integers(0, 3).flatmap(
        lambda k: st.lists(
            st.fractions(min_value=0, max_value=4, max_denominator=9),
            min_size=2 * k + 1,
            max_size=2 * k + 1,
        )
    ),
)


class TestCenteredSeq:
    def test_validation(self):
        with pytest.raises(ValueError):
            CenteredSeq.from_values([F(1), F(2)])
        with pytest.raises(ValueError):
            CenteredSeq.from_values([F(-1)])

    def test_value_at(self):
        s = seq(1, 2, 3)
        assert (s.value_at(-1), s.value_at(0), s.value_at(1)) == (1, 2, 3)
        assert s.value_at(5) == 0


class TestRearrangements:
    def test_left_prefers_negative_side(self):
        assert rearrange_left(seq("1/5", "1/2", "3/10")).values == (F(3, 10), F(1, 2), F(1, 5))

    def test_right_prefers_positive_side(self):
        assert rearrange_right(seq("1/5", "1/2", "3/10")).values == (F(1, 5), F(1, 2), F(3, 10))

    def test_left_and_right_mirror_each_other(self):
        s = seq(0, "1/7", 2, "1/2", 1)
        assert rearrange_left(s).values == tuple(reversed(rearrange_right(s).values))

    def test_point_mass_centers(self):
        assert rearrange_left(seq(0, 0, 1)).values == (0, 1, 0)
        assert rearrange_right(seq(1, 0, 0)).values == (0, 1, 0)

    def test_symmetric_success(self):
        assert rearrange_symmetric(seq("1/5", "1/2", "1/5")).values == (F(1, 5), F(1, 2), F(1, 5))
        assert rearrange_symmetric(seq(0, 0, 1)).values == (0, 1, 0)
        assert rearrange_symmetric(seq(3, 1, 3, 3, 1)).values == (1, 3, 3, 3, 1)

    def test_symmetric_failure_names_offender(self):
        with pytest.raises(NotSymmetrizable) as exc:
            rearrange_symmetric(seq("1/5", "1/2", "3/10"))
        assert exc.value.offending == F(3, 10)
        assert not is_symmetrizable(seq("1/5", "1/2", "3/10"))

    @given(centered_seqs)
    def test_multiset_preserved(self, s):
        for op in (rearrange_left, rearrange_right):
            assert Counter(op(s).values) == Counter(s.values)

    @given(centered_seqs)
    def test_idempotent(self, s):
        for op in (rearrange_left, rearrange_right):
            assert op(op(s)) == op(s)

    @given(centered_seqs)
    def test_symmetric_output_is_symmetric_decreasing(self, s):
        if not is_symmetrizable(s):
            return
        out = rearrange_symmetric(s)
        k = out.radius
        assert all(out.value_at(i) == out.value_at(-i) for i in range(k + 1))
        assert all(out.value_at(i) >= out.value_at(i + 1) for i in range(k))
        assert Counter(out.values) == Counter(s.values)
        assert rearrange_symmetric(out) == out


class TestGabriel:
    def test_point_masses(self):
        lhs, rhs = gabriel_sides([seq(0, 0, 1), seq(1, 0, 0)])
        assert (lhs, rhs) == (1, 1)

    def test_fixpoint_pair_is_equality(self):
        a = rearrange_left(seq("1/3", 2, "1/2"))
        b = rearrange_right(seq(1, "3/4", "1/4"))
        assert gabriel_sides([a, b]) == (brute_zero_coefficient([a, b]),) * 2

    def test_lhs_matches_enumeration(self):
        rng = random.Random(7)
        for _ in range(25):
            seqs = [random_centered_seq(rng), random_centered_seq(rng), random_symmetrizable_seq(rng)]
            lhs, rhs = gabriel_sides(seqs)
            assert lhs == brute_zero_coefficient(seqs)
            assert lhs <= rhs

    def test_holds_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(100):
            count = rng.randint(2, 4)
            seqs = [random_centered_seq(rng), random_centered_seq(rng)]
            seqs += [random_symmetrizable_seq(rng) for _ in range(count - 2)]
            lhs, rhs = gabriel_sides(seqs)
            assert lhs <= rhs

    def test_unsymmetrizable_tail_rejected(self):
        with pytest.raises(NotSymmetrizable):
            gabriel_sides([seq(1, 1, 1), seq(1, 1, 1), seq(0, 1, 2)])

    def test_needs_two_sequences(self):
        with pytest.raises(ValueError):
            gabriel_sides([seq(0, 1, 0)])


class TestPeakedness:
    def test_examples(self):
        spread = uniform_on([-1, 0, 1])
        assert peakedness_dominates(spread, delta(0))
        assert not peakedness_dominates(delta(0), spread)
        assert peakedness_dominates(spread, spread)

    def test_birnbaum_equality_case(self):
        spread = uniform_on([-1, 0, 1])
        lhs, rhs = birnbaum_sides(spread, spread, delta(0), 0)
        assert (lhs, rhs) == (F(1, 3), F(1, 3))

    def test_birnbaum_strict_case(self):
        x = uniform_on([-1, 0, 1])
        y = uniform_on([-2, -1, 0, 1, 2])
        lhs, rhs = birnbaum_sides(x, y, uniform_on([-1, 0, 1]), 1)
        assert lhs < rhs

    def test_identical_arguments_give_equal_sides(self):
        y = uniform_on([-1, 0, 1])
        for k in range(4):
            lhs, rhs = birnbaum_sides(y, y, y, k)
            assert lhs == rhs

    def test_precondition_messages(self):
        sym = uniform_on([-1, 0, 1])
        with pytest.raises(PreconditionViolated, match="X is not symmetric"):
            birnbaum_sides(Dist.from_entries([(0, "1/2"), (1, "1/2")]), sym, sym, 1)
        gap = Dist.from_entries([(-2, "1/2"), (2, "1/2")])
        with pytest.raises(PreconditionViolated, match="Y is not unimodal"):
            birnbaum_sides(sym, gap, sym, 1)
        with pytest.raises(PreconditionViolated, match="peaked"):
            birnbaum_sides(sym, delta(0), sym, 1)

    def test_holds_on_random_instances(self):
        rng = random.Random(13)
        for _ in range(100):
            x = random_symmetric_unimodal(rng)
            y, yp = random_peaked_pair(rng)
            radius = max(abs(v) for d in (x, y, yp) for (v,), _ in d.atoms)
            for k in range(2 * radius + 1):
                lhs, rhs = birnbaum_sides(x, y, yp, k)
                assert lhs <= rhs

    def test_a_failure_is_reported_at_the_smallest_failing_radius(self, monkeypatch):
        # with the two sums swapped, X + Y' against X + Y: equal at radius 0, 1 against 5/6 at radius 1; the sides at
        # k = 0 and at k = 2 hold, so only a check of every radius finds the failure, and the witness replays it
        x, y, yp = uniform_on([-1, 0, 1]), Dist.from_entries([(-1, "1/4"), (0, "1/2"), (1, "1/4")]), delta(0)
        convolve_all = transforms.convolve_all
        monkeypatch.setattr(transforms, "convolve_all", lambda laws: convolve_all([laws[0], {y: yp, yp: y}[laws[1]]]))
        for k in (0, 2):
            with pytest.raises(AssertionFailed) as failure:
                birnbaum_sides(x, y, yp, k)
            assert failure.value.witness == {"k": 1, "X": x, "Y": y, "Yp": yp, "lhs": F(1), "rhs": F(5, 6)}
            assert reference_first_gap(x.convolve(yp), x.convolve(y)) == 1

    def test_convolution_preserves_symmetric_unimodality(self):
        rng = random.Random(17)
        for _ in range(50):
            a = random_symmetric_unimodal(rng)
            b = random_symmetric_unimodal(rng)
            c = a.convolve(b)
            assert c.is_symmetric()
            assert c.is_unimodal()


def reference_is_unimodal(d):
    # the pmf walk over the whole coordinate range of the support, zeros in its gaps
    lo, hi = d.support[0][0], d.support[-1][0]
    pmf = [d.atom(x) for x in range(lo, hi + 1)]
    i = 0
    while i + 1 < len(pmf) and pmf[i] <= pmf[i + 1]:
        i += 1
    while i + 1 < len(pmf) and pmf[i] >= pmf[i + 1]:
        i += 1
    return i == len(pmf) - 1


def reference_first_gap(mu, nu):
    # the per-radius comparison: every k from 0 to the largest radius of an atom, each side summed afresh
    radius = max(abs(x) for d in (mu, nu) for (x,) in d.support)
    return next((k for k in range(radius + 1) if mu.interval_prob(k) > nu.interval_prob(k)), None)


@st.composite
def line_laws(draw):
    """A 1-D law with small integer weights, so that plateaus are common: on any points of -6..6 (gaps and negative
    points), on a run of consecutive points, or mirrored about 0."""
    shape = draw(st.sampled_from(["any", "run", "mirrored"]))
    if shape == "any":
        points = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=8, unique=True))
    elif shape == "run":
        start = draw(st.integers(-6, 3))
        points = list(range(start, start + draw(st.integers(1, 8))))
    else:
        half = draw(st.lists(st.integers(1, 6), max_size=4, unique=True))
        points = [0] * draw(st.booleans()) + half + [-x for x in half] or [0]
    weights = draw(st.lists(st.integers(1, 3), min_size=len(points), max_size=len(points)))
    if shape == "mirrored":
        weights = [dict(zip(map(abs, points), weights))[abs(x)] for x in points]
    return Dist.from_entries([(x, F(w, sum(weights))) for x, w in zip(points, weights)])


@given(line_laws(), line_laws())
@example(uniform_on([-1, 0, 1]), delta(0))
@example(Dist.from_entries([(-2, "1/2"), (2, "1/2")]), uniform_on([-1, 0, 1]))
def test_unimodality_and_peakedness_match_the_range_walks(mu, nu):
    assert mu.is_unimodal() == reference_is_unimodal(mu)
    assert transforms._first_gap(mu, nu) == reference_first_gap(mu, nu)
    assert peakedness_dominates(mu, nu) == (reference_first_gap(mu, nu) is None)
