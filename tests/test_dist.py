import json
import math
import re
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from anticonc import (
    Dist,
    bernoulli,
    convolve_all,
    delta,
    self_convolve,
    uniform_on,
    weighted_sum,
)
from anticonc import errors
from anticonc.dist import _alternating_zero, _sum_atoms, as_point
from anticonc.errors import DimensionMismatch, MassNotOne, NegativeMass, TooLarge, ZeroWeight

from conftest import brute_weighted_law, dists, fraction_convolve


class TestConstruction:
    def test_merges_duplicates_and_sorts(self):
        d = Dist.from_entries([(2, "1/4"), (0, "1/4"), (2, "1/4"), (0, F(1, 4))])
        assert d.atoms == (((0,), F(1, 2)), ((2,), F(1, 2)))

    def test_drops_zero_mass(self):
        d = Dist.from_entries([(0, F(1)), (5, F(0))])
        assert d.support == ((0,),)

    def test_reports_exact_deficit(self):
        with pytest.raises(MassNotOne) as exc:
            Dist.from_entries([(0, F(1, 2)), (1, F(1, 3))])
        assert exc.value.deficit == F(1, 6)

    def test_rejects_negative_mass(self):
        with pytest.raises(NegativeMass):
            Dist.from_entries([(0, F(3, 2)), (1, F(-1, 2))])

    def test_rejects_mixed_dims(self):
        with pytest.raises(DimensionMismatch):
            Dist.from_entries([((0, 0), F(1, 2)), (1, F(1, 2))])


class TestQueries:
    def test_atom_lookup(self):
        b = bernoulli(F(1, 3))
        assert b.atom(1) == F(1, 3)
        assert b.atom(7) == 0
        with pytest.raises(DimensionMismatch):
            b.atom((0, 0))

    def test_concentration_breaks_ties_low(self):
        u = uniform_on([3, 1, 2])
        assert u.concentration() == (F(1, 3), (1,))

    def test_interval_prob(self):
        d = Dist.from_entries([(-2, "1/8"), (0, "1/2"), (1, "1/4"), (3, "1/8")])
        assert d.interval_prob(0) == F(1, 2)
        assert d.interval_prob(1) == F(3, 4)
        assert d.interval_prob(2) == F(7, 8)
        assert d.interval_prob(5) == 1

    def test_symmetry(self):
        assert uniform_on([-1, 0, 1]).is_symmetric()
        assert not bernoulli(F(1, 2)).is_symmetric()

    def test_unimodal_gap_fails(self):
        assert uniform_on([0, 1]).is_unimodal()
        assert Dist.from_entries([(0, "1/4"), (1, "1/2"), (2, "1/4")]).is_unimodal()
        assert not Dist.from_entries([(0, "1/2"), (2, "1/2")]).is_unimodal()
        assert not Dist.from_entries([(0, "2/5"), (1, "1/5"), (2, "2/5")]).is_unimodal()

    def test_moments(self):
        b = bernoulli(F(1, 4))
        assert b.mean() == F(1, 4)
        assert b.variance() == F(3, 16)


class TestTransforms:
    def test_negate_and_shift(self):
        b = bernoulli(F(1, 3))
        assert b.negate().atoms == (((-1,), F(1, 3)), ((0,), F(2, 3)))
        assert b.shift(2).support == ((2,), (3,))
        assert b.shift(-1).shift(1) == b

    def test_scale(self):
        b = bernoulli(F(1, 3))
        assert b.scale(3).support == ((0,), (3,))
        assert b.scale(-1) == b.negate()
        with pytest.raises(ZeroWeight):
            b.scale(0)

    def test_convolve_matches_enumeration(self):
        a = bernoulli(F(1, 3))
        b = a.negate()
        law = brute_weighted_law([1, 1], [a, b])
        conv = a.convolve(b)
        assert dict(conv.atoms) == {p: m for p, m in law.items() if m != 0}
        assert conv.atom(0) == F(5, 9)

    def test_convolve_identity(self):
        d = uniform_on([(0, 1), (2, 3)])
        assert d.convolve(delta((0, 0))) == d

    def test_map_points_keeps_the_dimension(self):
        with pytest.raises(DimensionMismatch, match=r"^point \(0, 0\) has dim 2, expected 1$"):
            bernoulli(F(1, 3)).map_points(lambda p: (p[0], 0))

    def test_convolve_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bernoulli(F(1, 2)).convolve(delta((0, 0)))


class TestWeightedSum:
    def test_rational_weights_scale_lattice(self):
        scale, d = weighted_sum(["1/2"], [bernoulli(F(1, 2))])
        assert scale == 2
        assert d == bernoulli(F(1, 2))

    def test_three_uniform_summands(self):
        u = uniform_on([0, 1, 2])
        _, d = weighted_sum([1, 1, -1], [u, u, u])
        assert d.atom(1) == F(7, 27)
        law = brute_weighted_law([1, 1, -1], [u, u, u])
        assert dict(d.atoms) == law

    def test_mixed_denominators(self):
        scale, d = weighted_sum(["1/2", "1/3"], [bernoulli(F(1, 2)), bernoulli(F(1, 2))])
        assert scale == 6
        law = brute_weighted_law([3, 2], [bernoulli(F(1, 2)), bernoulli(F(1, 2))])
        assert dict(d.atoms) == law

    def test_tuple_weight_is_not_a_rational(self):
        with pytest.raises(ValueError, match="not a rational"):
            weighted_sum([(1, 0)], [bernoulli(F(1, 2))])

    def test_zero_weight_rejected(self):
        with pytest.raises(ZeroWeight):
            weighted_sum([0], [bernoulli(F(1, 2))])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_sum([1, 2], [bernoulli(F(1, 2))])


class TestSerialization:
    def test_golden_form(self):
        assert bernoulli(F(1, 2)).to_json() == '{"dim":1,"atoms":[[[0],"1/2"],[[1],"1/2"]]}'

    def test_round_trip_is_bit_exact(self):
        d = Dist.from_entries([((0, -2), "1/3"), ((1, 5), "2/3")])
        text = d.to_json()
        again = Dist.from_json(text)
        assert again == d
        assert again.to_json() == text

    def test_declared_dim_checked(self):
        obj = json.loads(bernoulli(F(1, 2)).to_json())
        obj["dim"] = 2
        with pytest.raises(DimensionMismatch):
            Dist.from_json_obj(obj)


class TestCombinators:
    def test_self_convolve(self):
        b = bernoulli(F(1, 2))
        assert self_convolve(b, 0) == delta(0)
        assert self_convolve(b, 2).atom(1) == F(1, 2)


@given(st.integers(1, 2).flatmap(dists), st.integers(1, 6))
def test_alternating_zero_is_the_zero_mass_of_the_alternating_sum(mu, n):
    signs = [(-1) ** i for i in range(n)]
    assert _alternating_zero([mu], n) == [weighted_sum(signs, [mu] * n).dist.atom((0,) * mu.dim)]


@given(st.integers(1, 2).flatmap(lambda d: st.tuples(dists(dim=d), dists(dim=d))))
def test_convolution_commutes(pair):
    a, b = pair
    assert a.convolve(b) == b.convolve(a)


@given(dists(dim=1), dists(dim=1), dists(dim=1))
def test_convolution_associates(a, b, c):
    assert a.convolve(b).convolve(c) == a.convolve(b.convolve(c))


@given(dists())
def test_mass_stays_one(d):
    total = sum((m for _, m in d.atoms), start=F(0))
    assert total == 1
    conv = d.convolve(d.negate())
    assert sum((m for _, m in conv.atoms), start=F(0)) == 1


@given(dists(dim=1), dists(dim=1))
def test_concentration_never_grows_under_convolution(a, b):
    q = a.convolve(b).concentration()[0]
    assert q <= min(a.concentration()[0], b.concentration()[0])


@given(dists())
def test_negate_is_involutive(d):
    assert d.negate().negate() == d


@given(dists())
def test_serialization_round_trip(d):
    assert Dist.from_json(d.to_json()) == d


@given(dists(dim=1), st.integers(2, 4))
def test_all_ones_weighted_sum_is_iterated_convolution(d, n):
    scale, law = weighted_sum([1] * n, [d] * n)
    assert scale == 1
    assert law == convolve_all([d] * n)
    assert law == self_convolve(d, n)


@given(dists(coord_bound=1), st.integers(0, 8))
def test_self_convolve_is_the_iterated_product(d, n):
    assert self_convolve(d, n) == reduce(Dist.convolve, [d] * n, delta((0,) * d.dim))


def power_laws(dim):
    return st.one_of(dists(dim=dim, coord_bound=2), dists(dim=dim, coord_bound=1000),
                     dists(dim=dim, coord_bound=2, coprime=True))


@pytest.mark.parametrize("case", ["power", "odd", "two-laws"])
@given(st.integers(1, 2).flatmap(lambda dim: st.tuples(power_laws(dim), power_laws(dim))), st.integers(2, 12))
def test_power_plan_never_undercounts(case, pair, n):
    # caps one below the largest law formed, or below the steps of the products actually made (40 steps plus the atom
    # products weighted by the bits of the two numerators), refuse: self_convolve(d, n); the zero mass of 2n + 1
    # alternating copies of d, which forms the n-th power and then its product with d; and the zero masses of 2n
    # alternating copies of d and of e, whose powers share one plan, so that each alone may fit the step cap.  The
    # caps are patched in `errors` alone, where every gate reads them.
    d, e = pair
    laws, odd = ([d, e], 0) if case == "two-laws" else ([d], int(case == "odd"))

    def power():
        return self_convolve(d, n) if case == "power" else _alternating_zero(laws, 2 * n + odd)

    refusal = f"^{n + odd} copies of {'2 laws' if len(laws) == 2 else 'a law'} predict .* "
    sizes, steps = [], []
    convolve = Dist.convolve

    def counted(a, b):
        out = convolve(a, b)
        sizes.append(len(out.support))
        bits = max(a.nums).bit_length() * max(b.nums).bit_length()
        steps.append(40 + len(a.support) * len(b.support) * (2**20 + bits) // 2**20)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Dist, "convolve", counted)
        for cap in ("MAX_ATOMS", "MAX_WORK"):
            patch.setattr(errors, cap, math.inf)
        power()
        if max(sizes) > 1:      # a cap of 0 is no cap
            patch.setattr(errors, "MAX_ATOMS", max(sizes) - 1)
            with pytest.raises(TooLarge, match=refusal + "atoms"):
                power()
        patch.setattr(errors, "MAX_ATOMS", math.inf)
        patch.setattr(errors, "MAX_WORK", sum(steps) - 1)
        with pytest.raises(TooLarge, match=refusal + "steps"):
            power()


GROUPS = st.integers(1, 3).flatmap(lambda dim: st.lists(dists(dim=dim), min_size=1, max_size=2)).flatmap(
    lambda laws: st.lists(st.tuples(st.sampled_from(laws), st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 4)),
                          min_size=1, max_size=4))


@given(GROUPS)
def test_sum_atoms_never_undercounts_a_sum(groups):
    # after each group (law X, weight w, count m), the sum of m iid copies of w X over the groups so far, formed
    # without the gate; a law and weight met again join the multisets of their first group
    total = delta((0,) * groups[0][0].dim)
    for (x, w, m), predicted in zip(groups, _sum_atoms(groups), strict=True):
        total = reduce(Dist.convolve, [x.scale(w)] * m, total)
        assert predicted >= len(total.support)


def test_sum_atoms_counts_the_multisets_of_a_law_met_again():
    # copies of one law at one weight, in one group or several, are multisets of its atoms; a sum of given laws takes
    # equal laws as one, so 28 copies of 4 spread atoms predict C(31, 3) atoms, not 4^7 at the 7th
    spread = uniform_on([0, 1, 100, 10000])
    assert list(_sum_atoms([(spread, 1, 2), (spread, 1, 1), (spread, -1, 1)])) == [10, 20, 80]
    with pytest.raises(TooLarge, match="^the sum of 28 laws predict 4495 atoms, above the cap 4096$"):
        convolve_all([Dist.from_json(spread.to_json()) for _ in range(28)])


def law_pairs(dim):
    laws = st.one_of(dists(dim=dim), dists(dim=dim, coprime=True))
    return st.tuples(laws, laws)


@given(st.integers(1, 2).flatmap(law_pairs))
def test_convolve_matches_the_fraction_reference(pair):
    a, b = pair
    atoms = a.convolve(b).atoms
    assert atoms == fraction_convolve(a, b)
    assert dict(atoms) == brute_weighted_law([1, 1], [a, b])


class TestCanonicalForm:
    def test_every_route_reaches_one_form(self):
        b = bernoulli(F(1, 2))
        routes = [
            Dist.from_entries([(0, "2/8"), (1, "3/6"), (2, "5/20")]),
            b.convolve(b),
            Dist.from_entries([(0, "3/12"), (2, "1/4"), (1, "1/2")]).negate().negate(),
            # merging images leaves numerators (2, 4, 2) over 8 to reduce
            uniform_on(range(8)).map_points(lambda p: ((p[0] // 2 + 1) // 2,)),
        ]
        assert all(d == routes[0] and hash(d) == hash(routes[0]) for d in routes)
        assert (routes[0].nums, routes[0].den) == ((1, 2, 1), 4)

    def test_mass_not_one_carries_the_exact_deficit(self):
        with pytest.raises(MassNotOne) as info:
            Dist.from_entries([(0, "1/3"), (1, "2/9")])
        assert info.value.deficit == F(4, 9)
        with pytest.raises(MassNotOne) as info:
            Dist.from_entries([(0, "5/6"), (1, "1/2")])
        assert info.value.deficit == F(-1, 3)


@given(dists(coprime=True), st.integers(2, 6))
def test_stored_form_is_reduced_and_unique(d, k):
    assert math.gcd(d.den, *d.nums) == 1 and all(m > 0 for m in d.nums)
    assert list(d.support) == sorted(d.support)
    unreduced = Dist.from_entries((p, f"{m.numerator * k}/{m.denominator * k}") for p, m in d.atoms)
    for other in (unreduced, d.negate().negate(), d.convolve(delta((0,) * d.dim))):
        assert other == d and hash(other) == hash(d)
        assert (other.support, other.nums, other.den) == (d.support, d.nums, d.den)


# -- the readers against the Fraction-summing construction they replaced ------


def reference_point(value):
    """A lattice point by the one coordinate rule: an int, or a list or tuple of ints; no bool or float."""
    p = tuple(value) if isinstance(value, (list, tuple)) else (value,)
    if not all(type(c) is int for c in p):
        raise ValueError(f"not a lattice point: {value!r}")
    return p


def reference_fraction(value):
    """A mass as Fraction reads it: a Fraction, an int that is not a bool, or [-]digits[/digits] with a nonzero
    denominator."""
    if isinstance(value, F):
        return value
    if type(value) is int:
        return F(value)
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?", value):
        return F(value)
    raise ValueError(f"not a rational: {value!r}")


def fraction_from_entries(entries):
    """The reference: sum the masses of each point as Fractions, then drop the
    nulls and sort; the same checks in the same order, atom by atom, and the
    deficit 1 - total."""
    mass, dim = {}, None
    for pt, m in entries:
        p, q = reference_point(pt), reference_fraction(m)
        if q < 0:
            raise NegativeMass(f"mass {q} at {p}")
        if dim is None:
            dim = len(p)
        elif len(p) != dim:
            raise DimensionMismatch(f"point {p} has dim {len(p)}, expected {dim}")
        mass[p] = mass.get(p, F(0)) + q
    if dim is None:
        raise ValueError("no atoms given")
    total = sum(mass.values())
    if total != 1:
        raise MassNotOne(1 - total)
    atoms = tuple(sorted((p, q) for p, q in mass.items() if q))
    text = json.dumps({"dim": dim, "atoms": [[list(p), f"{q.numerator}/{q.denominator}"] for p, q in atoms]},
                      separators=(",", ":"))
    return dim, atoms, text


def fraction_from_json_obj(obj):
    """The reference reader: the shape and the mass syntax of every atom first, then the checks of
    fraction_from_entries, then the declared dimension."""
    if not (isinstance(obj, dict) and type(obj.get("dim")) is int and isinstance(obj.get("atoms"), list)):
        raise ValueError('a law is a JSON object {"dim": d, "atoms": [[point, mass], ...]}')
    entries = []
    for atom in obj["atoms"]:
        if not (isinstance(atom, list) and len(atom) == 2 and isinstance(atom[0], list)
                and all(type(c) is int for c in atom[0])):
            raise ValueError(f"an atom is [[c1, ..., cd], mass] with integer coordinates, got {atom!r}")
        entries.append((atom[0], reference_fraction(atom[1])))
    dim, atoms, text = fraction_from_entries(entries)
    if dim != obj["dim"]:
        raise DimensionMismatch(f"declared dim {obj['dim']} but atoms have dim {dim}")
    return dim, atoms, text


def _outcome(build, entries):
    try:
        return build(entries)
    except ValueError as e:
        return type(e), str(e), getattr(e, "deficit", None)


def _built(d):
    return d.dim, d.atoms, d.to_json()


@st.composite
def entry_lists(draw):
    """(point, mass) pairs on few points, so duplicates are common: zero masses, each
    mass written as an unreduced string, a Fraction or an int, with denominators of
    its own, a zero also as "-0/k"; then up to two faults, each a negative mass, a
    point of the other dimension, a total other than 1, a mass that is no rational
    or a coordinate that is no int."""
    dim = draw(st.integers(1, 2))
    count = draw(st.integers(1, 8))
    weights = [draw(st.integers(0, 6)) for _ in range(count)]
    weights[0] += not any(weights)
    total = sum(weights)
    entries = []
    for w in weights:
        point = draw(st.tuples(*[st.integers(-2, 2)] * dim))
        if dim == 1 and draw(st.booleans()):
            point = point[0]
        q, scale = F(w, total), draw(st.integers(1, 4))
        forms = (f"{w * scale}/{total * scale}", q, str(q)) + ((int(q),) if q in (0, 1) else ())
        entries.append((point, draw(st.sampled_from(forms + ((f"-0/{scale}",) if w == 0 else ())))))
    # the faults fall on one atom or on two, so either order, within an atom or between atoms, shows
    faults, i = draw(st.lists(st.sampled_from(("negative", "dim", "total", "syntax", "coordinate")), max_size=2)), 0
    for fault in faults:
        if not entries:
            break
        i = min(i, len(entries) - 1) if draw(st.booleans()) else draw(st.integers(0, len(entries) - 1))
        if fault == "negative":
            entries[i] = (entries[i][0], f"-{draw(st.integers(1, 7))}/{total}")
        elif fault == "dim":
            entries[i] = ((0,) * (3 - dim), entries[i][1])
        elif fault == "syntax":
            bad = ("1/0", "0.5", 0.5, True, "1/-2", " 1/2", "+1/2", "1_0/2")
            entries[i] = (entries[i][0], draw(st.sampled_from(bad)))
        elif fault == "coordinate":
            bad = (True, (True,) * dim, (0.5,) + (0,) * (dim - 1), [0] * (dim - 1) + [1.0])
            entries[i] = (draw(st.sampled_from(bad)), entries[i][1])
        elif draw(st.booleans()):
            entries.append((entries[i][0], F(draw(st.integers(1, 3)), 3 * total)))
        else:
            del entries[i]
    return entries


@given(entry_lists())
@example([((0,), "1/2"), ((0, 0), "-1/2")])             # a sign and a dimension fault on one atom
@example([((0,), "1/2"), ((1,), "1/0"), ((0, 0), "-1/2")])
@example([((0,), "1/2"), ((1,), "-1/2"), ([0.5], "x")])
def test_from_entries_matches_the_fraction_reference(entries):
    assert _outcome(lambda e: _built(Dist.from_entries(e)), entries) == _outcome(fraction_from_entries, entries)


@given(entry_lists(), st.data())
def test_from_json_obj_matches_the_fraction_reference(entries, data):
    # the same entries as JSON atoms, masses as strings or JSON integers, perhaps one atom of the wrong shape and a
    # declared dimension of 1 or 2; the fault of the reference's order is the one reported
    atoms = [[list(p) if isinstance(p, (tuple, list)) else [p], m if isinstance(m, (str, int, float)) else str(m)]
             for p, m in entries]
    if atoms and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(atoms) - 1))
        atoms[i] = data.draw(st.sampled_from((atoms[i][:1], atoms[i] + [0], atoms[i][0], {"point": atoms[i][0]})))
    obj = json.loads(json.dumps({"dim": data.draw(st.integers(1, 2)), "atoms": atoms}))
    assert _outcome(lambda o: _built(Dist.from_json_obj(o)), obj) == _outcome(fraction_from_json_obj, obj)


@pytest.mark.parametrize("entries", [
    [(True, "1")],
    [((True,), "1/2"), ((1,), "1/2")],
    [([0.7], "1/2"), ([0], "1/2")],
    [((0, False), "1")],
    [(0.0, "1")],
])
def test_a_coordinate_is_an_int_and_not_a_bool_or_a_float(entries):
    with pytest.raises(ValueError, match="^not a lattice point: "):
        Dist.from_entries(entries)
    with pytest.raises(ValueError, match="^not a lattice point: "):
        as_point(entries[0][0])


def test_a_bool_point_neither_equals_nor_serializes_as_an_int_point():
    with pytest.raises(ValueError, match="^not a lattice point: True$"):
        delta(True)
    with pytest.raises(ValueError, match="integer coordinates"):
        Dist.from_json('{"dim":1,"atoms":[[[true],"1/1"]]}')
    assert delta(1).to_json() == '{"dim":1,"atoms":[[[1],"1/1"]]}'
    assert as_point(1) == as_point([1]) == (1,) and as_point((0, -2)) == (0, -2)
    with pytest.raises(ValueError, match="^not a lattice point: "):
        bernoulli(F(1, 2)).atom(True)
