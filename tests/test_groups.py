import math
import random
import sys
from functools import cached_property
from itertools import combinations, permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from haarent import groups
from haarent.errors import (DomainError, UnsupportedOperationError,
                             WindowOverflowError)
from haarent.groups import (LATTICE_ORDER, MAX_ORDER, AdditiveReals, Circle,
                            Cyclic, Dihedral, MultiplicativePositiveReals,
                            Subgroup, Symmetric, generated_subgroup,
                            group_from_descriptor, haar, subgroup_chains,
                            subgroups, translate_set, translation_samples)
from haarent.groups import (_extend, _is_prime_power, _mask, _members,
                            _subgroup, _translation_knots, _translation_range)
from haarent.measures import MeasurableSet, mass

TWO_PI = 2.0 * math.pi

FINITE_SAMPLES = [Cyclic(1), Cyclic(6), Dihedral(3), Dihedral(4),
                  Symmetric(3)]


class TestFiniteGroupAxioms:
    @pytest.mark.parametrize("group", FINITE_SAMPLES,
                             ids=lambda g: g.describe())
    def test_closure_identity_inverse(self, group):
        reps = group.reps
        rep_set = set(reps)
        e = group.identity_rep()
        for a in reps:
            assert group.compose_reps(a, e) == a
            assert group.compose_reps(e, a) == a
            inv = group.inverse_rep(a)
            assert inv in rep_set
            assert group.compose_reps(a, inv) == e
            for b in reps:
                assert group.compose_reps(a, b) in rep_set

    @pytest.mark.parametrize("group", [Cyclic(5), Dihedral(3), Symmetric(3)],
                             ids=lambda g: g.describe())
    def test_associativity(self, group):
        reps = group.reps
        for a, b, c in product(reps, reps, reps):
            left = group.compose_reps(group.compose_reps(a, b), c)
            right = group.compose_reps(a, group.compose_reps(b, c))
            assert left == right

    def test_orders(self):
        assert Cyclic(6).order == 6
        assert Dihedral(4).order == 8
        assert Symmetric(4).order == 24

    def test_size_must_be_positive(self):
        with pytest.raises(DomainError):
            Cyclic(0)
        with pytest.raises(DomainError):
            Dihedral(0)
        with pytest.raises(DomainError):
            Symmetric(0)


class TestContinuousGroupLaw:
    # fixed sample points, and how far a*a^-1 may land from the identity
    # (for the circle: around the circle, where the identity 0 is also
    # 2*pi); the circle's points include angles so small that -a % 2*pi
    # rounds to 2*pi itself
    CASES = [
        (AdditiveReals((0.0, 10.0)), [-3.5, -1e-300, 0.0, 0.1, 2.5, 1e6],
         math.ulp(0.0)),
        (MultiplicativePositiveReals((0.1, 100.0)),
         [1e-300, 0.1, 1.0 / 3.0, 1.0, 7.5, 1e3, 1e300], math.ulp(1.0)),
        (Circle(), [0.0, 5e-324, 1e-20, 0.1, 3.0, math.pi, 6.2,
                    TWO_PI - 1e-15], math.ulp(TWO_PI)),
    ]

    @pytest.mark.parametrize("group, points, ulp", CASES,
                             ids=["R+add", "R*mul", "circle"])
    def test_identity_and_inverse(self, group, points, ulp):
        e = group.identity_rep()
        for a in points:
            assert group.compose_reps(a, e) == a
            assert group.compose_reps(e, a) == a
            r = group.compose_reps(a, group.inverse_rep(a))
            if isinstance(group, Circle):
                r = min(r, TWO_PI - r)
            assert abs(r - e) <= ulp, a

    def test_circle_reps_stay_in_range(self):
        g = Circle()
        angles = self.CASES[2][1]
        for a in angles + [-1e-20, -0.1, 7.0, -7.0]:
            rep = g.check_rep(a)
            for r in (rep, g.inverse_rep(rep),
                      *(g.compose_reps(rep, b) for b in angles)):
                assert 0.0 <= r < TWO_PI, (a, r)


class TestElementsAndLabels:
    def test_cyclic_labels(self):
        g = Cyclic(6)
        assert [g.label_of(r) for r in g.reps] == [str(k) for k in range(6)]
        assert g.check_rep("4") == 4

    def test_dihedral_labels(self):
        g = Dihedral(3)
        labels = {g.label_of(r) for r in g.reps}
        assert labels == {"r0", "r1", "r2", "s0", "s1", "s2"}
        s1 = g.check_rep("s1")
        assert g.label_of(g.compose_reps(s1, s1)) == "r0"

    def test_symmetric_labels_are_words(self):
        g = Symmetric(3)
        labels = {g.label_of(r) for r in g.reps}
        assert "012" in labels
        assert len(labels) == 6
        swap = g.check_rep("102")
        assert g.label_of(g.compose_reps(swap, swap)) == "012"

    @pytest.mark.parametrize("group, atoms", [
        (Symmetric(5), tuple("".join(map(str, w))
                             for w in permutations(range(5)))),
        (Dihedral(12), tuple(f"{k}{i}" for k in "rs" for i in range(12))),
    ], ids=["S5", "D12"])
    def test_carrier_atoms_follow_canonical_order(self, group, atoms):
        assert group.carrier.atoms == atoms
        assert atoms == tuple(group.label_of(r) for r in group.reps)
        assert tuple(group._rep_by_label) == atoms

    def test_unknown_label_rejected(self):
        with pytest.raises(DomainError):
            Cyclic(6).check_rep("6")

    @pytest.mark.parametrize("group, given", [
        (Cyclic(6), 2.0), (Cyclic(6), "2"),
        (Dihedral(3), "s1"), (Symmetric(3), (1, 0, 2)),
    ], ids=["Z6-float", "Z6-label", "D3-label", "S3-tuple"])
    def test_check_rep_returns_the_groups_own_rep(self, group, given):
        got = group.check_rep(given)
        assert any(got is r for r in group.reps)
        assert got == group._rep_by_label.get(given, given)

    @pytest.mark.parametrize("bad", ["r0", 6, -1, 2.5, math.nan,
                                     math.inf, None, (0, 0), [1]],
                             ids=repr)
    def test_check_rep_rejects_what_is_not_an_element(self, bad):
        with pytest.raises(DomainError):
            Cyclic(6).check_rep(bad)

    def test_float_rep_translates_as_its_int(self):
        g = Cyclic(6)
        one = MeasurableSet.of_atoms(g.carrier, ["1"])
        assert translate_set(g, 2.0, one).atoms == ("3",)

    def test_finite_action_is_left_translation(self):
        g = Cyclic(6)
        one = MeasurableSet.of_atoms(g.carrier, ["3"])
        assert translate_set(g, 2, one).atoms == ("5",)
        # in D3, s0*r1 = s2 while r1*s0 = s1
        d = Dihedral(3)
        one = MeasurableSet.of_atoms(d.carrier, ["r1"])
        assert translate_set(d, "s0", one).atoms == ("s2",)


class TestHaar:
    def test_finite_mass_is_group_order(self):
        for group in (Cyclic(6), Dihedral(4), Symmetric(3)):
            nu = haar(group)
            assert mass(nu, MeasurableSet.full(group.carrier)) == \
                float(group.order)

    def test_scale_multiplies_mass(self):
        nu = haar(Cyclic(4), scale=2.5)
        assert mass(nu, MeasurableSet.full(nu.space)) == 10.0

    def test_additive_haar_is_length(self):
        g = AdditiveReals((0.0, 10.0))
        nu = haar(g)
        assert mass(nu, MeasurableSet.of_interval(g.carrier, 2.0, 5.0)) == \
            pytest.approx(3.0, abs=1e-10)

    def test_multiplicative_haar_is_log_length(self):
        g = MultiplicativePositiveReals((0.1, 100.0))
        nu = haar(g)
        got = mass(nu, MeasurableSet.of_interval(g.carrier, 1.0, math.e))
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_circle_full_mass(self):
        nu = haar(Circle())
        assert mass(nu, MeasurableSet.full(nu.space)) == \
            pytest.approx(TWO_PI, abs=1e-9)

    def test_bad_scale_rejected(self):
        with pytest.raises(DomainError):
            haar(Cyclic(3), scale=0.0)
        with pytest.raises(DomainError):
            haar(Cyclic(3), scale=math.inf)


class TestTranslateSet:
    def test_finite_translation(self):
        g = Cyclic(6)
        s = MeasurableSet.of_atoms(g.carrier, ["0", "1"])
        assert translate_set(g, 2, s).atoms == ("2", "3")

    def test_additive_shift(self):
        g = AdditiveReals((0.0, 10.0))
        s = MeasurableSet.of_interval(g.carrier, 0.0, 1.0)
        assert translate_set(g, 2.0, s).intervals == ((2.0, 3.0),)

    def test_additive_overflow_raises(self):
        g = AdditiveReals((0.0, 10.0))
        s = MeasurableSet.of_interval(g.carrier, 8.0, 9.0)
        with pytest.raises(WindowOverflowError):
            translate_set(g, 3.0, s)

    def test_overflow_recoverable_with_wider_window(self):
        g = AdditiveReals((0.0, 15.0))
        s = MeasurableSet.of_interval(g.carrier, 8.0, 9.0)
        assert translate_set(g, 3.0, s).intervals == ((11.0, 12.0),)

    def test_multiplicative_scaling(self):
        g = MultiplicativePositiveReals((0.1, 100.0))
        s = MeasurableSet.of_interval(g.carrier, 1.0, 2.0)
        assert translate_set(g, 3.0, s).intervals == ((3.0, 6.0),)

    def test_multiplicative_overflow_raises(self):
        g = MultiplicativePositiveReals((0.1, 100.0))
        s = MeasurableSet.of_interval(g.carrier, 10.0, 20.0)
        with pytest.raises(WindowOverflowError):
            translate_set(g, 10.0, s)

    def test_circle_wraps_and_splits(self):
        g = Circle()
        s = MeasurableSet.of_interval(g.carrier, 6.0, 6.2)
        moved = translate_set(g, 0.2, s)
        assert len(moved.intervals) == 2
        total = sum(b - a for a, b in moved.intervals)
        assert total == pytest.approx(0.2, abs=1e-12)

    def test_circle_full_stays_full(self):
        g = Circle()
        s = MeasurableSet.full(g.carrier)
        assert translate_set(g, 1.0, s) == s

    @pytest.mark.parametrize("group, atoms, label", [
        (Cyclic(6), ["0", "1", "4"], "5"),
        (Dihedral(4), ["r1", "s0", "s3"], "s1"),
        (Symmetric(3), ["012", "120", "201", "021"], "102"),
    ], ids=["Z6", "D4", "S3"])
    def test_atoms_move_by_compose_reps(self, group, atoms, label):
        g = group.check_rep(label)
        moved = translate_set(group, label,
                              MeasurableSet.of_atoms(group.carrier, atoms))
        want = {group.label_of(group.compose_reps(
            g, group._rep_by_label[a])) for a in atoms}
        assert set(moved.atoms) == want
        assert len(moved.atoms) == len(atoms)

    @pytest.mark.parametrize("group, intervals, rep", [
        (AdditiveReals((0.0, 10.0)), [(0.5, 1.25), (3.0, 4.1)], 2.7),
        (MultiplicativePositiveReals((0.1, 100.0)),
         [(0.3, 0.7), (1.1, 2.9)], 3.3),
        # the second arc wraps past 2*pi and splits in two
        (Circle(), [(1.0, 2.0), (6.0, 6.2)], 0.2),
    ], ids=["R+add", "R*mul", "circle"])
    def test_interval_ends_move_by_compose_reps(self, group, intervals, rep):
        moved = translate_set(
            group, rep, MeasurableSet.of_intervals(group.carrier, intervals))
        lefts = {group.compose_reps(rep, a) for a, _ in intervals}
        rights = {group.compose_reps(rep, b) for _, b in intervals}
        got_lefts = {a for a, _ in moved.intervals}
        got_rights = {b for _, b in moved.intervals}
        if isinstance(group, Circle):
            # the wrap adds the cut ends 0 and 2*pi; a moved arc keeps its
            # width, so its right end is compose_reps up to rounding
            assert len(moved.intervals) == len(intervals) + 1
            got_lefts.remove(0.0)
            got_rights.remove(TWO_PI)
            assert sorted(got_rights) == pytest.approx(sorted(rights),
                                                       abs=1e-12)
        else:
            assert got_rights == rights
        assert got_lefts == lefts

    def test_wrong_carrier_rejected(self):
        g = Cyclic(6)
        s = MeasurableSet.full(Cyclic(5).carrier)
        with pytest.raises(DomainError):
            translate_set(g, 1, s)


class TestTranslationSamples:
    def test_finite_returns_all_elements(self):
        g = Dihedral(3)
        samples = translation_samples(g)
        assert samples == list(g.reps)

    def test_additive_samples_stay_legal(self):
        g = AdditiveReals((0.0, 10.0))
        s = MeasurableSet.of_interval(g.carrier, 2.0, 3.0)
        for e in translation_samples(g, 32, for_set=s):
            moved = translate_set(g, e, s)
            assert moved.intervals

    def test_multiplicative_samples_stay_legal(self):
        g = MultiplicativePositiveReals((0.1, 100.0))
        s = MeasurableSet.of_interval(g.carrier, 1.0, 2.0)
        for e in translation_samples(g, 32, for_set=s):
            assert translate_set(g, e, s).intervals

    def test_range_wider_than_the_float_range(self):
        # ghi - glo overflows to inf here; the samples must not all
        # collapse onto ghi
        g = AdditiveReals((-1e308, 1e308))
        s = MeasurableSet.of_interval(g.carrier, 0.0, 1.0)
        glo, ghi = _translation_range(g, s)
        samples = translation_samples(g, for_set=s)
        assert len(set(samples)) == 64
        for e in samples:
            assert glo <= e <= ghi
            translate_set(g, e, s)  # no WindowOverflowError

    def test_samples_on_a_finite_range_are_unchanged(self):
        g = AdditiveReals((0.0, 10.0))
        s = MeasurableSet.of_interval(g.carrier, 0.0, 1.0)
        assert translation_samples(g, for_set=s)[:4] == [
            5.562305898749054, 2.1246117974981082, 7.686917696247162,
            4.2492235949962165]

    def test_windowed_kind_requires_set(self):
        with pytest.raises(DomainError):
            translation_samples(AdditiveReals((0.0, 10.0)))

    def test_deterministic(self):
        g = Circle()
        a = translation_samples(g, 16)
        assert a == translation_samples(g, 16)
        # samples are reps that check_rep passes unchanged
        assert [g.check_rep(x) for x in a] == a


def _ulps(x: float, k: int) -> float:
    """x moved k ulps (up for k > 0, down for k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def windowed_sets(draw):
    """(group, set, breakpoints) on an R+add or R*mul window; each end of
    the set lies anywhere in the window, on a window end, or a few ulps
    inside one."""
    if draw(st.booleans()):
        lo = draw(st.floats(-1e6, 1e6))
        hi = lo + draw(st.floats(1e-6, 1e6))
        group = AdditiveReals((lo, hi))
    else:
        lo = draw(st.floats(1e-6, 1e3))
        hi = lo * draw(st.floats(1.0 + 1e-6, 1e6))
        group = MultiplicativePositiveReals((lo, hi))
    lo, hi = group.window

    def point():
        where = draw(st.sampled_from(["any", "lo", "hi"]))
        if where == "any":
            return draw(st.floats(lo, hi))
        k = draw(st.integers(0, 3))
        return _ulps(lo, k) if where == "lo" else _ulps(hi, -k)

    ends = sorted(point() for _ in range(draw(st.sampled_from([2, 4]))))
    a_set = MeasurableSet.of_intervals(group.carrier,
                                       zip(ends[::2], ends[1::2]))
    breakpoints = draw(st.lists(st.floats(lo, hi), max_size=4))
    return group, a_set, breakpoints


class TestTranslationRange:
    # the full window: fl(lo * fl(1/lo)) is 1 and fl(hi * fl(1/hi)) is
    # one ulp below, which would move lo out
    FULL_MUL = MultiplicativePositiveReals(
        (0.062134256810232984, 33.90479033722107))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(windowed_sets())
    @example((FULL_MUL, MeasurableSet.full(FULL_MUL.carrier), []))
    def test_every_knot_and_sample_is_admissible(self, case):
        group, a_set, breakpoints = case
        glo, ghi = _translation_range(group, a_set)
        assert glo <= group.identity_rep() <= ghi
        knots = _translation_knots(group, a_set, breakpoints)
        samples = translation_samples(group, for_set=a_set)
        assert (glo, ghi) == (knots[0], knots[-1])
        for g in knots + samples:
            assert glo <= g <= ghi
            translate_set(group, g, a_set)  # no WindowOverflowError

    def test_empty_set_has_the_identity_alone(self):
        g = AdditiveReals((0.0, 10.0))
        empty = MeasurableSet.of_intervals(g.carrier, [])
        assert _translation_range(g, empty) == (0.0, 0.0)
        assert set(translation_samples(g, 8, for_set=empty)) == {0.0}


class TestSubgroups:
    def test_cyclic_six_orders(self):
        got = sorted(h.order for h in subgroups(Cyclic(6)))
        assert got == [1, 2, 3, 6]

    def test_dihedral_three_orders(self):
        got = sorted(h.order for h in subgroups(Dihedral(3)))
        assert got == [1, 2, 2, 2, 3, 6]

    def test_symmetric_three_orders(self):
        got = sorted(h.order for h in subgroups(Symmetric(3)))
        assert got == [1, 2, 2, 2, 3, 6]

    def test_trivial_group(self):
        got = subgroups(Cyclic(1))
        assert len(got) == 1
        assert got[0].order == 1

    @pytest.mark.parametrize("group", [Cyclic(6), Dihedral(4)],
                             ids=lambda g: g.describe())
    def test_each_subgroup_is_closed(self, group):
        for sub in subgroups(group):
            members = set(sub.elements)
            for a in sub.elements:
                for b in sub.elements:
                    ra = group._rep_by_label[a]
                    rb = group._rep_by_label[b]
                    assert group.label_of(group.compose_reps(ra, rb)) \
                        in members

    def test_as_set_lives_on_parent_carrier(self):
        g = Cyclic(6)
        sub = next(h for h in subgroups(g) if h.order == 2)
        s = sub.as_set()
        assert s.space == g.carrier
        assert s.atoms == ("0", "3")

    def test_contains_partial_order(self):
        g = Cyclic(6)
        by_order = {h.order: h for h in subgroups(g)}
        assert by_order[6].contains(by_order[2])
        assert by_order[6].contains(by_order[3])
        assert not by_order[2].contains(by_order[3])


class TestSubgroupChains:
    def test_chain_endpoints_and_growth(self):
        for group in (Cyclic(6), Dihedral(3), Dihedral(6)):
            chains = subgroup_chains(group)
            assert chains
            for chain in chains:
                assert chain[0].order == 1
                assert chain[-1].order == group.order
                for a, b in zip(chain, chain[1:]):
                    assert b.order % a.order == 0
                    assert b.order > a.order
                    assert b.contains(a)

    def test_cyclic_six_has_two_chains(self):
        orders = sorted(tuple(h.order for h in c)
                        for c in subgroup_chains(Cyclic(6)))
        assert orders == [(1, 2, 6), (1, 3, 6)]

    def test_trivial_group_single_chain(self):
        chains = subgroup_chains(Cyclic(1))
        assert len(chains) == 1
        assert [h.order for h in chains[0]] == [1]


class TestLattice:
    @pytest.mark.parametrize("group, n_subgroups, n_chains", [
        (Cyclic(16), 5, 1), (Dihedral(6), 16, 19), (Dihedral(12), 34, 62),
        (Symmetric(4), 30, 44), (Symmetric(5), 156, 587),
    ], ids=["Z16", "D6", "D12", "S4", "S5"])
    def test_subgroup_and_chain_counts(self, group, n_subgroups, n_chains):
        assert len(subgroups(group)) == n_subgroups
        assert len(subgroup_chains(group)) == n_chains

    @pytest.mark.parametrize("group", [Dihedral(12), Symmetric(4),
                                       Symmetric(5)],
                             ids=lambda g: g.describe())
    def test_generated_is_smallest_containing_subgroup(self, group):
        lattice = subgroups(group)  # sorted by order
        rng = random.Random(group.order)
        for _ in range(20):
            gens = rng.sample(group.reps, rng.randint(1, 3))
            labels = {group.label_of(g) for g in gens}
            want = next(h for h in lattice if labels <= set(h.elements))
            assert generated_subgroup(group, gens) == want

    def test_identity_alone_is_trivial(self):
        g = Symmetric(4)
        e = g.identity_rep()
        sub = generated_subgroup(g, [e])
        assert sub.elements == (g.label_of(e),)

    def test_labels_and_reps_generate_alike(self):
        d = Dihedral(6)
        assert generated_subgroup(d, ["r2", "s0"]) == \
            generated_subgroup(d, [(2, 0), (0, 1)])

    def test_foreign_element_rejected(self):
        # a bare rep does not name its group, so the test is membership
        with pytest.raises(DomainError):
            generated_subgroup(Cyclic(6), ["6"])

    def test_needs_finite_group(self):
        with pytest.raises(UnsupportedOperationError):
            generated_subgroup(Circle(), [])


def bfs_subgroups(group):
    """`subgroups` as it was before the search went one conjugacy class at
    a time: every found subgroup is extended by every pool generator. The
    reference for the class-wise search."""
    if not group.is_finite:
        raise UnsupportedOperationError(
            f"subgroup enumeration needs a finite kind, got {group.describe()}")
    n = group.order
    if n > 720:
        raise DomainError(f"subgroup enumeration capped at order 720, got {n}")
    e = group._index[group.identity_rep()]
    trivial = _mask(n, [e])

    cyclic: dict[bytes, int] = {}
    for x in range(n):
        cyclic.setdefault(_extend(group, [e], trivial, (x,)), x)
    pool = [x for key, x in cyclic.items() if _is_prime_power(sum(key))]

    found: dict[bytes, tuple] = {trivial: ()}
    for key, x in cyclic.items():
        found.setdefault(key, (x,))
    queue = list(found)
    for h_mask in queue:
        h_gens = found[h_mask]
        h = _members(h_mask)
        for x in pool:
            if h_mask[x]:
                continue
            k = _extend(group, h, h_mask, h_gens + (x,))
            if k not in found:
                found[k] = h_gens + (x,)
                queue.append(k)

    subs = [_subgroup(group, key) for key in found]
    subs.sort(key=lambda s: (s.order, s.elements))
    return subs


class _Alternating4(Symmetric):
    """The even permutations of {0..3}, a group no built-in kind gives."""

    def _reps(self):
        return tuple(p for p in super()._reps()
                     if sum(a > b for a, b in combinations(p, 2)) % 2 == 0)

    @cached_property
    def _rep_by_label(self):
        # Symmetric's labels are those of all of S4, in S4's order
        return {self.label_of(r): r for r in self.reps}

    def describe(self) -> str:
        return "A4"


ORACLE_GROUPS = {
    "Z16": lambda: Cyclic(16), "D6": lambda: Dihedral(6),
    "D12": lambda: Dihedral(12), "S4": lambda: Symmetric(4),
    "S5": lambda: Symmetric(5), "D60": lambda: Dihedral(60),
    "A4": lambda: _Alternating4(4),
}


class TestClassWiseSearch:
    @pytest.mark.parametrize("name", list(ORACLE_GROUPS))
    def test_matches_bfs_oracle(self, name):
        group = ORACLE_GROUPS[name]()
        assert subgroups(group) == bfs_subgroups(group)

    @pytest.mark.parametrize("name", ["D6", "D12", "S4", "S5"])
    def test_chains_match_bfs_oracle(self, name, monkeypatch):
        group = ORACLE_GROUPS[name]()
        with monkeypatch.context() as m:
            m.setattr(groups, "subgroups", bfs_subgroups)
            want = subgroup_chains(group)
        assert subgroup_chains(group) == want

    @pytest.mark.parametrize("group", [Symmetric(4), Dihedral(12)],
                             ids=lambda g: g.describe())
    def test_closed_under_conjugation(self, group):
        lattice = {frozenset(h.elements) for h in subgroups(group)}
        label, by_label = group.label_of, group._rep_by_label
        for g in group.reps:
            ginv = group.inverse_rep(g)
            for h in lattice:
                conj = {label(group.compose_reps(
                    group.compose_reps(ginv, by_label[a]), g)) for a in h}
                assert conj in lattice

    def test_s5_coset_walks(self, monkeypatch):
        walks = []

        def counting(*args):
            walks.append(1)
            return _extend(*args)

        monkeypatch.setattr(groups, "_extend", counting)
        assert len(subgroups(Symmetric(5))) == 156
        # the all-pairs search made 8,151
        assert len(walks) <= 1600

    def test_cyclic_phase_builds_few_columns(self):
        # each <x> is walked by powers of x, so columns are built only for
        # extension walks and conjugation maps; one per element made 720
        group = Cyclic(720)
        assert len(subgroups(group)) == 30
        assert len(group._columns) <= 30


def _written_law(group):
    """Each finite kind's law as its definition writes it."""
    n = group.n
    if isinstance(group, Cyclic):
        return lambda a, b: (a + b) % n
    if isinstance(group, Dihedral):
        return lambda a, b: ((a[0] + (b[0] if a[1] == 0 else -b[0])) % n,
                             (a[1] + b[1]) % 2)
    return lambda a, b: tuple(a[i] for i in b)


TABLE_GROUPS = [*map(Cyclic, range(1, 13)), *map(Dihedral, range(1, 9)),
                *map(Symmetric, range(1, 6))]
SYMMETRIC_SIX = Symmetric(6)


def _coset_rows(group) -> int:
    """Coset rows _extend appends while subgroups(group) runs: its calls
    of list.append, seen by a profile hook."""
    code, rows = _extend.__code__, [0]

    def hook(frame, event, arg):
        if (event == "c_call" and frame.f_code is code
                and arg.__name__ == "append"):
            rows[0] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        subgroups(group)
    finally:
        sys.setprofile(previous)
    return rows[0]


class TestBulkTables:
    """Columns and labels are built in bulk; the law they follow is each
    kind's compose_reps, and that is the written law."""

    @pytest.mark.parametrize("group", TABLE_GROUPS,
                             ids=lambda g: g.describe())
    def test_columns_follow_the_written_law(self, group):
        law, reps, index = _written_law(group), group.reps, group._index
        for a, b in product(reps, reps):
            assert group.compose_reps(a, b) == law(a, b)
        for g, b in enumerate(reps):
            assert group._column(g) == [index[group.compose_reps(a, b)]
                                        for a in reps]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 719), st.integers(0, 719))
    def test_symmetric_six_sample(self, g, a):
        group, law = SYMMETRIC_SIX, _written_law(SYMMETRIC_SIX)
        reps, index = group.reps, group._index
        assert group.compose_reps(reps[a], reps[g]) == law(reps[a], reps[g])
        assert group._column(g) == [index[group.compose_reps(x, reps[g])]
                                    for x in reps]

    @pytest.mark.parametrize("group", [*TABLE_GROUPS, SYMMETRIC_SIX],
                             ids=lambda g: g.describe())
    def test_labels_are_label_of_in_rep_order(self, group):
        want = {group.label_of(r): r for r in group.reps}
        assert list(group._rep_by_label.items()) == list(want.items())

    def test_s5_tables_need_no_compose_calls(self, monkeypatch):
        calls = []
        law = Symmetric.compose_reps

        def counting(self, a, b):
            calls.append(1)
            return law(self, a, b)

        monkeypatch.setattr(Symmetric, "compose_reps", counting)
        assert len(subgroups(Symmetric(5))) == 156
        # one call per column entry and per conjugation entry made 7,484
        assert len(calls) <= 1000
        calls.clear()
        group = Symmetric(5)
        assert generated_subgroup(group, ["10234", "12340"]).order == 120
        assert group._columns and calls == []

    def test_walks_stop_past_half_the_group(self):
        # 441 of the 849 walks of subgroups(S5) end at S5; walks that go
        # on past half the group append 9,747 coset rows, not 6,295
        assert _coset_rows(Symmetric(5)) <= 6500


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


class TestDeclaredDomain:
    """Subgroup enumeration covers every finite group up to order 720."""

    def test_symmetric_six(self):
        # one enumeration (about 0.5 s), which subgroup_chains reads from
        # the group object
        g = Symmetric(6)
        lattice = subgroups(g)
        chains = subgroup_chains(g)
        assert len(lattice) == 1455
        # cross-checked by an independent count of paths over the covers
        # of the lattice (maximal_chains in the benchmark's workloads)
        assert len(chains) == 28176
        # chains hold the lattice's own Subgroup objects; identities are
        # cheap to hash, tuples of up to 720 labels are not
        position = {id(h): i for i, h in enumerate(lattice)}
        paths = {tuple(position[id(h)] for h in c) for c in chains}
        assert len(paths) == 28176
        assert set().union(*paths) == set(range(1455))

    def test_dihedral_360(self):
        # per divisor d of n: the rotations <r^d> and the d dihedral
        # subgroups <r^d, r^i s>, 0 <= i < d; tau(n) + sigma(n) in all
        divisors = _divisors(360)
        assert len(subgroups(Dihedral(360))) == len(divisors) + sum(divisors)
        assert len(divisors) + sum(divisors) == 1194

    def test_cyclic_720(self):
        assert [h.order for h in subgroups(Cyclic(720))] == _divisors(720)
        assert len(_divisors(720)) == 30

    def test_order_721_rejected(self):
        # on every call: a rejected lattice is not cached
        g = Cyclic(721)
        for _ in range(2):
            with pytest.raises(DomainError, match="capped at order 720"):
                subgroups(g)
            with pytest.raises(DomainError, match="capped at order 720"):
                subgroup_chains(g)

    @pytest.mark.parametrize("text", ["Z", "C", "D"])
    def test_order_past_the_limit_rejected(self, text):
        # the check comes before any table: nothing of this size is built
        with pytest.raises(DomainError, match=str(MAX_ORDER)):
            group_from_descriptor(text + "9" * 20)
        with pytest.raises(DomainError, match="too large"):
            group_from_descriptor(text + "9" * 5000)

    def test_order_limit(self):
        # a group's order is read without building its table
        for g in (Cyclic(MAX_ORDER), Dihedral(MAX_ORDER // 2)):
            assert g.order == MAX_ORDER
            assert "reps" not in vars(g)
        with pytest.raises(DomainError):
            Cyclic(MAX_ORDER + 1)
        with pytest.raises(DomainError):
            Dihedral(MAX_ORDER // 2 + 1)


class TestOneObjectPerGroup:
    """A finite descriptor gives one object per process, which enumerates
    its lattice and chains once and hands out copies."""

    def test_every_spelling_gives_one_object(self):
        assert group_from_descriptor("S5") is group_from_descriptor(" S5 ")
        assert group_from_descriptor("Z06") is group_from_descriptor("Z6")
        assert group_from_descriptor("C6") is group_from_descriptor("Z6")
        assert group_from_descriptor("D12") is not group_from_descriptor(
            "Z12")

    def test_only_groups_with_a_lattice_are_kept(self):
        # past LATTICE_ORDER a group is a new object, freed with its caller
        assert group_from_descriptor("Z720") is group_from_descriptor("Z720")
        assert group_from_descriptor("D360") is group_from_descriptor("D360")
        for text in ("Z721", "D361", "Z" + str(MAX_ORDER)):
            assert group_from_descriptor(text) is not \
                group_from_descriptor(text)
        assert group_from_descriptor("Z721") == Cyclic(LATTICE_ORDER + 1)

    def test_tableless_kinds_are_new_objects(self):
        for text in ("circle", "R+add:[0,10]", "R*mul:[0.1,100]"):
            assert group_from_descriptor(text) is not \
                group_from_descriptor(text)

    def test_subgroups_are_fresh_lists(self):
        g = Dihedral(6)
        first = subgroups(g)
        want = list(first)
        first.reverse()
        first.pop()
        assert subgroups(g) == want
        assert subgroups(g) is not subgroups(g)

    def test_chains_are_fresh_lists(self):
        g = Dihedral(6)
        first = subgroup_chains(g)
        want = [list(c) for c in first]
        first[0].clear()
        first.pop()
        assert subgroup_chains(g) == want
        assert subgroup_chains(g)[0] is not subgroup_chains(g)[0]

    def test_second_call_enumerates_nothing(self, monkeypatch):
        walks, products = [], []
        extend, law = groups._extend, Dihedral.compose_reps

        def counting_extend(*args):
            walks.append(1)
            return extend(*args)

        def counting_law(self, a, b):
            products.append(1)
            return law(self, a, b)

        monkeypatch.setattr(groups, "_extend", counting_extend)
        monkeypatch.setattr(Dihedral, "compose_reps", counting_law)
        g = Dihedral(12)
        want = (subgroups(g), subgroup_chains(g))
        assert walks and products
        walks.clear()
        products.clear()
        assert (subgroups(g), subgroup_chains(g)) == want
        assert walks == products == []

    def test_non_finite_group_rejected(self):
        for call in (subgroups, subgroup_chains):
            for _ in range(2):
                with pytest.raises(UnsupportedOperationError):
                    call(Circle())


class TestDescriptors:
    def test_finite_descriptors(self):
        assert group_from_descriptor("Z6") == Cyclic(6)
        assert group_from_descriptor("C4") == Cyclic(4)
        assert group_from_descriptor("D4") == Dihedral(4)
        assert group_from_descriptor("S4") == Symmetric(4)

    def test_windowed_descriptors(self):
        g = group_from_descriptor("R+add:[0,10]")
        assert isinstance(g, AdditiveReals)
        assert g.window == (0.0, 10.0)
        h = group_from_descriptor("R*mul:[0.1,100]")
        assert isinstance(h, MultiplicativePositiveReals)
        assert h.window == (0.1, 100.0)

    def test_circle_descriptor(self):
        assert isinstance(group_from_descriptor("circle"), Circle)

    def test_unknown_descriptor_rejected(self):
        with pytest.raises(DomainError):
            group_from_descriptor("Q8")
        with pytest.raises(DomainError):
            group_from_descriptor("R+add:[0,10")

    @pytest.mark.parametrize("text", [
        "Z\u0661\u0662", "D\u0664", "S\u0664", "C\uff14",
        "R+add:[1_0,1_2]", "R*mul:[ +1 , 5]", "R+add:[0,inf]",
        "R+add:[nan,1]", "R+add:[\u0660,1]", "R*mul:[1,5e]",
        "R+add:[- 1,2]", "R+add:[a,1]"])
    def test_bounds_and_orders_are_ascii_literals(self, text):
        # orders are ASCII digits and a window bound is '-'? NUMBER, as
        # a --set bound is; Python-only spellings do not match
        with pytest.raises(DomainError,
                           match="^unrecognized group descriptor"):
            group_from_descriptor(text)

    def test_window_bounds_take_number_literals(self):
        g = group_from_descriptor("R+add:[ -1 , 2.5e-1 ]")
        assert g.window == (-1.0, 0.25)
        h = group_from_descriptor("R*mul:[.5,1E1]")
        assert h.window == (0.5, 10.0)


class TestWindowValidation:
    def test_additive_window_ordered(self):
        with pytest.raises(DomainError):
            AdditiveReals((5.0, 5.0))

    def test_multiplicative_window_positive(self):
        with pytest.raises(DomainError):
            MultiplicativePositiveReals((0.0, 10.0))
        with pytest.raises(DomainError):
            MultiplicativePositiveReals((-1.0, 10.0))

    def test_continuous_rep_must_be_finite(self):
        g = AdditiveReals((0.0, 10.0))
        with pytest.raises(DomainError):
            g.check_rep(math.nan)
        with pytest.raises(DomainError):
            g.check_rep(math.inf)
        for bad in ("two", None, (1.0,)):
            with pytest.raises(DomainError):
                Circle().check_rep(bad)

    def test_multiplicative_rep_must_be_positive(self):
        g = MultiplicativePositiveReals((0.1, 100.0))
        with pytest.raises(DomainError):
            g.check_rep(0.0)
        with pytest.raises(DomainError):
            g.check_rep(-2.0)


def test_subgroup_is_frozen_value():
    g = Cyclic(4)
    subs = {Subgroup(g, ("0", "2")), Subgroup(g, ("0", "2"))}
    assert len(subs) == 1
