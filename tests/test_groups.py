import math
import random
from itertools import permutations, product

import pytest

from haarent import groups
from haarent.errors import (DomainError, UnsupportedOperationError,
                             WindowOverflowError)
from haarent.groups import (AdditiveReals, Circle, Cyclic, Dihedral,
                            MultiplicativePositiveReals,
                            RestrictedGroup, Subgroup, Symmetric,
                            generated_subgroup, group_from_descriptor, haar,
                            subgroup_chains, subgroups, translate_set,
                            translation_samples)
from haarent.groups import (_extend, _is_prime_power, _mask, _members,
                            _subgroup)
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

    def test_windowed_kind_requires_set(self):
        with pytest.raises(DomainError):
            translation_samples(AdditiveReals((0.0, 10.0)))

    def test_deterministic(self):
        g = Circle()
        a = translation_samples(g, 16)
        assert a == translation_samples(g, 16)
        # samples are reps that check_rep passes unchanged
        assert [g.check_rep(x) for x in a] == a


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

    def test_subgroup_group_view(self):
        g = Dihedral(3)
        sub = next(h for h in subgroups(g) if h.order == 3)
        view = sub.group
        assert isinstance(view, RestrictedGroup)
        assert view.order == 3
        assert set(view.reps) <= set(g.reps)

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


def _alternating4():
    return next(h for h in bfs_subgroups(Symmetric(4)) if h.order == 12).group


ORACLE_GROUPS = {
    "Z16": lambda: Cyclic(16), "D6": lambda: Dihedral(6),
    "D12": lambda: Dihedral(12), "S4": lambda: Symmetric(4),
    "S5": lambda: Symmetric(5), "D60": lambda: Dihedral(60),
    "A4": _alternating4,
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


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


class TestDeclaredDomain:
    """Subgroup enumeration covers every finite group up to order 720."""

    def test_symmetric_six(self, monkeypatch):
        lattices = []

        def spy(group):
            lattices.append(subgroups(group))
            return lattices[-1]

        # one enumeration (1.5 s): keep the lattice subgroup_chains gets
        monkeypatch.setattr(groups, "subgroups", spy)
        g = Symmetric(6)
        chains = subgroup_chains(g)
        [lattice] = lattices
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
        with pytest.raises(DomainError, match="capped at order 720"):
            subgroups(Cyclic(721))
        with pytest.raises(DomainError, match="capped at order 720"):
            subgroup_chains(Cyclic(721))


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
