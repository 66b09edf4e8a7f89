import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarent.dsl import density_from_expr
from haarent.errors import AbsoluteContinuityError, DomainError
from haarent.groups import AdditiveReals, MultiplicativePositiveReals, haar
from haarent.measures import (Density, MeasurableSet, Measure, Space,
                              _combined, mass, measure_of_weight,
                              radon_nikodym, sample_grid, step_density,
                              table_density, weight_density)
from haarent.quadrature import Integrator
from haarent.supnorm import sup_density

UNIT = Space.interval(0.0, 1.0)
WIDE = Space.interval(0.0, 2.0)
DIE = Space.finite([1, 2, 3, 4, 5, 6])


def interval_measure(space, f, breakpoints=()):
    return Measure.from_density(space, Density(f, tuple(breakpoints)))


class TestSpace:
    def test_interval_bounds_must_be_ordered(self):
        with pytest.raises(DomainError):
            Space.interval(1.0, 1.0)
        with pytest.raises(DomainError):
            Space.interval(2.0, 1.0)
        with pytest.raises(DomainError):
            Space.interval(0.0, math.inf)

    def test_atoms_must_be_distinct_and_nonempty(self):
        with pytest.raises(DomainError):
            Space.finite([])
        with pytest.raises(DomainError):
            Space.finite(["a", "a"])

    def test_fields_are_atoms_and_bounds(self):
        # a space is its atoms or its bounds; no third field can disagree
        assert [f.name for f in dataclasses.fields(Space)] == ["atoms",
                                                               "bounds"]
        assert DIE == Space(atoms=(1, 2, 3, 4, 5, 6)) and DIE.is_finite
        line = Space.interval(0, 2)
        assert line == Space(bounds=(0.0, 2.0)) and not line.is_finite

    @pytest.mark.parametrize("build, message", [
        (lambda: Space.finite([]), "finite space needs at least one atom"),
        (lambda: Space.finite(["a", "a"]), "atoms must be distinct"),
        (lambda: Space.interval(1.0, 1.0),
         r"invalid interval bounds \(1.0, 1.0\)"),
        (lambda: Space.interval(0.0, math.nan),
         r"invalid interval bounds \(0.0, nan\)"),
        (lambda: Space(atoms=(1,), bounds=(0.0, 1.0)),
         "interval space takes no atoms")])
    def test_messages(self, build, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            build()

    def test_resolve_atom_accepts_string_tokens(self):
        assert DIE.resolve_atom("3") == 3
        assert DIE.resolve_atom(3) == 3
        with pytest.raises(DomainError):
            DIE.resolve_atom("7")

    @pytest.mark.parametrize("token", ["\u0663", "\uff13", "\u00b3",
                                       "1_0", "+3", "3.0"])
    def test_resolve_atom_reads_ascii_digits_only(self, token):
        # int() reads each of these as 3 or 10; the text names no atom
        with pytest.raises(DomainError, match="is not an atom"):
            Space.finite([1, 2, 3, 10]).resolve_atom(token)

    def test_resolve_atom_other_tokens(self):
        space = Space.finite([-1, 7, "a"])
        assert space.resolve_atom("07") == 7
        assert space.resolve_atom("-1") == -1  # by its str, not by int()
        assert space.resolve_atom("a") == "a"


class TestMeasurableSet:
    def test_adjacent_intervals_merge(self):
        s = MeasurableSet.of_intervals(WIDE, [(0.0, 0.5), (0.5, 1.0)])
        assert s.intervals == ((0.0, 1.0),)

    def test_overlapping_intervals_merge(self):
        s = MeasurableSet.of_intervals(WIDE, [(0.2, 0.9), (0.5, 1.5)])
        assert s.intervals == ((0.2, 1.5),)

    def test_disjoint_intervals_sorted(self):
        s = MeasurableSet.of_intervals(WIDE, [(1.2, 1.5), (0.0, 0.3)])
        assert s.intervals == ((0.0, 0.3), (1.2, 1.5))

    def test_escaping_bounds_rejected(self):
        with pytest.raises(DomainError):
            MeasurableSet.of_interval(UNIT, 0.5, 1.5)

    def test_atoms_kept_in_space_order(self):
        s = MeasurableSet.of_atoms(DIE, [5, 1, 3])
        assert s.atoms == (1, 3, 5)

    def test_unknown_atom_rejected(self):
        with pytest.raises(DomainError):
            MeasurableSet.of_atoms(DIE, [7])

    @pytest.mark.parametrize("atom", ["1", [1], None])
    def test_foreign_and_unhashable_atoms_rejected(self, atom):
        with pytest.raises(DomainError, match="is not an atom"):
            MeasurableSet.of_atoms(DIE, [1, atom])

    def test_atoms_checked_by_one_lookup(self, monkeypatch):
        checked = []
        monkeypatch.setattr(Space, "atom_position",
                            lambda self, a: checked.append(a))
        assert MeasurableSet.of_atoms(DIE, iter([6, 2, 6])).atoms == (2, 6)
        assert checked == []

    def test_equal_atoms_are_the_space_own(self):
        s = MeasurableSet.of_atoms(DIE, [2.0, True])
        assert s.atoms == (1, 2)
        assert [type(a) for a in s.atoms] == [int, int]

    def test_union_and_difference(self):
        a = MeasurableSet.of_atoms(DIE, [1, 2])
        b = MeasurableSet.of_atoms(DIE, [2, 6])
        assert a.union(b).atoms == (1, 2, 6)
        assert a.difference(b).atoms == (1,)

    def test_contains_point(self):
        s = MeasurableSet.of_intervals(WIDE, [(0.0, 0.5), (1.0, 1.5)])
        assert s.contains_point(0.25)
        assert s.contains_point(1.0)
        assert not s.contains_point(0.75)


class TestMass:
    def test_lebesgue_full_interval(self):
        nu = Measure.lebesgue(WIDE)
        assert mass(nu, MeasurableSet.full(WIDE)) == pytest.approx(2.0,
                                                                   abs=1e-12)

    def test_linear_density_unit_mass(self):
        m = interval_measure(UNIT, lambda x: 2.0 * x)
        assert mass(m, MeasurableSet.full(UNIT)) == pytest.approx(1.0,
                                                                  abs=1e-10)

    def test_counting_single_atom(self):
        counting = Measure.counting(DIE)
        assert mass(counting, MeasurableSet.of_atoms(DIE, [6])) == 1.0

    def test_set_outside_space_rejected(self):
        nu = Measure.lebesgue(WIDE)
        with pytest.raises(DomainError):
            mass(nu, MeasurableSet.full(UNIT))

    def test_additive_over_disjoint_pieces(self):
        m = interval_measure(WIDE, lambda x: math.exp(-x))
        left = MeasurableSet.of_interval(WIDE, 0.0, 0.7)
        right = MeasurableSet.of_interval(WIDE, 0.7, 2.0)
        both = left.union(right)
        assert mass(m, both) == pytest.approx(
            mass(m, left) + mass(m, right), abs=1e-10)


class TestRadonNikodym:
    def test_self_quotient_is_one(self):
        nu = Measure.lebesgue(UNIT)
        quot = radon_nikodym(nu, nu)
        for x in (0.0, 0.3, 1.0):
            assert quot(x) == 1.0

    def test_reciprocal_against_lebesgue(self):
        space = Space.interval(1.0, math.e)
        m = interval_measure(space, lambda x: 1.0 / x)
        quot = radon_nikodym(m, Measure.lebesgue(space))
        for x in (1.0, 2.0, math.e):
            assert quot(x) == pytest.approx(1.0 / x, abs=1e-15)

    def test_quotient_of_proportional_densities(self):
        space = Space.interval(0.5, 1.0)
        m = interval_measure(space, lambda x: 2.0 * x)
        ref = interval_measure(space, lambda x: x)
        quot = radon_nikodym(m, ref)
        for x in (0.5, 0.75, 1.0):
            assert quot(x) == pytest.approx(2.0, abs=1e-15)

    def test_vanishing_reference_detected(self):
        m = interval_measure(UNIT, lambda x: 1.0)
        ref = interval_measure(UNIT, lambda x: max(x - 0.5, 0.0),
                               breakpoints=[0.5])
        quot = radon_nikodym(m, ref)
        with pytest.raises(AbsoluteContinuityError):
            quot(0.25)

    def test_zero_over_zero_is_zero(self):
        m = interval_measure(UNIT, lambda x: 0.0)
        ref = interval_measure(UNIT, lambda x: 0.0)
        assert radon_nikodym(m, ref)(0.5) == 0.0

    def test_breakpoints_merged(self):
        m = Measure.from_density(UNIT, step_density([0.3], [1.0, 2.0]))
        ref = Measure.from_density(UNIT, step_density([0.7], [2.0, 1.0]))
        assert radon_nikodym(m, ref).breakpoints == (0.3, 0.7)

    def test_constant_references_add_no_wrapper(self):
        m = interval_measure(UNIT, lambda x: 3.0 * x + 0.25)
        leb = Measure.lebesgue(UNIT)
        # against 1 the quotient is the numerator itself
        assert radon_nikodym(m, leb).evaluator is m.density.evaluator
        halved = radon_nikodym(m, leb.scaled(2.0))
        for x in (0.0, 0.1, 1.0 / 3.0, 1.0):
            assert halved(x) == (3.0 * x + 0.25) / 2.0
        assert m.density.scaled(1.0) is m.density

    def test_nonnegative_at_samples(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            vals = rng.uniform(0.0, 2.0, 4)
            m = Measure.from_density(
                UNIT, step_density([0.25, 0.5, 0.75], list(vals)))
            quot = radon_nikodym(m, Measure.lebesgue(UNIT))
            assert all(quot(float(x)) >= 0.0
                       for x in rng.uniform(0.0, 1.0, 16))


class TestWeightCorrespondence:
    def test_zero_weight_recovers_reference(self):
        nu = Measure.lebesgue(WIDE)
        m = measure_of_weight(Density.const(0.0), nu)
        assert mass(m, MeasurableSet.full(WIDE)) == pytest.approx(2.0,
                                                                  abs=1e-12)

    def test_constant_weight_scales_reference(self):
        nu = Measure.counting(DIE)
        m = measure_of_weight(Density.const(1.5), nu)
        full = MeasurableSet.full(DIE)
        assert mass(m, full) == pytest.approx(6.0 * math.exp(-1.5),
                                              abs=1e-12)

    def test_linear_weight_mass(self):
        nu = Measure.lebesgue(UNIT)
        m = measure_of_weight(
            Density(lambda x: x), nu)
        assert mass(m, MeasurableSet.full(UNIT)) == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-10)

    def test_infinite_weight_kills_density_exactly(self):
        nu = Measure.lebesgue(UNIT)
        m = measure_of_weight(
            Density(lambda x: math.inf, piecewise_constant=True), nu)
        assert m.density(0.5) == 0.0

    def test_round_trip_density(self):
        rng = np.random.default_rng(11)
        nu = Measure.lebesgue(UNIT)
        for _ in range(10):
            vals = rng.uniform(0.05, 1.0, 4)
            m = Measure.from_density(
                UNIT, step_density([0.2, 0.5, 0.8], list(vals)))
            d = m.density
            phi = Density(lambda x: -math.log(d(x)), d.breakpoints,
                          piecewise_constant=True)
            back = measure_of_weight(phi, nu)
            quot_m = radon_nikodym(m, nu)
            quot_b = radon_nikodym(back, nu)
            for x in rng.uniform(0.0, 1.0, 12):
                assert quot_b(float(x)) == pytest.approx(quot_m(float(x)),
                                                         abs=1e-12)


class TestSampleGrid:
    def test_evenly_spaced_then_breakpoints(self):
        assert sample_grid(0.0, 1.0, 4, (0.3, 2.0)) == [
            0.0, 0.25, 0.5, 0.75, 1.0, 0.3]

    def test_window_as_wide_as_the_float_range(self):
        # b - a overflows; the points are those of the exact spacing
        assert sample_grid(-1e308, 1e308, 4, ()) == [
            -1e308, -5e307, 0.0, 5e307, 1e308]
        top = 1.7976931348623157e308
        pts = sample_grid(-1.7e308, top, 256, ())
        assert pts == sorted(pts)
        assert pts[0] == -1.7e308 and top - pts[-1] <= math.ulp(top)


class TestDensityHelpers:
    def test_step_density_shape_validated(self):
        with pytest.raises(DomainError):
            step_density([0.5], [1.0])
        with pytest.raises(DomainError):
            step_density([0.5, 0.2], [1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            step_density([0.5], [1.0, -1.0])

    def test_step_density_values_by_piece(self):
        d = step_density([0.3, 0.7], [1.0, 2.0, 3.0])
        assert d(0.1) == 1.0
        assert d(0.5) == 2.0
        assert d(0.9) == 3.0
        assert sup_density(Measure.from_density(UNIT, d),
                           Measure.lebesgue(UNIT),
                           MeasurableSet.full(UNIT)) == 3.0

    def test_table_density_missing_atoms_weigh_zero(self):
        d = table_density(DIE, {1: 0.5, "6": 2.0})
        assert d(1) == 0.5
        assert d(6) == 2.0
        assert d(3) == 0.0
        assert sup_density(Measure.from_density(DIE, d), Measure.counting(DIE),
                           MeasurableSet.full(DIE)) == 2.0

    def test_table_density_keys_are_ascii_digits(self):
        space = Space.finite([1, 2, 3])
        with pytest.raises(DomainError, match="is not an atom"):
            table_density(space, {"\u0661": 1.0})
        assert table_density(space, {"1": 1.0})(1) == 1.0

    def test_table_density_resolves_only_non_atoms(self, monkeypatch):
        resolved = []
        real = Space.resolve_atom

        def spy(self, token):
            resolved.append(token)
            return real(self, token)

        monkeypatch.setattr(Space, "resolve_atom", spy)
        labels = Space.finite(["012", "102", "021"])
        d = table_density(labels, {"012": 0.5, "021": 2.0})
        assert (d("012"), d("102"), d("021")) == (0.5, 0.0, 2.0)
        assert resolved == []
        d = table_density(DIE, {1: 0.5, "6": 2.0})
        assert (d(1), d(6)) == (0.5, 2.0)
        assert resolved == ["6"]

    def test_table_density_needs_finite_space(self):
        with pytest.raises(DomainError):
            table_density(UNIT, {0.5: 1.0})

    def test_negative_table_weight_rejected(self):
        with pytest.raises(DomainError):
            table_density(DIE, {1: -0.25})

    def test_from_density_rejects_negative_values(self):
        with pytest.raises(DomainError):
            Measure.from_density(UNIT, Density(lambda x: x - 0.5))

    def test_restricted_gates_density(self):
        nu = Measure.lebesgue(WIDE)
        r = nu.restricted(MeasurableSet.of_interval(WIDE, 0.0, 1.0))
        assert r.density(0.5) == 1.0
        assert r.density(1.5) == 0.0
        assert mass(r, MeasurableSet.full(WIDE)) == pytest.approx(1.0,
                                                                  abs=1e-10)

    def test_weight_function_rejects_negative_constant(self):
        # a weight is a Density; weight_density checks its values
        phi = Density(lambda x: -0.5, piecewise_constant=True)
        m = measure_of_weight(phi, Measure.lebesgue(UNIT))
        with pytest.raises(DomainError, match="outside"):
            mass(m, MeasurableSet.full(UNIT))
        with pytest.raises(DomainError):
            Density.const(-0.5)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(DomainError, match="atom 2"):
            table_density(DIE, {1: 0.5, 2: bad})
        with pytest.raises(DomainError, match="finite"):
            step_density([0.5], [1.0, bad])
        with pytest.raises(DomainError):
            Density.const(bad)
        with pytest.raises(DomainError):
            step_density([0.5], [1.0, 2.0]).scaled(bad)
        with pytest.raises(DomainError):
            Density.const(2.0).scaled(bad)
        with pytest.raises(DomainError, match="-inf"):
            table_density(DIE, {1: -math.inf})

    def test_expression_endpoint_singularity_still_integrated(self):
        # only built-in weights must be finite: quadrature never evaluates
        # an endpoint, so x^-0.5 on [0, 1] keeps its finite mass
        m = Measure(UNIT, density_from_expr("x^-0.5", UNIT))
        got = mass(m, MeasurableSet.full(UNIT), Integrator(rel_tol=1e-6))
        assert got == pytest.approx(2.0, rel=1e-6)


def _union(*operands, ends=()):
    """The sorted union of the operands' breakpoints and of ends: the
    breakpoints of a density built from operands."""
    return tuple(sorted({*(b for d in operands for b in d.breakpoints),
                         *ends}))


class TestPiecewiseConstantFlag:
    """Every density or weight flagged piecewise_constant is constant on
    each open interval between consecutive breakpoints; one built from
    operands has the sorted union of their breakpoints (and of a
    restricting set's ends), and is flagged only when all of them are."""

    LO, HI = 0.0, 2.0

    def _assert_constant_between_breakpoints(self, f, rng):
        cuts = sorted({self.LO, self.HI,
                       *(b for b in f.breakpoints if self.LO < b < self.HI)})
        for a, b in zip(cuts, cuts[1:]):
            xs = [math.nextafter(a, b), math.nextafter(b, a),
                  *(float(x) for x in rng.uniform(a, b, 64))]
            values = {repr(f(x)) for x in xs if a < x < b}
            assert len(values) == 1, (a, b, values)

    def _flagged(self, rng):
        """name -> (density, the breakpoints the rule gives it)"""
        space = Space.interval(self.LO, self.HI)
        leb = Measure.lebesgue(space)

        def step(vmin=0.05, vmax=1.0, pieces=5):
            cuts = sorted(float(c) for c in rng.uniform(self.LO, self.HI,
                                                        pieces - 1))
            return step_density(cuts, [float(v) for v in
                                       rng.uniform(vmin, vmax, pieces)])

        d, e = step(), step(0.5, 1.0)
        union = MeasurableSet.of_intervals(space, [(0.1, 0.7), (0.9, 1.6)])
        m, ref = Measure(space, d), Measure(space, e)
        phi = Density(lambda x: -math.log(d(x)), d.breakpoints,
                      piecewise_constant=True)
        quot = radon_nikodym(m, ref)
        c = float(rng.uniform(0.1, 3.0))
        const = Density.const(c)
        ends = union.boundary_points()
        return {
            "const": (const, ()),
            "step": (d, _union(d)),
            "scaled step": (d.scaled(c), _union(d)),
            "scaled const": (const.scaled(0.5), ()),
            "step times step": (d.times(e), _union(d, e)),
            "step times const": (d.times(const), _union(d, const)),
            "restricted step": (d.restricted_to(union),
                                _union(d, ends=ends)),
            "restricted const": (const.restricted_to(union),
                                 _union(const, ends=ends)),
            "quotient by lebesgue": (radon_nikodym(m, leb),
                                     _union(d, leb.density)),
            "quotient by constant": (radon_nikodym(m, Measure(space, const)),
                                     _union(d, const)),
            "quotient by step": (quot, _union(d, e)),
            "constant quotient": (radon_nikodym(leb, leb.scaled(c)), ()),
            "weight density": (weight_density(phi, ref), _union(phi, e)),
            "measure_of_weight": (measure_of_weight(phi, ref).density,
                                  _union(phi, e)),
            "measure of a step weight": (measure_of_weight(d, leb).density,
                                         _union(d)),
            "checked quotient": (
                _combined(lambda x: min(quot(x), 1.0), quot), _union(quot)),
            "haar R+": (haar(AdditiveReals((self.LO, self.HI)), 2.0).density,
                        ()),
        }

    def test_flagged_objects_are_constant_between_breakpoints(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            for name, (f, bps) in self._flagged(rng).items():
                assert f.piecewise_constant is True, name
                assert f.breakpoints == bps, name
                self._assert_constant_between_breakpoints(f, rng)

    def test_other_closures_are_not_flagged(self):
        space = Space.interval(self.LO, self.HI)
        step = step_density([0.5], [1.0, 2.0])
        linear = Density(lambda x: x, ())
        expr = density_from_expr("piecewise {x < 1: 0.5; else: 2}", space)
        full = MeasurableSet.full(space)
        unflagged = {
            "closure": (linear, ()),
            "step times closure": (step.times(linear),
                                   _union(step, linear)),
            "closure restricted": (linear.restricted_to(full),
                                   _union(linear, ends=(self.LO, self.HI))),
            "quotient by a closure": (
                radon_nikodym(Measure(space, step),
                              Measure(space, linear.scaled(2.0))),
                _union(step, linear)),
            "expression times step": (expr.times(step), _union(expr, step)),
            "constant expression": (density_from_expr("0.5", space), ()),
            "step expression": (expr, (1.0,)),
            "haar R*": (haar(MultiplicativePositiveReals((0.5, 2.0))).density,
                        ()),
            "weight density of a closure": (
                weight_density(linear, Measure(space, step)), _union(step)),
            "weight closure": (Density(lambda x: x), ()),
        }
        for name, (f, bps) in unflagged.items():
            assert f.piecewise_constant is False, name
            assert f.breakpoints == bps, name


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=5.0),
                min_size=6, max_size=6))
def test_finite_mass_is_plain_sum(weights):
    table = dict(zip(DIE.atoms, weights))
    m = Measure.from_density(DIE, table_density(DIE, table))
    assert mass(m, MeasurableSet.full(DIE)) == pytest.approx(
        math.fsum(weights), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.0, max_value=3.0),
       st.floats(min_value=0.0, max_value=3.0))
def test_step_mass_closed_form(cut, v1, v2):
    m = Measure.from_density(UNIT, step_density([cut], [v1, v2]))
    got = mass(m, MeasurableSet.full(UNIT))
    assert got == pytest.approx(v1 * cut + v2 * (1.0 - cut), abs=1e-10)
