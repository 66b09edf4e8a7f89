import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarent.dsl import density_from_expr
from haarent.entropy import _checked
from haarent.errors import AbsoluteContinuityError, DomainError
from haarent.groups import AdditiveReals, MultiplicativePositiveReals, haar
from haarent.measures import (Density, MeasurableSet, Measure, Space,
                              WeightFunction, mass, measure_of_weight,
                              radon_nikodym, step_density, table_density)
from haarent.quadrature import Integrator

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

    def test_resolve_atom_accepts_string_tokens(self):
        assert DIE.resolve_atom("3") == 3
        assert DIE.resolve_atom(3) == 3
        with pytest.raises(DomainError):
            DIE.resolve_atom("7")


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
        m = measure_of_weight(WeightFunction.const(0.0), nu)
        assert mass(m, MeasurableSet.full(WIDE)) == pytest.approx(2.0,
                                                                  abs=1e-12)

    def test_constant_weight_scales_reference(self):
        nu = Measure.counting(DIE)
        m = measure_of_weight(WeightFunction.const(1.5), nu)
        full = MeasurableSet.full(DIE)
        assert mass(m, full) == pytest.approx(6.0 * math.exp(-1.5),
                                              abs=1e-12)

    def test_linear_weight_mass(self):
        nu = Measure.lebesgue(UNIT)
        m = measure_of_weight(
            WeightFunction(lambda x: x), nu)
        assert mass(m, MeasurableSet.full(UNIT)) == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-10)

    def test_infinite_weight_kills_density_exactly(self):
        nu = Measure.lebesgue(UNIT)
        m = measure_of_weight(WeightFunction.const(math.inf), nu)
        assert m.density(0.5) == 0.0

    def test_round_trip_density(self):
        rng = np.random.default_rng(11)
        nu = Measure.lebesgue(UNIT)
        for _ in range(10):
            vals = rng.uniform(0.05, 1.0, 4)
            m = Measure.from_density(
                UNIT, step_density([0.2, 0.5, 0.8], list(vals)))
            d = m.density
            phi = WeightFunction(lambda x: -math.log(d(x)), d.breakpoints,
                                 piecewise_constant=True)
            back = measure_of_weight(phi, nu)
            quot_m = radon_nikodym(m, nu)
            quot_b = radon_nikodym(back, nu)
            for x in rng.uniform(0.0, 1.0, 12):
                assert quot_b(float(x)) == pytest.approx(quot_m(float(x)),
                                                         abs=1e-12)


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
        assert d.sup == 3.0

    def test_table_density_missing_atoms_weigh_zero(self):
        d = table_density(DIE, {1: 0.5, "6": 2.0})
        assert d(1) == 0.5
        assert d(6) == 2.0
        assert d(3) == 0.0
        assert d.sup == 2.0

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
        with pytest.raises(DomainError):
            WeightFunction.const(-0.5)

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


class TestPiecewiseConstantFlag:
    """Every density or weight flagged piecewise_constant is constant on
    each open interval between consecutive breakpoints."""

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
        phi = WeightFunction(lambda x: -math.log(d(x)), d.breakpoints,
                             piecewise_constant=True)
        quot = radon_nikodym(m, ref)
        c = float(rng.uniform(0.1, 3.0))
        return {
            "const": Density.const(c),
            "step": d,
            "weight const": WeightFunction.const(c),
            "scaled step": d.scaled(c),
            "scaled const": Density.const(c).scaled(0.5),
            "step times step": d.times(e),
            "step times const": d.times(Density.const(c)),
            "restricted step": d.restricted_to(union),
            "restricted const": Density.const(c).restricted_to(union),
            "quotient by lebesgue": radon_nikodym(m, leb),
            "quotient by constant": radon_nikodym(
                m, Measure(space, Density.const(c))),
            "quotient by step": quot,
            "constant quotient": radon_nikodym(leb, leb.scaled(c)),
            "measure_of_weight": measure_of_weight(phi, ref).density,
            "measure of a step weight": measure_of_weight(
                WeightFunction(d.evaluator, d.breakpoints,
                               piecewise_constant=True), leb).density,
            "checked quotient": _checked(lambda x: min(quot(x), 1.0), quot),
            "haar R+": haar(AdditiveReals((self.LO, self.HI)), 2.0).density,
        }

    def test_flagged_objects_are_constant_between_breakpoints(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            for name, f in self._flagged(rng).items():
                assert f.piecewise_constant is True, name
                self._assert_constant_between_breakpoints(f, rng)

    def test_other_closures_are_not_flagged(self):
        space = Space.interval(self.LO, self.HI)
        step = step_density([0.5], [1.0, 2.0])
        linear = Density(lambda x: x, ())
        unflagged = {
            "closure": linear,
            "step times closure": step.times(linear),
            "closure restricted": linear.restricted_to(
                MeasurableSet.full(space)),
            "quotient by a closure": radon_nikodym(
                Measure(space, step), Measure(space, linear.scaled(2.0))),
            "constant expression": density_from_expr("0.5", space),
            "step expression": density_from_expr(
                "piecewise {x < 1: 0.5; else: 2}", space),
            "haar R*": haar(MultiplicativePositiveReals((0.5, 2.0))).density,
            "weight closure": WeightFunction(lambda x: x),
        }
        for name, f in unflagged.items():
            assert f.piecewise_constant is False, name


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
