import math

import pytest

from haarent.errors import DomainError, NormalizationError
from haarent.groups import AdditiveReals, Cyclic, haar, translation_samples
from haarent.measures import (Density, MeasurableSet, Measure, Space,
                              step_density, table_density)
from haarent.supnorm import (check_translate_bound, is_information_measure,
                             sup_density, sup_normalize)

UNIT = Space.interval(0.0, 1.0)
LEB = Measure.lebesgue(UNIT)
FULL = MeasurableSet.full(UNIT)
DIE = Space.finite([1, 2, 3, 4, 5, 6])


def density_measure(space, f, breakpoints=()):
    return Measure.from_density(space, Density(f, tuple(breakpoints)))


class TestSupDensity:
    def test_linear_density_attains_at_endpoint(self):
        m = density_measure(UNIT, lambda x: 2.0 * x)
        assert sup_density(m, LEB, FULL) == 2.0

    def test_step_density_exact(self):
        m = Measure.from_density(UNIT, step_density([0.3], [1.0, 3.0]))
        assert sup_density(m, LEB, FULL) == 3.0

    def test_finite_space_exact(self):
        m = Measure.from_density(DIE, table_density(DIE, {1: 0.5, 6: 2.0}))
        assert sup_density(m, Measure.counting(DIE),
                           MeasurableSet.full(DIE)) == 2.0

    def test_constant_quotient_exact(self):
        m = LEB.scaled(0.37)
        assert sup_density(m, LEB, FULL) == 0.37

    def test_restricted_to_subset(self):
        m = density_measure(UNIT, lambda x: 2.0 * x)
        half = MeasurableSet.of_interval(UNIT, 0.0, 0.5)
        assert sup_density(m, LEB, half) == pytest.approx(1.0, abs=1e-12)

    def test_declared_sup_wins_on_full_space(self):
        space = Space.interval(1.0, 10.0)
        m = Measure.from_density(space, Density(lambda x: 1.0 / x, sup=1.0))
        assert sup_density(m, Measure.lebesgue(space),
                           MeasurableSet.full(space)) == 1.0

    def test_interior_peak_found(self):
        m = density_measure(UNIT, lambda x: math.exp(-40.0 * (x - 0.37) ** 2))
        assert sup_density(m, LEB, FULL) == pytest.approx(1.0, abs=1e-6)

    def test_declared_sup_needs_no_scan(self):
        step = step_density([0.3, 0.6], [1.0, 3.0, 2.0])
        calls = []

        def counted(x):
            calls.append(x)
            return step(x)

        m = Measure(UNIT, Density(counted, step.breakpoints, sup=step.sup))
        assert sup_density(m, LEB, FULL) == 3.0
        assert calls == []
        # off the full space the grid still runs
        assert sup_density(m, LEB, MeasurableSet.of_interval(UNIT, 0.0, 0.5))\
            == 3.0
        assert calls

    def test_integer_atoms_keep_a_float_quotient(self):
        space = Space.finite([1, 2, 3])
        m = Measure.from_density(space, Density(lambda x: x))
        sup = sup_density(m, Measure.counting(space),
                          MeasurableSet.full(space))
        assert (type(sup), sup) == (float, 3.0)


class TestSupNormalize:
    def test_pinned_pair(self):
        rho = density_measure(UNIT, lambda x: 2.0 * x)
        xi = density_measure(UNIT, lambda x: math.exp(-x))
        rho2, xi2, report = sup_normalize(rho, xi, LEB, FULL)
        assert report.c == 1.0
        assert report.sup_rho == pytest.approx(2.0, abs=1e-10)
        assert report.sup_xi == pytest.approx(1.0, abs=1e-10)
        assert report.scale_rho == pytest.approx(0.5, abs=1e-10)
        assert report.scale_xi == pytest.approx(1.0, abs=1e-10)
        assert sup_density(rho2, LEB, FULL) == pytest.approx(1.0, abs=1e-10)
        assert sup_density(xi2, LEB, FULL) == pytest.approx(1.0, abs=1e-10)

    def test_idempotent(self):
        rho = density_measure(UNIT, lambda x: 2.0 * x)
        xi = density_measure(UNIT, lambda x: math.exp(-x))
        rho2, xi2, _ = sup_normalize(rho, xi, LEB, FULL)
        _, _, again = sup_normalize(rho2, xi2, LEB, FULL)
        assert again.scale_rho == pytest.approx(1.0, abs=1e-9)
        assert again.scale_xi == pytest.approx(1.0, abs=1e-9)

    def test_custom_target(self):
        rho = Measure.from_density(UNIT, step_density([0.5], [1.0, 4.0]))
        xi = LEB.scaled(0.25)
        rho2, xi2, report = sup_normalize(rho, xi, LEB, FULL, target=2.0)
        assert report.c == 2.0
        assert sup_density(rho2, LEB, FULL) == pytest.approx(2.0, abs=1e-10)
        assert sup_density(xi2, LEB, FULL) == pytest.approx(2.0, abs=1e-10)

    def test_argmax_locations_reported(self):
        rho = density_measure(UNIT, lambda x: 2.0 * x)
        xi = density_measure(UNIT, lambda x: math.exp(-x))
        _, _, report = sup_normalize(rho, xi, LEB, FULL)
        assert report.at_rho == pytest.approx(1.0, abs=1e-6)
        assert report.at_xi == pytest.approx(0.0, abs=1e-6)

    def test_finite_space_pair(self):
        counting = Measure.counting(DIE)
        rho = Measure.from_density(DIE, table_density(
            DIE, {a: float(a) for a in DIE.atoms}))
        xi = counting.scaled(0.5)
        rho2, xi2, report = sup_normalize(rho, xi, counting,
                                          MeasurableSet.full(DIE))
        assert report.sup_rho == 6.0
        assert rho2.density(6) == pytest.approx(1.0, abs=1e-12)
        assert xi2.density(3) == pytest.approx(1.0, abs=1e-12)

    def test_zero_measure_rejected(self):
        zero = density_measure(UNIT, lambda x: 0.0)
        with pytest.raises(NormalizationError):
            sup_normalize(zero, LEB, LEB, FULL)

    def test_bad_target_rejected(self):
        with pytest.raises(NormalizationError):
            sup_normalize(LEB, LEB, LEB, FULL, target=0.0)
        with pytest.raises(NormalizationError):
            sup_normalize(LEB, LEB, LEB, FULL, target=math.inf)


class TestEmptySet:
    # the counting measure against itself has a constant quotient
    @pytest.mark.parametrize("m", [
        Measure.counting(DIE),
        Measure.from_density(DIE, table_density(DIE, {1: 0.5, 2: 1.0}))])
    def test_sup_over_empty_set_rejected(self, m):
        counting = Measure.counting(DIE)
        empty = MeasurableSet.of_atoms(DIE, [])
        with pytest.raises(DomainError):
            sup_density(m, counting, empty)
        with pytest.raises(DomainError):
            sup_normalize(m, counting, counting, empty)
        with pytest.raises(DomainError):
            is_information_measure(m, counting, empty)


class TestIsInformationMeasure:
    def test_sub_unit_quotients_accepted(self):
        m = density_measure(UNIT, lambda x: math.exp(-x))
        assert is_information_measure(m, LEB, FULL)

    def test_super_unit_quotients_rejected(self):
        m = density_measure(UNIT, lambda x: 2.0 * x)
        assert not is_information_measure(m, LEB, FULL)

    def test_boundary_quotient_accepted(self):
        assert is_information_measure(LEB, LEB, FULL)

    def test_constant_fast_path(self):
        assert is_information_measure(LEB.scaled(0.5), LEB, FULL)
        assert not is_information_measure(LEB.scaled(1.5), LEB, FULL)

    def test_subset_scope(self):
        m = density_measure(UNIT, lambda x: 2.0 * x)
        half = MeasurableSet.of_interval(UNIT, 0.0, 0.5)
        assert is_information_measure(m, LEB, half)


class TestTranslateBound:
    def test_finite_group_dominated_measure_passes(self):
        g = Cyclic(6)
        nu = haar(g)
        rho = Measure.from_density(g.carrier, table_density(
            g.carrier, {"0": 0.2, "1": 0.9, "2": 0.5, "3": 0.1,
                        "4": 0.7, "5": 0.4}))
        a = MeasurableSet.of_atoms(g.carrier, ["0", "2"])
        report = check_translate_bound(rho, nu, g, a)
        assert report.passed
        assert not report.skipped
        assert report.slack >= -report.tolerance

    def test_window_group_passes(self):
        g = AdditiveReals((0.0, 10.0))
        nu = haar(g)
        rho = density_measure(g.carrier, lambda x: math.exp(-x))
        a = MeasurableSet.of_interval(g.carrier, 1.0, 2.0)
        report = check_translate_bound(rho, nu, g, a)
        assert report.passed
        assert "sampled translates" in report.scope_notes

    def test_equality_case_passes_with_zero_slack(self):
        g = Cyclic(4)
        nu = haar(g)
        a = MeasurableSet.of_atoms(g.carrier, ["0"])
        report = check_translate_bound(nu, nu, g, a)
        assert report.passed
        assert report.slack == pytest.approx(0.0, abs=1e-12)

    def test_all_samples_overflow_becomes_skip(self):
        g = AdditiveReals((0.0, 10.0))
        nu = haar(g)
        rho = density_measure(g.carrier, lambda x: math.exp(-x))
        a = MeasurableSet.of_interval(g.carrier, 1.0, 2.0)
        report = check_translate_bound(rho, nu, g, a,
                                       samples=[g.element(100.0)])
        assert report.skipped
        assert report.passed

    def test_partial_overflow_noted(self):
        g = AdditiveReals((0.0, 10.0))
        nu = haar(g)
        rho = density_measure(g.carrier, lambda x: math.exp(-x))
        a = MeasurableSet.of_interval(g.carrier, 1.0, 2.0)
        report = check_translate_bound(
            rho, nu, g, a, samples=[g.element(0.5), g.element(100.0)])
        assert not report.skipped
        assert "overflowed" in report.scope_notes

    def test_custom_samples_respected(self):
        g = AdditiveReals((0.0, 10.0))
        nu = haar(g)
        rho = density_measure(g.carrier, lambda x: math.exp(-x))
        a = MeasurableSet.of_interval(g.carrier, 1.0, 2.0)
        samples = translation_samples(g, 8, for_set=a)
        report = check_translate_bound(rho, nu, g, a, samples=samples)
        assert report.passed
        assert "8 used" in report.scope_notes
