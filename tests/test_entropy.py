import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarent.entropy import (EntropyForm, NonUnitMassWarning, Verdict,
                             change_reference, entropic_gap, entropy_finite,
                             entropy_prob, entropy_weight, nonneg_certificate,
                             uniform_measure)
from haarent.errors import (AbsoluteContinuityError, DegenerateMeasureError,
                            NotInformationMeasureError)
from haarent.groups import Dihedral, haar
from haarent.measures import (Density, MeasurableSet, Measure, Space,
                              WeightFunction, mass, measure_of_weight,
                              step_density, table_density)
from haarent.supnorm import is_information_measure, sup_density

UNIT = Space.interval(0.0, 1.0)
LEB = Measure.lebesgue(UNIT)
FULL = MeasurableSet.full(UNIT)
DIE = Space.finite([1, 2, 3, 4, 5, 6])


def density_measure(space, f, breakpoints=()):
    return Measure.from_density(space, Density(f, tuple(breakpoints)))


def random_step_measure(rng, pieces=4, vmax=2.0):
    cuts = np.sort(rng.uniform(0.05, 0.95, pieces - 1))
    vals = rng.uniform(0.05, vmax, pieces)
    return Measure.from_density(
        UNIT, step_density([float(c) for c in cuts],
                           [float(v) for v in vals]))


def neg_log_weight(m):
    """phi = -log(dm/dnu) for nu the counting or Lebesgue measure, whose
    density quotient is m's own density; phi keeps its breakpoints and
    piecewise-constant flag."""
    d = m.density
    return WeightFunction(lambda x: -math.log(d(x)), d.breakpoints,
                          piecewise_constant=d.piecewise_constant)


class TestProbabilityForm:
    def test_linear_density_closed_form(self):
        m = density_measure(UNIT, lambda x: 2.0 * x)
        got = entropy_prob(m, LEB, FULL)
        assert got.form is EntropyForm.PROBABILITY
        assert got.mass == pytest.approx(1.0, abs=1e-10)
        assert got.nats == pytest.approx(0.5 - math.log(2.0), abs=1e-9)

    def test_uniform_probability_on_interval(self):
        space = Space.interval(0.0, 4.0)
        m = density_measure(space, lambda x: 0.25)
        got = entropy_prob(m, Measure.lebesgue(space),
                           MeasurableSet.full(space))
        assert got.nats == pytest.approx(math.log(4.0), abs=1e-10)

    def test_non_unit_mass_warns(self):
        m = density_measure(UNIT, lambda x: 3.0)
        with pytest.warns(NonUnitMassWarning):
            entropy_prob(m, LEB, FULL)

    def test_unit_mass_does_not_warn(self):
        m = density_measure(UNIT, lambda x: 2.0 * x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entropy_prob(m, LEB, FULL)

    def test_finite_space_shannon(self):
        m = Measure.from_density(DIE, table_density(DIE, {1: 0.5, 2: 0.5}))
        got = entropy_prob(m, Measure.counting(DIE), MeasurableSet.full(DIE))
        assert got.nats == pytest.approx(math.log(2.0), abs=1e-12)


class TestFiniteForm:
    def test_matches_probability_form_at_unit_mass(self):
        m = density_measure(UNIT, lambda x: 2.0 * x)
        a = entropy_prob(m, LEB, FULL)
        b = entropy_finite(m, LEB, FULL)
        assert b.form is EntropyForm.FINITE
        assert b.nats == pytest.approx(a.nats, abs=1e-10)

    def test_scale_invariant(self):
        m = density_measure(UNIT, lambda x: 2.0 * x)
        scaled = m.scaled(7.5)
        a = entropy_finite(m, LEB, FULL)
        b = entropy_finite(scaled, LEB, FULL)
        assert b.nats == pytest.approx(a.nats, abs=1e-9)
        assert b.mass == pytest.approx(7.5, abs=1e-9)

    def test_constant_density_gives_log_reference_mass(self):
        space = Space.interval(1.0, 4.0)
        m = density_measure(space, lambda x: 0.37)
        got = entropy_finite(m, Measure.lebesgue(space),
                             MeasurableSet.full(space))
        assert got.nats == pytest.approx(math.log(3.0), abs=1e-10)

    def test_group_haar_entropy_is_log_order(self):
        for n in (3, 4, 6):
            g = Dihedral(n)
            nu = haar(g)
            got = entropy_finite(nu, Measure.counting(g.carrier),
                                 MeasurableSet.full(g.carrier))
            assert got.nats == math.log(float(2 * n))

    def test_subgroup_restriction_entropy(self):
        g = Dihedral(3)
        nu = haar(g)
        counting = Measure.counting(g.carrier)
        sub = MeasurableSet.of_atoms(g.carrier, ["r0", "s0"])
        got = entropy_finite(nu, counting, sub)
        assert got.nats == math.log(2.0)

    def test_zero_mass_rejected(self):
        m = density_measure(UNIT, lambda x: 0.0)
        with pytest.raises(DegenerateMeasureError):
            entropy_finite(m, LEB, FULL)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_bounded_by_log_reference_mass(self, key):
        rng = np.random.default_rng([17, key])
        m = random_step_measure(rng)
        got = entropy_finite(m, LEB, FULL)
        assert got.nats <= math.log(mass(LEB, FULL)) + 1e-8

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.01, max_value=50.0))
    def test_scale_invariance_random(self, key, c):
        rng = np.random.default_rng([23, key])
        m = random_step_measure(rng)
        a = entropy_finite(m, LEB, FULL)
        b = entropy_finite(m.scaled(c), LEB, FULL)
        assert b.nats == pytest.approx(a.nats, abs=1e-9)


class TestWeightForm:
    def test_linear_weight_closed_form(self):
        phi = WeightFunction(lambda x: x)
        got = entropy_weight(phi, LEB, FULL)
        m0 = 1.0 - math.exp(-1.0)
        want = math.log(m0) + (1.0 - 2.0 * math.exp(-1.0)) / m0
        assert got.form is EntropyForm.WEIGHT
        assert got.mass == pytest.approx(m0, abs=1e-10)
        assert got.nats == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("a", [0.0, 1.0, 7.0])
    def test_constant_weight_gives_log_reference_mass(self, a):
        space = Space.interval(0.0, 3.0)
        got = entropy_weight(WeightFunction.const(a),
                             Measure.lebesgue(space),
                             MeasurableSet.full(space))
        assert got.nats == pytest.approx(math.log(3.0), abs=1e-9)

    def test_infinite_weight_region_contributes_nothing(self):
        phi = WeightFunction(
            lambda x: math.inf if x > 0.5 else 0.0, breakpoints=(0.5,))
        got = entropy_weight(phi, LEB, FULL)
        assert got.mass == pytest.approx(0.5, abs=1e-10)
        assert got.nats == pytest.approx(math.log(0.5), abs=1e-9)

    def test_everywhere_infinite_weight_rejected(self):
        with pytest.raises(DegenerateMeasureError):
            entropy_weight(WeightFunction.const(math.inf), LEB, FULL)

    def test_agrees_with_finite_form_through_correspondence(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            m = random_step_measure(rng, vmax=1.0)
            phi = neg_log_weight(m)
            assert phi.piecewise_constant
            a = entropy_weight(phi, LEB, FULL)
            b = entropy_finite(m, LEB, FULL)
            assert a.nats == pytest.approx(b.nats, abs=1e-9)

    def test_measure_of_weight_round_trip_entropy(self):
        phi = WeightFunction(lambda x: x * x)
        a = entropy_weight(phi, LEB, FULL)
        b = entropy_finite(measure_of_weight(phi, LEB), LEB, FULL)
        assert a.nats == pytest.approx(b.nats, abs=1e-9)


class TestUniformMeasure:
    def test_attains_log_reference_mass(self):
        space = Space.interval(2.0, 7.0)
        nu = Measure.lebesgue(space)
        s = MeasurableSet.full(space)
        u = uniform_measure(nu, s)
        got = entropy_finite(u, nu, s)
        assert got.nats == pytest.approx(math.log(5.0), abs=1e-10)
        assert got.mass == pytest.approx(1.0, abs=1e-10)

    def test_on_subset(self):
        s = MeasurableSet.of_interval(UNIT, 0.25, 0.75)
        u = uniform_measure(LEB, s)
        got = entropy_finite(u, LEB, s)
        assert got.nats == pytest.approx(math.log(0.5), abs=1e-10)

    def test_maximizes_over_random_competitors(self):
        rng = np.random.default_rng(9)
        best = math.log(mass(LEB, FULL))
        for _ in range(10):
            m = random_step_measure(rng)
            assert entropy_finite(m, LEB, FULL).nats <= best + 1e-8

    def test_degenerate_reference_rejected(self):
        zero = density_measure(UNIT, lambda x: 0.0)
        with pytest.raises(DegenerateMeasureError):
            uniform_measure(zero, FULL)


class TestChangeReference:
    def test_matches_direct_computation(self):
        rho = density_measure(UNIT, lambda x: 2.0 * x)
        mu = density_measure(UNIT, lambda x: math.exp(-x))
        direct = entropy_finite(rho, LEB, FULL)
        via = change_reference(rho, mu, LEB, FULL)
        assert via.nats == pytest.approx(direct.nats, abs=1e-8)
        assert via.mass == pytest.approx(direct.mass, abs=1e-10)

    def test_identity_reference_is_noop(self):
        rho = density_measure(UNIT, lambda x: 1.5 - x)
        direct = entropy_finite(rho, LEB, FULL)
        via = change_reference(rho, LEB, LEB, FULL)
        assert via.nats == pytest.approx(direct.nats, abs=1e-10)

    def test_random_triples(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            rho = random_step_measure(rng)
            mu = random_step_measure(rng)
            direct = entropy_finite(rho, LEB, FULL)
            via = change_reference(rho, mu, LEB, FULL)
            assert via.nats == pytest.approx(direct.nats, abs=1e-8)

    def test_finite_space_triples(self):
        rng = np.random.default_rng(37)
        counting = Measure.counting(DIE)
        full = MeasurableSet.full(DIE)
        for _ in range(6):
            rho = Measure.from_density(DIE, table_density(
                DIE, dict(zip(DIE.atoms, rng.uniform(0.1, 2.0, 6)))))
            mu = Measure.from_density(DIE, table_density(
                DIE, dict(zip(DIE.atoms, rng.uniform(0.1, 2.0, 6)))))
            direct = entropy_finite(rho, counting, full)
            via = change_reference(rho, mu, counting, full)
            assert via.nats == pytest.approx(direct.nats, abs=1e-12)


class TestEntropicGap:
    def test_closed_form_for_exponential_factor(self):
        xi = density_measure(UNIT, lambda x: math.exp(-x))
        got = entropic_gap(LEB, xi, LEB, FULL)
        assert got == pytest.approx(0.5, abs=1e-9)

    def test_equals_entropy_difference(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            rho = random_step_measure(rng)
            xi = random_step_measure(rng, vmax=0.95)
            gap = entropic_gap(rho, xi, LEB, FULL)
            s_haar = entropy_finite(rho, LEB, FULL).nats
            s_xi = entropy_finite(rho, xi, FULL).nats
            assert gap == pytest.approx(s_haar - s_xi, abs=1e-8)

    def test_nonnegative_for_information_factors(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            rho = random_step_measure(rng)
            xi = random_step_measure(rng, vmax=1.0)
            assert entropic_gap(rho, xi, LEB, FULL) >= -1e-10

    def test_zero_when_factor_is_reference(self):
        rho = density_measure(UNIT, lambda x: 2.0 * x)
        assert entropic_gap(rho, LEB, LEB, FULL) == pytest.approx(
            0.0, abs=1e-10)

    def test_super_unit_factor_rejected(self):
        xi = density_measure(UNIT, lambda x: 2.0)
        with pytest.raises(NotInformationMeasureError):
            entropic_gap(LEB, xi, LEB, FULL)

    def test_zero_rho_rejected(self):
        zero = density_measure(UNIT, lambda x: 0.0)
        xi = density_measure(UNIT, lambda x: 0.5)
        with pytest.raises(DegenerateMeasureError):
            entropic_gap(zero, xi, LEB, FULL)


class TestNonnegativityCertificate:
    def test_mass_at_least_one(self):
        space = Space.interval(0.0, 2.0)
        nu = Measure.lebesgue(space)
        cert = nonneg_certificate(nu, nu, MeasurableSet.full(space))
        assert cert.verdict is Verdict.MASS_AT_LEAST_ONE
        assert cert.lhs == pytest.approx(2.0, abs=1e-10)

    def test_condition_holds_below_unit_mass(self):
        m = density_measure(UNIT, lambda x: 0.5)
        cert = nonneg_certificate(m, LEB, FULL)
        assert cert.verdict is Verdict.CONDITION_HOLDS
        assert entropy_finite(m, LEB, FULL).nats >= -1e-10

    def test_may_be_negative_detected(self):
        m = Measure.from_density(UNIT, step_density([0.5], [0.9, 0.1]))
        cert = nonneg_certificate(m, LEB, FULL)
        assert cert.verdict is Verdict.MAY_BE_NEGATIVE
        assert entropy_finite(m, LEB, FULL).nats < 0.0

    def test_requires_information_measure(self):
        m = density_measure(UNIT, lambda x: 2.0)
        with pytest.raises(NotInformationMeasureError):
            nonneg_certificate(m, LEB, FULL)

    def test_mass_branch_still_checks_quotient(self):
        space = Space.interval(0.0, 4.0)
        nu = Measure.lebesgue(space)
        m = density_measure(space, lambda x: 0.5 + x)
        with pytest.raises(NotInformationMeasureError):
            nonneg_certificate(m, nu, MeasurableSet.full(space))

    @pytest.mark.parametrize("hi, f", [
        # mass 1.8: the MassAtLeastOne branch
        (2.0, lambda x: 0.9 + 0.5 * math.exp(-1e5 * (x - 0.7) ** 2)),
        # mass 0.5: the integral branch
        (1.0, lambda x: 0.5 + 0.6 * math.exp(-1e5 * (x - 0.3) ** 2))],
        ids=["mass-1.8", "mass-0.5"])
    def test_premise_is_decided_by_sup_density(self, hi, f):
        # narrow peaks above 1 (sups 1.4 and 1.1); the certificate and
        # is_information_measure both decide on sup_density's value
        space = Space.interval(0.0, hi)
        nu = Measure.lebesgue(space)
        full = MeasurableSet.full(space)
        m = density_measure(space, f)
        sup = sup_density(m, nu, full)
        assert sup > 1.05
        assert not is_information_measure(m, nu, full)
        with pytest.raises(NotInformationMeasureError, match=repr(sup)):
            nonneg_certificate(m, nu, full)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_sound_for_random_information_measures(self, key):
        rng = np.random.default_rng([47, key])
        m = random_step_measure(rng, vmax=1.0)
        cert = nonneg_certificate(m, LEB, FULL)
        if cert.verdict is not Verdict.MAY_BE_NEGATIVE:
            assert entropy_finite(m, LEB, FULL).nats >= -1e-10

    def test_to_dict_round_trip(self):
        m = density_measure(UNIT, lambda x: 0.5)
        cert = nonneg_certificate(m, LEB, FULL)
        d = cert.to_dict()
        assert d["verdict"] == "ConditionHolds"
        assert set(d) == {"verdict", "lhs", "rhs"}


class TestZeroWeightAtoms:
    """Which forms evaluate a quotient at atoms their measure does not charge.

    The xlogx forms integrate against the reference and still evaluate the
    quotient where the reference is 0, which is their absolute-continuity
    check. The other forms average against a measure (rho, or the reference
    of a weight) and skip its null atoms, where the quotient may be
    undefined.
    """

    ABC = Space.finite(["a", "b", "c", "d"])
    ALL = MeasurableSet.full(ABC)

    def table(self, weights):
        return Measure.from_density(self.ABC, table_density(self.ABC, weights))

    @pytest.mark.parametrize("form, c_mass", [
        (entropy_finite, 0.1), (entropy_prob, 0.1),
        # the premise check on sup_density's points comes first in both
        (nonneg_certificate, 0.1),   # mass 1: the MassAtLeastOne branch
        (nonneg_certificate, 0.05)])  # mass < 1: the integral branch
    def test_xlogx_forms_reject_mass_where_reference_is_zero(self, form,
                                                              c_mass):
        m = self.table({"a": 0.5, "b": 0.4, "c": c_mass})
        reference = self.table({"a": 1.0, "b": 1.0, "d": 1.0})
        with pytest.raises(AbsoluteContinuityError):
            form(m, reference, self.ALL)

    def test_change_reference_skips_atoms_rho_misses(self):
        # at c: mu > 0 and nu = 0, so dmu/dnu raises if evaluated;
        # at d: mu = 0 and nu > 0, so log(dmu/dnu) is -inf
        rho = self.table({"a": 1.0, "b": 2.0})
        mu = self.table({"a": 0.5, "b": 1.5, "c": 1.0})
        nu = self.table({"a": 1.0, "b": 1.0, "d": 1.0})
        via = change_reference(rho, mu, nu, self.ALL)
        direct = entropy_finite(rho, nu, self.ALL)
        assert via.nats == pytest.approx(direct.nats, abs=1e-12)

    def test_entropic_gap_skips_atoms_rho_misses(self):
        # at c: xi > 0 and haar = 0; at d: xi = 0 and haar > 0
        rho = self.table({"a": 1.0, "b": 2.0})
        xi = self.table({"a": 0.5, "b": 0.25, "c": 1.0})
        haar_ref = self.table({"a": 1.0, "b": 1.0, "d": 1.0})
        got = entropic_gap(rho, xi, haar_ref, self.ALL)
        want = -(math.log(0.5) + 2.0 * math.log(0.25)) / 3.0
        assert got == pytest.approx(want, abs=1e-12)

    def test_weight_form_skips_atoms_reference_misses(self):
        weights = {"a": 0.0, "b": 1.0}
        phi = WeightFunction(lambda x: weights[x])  # KeyError off a and b
        reference = self.table({"a": 1.0, "b": 1.0})
        got = entropy_weight(phi, reference, self.ALL)
        m0 = 1.0 + math.exp(-1.0)
        assert got.mass == pytest.approx(m0, abs=1e-12)
        assert got.nats == pytest.approx(
            math.log(m0) + math.exp(-1.0) / m0, abs=1e-12)


def test_entropy_value_to_dict():
    m = density_measure(UNIT, lambda x: 2.0 * x)
    got = entropy_finite(m, LEB, FULL).to_dict()
    assert set(got) == {"nats", "form", "mass"}
    assert got["form"] == "Finite"


class TestQuadratureEntryPoint:
    """mass and every entropy form reach the quadrature only through
    quadrature.integrate, the one name a profiler or tracer has to wrap;
    the evaluation counts it sees are then the whole work."""

    @pytest.fixture
    def counted(self, monkeypatch):
        from haarent import quadrature
        calls = {"integrate": 0, "inside": 0}
        integrate, inner = quadrature.integrate, quadrature.integrate_result

        def counting_integrate(*args, **kwargs):
            calls["integrate"] += 1
            calls["inside"] += 1
            try:
                return integrate(*args, **kwargs)
            finally:
                calls["inside"] -= 1

        def guarded_result(*args, **kwargs):
            assert calls["inside"] == 1, "integrate_result called directly"
            return inner(*args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate", counting_integrate)
        monkeypatch.setattr(quadrature, "integrate_result", guarded_result)
        return calls

    @pytest.mark.parametrize("finite", [False, True], ids=["interval", "atoms"])
    def test_every_form_calls_integrate(self, counted, finite):
        rng = np.random.default_rng(3)
        if finite:
            nu = Measure.counting(DIE)
            s = MeasurableSet.full(DIE)
            weights = lambda lo, hi: table_density(
                DIE, {a: float(rng.uniform(lo, hi)) for a in DIE.atoms})
            m = Measure.from_density(DIE, weights(0.02, 0.15))
            xi = Measure.from_density(DIE, weights(0.9, 1.0))
        else:
            nu, s = LEB, FULL
            m = random_step_measure(rng, vmax=0.9)
            xi = Measure.over(LEB, step_density([0.5], [0.95, 1.0]))
        phi = neg_log_weight(m)
        forms = [
            (lambda: mass(m, s), 1),
            (lambda: entropy_finite(m, nu, s), 2),
            (lambda: entropy_prob(m.scaled(1.0 / mass(m, s)), nu, s), 3),
            (lambda: entropy_weight(phi, nu, s), 2),
            (lambda: change_reference(m, xi, nu, s), 3),
            (lambda: entropic_gap(m, xi, nu, s), 2),
            (lambda: nonneg_certificate(m, nu, s), 2),
        ]
        for run, integrals in forms:
            counted["integrate"] = 0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NonUnitMassWarning)
                run()
            assert counted["integrate"] == integrals
