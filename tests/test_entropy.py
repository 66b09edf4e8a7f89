import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarent import entropy, quadrature
from haarent.dsl import density_from_expr
from haarent.entropy import (EntropyForm, NonUnitMassWarning, Verdict,
                             change_reference, entropic_gap, entropy_finite,
                             entropy_prob, entropy_weight, nonneg_certificate,
                             uniform_measure)
from haarent.errors import (AbsoluteContinuityError, DegenerateMeasureError,
                            DomainError, NotInformationMeasureError)
from haarent.groups import Dihedral, haar
from haarent.measures import (Density, MeasurableSet, Measure, Space,
                              _combined, mass, measure_of_weight,
                              radon_nikodym, step_density, table_density)
from haarent.quadrature import DEFAULT_INTEGRATOR, Integrator, xlogx
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
    return Density(lambda x: -math.log(d(x)), d.breakpoints,
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
        phi = Density(lambda x: x)
        got = entropy_weight(phi, LEB, FULL)
        m0 = 1.0 - math.exp(-1.0)
        want = math.log(m0) + (1.0 - 2.0 * math.exp(-1.0)) / m0
        assert got.form is EntropyForm.WEIGHT
        assert got.mass == pytest.approx(m0, abs=1e-10)
        assert got.nats == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("a", [0.0, 1.0, 7.0])
    def test_constant_weight_gives_log_reference_mass(self, a):
        space = Space.interval(0.0, 3.0)
        got = entropy_weight(Density.const(a), Measure.lebesgue(space),
                             MeasurableSet.full(space))
        assert got.nats == pytest.approx(math.log(3.0), abs=1e-9)

    def test_infinite_weight_region_contributes_nothing(self):
        phi = Density(
            lambda x: math.inf if x > 0.5 else 0.0, breakpoints=(0.5,))
        got = entropy_weight(phi, LEB, FULL)
        assert got.mass == pytest.approx(0.5, abs=1e-10)
        assert got.nats == pytest.approx(math.log(0.5), abs=1e-9)

    def test_everywhere_infinite_weight_rejected(self):
        with pytest.raises(DegenerateMeasureError):
            entropy_weight(Density(lambda x: math.inf,
                                   piecewise_constant=True), LEB, FULL)

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    @pytest.mark.parametrize("space", [UNIT, DIE], ids=["interval", "atoms"])
    def test_invalid_weight_values_rejected(self, bad, space):
        # the weight form and the measure phi induces run one check of
        # phi's values, which names the point
        nu = Measure.counting(space) if space.is_finite \
            else Measure.lebesgue(space)
        s = MeasurableSet.full(space)
        phi = Density(lambda x: bad)
        with pytest.raises(DomainError, match=r"weight value .+ at "):
            entropy_weight(phi, nu, s)
        with pytest.raises(DomainError, match=r"weight value .+ at "):
            entropy_finite(measure_of_weight(phi, nu), nu, s)

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
        phi = Density(lambda x: x * x)
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

    @pytest.mark.parametrize("space", [DIE, UNIT],
                             ids=["counting", "lebesgue"])
    def test_zero_mass_is_degenerate(self, space):
        if space.is_finite:
            m = Measure.from_density(space, table_density(space, {}))
            ref = Measure.counting(space)
        else:
            m, ref = Measure.from_density(space, Density.const(0.0)), LEB
        with pytest.raises(DegenerateMeasureError,
                           match="measure of the set is 0.0"):
            nonneg_certificate(m, ref, MeasurableSet.full(space))

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

    @pytest.mark.parametrize("excess, ok", [(5e-9, True), (2e-8, False)])
    def test_premise_has_one_default_tolerance(self, excess, ok):
        # is_information_measure and the certificate share DEFAULT_TOL
        m = LEB.scaled(1.0 + excess)
        assert is_information_measure(m, LEB, FULL) is ok
        if ok:
            assert nonneg_certificate(m, LEB, FULL).verdict is \
                Verdict.MASS_AT_LEAST_ONE
        else:
            with pytest.raises(NotInformationMeasureError):
                nonneg_certificate(m, LEB, FULL)

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
        phi = Density(lambda x: weights[x])  # KeyError off a and b
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
        # each form gets fresh measures: a measure remembers its last mass
        # and xlogx integral, and these counts are the cost on first use
        def fresh():
            rng = np.random.default_rng(3)
            if finite:
                weights = lambda lo, hi: table_density(
                    DIE, {a: float(rng.uniform(lo, hi)) for a in DIE.atoms})
                return (Measure.from_density(DIE, weights(0.02, 0.15)),
                        Measure.from_density(DIE, weights(0.9, 1.0)))
            return (random_step_measure(rng, vmax=0.9),
                    Measure.over(LEB, step_density([0.5], [0.95, 1.0])))

        if finite:
            nu, s = Measure.counting(DIE), MeasurableSet.full(DIE)
        else:
            nu, s = LEB, FULL
        forms = [
            (lambda m, xi: mass(m, s), 1),
            (lambda m, xi: entropy_finite(m, nu, s), 2),
            (lambda m, xi: entropy_prob(m.scaled(1.0 / mass(m, s)), nu, s), 3),
            (lambda m, xi: entropy_weight(neg_log_weight(m), nu, s), 2),
            (lambda m, xi: change_reference(m, xi, nu, s), 3),
            (lambda m, xi: entropic_gap(m, xi, nu, s), 2),
            (lambda m, xi: nonneg_certificate(m, nu, s), 2),
        ]
        for run, integrals in forms:
            m, xi = fresh()
            counted["integrate"] = 0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NonUnitMassWarning)
                run(m, xi)
            assert counted["integrate"] == integrals


class TestRememberedIntegrals:
    """A measure remembers its last mass and its last xlogx integral: a
    repeat of the same call integrates nothing and returns the same bits,
    and every check still runs on the repeat."""

    @pytest.fixture
    def counted(self, monkeypatch):
        from haarent import quadrature
        calls = [0]
        integrate = quadrature.integrate

        def counting(*args, **kwargs):
            calls[0] += 1
            return integrate(*args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate", counting)
        return calls

    @staticmethod
    def measure():
        return random_step_measure(np.random.default_rng(4), vmax=0.9)

    def test_repeat_mass_integrates_nothing(self, counted):
        m = self.measure()
        first = mass(m, FULL)
        counted[0] = 0
        assert mass(m, FULL).hex() == first.hex()
        assert counted[0] == 0
        # the same bits as a measure that never saw the call
        assert mass(Measure(m.space, m.density), FULL).hex() == first.hex()

    def test_repeat_entropy_finite_integrates_nothing(self, counted):
        m = self.measure()
        first = entropy_finite(m, LEB, FULL)
        counted[0] = 0
        assert entropy_finite(m, LEB, FULL) == first
        assert counted[0] == 0
        fresh = entropy_finite(Measure(m.space, m.density), LEB, FULL)
        assert (fresh.nats.hex(), fresh.mass.hex()) == \
            (first.nats.hex(), first.mass.hex())

    @pytest.mark.parametrize("change", ["set", "cfg", "reference"])
    def test_other_key_integrates_again(self, counted, change):
        m = self.measure()
        s, cfg, nu = FULL, DEFAULT_INTEGRATOR, LEB
        entropy_finite(m, nu, s, cfg)
        if change == "set":
            s = MeasurableSet.of_interval(UNIT, 0.0, 0.5)
        elif change == "cfg":
            cfg = Integrator(rel_tol=1e-8)
        else:
            nu = Measure.lebesgue(UNIT)  # equal values, another Density
        counted[0] = 0
        got = entropy_finite(m, nu, s, cfg)
        assert counted[0] == (1 if change == "reference" else 2)
        want = entropy_finite(Measure(m.space, m.density), nu, s, cfg)
        assert got == want

    def test_one_slot_per_kind(self, counted):
        m = self.measure()
        halves = [MeasurableSet.of_interval(UNIT, 0.0, 0.5), FULL]
        for s in halves * 3:
            entropy_finite(m, LEB, s)
        assert counted[0] == 12  # each call replaced both slots
        assert sorted(m._memo) == ["mass", "xlogx"]

    def test_space_check_runs_before_the_lookup(self):
        m = self.measure()
        entropy_finite(m, LEB, FULL)
        # the same Density object, over another space
        elsewhere = Measure(Space.interval(0.0, 2.0), LEB.density)
        with pytest.raises(DomainError):
            entropy_finite(m, elsewhere, FULL)

    def test_warnings_and_errors_repeat(self):
        m = self.measure()
        for _ in range(2):
            with pytest.warns(NonUnitMassWarning):
                entropy_prob(m, LEB, FULL)
        zero = Measure.from_density(UNIT, Density.const(0.0))
        for _ in range(2):
            with pytest.raises(DegenerateMeasureError):
                entropy_finite(zero, LEB, FULL)

    def test_own_reference_makes_no_cycle(self):
        nu = self.measure()
        gc.disable()
        try:
            entropy_finite(nu, nu, FULL)
            ref = weakref.ref(nu)
            del nu
            assert ref() is None
        finally:
            gc.enable()


# The parent's integrand selection, kept test-local as the reference for
# entropy._integral: four forms chosen by the density and by the flag
# evaluate_null_atoms (the xlogx forms set it, and on a finite set then
# evaluated the quotient at every atom, the reference's null atoms too).
def reference_integral(h, f, m, s, cfg, evaluate_null_atoms):
    f_ev, w_ev = f.evaluator, m.density.evaluator
    c = m.density.constant
    if c == 1.0:
        integrand = lambda x: h(f_ev(x))
    elif c is not None and c > 0:
        integrand = lambda x: h(f_ev(x)) * c
    elif evaluate_null_atoms and s.is_finite:
        integrand = lambda x: h(f_ev(x)) * w_ev(x)
    else:
        def integrand(x):
            wx = w_ev(x)
            if wx == 0.0:
                return 0.0
            return h(f_ev(x)) * wx
    g = _combined(integrand, f, m.density)
    return quadrature.integrate(g.evaluator, s, cfg,
                                breakpoints=g.breakpoints,
                                piecewise_constant=g.piecewise_constant)


# The parent's two hand-written checked quotients, of change_reference and
# of entropic_gap, kept test-local as the references for
# entropy._checked_quotient.
def reference_change_quotient(mu, nu):
    quot = radon_nikodym(mu, nu)
    q_ev = quot.evaluator

    def positive_quot(x):
        q = q_ev(x)
        if q <= 0.0:
            raise AbsoluteContinuityError(
                f"dmu/dnu is {q!r} at {x!r} where rho has positive density")
        return q

    return _combined(positive_quot, quot)


def reference_gap_quotient(xi, haar_ref, tol):
    quot = radon_nikodym(xi, haar_ref)
    q_ev = quot.evaluator

    def checked_quot(x):
        q = q_ev(x)
        if q > 1.0 + tol:
            raise NotInformationMeasureError(
                f"dxi/dhaar is {q!r} > 1 at {x!r}")
        if q <= 0.0:
            raise AbsoluteContinuityError(
                f"dxi/dhaar is {q!r} at {x!r} where rho has positive density")
        return q

    return _combined(checked_quot, quot)


def outcome(run):
    """The bits of a float result, or the type and message it raised."""
    try:
        return run().hex()
    except Exception as exc:
        return type(exc), str(exc)


_EXPRS = ("exp(-x)", "x^2", "abs(x - 0.5)", "0.75",
          "piecewise {x < 0.3: 0; else: 2*x}",
          "piecewise {0.2 < x < 0.6: 0.5; else: 0}",
          "max(0.5 - x, 0)")


def _finite_corpus(rng, space):
    """Measures on a finite space: tables with zero atoms, constants."""
    def table():
        return Measure.from_density(space, table_density(space, {
            a: (0.0 if rng.random() < 0.3 else float(rng.uniform(0.05, 1.5)))
            for a in space.atoms}))
    out = [table() for _ in range(4)]
    out += [Measure(space, Density.const(c)) for c in (0.0, 1.0, 2.5)]
    return out


def _interval_corpus(rng, space):
    """Measures on an interval: steps with zero pieces, expressions,
    constants."""
    def step():
        cuts = sorted(float(c) for c in rng.uniform(0.05, 0.95, 3))
        vals = [0.0 if rng.random() < 0.3 else float(rng.uniform(0.05, 1.5))
                for _ in range(4)]
        return Measure.from_density(space, step_density(cuts, vals))
    out = [step(), step()]
    out += [Measure.from_density(space, density_from_expr(
        _EXPRS[rng.integers(len(_EXPRS))], space)) for _ in range(2)]
    out += [Measure(space, Density.const(c)) for c in (0.0, 1.0, 2.5)]
    return out


def _corpus_cases(seed):
    """(measures, sets) of one seeded case: a finite space with random
    subsets, or the unit interval with random subintervals."""
    rng = np.random.default_rng(seed)
    if seed % 2:
        space = Space.finite(["a", "b", "c", "d", "e"])
        measures = _finite_corpus(rng, space)
        sets = [MeasurableSet.full(space), MeasurableSet.of_atoms(
            space, [a for a in space.atoms if rng.random() < 0.5] or ["c"])]
    else:
        measures = _interval_corpus(rng, UNIT)
        a = float(rng.uniform(0.0, 0.5))
        sets = [FULL, MeasurableSet.of_interval(UNIT, a, a + 0.4)]
    return rng, measures, sets


_CFG = Integrator(rel_tol=1e-8)


class TestOneIntegralMatchesReference:
    """entropy._integral, the null-atom check of _xlogx_integral and
    _checked_quotient give the parent's bits, or its exception type and
    message, on a seeded corpus: finite tables with zero atoms on either
    side, constant references of 0, 1 and 2.5, step and expression
    densities on intervals, dmu/dnu <= 0 and dxi/dhaar > 1 + tol."""

    @pytest.mark.parametrize("seed", range(12))
    def test_integral(self, seed):
        rng, measures, sets = _corpus_cases(seed)
        hs = (xlogx, lambda y: y, lambda y: -xlogx(y), math.log,
              lambda q: math.log(min(q, 1.0)))
        for _ in range(30):
            num, den, weight = (measures[rng.integers(len(measures))]
                                for _ in range(3))
            s = sets[rng.integers(len(sets))]
            h = hs[rng.integers(len(hs))]
            try:
                f = radon_nikodym(num, den)
            except AbsoluteContinuityError:
                continue
            got = outcome(lambda: entropy._integral(h, f, weight, s, _CFG))
            want = outcome(lambda: reference_integral(h, f, weight, s, _CFG,
                                                      False))
            assert got == want

    @pytest.mark.parametrize("seed", range(12))
    def test_xlogx_integral(self, seed):
        rng, measures, sets = _corpus_cases(seed)
        for m in measures:
            for reference in measures:
                for s in sets:
                    def want():
                        return reference_integral(
                            xlogx, radon_nikodym(m, reference), reference,
                            s, _CFG, True)
                    fresh = Measure(m.space, m.density)
                    got = [outcome(lambda: entropy._xlogx_integral(
                        fresh, reference, s, _CFG)) for _ in range(2)]
                    assert got == [outcome(want)] * 2  # a repeat too

    @pytest.mark.parametrize("seed", range(12))
    def test_checked_quotients(self, seed):
        rng, measures, sets = _corpus_cases(seed)
        tol = 1e-9
        for num in measures:
            for den in measures:
                # the gap's xi a multiple of num, some of it above 1
                xi = num.scaled(float(rng.choice([0.5, 1.0, 3.0])))
                for rho in measures[:3]:
                    s = sets[rng.integers(len(sets))]
                    got = outcome(lambda: entropy._integral(
                        math.log, entropy._checked_quotient(
                            num, den, "dmu/dnu", math.inf), rho, s, _CFG))
                    want = outcome(lambda: reference_integral(
                        math.log, reference_change_quotient(num, den), rho,
                        s, _CFG, False))
                    assert got == want
                    log_min = lambda q: math.log(min(q, 1.0))
                    got = outcome(lambda: entropy._integral(
                        log_min, entropy._checked_quotient(
                            xi, den, "dxi/dhaar", 1.0 + tol), rho, s, _CFG))
                    want = outcome(lambda: reference_integral(
                        log_min, reference_gap_quotient(xi, den, tol), rho,
                        s, _CFG, False))
                    assert got == want

    def test_corpus_reaches_every_outcome(self):
        # the corpus is not vacuous: it has values, absolute-continuity
        # failures of both quotients and of the null-atom check, and
        # quotients above 1
        seen = set()
        for seed in range(12):
            rng, measures, sets = _corpus_cases(seed)
            for num in measures:
                for den in measures:
                    for s in sets:
                        for build in (
                                lambda: entropy._checked_quotient(
                                    num, den, "dmu/dnu", math.inf),
                                lambda: entropy._checked_quotient(
                                    num.scaled(3.0), den, "dxi/dhaar", 1.0)):
                            r = outcome(lambda: entropy._integral(
                                math.log, build(), den, s, _CFG))
                            seen.add(r[0] if isinstance(r, tuple) else float)
                        r = outcome(lambda: entropy._xlogx_integral(
                            Measure(num.space, num.density), den, s, _CFG))
                        seen.add(r[0] if isinstance(r, tuple) else float)
        assert {float, AbsoluteContinuityError,
                NotInformationMeasureError} <= seen


class TestNullAtomCheck:
    """The xlogx forms check absolute continuity at the reference's null
    atoms before the remembered integral is looked up."""

    ABC = Space.finite(["a", "b", "c", "d"])
    ALL = MeasurableSet.full(ABC)

    def test_raised_on_a_repeat_after_the_density_changed(self):
        # a memo hit must not hide an atom the reference does not charge
        weights = {"a": 0.5, "b": 0.25}
        m = Measure(self.ABC, Density(lambda x: weights.get(x, 0.0)))
        reference = Measure.from_density(
            self.ABC, table_density(self.ABC, {"a": 1.0, "b": 1.0, "d": 1.0}))
        first = entropy._xlogx_integral(m, reference, self.ALL, _CFG)
        assert first == xlogx(0.5) + xlogx(0.25)
        weights["c"] = 0.125
        for _ in range(2):
            with pytest.raises(AbsoluteContinuityError,
                               match="vanishes at 'c' where the measure "
                                     "has density 0.125"):
                entropy._xlogx_integral(m, reference, self.ALL, _CFG)

    def test_precedes_a_negative_atom(self):
        # a raw Measure negative at a, with mass at c where the reference
        # is 0: the null-atom check now raises first; the parent's
        # integrand met a first and raised DomainError from xlogx
        table = {"a": -0.1, "b": 1.0, "c": 0.5, "d": 0.0}
        m = Measure(self.ABC, Density(table.__getitem__))
        reference = Measure.from_density(
            self.ABC, table_density(self.ABC, {"a": 1.0, "b": 1.0, "d": 1.0}))
        with pytest.raises(AbsoluteContinuityError, match="vanishes at 'c'"):
            entropy_finite(m, reference, self.ALL)
        with pytest.raises(DomainError, match="xlogx is undefined"):
            reference_integral(xlogx, radon_nikodym(m, reference), reference,
                               self.ALL, DEFAULT_INTEGRATOR, True)
