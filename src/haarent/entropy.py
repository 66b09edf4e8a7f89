"""Relative entropy of measures against a reference, in nats.

Three equivalent presentations of the same quantity:

* probability form   S(mu)  = -integral of (dmu/dnu) log(dmu/dnu) dnu
* finite form        S(eta) = log eta(X) - (1/eta(X)) integral of
                              (deta/dnu) log(deta/dnu) dnu
* weight form        S(phi) = log m0 + (1/m0) integral of phi e^-phi dnu,
                              m0 = integral of e^-phi dnu

The finite form is scale-invariant and equals the probability form of the
unit-normalized measure; the weight form is the finite form of the measure
with density e^-phi. All integrals run against the reference measure.

Every form integrates a function of a density quotient against a measure,
and points where that measure's density is 0 contribute 0. In the xlogx
forms (probability, finite, nonnegativity certificate) the measure is the
reference: on a finite set the quotient is still evaluated at atoms where
the reference is 0, so a measure that charges such an atom raises
AbsoluteContinuityError; on an interval such points are null and skipped.
(The certificate's premise check, sup_density, evaluates the quotient at
its own sample points, whatever the reference is there.) In the weight
form, the change of reference and the entropic gap the measure is the one
being averaged (the reference, rho, rho), and points where it is 0 are
always skipped, atoms included.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

from . import quadrature
from .errors import (AbsoluteContinuityError, DegenerateMeasureError,
                     NotInformationMeasureError)
from .measures import (Density, Measure, MeasurableSet, WeightFunction, mass,
                       merge_breakpoints, radon_nikodym)
from .quadrature import DEFAULT_INTEGRATOR, Integrator, xlogx
from .supnorm import sup_density

__all__ = [
    "EntropyForm", "EntropyValue", "Verdict", "NonnegativityCertificate",
    "NonUnitMassWarning", "entropy_prob", "entropy_finite", "entropy_weight",
    "uniform_measure", "change_reference", "entropic_gap",
    "nonneg_certificate", "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-8


class EntropyForm(str, Enum):
    PROBABILITY = "Probability"
    FINITE = "Finite"
    WEIGHT = "Weight"


@dataclass(frozen=True)
class EntropyValue:
    """Entropy in nats together with the form used and the measure's mass."""

    nats: float
    form: EntropyForm
    mass: float

    def to_dict(self) -> dict:
        return {"nats": self.nats, "form": self.form.value, "mass": self.mass}


class Verdict(str, Enum):
    MASS_AT_LEAST_ONE = "MassAtLeastOne"
    CONDITION_HOLDS = "ConditionHolds"
    MAY_BE_NEGATIVE = "MayBeNegative"


@dataclass(frozen=True)
class NonnegativityCertificate:
    """Why (or whether) the entropy of an information measure is >= 0.

    lhs/rhs record the comparison that produced the verdict: mass vs 1 for
    MassAtLeastOne, else -integral vs -mass*log(mass).
    """

    verdict: Verdict
    lhs: float
    rhs: float

    def to_dict(self) -> dict:
        return {"verdict": self.verdict.value, "lhs": self.lhs, "rhs": self.rhs}


class NonUnitMassWarning(UserWarning):
    """Probability-form entropy was asked of a measure of mass != 1."""


def _integral(h, f, m: Measure, s: MeasurableSet, cfg: Integrator,
              evaluate_null_atoms: bool) -> float:
    """integral over s of h(f) dm, f a density or weight function.

    Where m's density is 0 the integrand is 0 without evaluating f, except
    at atoms when evaluate_null_atoms is set. A constant positive density
    is never 0, and multiplies the integrand inline (or not at all for 1).
    """
    f_ev, w_ev = f.evaluator, m.density.evaluator
    c = m.density.constant
    if c == 1.0:
        integrand = lambda x: h(f_ev(x))   # y * 1.0 == y
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
    bps = merge_breakpoints(f.breakpoints, m.density.breakpoints)
    flat = f.piecewise_constant and m.density.piecewise_constant
    return quadrature.integrate(integrand, s, cfg, breakpoints=bps,
                                piecewise_constant=flat)


def _xlogx_integral(quot: Density, reference: Measure, s: MeasurableSet,
                    cfg: Integrator) -> float:
    """integral over s of xlogx(quot) dreference, quot = dm/dreference.

    quot is evaluated at every atom, also where the reference is 0: a
    quotient that raises there is the absolute-continuity check.
    """
    return _integral(xlogx, quot, reference, s, cfg, True)


def _weighted_integral(h, f, m: Measure, s: MeasurableSet,
                       cfg: Integrator) -> float:
    """integral over s of h(f) dm; f is not evaluated where m's density is 0."""
    return _integral(h, f, m, s, cfg, False)


def _checked(check, quot: Density) -> Density:
    """quot behind a wrapper that checks each of its values: a function of
    quot's value, so constant wherever quot is."""
    return Density(check, quot.breakpoints,
                   piecewise_constant=quot.piecewise_constant)


def _positive_mass(total: float, what: str) -> float:
    if total <= 0.0:
        raise DegenerateMeasureError(
            f"{what} of the set is {total!r}; entropy needs positive mass")
    return total


def entropy_prob(m: Measure, reference: Measure, s: MeasurableSet,
                 cfg: Integrator = DEFAULT_INTEGRATOR,
                 mass_tol: float = DEFAULT_TOL) -> EntropyValue:
    """Probability-form entropy of m over s against reference.

    Warns (NonUnitMassWarning) instead of erroring when m(s) != 1: the
    integrand is well-defined regardless, and the classical closed forms
    for non-probability measures use exactly this reading.
    """
    total = mass(m, s, cfg)
    if abs(total - 1.0) > mass_tol:
        warnings.warn(
            f"probability-form entropy of a measure with mass {total!r}",
            NonUnitMassWarning, stacklevel=2)
    val = -_xlogx_integral(radon_nikodym(m, reference), reference, s, cfg)
    return EntropyValue(val, EntropyForm.PROBABILITY, total)


def entropy_finite(m: Measure, reference: Measure, s: MeasurableSet,
                   cfg: Integrator = DEFAULT_INTEGRATOR) -> EntropyValue:
    """Finite-form entropy: log mass minus the normalized xlogx integral."""
    total = _positive_mass(mass(m, s, cfg), "measure")
    integral = _xlogx_integral(radon_nikodym(m, reference), reference, s, cfg)
    return EntropyValue(math.log(total) - integral / total,
                        EntropyForm.FINITE, total)


def entropy_weight(phi: WeightFunction, reference: Measure, s: MeasurableSet,
                   cfg: Integrator = DEFAULT_INTEGRATOR) -> EntropyValue:
    """Weight-form entropy of the weight phi against reference.

    Uses phi*e^-phi = -xlogx(e^-phi), which extends continuously by 0 to
    phi = +inf, so infinite weights contribute nothing to either integral.
    """
    m0 = _positive_mass(
        _weighted_integral(lambda v: math.exp(-v), phi, reference, s, cfg),
        "weight measure")
    num = _weighted_integral(lambda v: -xlogx(math.exp(-v)), phi, reference,
                             s, cfg)
    return EntropyValue(math.log(m0) + num / m0, EntropyForm.WEIGHT, m0)


def uniform_measure(reference: Measure, s: MeasurableSet,
                    cfg: Integrator = DEFAULT_INTEGRATOR) -> Measure:
    """The maximum-entropy measure on s: density 1/reference(s) against
    reference, restricted to s. Its finite-form entropy is log reference(s)."""
    total = _positive_mass(mass(reference, s, cfg), "reference measure")
    return reference.scaled(1.0 / total).restricted(
        s, label=f"uniform[{reference.label}]")


def change_reference(rho: Measure, mu: Measure, nu: Measure,
                     s: MeasurableSet,
                     cfg: Integrator = DEFAULT_INTEGRATOR) -> EntropyValue:
    """Finite-form entropy of rho against nu computed through reference mu:

        S_nu(rho, s) = S_mu(rho, s) - (1/rho(s)) integral of log(dmu/dnu) drho

    Requires rho << mu and rho << nu on s (the quotients raise where
    violated). Numerically validates the identity used to move between
    Haar references.
    """
    base = entropy_finite(rho, mu, s, cfg)
    quot = radon_nikodym(mu, nu)
    q_ev = quot.evaluator

    def positive_quot(x):
        q = q_ev(x)
        if q <= 0.0:
            raise AbsoluteContinuityError(
                f"dmu/dnu is {q!r} at {x!r} where rho has positive density")
        return q

    corr = _weighted_integral(math.log, _checked(positive_quot, quot), rho, s,
                              cfg)
    return EntropyValue(base.nats - corr / base.mass,
                        EntropyForm.FINITE, base.mass)


def entropic_gap(rho: Measure, xi: Measure, haar_ref: Measure,
                 s: MeasurableSet, cfg: Integrator = DEFAULT_INTEGRATOR,
                 tol: float = DEFAULT_TOL) -> float:
    """-(1/rho(s)) integral over s of log(dxi/dhaar_ref) drho.

    Nonnegative whenever xi is an information measure with respect to
    haar_ref (the log of a quotient <= 1 is <= 0); equals
    S_haar(rho, s) - S_xi(rho, s). Raises NotInformationMeasureError if
    the quotient exceeds 1 beyond tol at an evaluated point.
    """
    total = _positive_mass(mass(rho, s, cfg), "rho measure")
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

    corr = _weighted_integral(lambda q: math.log(min(q, 1.0)),
                              _checked(checked_quot, quot), rho, s, cfg)
    return -corr / total


def nonneg_certificate(m: Measure, reference: Measure, s: MeasurableSet,
                       cfg: Integrator = DEFAULT_INTEGRATOR,
                       tol: float = DEFAULT_TOL) -> NonnegativityCertificate:
    """Certify nonnegativity of the finite-form entropy of an information
    measure m over s.

    MassAtLeastOne: m(s) >= 1 - tol suffices on its own. Otherwise the
    sharper condition -integral of xlogx(dm/dreference) dreference >=
    -m(s) log m(s) is evaluated; if it fails, MayBeNegative.

    The premise, that m is an information measure w.r.t. reference on s,
    is checked first, in both cases, as sup_density(m, reference, s) <=
    1 + tol; NotInformationMeasureError names the sup when it fails. The
    quotient is evaluated at sup_density's points, so a sampled point where
    the reference is 0 and m is positive raises AbsoluteContinuityError, as
    sup_density does. Raises DomainError when s is empty.
    """
    sup = sup_density(m, reference, s)
    if not sup <= 1.0 + tol:
        raise NotInformationMeasureError(
            f"sup of dm/dreference over the set is {sup!r}; an information "
            f"measure needs at most 1")
    total = mass(m, s, cfg)
    if total >= 1.0 - tol:
        return NonnegativityCertificate(Verdict.MASS_AT_LEAST_ONE, total, 1.0)

    lhs = -_xlogx_integral(radon_nikodym(m, reference), reference, s, cfg)
    rhs = -total * math.log(total)
    if lhs >= rhs - tol:
        return NonnegativityCertificate(Verdict.CONDITION_HOLDS, lhs, rhs)
    return NonnegativityCertificate(Verdict.MAY_BE_NEGATIVE, lhs, rhs)
