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

Every form integrates a function of a density quotient against a
measure (the reference, or rho in the change of reference and the
entropic gap) and skips the points where that measure's density is 0,
atoms included: the quotient is not evaluated there. The xlogx forms
(probability, finite, nonnegativity certificate) check absolute
continuity first: on a finite set the quotient is evaluated at each atom
where the reference is 0, so a measure that charges such an atom raises
AbsoluteContinuityError. On an interval that check is not made yet.
(The certificate's premise check, sup_density, evaluates the quotient at
its own sample points, whatever the reference is there.)
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

from . import quadrature
from .errors import (AbsoluteContinuityError, DegenerateMeasureError,
                     NotInformationMeasureError)
from .measures import (Density, Measure, MeasurableSet, _combined, mass,
                       radon_nikodym, weight_density)
from .quadrature import DEFAULT_INTEGRATOR, Integrator, xlogx
from .supnorm import DEFAULT_TOL, sup_density

__all__ = [
    "EntropyForm", "EntropyValue", "Verdict", "NonnegativityCertificate",
    "NonUnitMassWarning", "entropy_prob", "entropy_finite", "entropy_weight",
    "uniform_measure", "change_reference", "entropic_gap",
    "nonneg_certificate", "DEFAULT_TOL",
]


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


def _integral(h, f, m: Measure, s: MeasurableSet, cfg: Integrator) -> float:
    """integral over s of h(f) dm, f a Density; the integrand's breakpoints
    and flag are those _combined gives it from f and m's density.

    Where m's density is 0 the integrand is 0 without evaluating f, atoms
    included. A positive constant density is never 0, and multiplies the
    integrand inline (y * 1.0 == y, so a density of 1 changes no bit).
    """
    f_ev, w_ev = f.evaluator, m.density.evaluator
    c = m.density.constant
    if c is not None and c > 0:
        integrand = lambda x: h(f_ev(x)) * c
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


def _xlogx_integral(m: Measure, reference: Measure, s: MeasurableSet,
                    cfg: Integrator) -> float:
    """integral over s of xlogx(dm/dreference) dreference, remembered on m
    (see Measure) under the key (reference.density, s, cfg).

    First, on a finite s, the absolute-continuity check: the quotient is
    evaluated at each atom where the reference is 0, and raises
    AbsoluteContinuityError there unless m is 0 too. It runs before the
    lookup, so it raises on a repeat too. (On an interval, points where
    the reference is 0 are skipped unchecked.)
    """
    quot = radon_nikodym(m, reference)
    if s.is_finite:
        r_ev = reference.density.evaluator
        for atom in s.atoms:
            if r_ev(atom) == 0.0:
                quot(atom)  # raises unless m is 0 there too
    key = (reference.density, s, cfg)
    slot = m._memo.get("xlogx")
    if slot is not None and slot[0] == key:
        return slot[1]
    val = _integral(xlogx, quot, reference, s, cfg)
    m._memo["xlogx"] = (key, val)
    return val


def _checked_quotient(m: Measure, reference: Measure, name: str,
                      upper: float) -> Density:
    """dm/dreference, named name in errors, for a log taken against rho:
    NotInformationMeasureError where it exceeds upper (the gap's 1 + tol;
    inf for the change of reference), AbsoluteContinuityError where it
    is <= 0."""
    quot = radon_nikodym(m, reference)
    q_ev = quot.evaluator

    def checked(x):
        q = q_ev(x)
        if q > upper:
            raise NotInformationMeasureError(f"{name} is {q!r} > 1 at {x!r}")
        if q <= 0.0:
            raise AbsoluteContinuityError(
                f"{name} is {q!r} at {x!r} where rho has positive density")
        return q

    return _combined(checked, quot)


def _positive_mass(total: float, what: str) -> float:
    if total <= 0.0:
        raise DegenerateMeasureError(
            f"{what} of the set is {total!r}; entropy needs positive mass")
    return total


def entropy_prob(m: Measure, reference: Measure, s: MeasurableSet,
                 cfg: Integrator = DEFAULT_INTEGRATOR) -> EntropyValue:
    """Probability-form entropy of m over s against reference.

    Warns (NonUnitMassWarning) instead of erroring when m(s) is more than
    DEFAULT_TOL away from 1: the integrand is well-defined regardless, and
    the classical closed forms for non-probability measures use exactly
    this reading.
    """
    total = mass(m, s, cfg)
    if abs(total - 1.0) > DEFAULT_TOL:
        warnings.warn(
            f"probability-form entropy of a measure with mass {total!r}",
            NonUnitMassWarning, stacklevel=2)
    val = -_xlogx_integral(m, reference, s, cfg)
    return EntropyValue(val, EntropyForm.PROBABILITY, total)


def entropy_finite(m: Measure, reference: Measure, s: MeasurableSet,
                   cfg: Integrator = DEFAULT_INTEGRATOR) -> EntropyValue:
    """Finite-form entropy: log mass minus the normalized xlogx integral."""
    total = _positive_mass(mass(m, s, cfg), "measure")
    integral = _xlogx_integral(m, reference, s, cfg)
    return EntropyValue(math.log(total) - integral / total,
                        EntropyForm.FINITE, total)


def entropy_weight(phi: Density, reference: Measure, s: MeasurableSet,
                   cfg: Integrator = DEFAULT_INTEGRATOR) -> EntropyValue:
    """Weight-form entropy of the weight phi, a Density with values in
    [0, +inf], against reference.

    Both integrals are of w = e^-phi from measures.weight_density, which
    checks phi's values as measure_of_weight does (DomainError where phi is
    negative or NaN). Uses phi*e^-phi = -xlogx(w), which extends
    continuously by 0 to phi = +inf, so infinite weights contribute nothing
    to either integral.
    """
    w = weight_density(phi, reference)
    m0 = _positive_mass(_integral(lambda y: y, w, reference, s, cfg),
                        "weight measure")
    num = _integral(lambda y: -xlogx(y), w, reference, s, cfg)
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
    quot = _checked_quotient(mu, nu, "dmu/dnu", math.inf)
    corr = _integral(math.log, quot, rho, s, cfg)
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
    quot = _checked_quotient(xi, haar_ref, "dxi/dhaar", 1.0 + tol)
    corr = _integral(lambda q: math.log(min(q, 1.0)), quot, rho, s, cfg)
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
    sup_density does. Raises DomainError when s is empty (or the quotient
    is nan at a sampled point), and DegenerateMeasureError when m(s) is 0.
    """
    sup = sup_density(m, reference, s)
    if not sup <= 1.0 + tol:
        raise NotInformationMeasureError(
            f"sup of dm/dreference over the set is {sup!r}; an information "
            f"measure needs at most 1")
    total = _positive_mass(mass(m, s, cfg), "measure")
    if total >= 1.0 - tol:
        return NonnegativityCertificate(Verdict.MASS_AT_LEAST_ONE, total, 1.0)

    lhs = -_xlogx_integral(m, reference, s, cfg)
    rhs = -total * math.log(total)
    if lhs >= rhs - tol:
        return NonnegativityCertificate(Verdict.CONDITION_HOLDS, lhs, rhs)
    return NonnegativityCertificate(Verdict.MAY_BE_NEGATIVE, lhs, rhs)
