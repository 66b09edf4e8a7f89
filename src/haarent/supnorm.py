"""Sup-normalization of densities and the translate bound it buys.

Two measures are sup-normalized (to c) against a reference when both
density quotients have supremum c; with c = 1 the quotient lives in [0, 1]
and the measure is an information measure. Suprema are exact on finite
sets, for constant quotients, and for piecewise-constant quotients on an
interval (one point inside each piece that meets the set); otherwise they
are estimated on a breakpoint-seeded grid with three refinement rounds
around the max incumbent. sup_density is the one place where the premise
"quotient <= 1" is decided: is_information_measure and
entropy.nonneg_certificate both ask it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NormalizationError
from .groups import (Group, _translation_knots, translate_set,
                     translation_samples)
from .measures import (Density, Measure, MeasurableSet, _combined, mass,
                       radon_nikodym, sample_grid)
from .quadrature import DEFAULT_INTEGRATOR, Integrator

__all__ = [
    "SupNormalizationReport", "sup_density", "sup_normalize",
    "is_information_measure", "check_translate_bound", "DEFAULT_TOL",
]

# default tolerance of the premise test (a quotient <= 1 + tol passes) and
# of entropy's other comparisons
DEFAULT_TOL = 1e-8

_GRID = 256
_REFINE_ROUNDS = 3
_REFINE_POINTS = 64


def _max_on_set(quot: Density, s: MeasurableSet) -> tuple:
    """(max, argmax) of quot over sampled points of s: every atom; one
    point inside each piece of s between breakpoints when quot is
    piecewise constant; else the refined grid."""
    evaluator, breakpoints = quot.evaluator, quot.breakpoints
    best = (-math.inf, None)

    def scan(points):
        nonlocal best
        for x in points:
            v = evaluator(x)
            if v > best[0]:
                best = (v, x)
            elif v != v:
                raise DomainError(f"the density quotient is nan at {x!r}")

    if s.is_finite:
        scan(s.atoms)
        return best
    for a, b in s.intervals:
        if quot.piecewise_constant:
            cuts = [a, *sorted(p for p in breakpoints if a < p < b), b]
            scan([(x + y) / 2 for x, y in zip(cuts, cuts[1:]) if x < y]
                 or [a])
            continue
        scan(sample_grid(a, b, _GRID, breakpoints))
        h = (0.5 * b - 0.5 * a) / (_GRID / 2)  # b - a may overflow
        for _ in range(_REFINE_ROUNDS):
            c = best[1]
            if c is not None:
                lo = max(a, c - h)
                hi = min(b, c + h)
                if hi > lo:
                    scan(lo + (hi - lo) * i / _REFINE_POINTS
                         for i in range(_REFINE_POINTS + 1))
            h /= _REFINE_POINTS / 2.0
    return best


def _sup_and_argmax(m: Measure, reference: Measure,
                    s: MeasurableSet) -> tuple:
    """(sup, argmax) of dm/dreference over s."""
    if s.is_empty:
        raise DomainError("the set is empty; a sup over it is undefined")
    quot = radon_nikodym(m, reference)
    if quot.constant is not None:
        at = s.atoms[0] if s.is_finite else s.intervals[0][0]
        return quot.constant, at
    return _max_on_set(quot, s)


def sup_density(m: Measure, reference: Measure, s: MeasurableSet) -> float:
    """Supremum of dm/dreference over s.

    Exact for finite spaces, constant quotients and piecewise-constant
    quotients on an interval (one evaluation per piece of s, so a piece
    outside s does not count). Otherwise this is a grid lower bound of the
    true sup (refined around the incumbent). Raises DomainError when s is
    empty, or when the quotient is nan at a sampled point.
    """
    return _sup_and_argmax(m, reference, s)[0]


@dataclass(frozen=True)
class SupNormalizationReport:
    """What sup_normalize did: the common target and the scales applied."""

    c: float
    sup_rho: float
    sup_xi: float
    scale_rho: float
    scale_xi: float
    at_rho: object
    at_xi: object

    def to_dict(self) -> dict:
        return {"c": self.c, "sup_rho": self.sup_rho, "sup_xi": self.sup_xi,
                "scale_rho": self.scale_rho, "scale_xi": self.scale_xi,
                "at_rho": self.at_rho, "at_xi": self.at_xi}


def sup_normalize(rho: Measure, xi: Measure, reference: Measure,
                  s: MeasurableSet, target: float = 1.0):
    """Scale rho and xi so both density quotients against reference have
    supremum `target` over s. Returns (rho', xi', report). Raises
    DomainError when s is empty."""
    if target <= 0 or not math.isfinite(target):
        raise NormalizationError(f"target sup must be positive: {target!r}")
    sup_r, at_r = _sup_and_argmax(rho, reference, s)
    sup_x, at_x = _sup_and_argmax(xi, reference, s)
    for name, v in (("rho", sup_r), ("xi", sup_x)):
        if v <= 0 or not math.isfinite(v):
            raise NormalizationError(
                f"sup of d{name}/dreference over the set is {v!r}; "
                f"cannot normalize")
    scale_r = target / sup_r
    scale_x = target / sup_x
    report = SupNormalizationReport(target, sup_r, sup_x, scale_r, scale_x,
                                    at_r, at_x)
    return rho.scaled(scale_r), xi.scaled(scale_x), report


def is_information_measure(rho: Measure, reference: Measure,
                           s: MeasurableSet,
                           tol: float = DEFAULT_TOL) -> bool:
    """True iff sup_density(rho, reference, s) <= 1 + tol: the one test of
    the information-measure premise drho/dreference <= 1.

    Raises DomainError when s is empty.
    """
    return sup_density(rho, reference, s) <= 1.0 + tol


def check_translate_bound(rho: Measure, nu: Measure, group: Group,
                          a_set: MeasurableSet,
                          cfg: Integrator = DEFAULT_INTEGRATOR) -> tuple:
    """Compare sup_g rho(gA) with c * inf_g nu(gA), c = sup drho/dnu over
    the carrier: returns (max rho(gA), c * min nu(gA), notes). The bound
    holds when the first is at most the second.

    g runs over every translation where that is exact: on finite kinds
    over every rep ("every translation (n elements)"), and on continuous
    kinds, when both densities are piecewise_constant, over the knots of
    groups._translation_knots, where both extremes are attained ("every
    translation (k knots)"). Otherwise g runs over the 64
    translation_samples ("sampled translates only (64 used)"). Every knot
    and every sample keeps A inside the window, so every one is compared.
    """
    c = sup_density(rho, nu, MeasurableSet.full(rho.space))
    # the breakpoints and flag of the pair, by the rule of combined densities
    pair = _combined(None, rho.density, nu.density)
    if group.is_finite:
        gs, scope = list(group.reps), "every translation ({} elements)"
    elif pair.piecewise_constant:
        gs = _translation_knots(group, a_set, pair.breakpoints)
        scope = "every translation ({} knots)"
    else:
        gs = translation_samples(group, 64, for_set=a_set)
        scope = "sampled translates only ({} used)"
    worst_rho = (-math.inf, None)
    best_nu = (math.inf, None)
    for g in gs:
        moved = translate_set(group, g, a_set)
        r = mass(rho, moved, cfg)
        n = mass(nu, moved, cfg)
        if r > worst_rho[0]:
            worst_rho = (r, g)
        if n < best_nu[0]:
            best_nu = (n, g)
    worst_g, best_g = (group.label_of(group.check_rep(g))
                       for g in (worst_rho[1], best_nu[1]))
    return (worst_rho[0], c * best_nu[0],
            f"{scope.format(len(gs))}; max rho at g={worst_g}, "
            f"min nu at g={best_g}, c={c!r}")
