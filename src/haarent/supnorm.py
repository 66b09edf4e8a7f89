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

from .errors import DomainError, NormalizationError, WindowOverflowError
from .groups import Circle, Group, translate_set, translation_samples
from .measures import (Density, Measure, MeasurableSet, mass,
                       merge_breakpoints, radon_nikodym, sample_grid)
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

    if s.is_finite:
        scan(s.iter_atoms())
        return best
    for a, b in s.intervals:
        if quot.piecewise_constant:
            cuts = [a, *sorted(p for p in breakpoints if a < p < b), b]
            scan([(x + y) / 2 for x, y in zip(cuts, cuts[1:]) if x < y]
                 or [a])
            continue
        scan(sample_grid(a, b, _GRID, breakpoints))
        h = (b - a) / _GRID
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
    empty.
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


def _admissible_limit(move, g: float, end: float, bound: float,
                      step: float) -> float:
    """g, nudged by ulps towards `step` until move(g, end) is on the inner
    side of `bound`: a window limit of the translations that translate_set
    accepts (fl(bound - end) + end may round past bound)."""
    while (move(g, end) - bound) * step < 0:
        g = math.nextafter(g, step * math.inf)
    return g


def _translation_knots(group: Group, a_set: MeasurableSet,
                       breakpoints) -> list:
    """Every g at which g -> m(gA) can bend, for a continuous group and
    measures whose densities are constant between `breakpoints`.

    m(gA) is then piecewise linear in g (on R*mul too: d/dg m([ga, gb])
    = b m'(gb) - a m'(ga) is constant between knots), so its max and its
    min over all admissible g are attained at these knots: the g putting
    an end of A on a breakpoint or on an end of the carrier (on the
    circle, an end crossing 0), plus, on the windowed kinds, the two
    window limits of g.
    """
    ends = a_set.boundary_points()
    if not ends:
        return [group.identity_rep()]  # every translate of {} is {}
    lo, hi = group.window
    points = [lo, hi, *(p for p in breakpoints if lo < p < hi)]
    move, inverse = group.compose_reps, group.inverse_rep
    knots = {move(p, inverse(e)) for p in points for e in ends}
    if isinstance(group, Circle):
        return sorted(knots)
    mn, mx = min(ends), max(ends)
    # rounded + and * are monotone, so every g between two admissible
    # limits is admissible
    glo = _admissible_limit(move, move(lo, inverse(mn)), mn, lo, 1.0)
    ghi = _admissible_limit(move, move(hi, inverse(mx)), mx, hi, -1.0)
    return sorted({glo, ghi, *(g for g in knots if glo < g < ghi)})


def check_translate_bound(rho: Measure, nu: Measure, group: Group,
                          a_set: MeasurableSet, samples: list | None = None,
                          cfg: Integrator = DEFAULT_INTEGRATOR,
                          ) -> tuple | None:
    """Compare sup_g rho(gA) with c * inf_g nu(gA), c = sup drho/dnu over
    the carrier: returns (max rho(gA), c * min nu(gA), notes), or None when
    no g is admissible. The bound holds when the first is at most the
    second.

    g runs over `samples`, elements that group.check_rep accepts. By
    default the check covers every translation where that is exact: on
    finite kinds g runs over every rep ("every translation (n elements)"),
    and on continuous kinds, when both densities are piecewise_constant,
    over the knots of _translation_knots, where both extremes are attained
    ("every translation (k knots)"). Otherwise g runs over 64
    translation_samples, a low-discrepancy sequence of translations keeping
    A inside the window ("sampled translates only"). Window overflows of
    given samples are skipped and counted in the notes.
    """
    full = MeasurableSet.full(rho.space)
    c = sup_density(rho, nu, full)
    unit = None  # what g runs over when that is every translation
    if samples is None:
        if group.is_finite:
            samples, unit = list(group.reps), "elements"
        elif (rho.density.piecewise_constant
              and nu.density.piecewise_constant):
            samples, unit = _translation_knots(group, a_set, merge_breakpoints(
                rho.density.breakpoints, nu.density.breakpoints)), "knots"
        else:
            samples = translation_samples(group, 64, for_set=a_set)
    worst_rho = (-math.inf, None)
    best_nu = (math.inf, None)
    skipped = 0
    for g in samples:
        try:
            moved = translate_set(group, g, a_set)
        except WindowOverflowError:
            skipped += 1
            continue
        r = mass(rho, moved, cfg)
        n = mass(nu, moved, cfg)
        if r > worst_rho[0]:
            worst_rho = (r, g)
        if n < best_nu[0]:
            best_nu = (n, g)
    if worst_rho[1] is None:
        return None
    worst_g, best_g = (group.label_of(group.check_rep(g))
                       for g in (worst_rho[1], best_nu[1]))
    if unit:
        scope = f"every translation ({len(samples)} {unit})"
    else:
        scope = (f"sampled translates only ({len(samples) - skipped} used"
                 f"{f', {skipped} overflowed' if skipped else ''})")
    return (worst_rho[0], c * best_nu[0],
            f"{scope}; max rho at g={worst_g}, min nu at g={best_g}, "
            f"c={c!r}")
