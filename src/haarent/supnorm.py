"""Sup-normalization of densities and the translate bound it buys.

Two measures are sup-normalized (to c) against a reference when both
density quotients have supremum c; with c = 1 the quotient lives in [0, 1]
and the measure is an information measure. Suprema are estimated on a
breakpoint-seeded grid with three refinement rounds around the max
incumbent, overridden by an analytic sup when the density declares one.
sup_density is the one place where the premise "quotient <= 1" is
decided: is_information_measure and entropy.nonneg_certificate both ask it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NormalizationError, WindowOverflowError
from .groups import Circle, Group, translate_set, translation_samples
from .measures import (Measure, MeasurableSet, mass, merge_breakpoints,
                       radon_nikodym, sample_grid)
from .quadrature import DEFAULT_INTEGRATOR, Integrator
from .report import VerificationReport, le_report, skip_report

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


def _max_on_set(evaluator, s: MeasurableSet, breakpoints) -> tuple:
    """(max, argmax) of evaluator over sampled points of s."""
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


def _require_nonempty(s: MeasurableSet) -> None:
    if s.is_empty:
        raise DomainError("the set is empty; a sup over it is undefined")


def _sup_and_argmax(m: Measure, reference: Measure, s: MeasurableSet,
                    argmax: bool = True) -> tuple:
    """(sup, argmax) of dm/dreference over s. A declared analytic sup
    overrides the grid when s is the full space; the grid is then scanned
    only when the argmax is asked for (else it is None)."""
    _require_nonempty(s)
    quot = radon_nikodym(m, reference)
    if quot.constant is not None:
        at = s.atoms[0] if s.is_finite else s.intervals[0][0]
        return quot.constant, at
    declared = quot.sup is not None and s == MeasurableSet.full(s.space)
    if declared and not argmax:
        return quot.sup, None
    hi, at = _max_on_set(quot.evaluator, s, quot.breakpoints)
    return (quot.sup if declared else hi), at


def sup_density(m: Measure, reference: Measure, s: MeasurableSet) -> float:
    """Supremum of dm/dreference over s.

    Exact for finite spaces and constant quotients; a declared analytic sup
    is returned, without a scan, when s is the full space. Otherwise this
    is a grid lower bound of the true sup (refined around the incumbent).
    Raises DomainError when s is empty.
    """
    return _sup_and_argmax(m, reference, s, argmax=False)[0]


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
                          a_set: MeasurableSet,
                          samples: list | None = None,
                          count: int = 64, tol: float = 1e-8,
                          cfg: Integrator = DEFAULT_INTEGRATOR,
                          seed: int = 0, trial: int = 0,
                          claim_id: str = "supnorm-translate-bound",
                          ) -> VerificationReport:
    """Check sup_g rho(gA) <= c * inf_g nu(gA), c = sup drho/dnu over the carrier.

    g runs over `samples`, elements that group.check_rep accepts. By
    default the check covers every translation where that is exact: on
    finite kinds g runs over every rep ("every translation (n elements)"),
    and on continuous kinds, when both densities are piecewise_constant,
    over the knots of _translation_knots, where both extremes are attained
    ("every translation (k knots)"; `count` is then unused). Otherwise g
    runs over `count` translation_samples, a low-discrepancy sequence of
    translations keeping A inside the window ("sampled translates only").
    Window overflows of given samples are skipped, recorded in scope notes.
    """
    claim = claim_id
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
            samples = translation_samples(group, count, for_set=a_set)
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
        return skip_report(claim, "no admissible translates", tol, seed, trial)
    worst_g, best_g = (group.label_of(group.check_rep(g))
                       for g in (worst_rho[1], best_nu[1]))
    if unit:
        scope = f"every translation ({len(samples)} {unit})"
    else:
        scope = (f"sampled translates only ({len(samples) - skipped} used"
                 f"{f', {skipped} overflowed' if skipped else ''})")
    notes = (f"{scope}; max rho at g={worst_g}, min nu at g={best_g}, "
             f"c={c!r}")
    return le_report(claim, worst_rho[0], c * best_nu[0], tol, seed, trial,
                     scope_notes=notes)
