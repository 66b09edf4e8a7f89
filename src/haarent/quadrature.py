"""Deterministic global-adaptive quadrature over finite interval unions.

Finite sets are summed exactly (math.fsum in atom order). Interval unions
use QUADPACK's QAG scheme (Piessens et al., *QUADPACK*, 1983): the set is
cut at the declared breakpoints, each panel gets a 7-point Gauss /
15-point Kronrod rule, and the panel with the largest error estimate is
bisected until the summed estimates meet the tolerance. Kronrod nodes are
kept strictly inside each panel (math.nextafter clamps them where a panel
is only a few ulps wide, and a panel is not bisected once a half would
hold no float inside it), so an integrand is never evaluated on a seeded
breakpoint or an endpoint: each panel sees one smooth piece, and
integrable endpoint singularities need no special handling. The one
exception is a seeded panel one ulp wide, which has no inside.
Identical inputs produce bit-identical results: no randomness, fixed
evaluation order, and math.fsum over panels.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter, mul, sub
from typing import Callable, Iterable, Sequence

from .errors import ConvergenceError, DomainError

__all__ = ["Integrator", "IntegralResult", "integrate", "integrate_result",
           "xlogx", "DEFAULT_INTEGRATOR"]


@dataclass(frozen=True)
class Integrator:
    """Quadrature configuration.

    The contract: the returned integral I satisfies
    |I - true| <= max(rel_tol*|I|, abs_tol, floor), because the panels'
    error estimates sum to at most that. floor is the rounding floor of
    the rule, 50*eps times the integral of |f|; it exceeds the tolerance
    only for integrals that cancel to far below the integral of |f|, and
    then the returned bound is that floor (as QUADPACK's ier=2). The
    estimates are QUADPACK's, which are reliable for integrands smooth
    between breakpoints (or with integrable endpoint singularities).
    max_depth caps the bisections: a panel cut max_depth times from a
    panel seeded at the breakpoints is not split again. When no panel can
    be split and some panel's estimate is still above its rounding floor
    while the sum exceeds the tolerance, integrate raises ConvergenceError.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_depth: int = 50

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1e-2):
            raise DomainError(f"rel_tol must be in (0, 1e-2), got {self.rel_tol!r}")
        if self.abs_tol <= 0.0:
            raise DomainError(f"abs_tol must be positive, got {self.abs_tol!r}")
        if self.max_depth < 10:
            raise DomainError(f"max_depth must be >= 10, got {self.max_depth!r}")


DEFAULT_INTEGRATOR = Integrator()


@dataclass(frozen=True)
class IntegralResult:
    """One integral and how it was obtained.

    error_bound is the sum of the final panels' error estimates (0 for a
    finite set), above the tolerance only when it is the rounding floor
    of the rule; evals counts integrand nodes (15 per Kronrod panel, one
    per atom); panels is the size of the final partition; worst_panel is
    the (a, b) of the panel with the largest estimate, None when there
    are no panels.
    """

    value: float
    error_bound: float
    evals: int
    panels: int
    worst_panel: tuple[float, float] | None


def xlogx(t: float) -> float:
    """t*log(t) with the continuous-extension convention xlogx(0) = 0."""
    if t < 0.0:
        raise DomainError(f"xlogx is undefined for negative input: {t!r}")
    if t == 0.0:
        return 0.0
    return t * math.log(t)


def _split_panels(intervals: Iterable[tuple[float, float]],
                  breakpoints: Sequence[float]) -> list[tuple[float, float]]:
    """Cut each interval at the breakpoints lying strictly inside it."""
    bps = sorted(set(float(b) for b in breakpoints if math.isfinite(b)))
    panels = []
    for a, b in intervals:
        if b <= a:
            continue  # degenerate [c, c]: Lebesgue-null
        cuts = [x for x in bps if a < x < b]
        lo = a
        for c in cuts:
            panels.append((lo, c))
            lo = c
        panels.append((lo, b))
    return panels


def _eval(f: Callable[[float], float], x: float, nudge: float) -> float:
    """Evaluate f, stepping off integrable singularities that sit on a node."""
    try:
        v = f(x)
    except (OverflowError, ZeroDivisionError):
        v = math.nan
    if isinstance(v, float) and math.isfinite(v):
        return v
    if not isinstance(v, float):
        v = float(v)
        if math.isfinite(v):
            return v
    for cand in (x + nudge, x - nudge):
        try:
            w = float(f(cand))
        except (OverflowError, ZeroDivisionError):
            continue
        if math.isfinite(w):
            return w
    return v


# Gauss-Kronrod 7-15 rule on [-1, 1] (QUADPACK qk15), nodes in increasing
# order. _WD holds Kronrod minus Gauss weights (the Gauss rule uses every
# other node), so sum(_WD*f) is the Kronrod-Gauss difference.
_XK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245)
_WK7 = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649)
_WG7 = (0.0, 0.129484966168869693270611432679082, 0.0,
        0.279705391489276667901467771423780, 0.0,
        0.381830050505118944950369775488975, 0.0)
_NODES = tuple(-t for t in _XK) + (0.0,) + _XK[::-1]
_WK = _WK7 + (0.209482141084727828012999174891714,) + _WK7[::-1]
_WG = _WG7 + (0.417959183673469387755102040816327,) + _WG7[::-1]
_WD = tuple(k - g for k, g in zip(_WK, _WG))
_ROUNDOFF = 50.0 * 2.0 ** -52


def _kronrod(f, a: float, b: float) -> tuple[float, float, bool]:
    """G7K15 on [a, b]: (value, error estimate, final).

    The estimate is QUADPACK's: the Kronrod-Gauss difference scaled by
    resasc (the mean absolute deviation of f), floored at the rounding
    error 50*eps*resabs. A panel at that floor is final: bisecting it
    cannot lower its estimate.
    """
    h = 0.5 * (b - a)
    c = a + h
    xs = [c + h * t for t in _NODES]
    if xs[0] <= a or xs[-1] >= b:
        # a panel a few ulps wide: rounding put an outer node on an end
        lo, hi = math.nextafter(a, b), math.nextafter(b, a)
        xs = [min(max(x, lo), hi) for x in xs]
    nudge = (b - a) * 1e-12
    fx = [_eval(f, x, nudge) for x in xs]
    resk = sum(map(mul, _WK, fx))
    resabs = h * sum(map(mul, _WK, map(abs, fx)))
    mean = 0.5 * resk
    resasc = h * sum(map(mul, _WK, map(abs, map(sub, fx, repeat(mean)))))
    err = h * abs(sum(map(mul, _WD, fx)))
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    value = h * resk
    if not (math.isfinite(value) and math.isfinite(err)):
        return value, math.inf, False
    floor = _ROUNDOFF * resabs
    if err <= floor:
        return value, floor, True
    return value, err, False


def integrate_result(f: Callable, s, cfg: Integrator = DEFAULT_INTEGRATOR,
                     breakpoints: Sequence[float] = ()) -> IntegralResult:
    """Like integrate, but returns the value with its error bound, the
    nodes evaluated and the final partition's size and worst panel."""
    if s.is_finite:
        return IntegralResult(math.fsum(f(a) for a in s.iter_atoms()), 0.0,
                              len(s.atoms), 0, None)

    heap = []    # (-error, index, a, b, value, depth) of the splittable panels
    done = []    # (a, b, value, error) of the final panels
    capped = 0   # final panels still above their rounding floor
    # running totals steer the loop (QUADPACK's result and errsum); the
    # stop is confirmed, and the totals re-synced, with fsum over the panels
    value = bound = 0.0
    todo = [(a, b, 0) for a, b in _split_panels(s.intervals, breakpoints)]
    count = 0
    while True:
        for a, b, depth in todo:
            v, err, final = _kronrod(f, a, b)
            value += v
            bound += err
            if final or depth >= cfg.max_depth:
                done.append((a, b, v, err))
                capped += not final
            else:
                heapq.heappush(heap, (-err, count, a, b, v, depth))
            count += 1
        if not heap or not bound > max(cfg.abs_tol, cfg.rel_tol * abs(value)):
            parts = done + [(a, b, v, -e) for e, _, a, b, v, _ in heap]
            value = math.fsum(map(itemgetter(2), parts))
            bound = math.fsum(map(itemgetter(3), parts))
            met = bound <= max(cfg.abs_tol, cfg.rel_tol * abs(value))
            if met or not heap:
                break
        e, _, a, b, v, depth = heapq.heappop(heap)
        m = 0.5 * (a + b)
        if math.nextafter(a, b) < m < math.nextafter(b, a):
            value -= v
            bound += e
            todo = ((a, m, depth + 1), (m, b, depth + 1))
        else:  # a half would hold no float inside it
            done.append((a, b, v, -e))
            capped += 1
            todo = ()

    worst = max(parts, key=itemgetter(3), default=None)
    if not met and capped:
        a, b, _, err = worst
        raise ConvergenceError(
            f"quadrature did not converge: no panel can be split further "
            f"(best estimate {value!r}, error bound {bound!r}; worst panel "
            f"[{a!r}, {b!r}] with error {err!r})",
            estimate=value, error_bound=bound)
    return IntegralResult(value, bound, 15 * count, len(parts),
                          None if worst is None else worst[:2])


def integrate(f: Callable, s, cfg: Integrator = DEFAULT_INTEGRATOR,
              breakpoints: Sequence[float] = ()) -> float:
    """Integrate f over the measurable set s against the base coordinate measure.

    For a finite set this is the exact sum of f over its atoms. For an
    interval union it is global-adaptive Gauss-Kronrod, panels seeded at
    `breakpoints`, and the result meets the Integrator contract
    |I - true| <= max(rel_tol*|I|, abs_tol, rounding floor) as far as the
    error estimates are reliable. Raises ConvergenceError (carrying the
    best estimate and error bound, and naming the worst panel) when no
    panel can be split further and the bound still exceeds both the
    tolerance and the rounding floor.
    """
    return integrate_result(f, s, cfg, breakpoints).value
