"""Deterministic global-adaptive quadrature over finite interval unions.

Finite sets are summed exactly (math.fsum in atom order). Interval unions
use QUADPACK's QAG scheme (Piessens et al., *QUADPACK*, 1983): the set is
cut at the declared breakpoints, each panel gets a 7-point Gauss /
15-point Kronrod rule, and the panel with the largest error estimate is
bisected until the summed estimates meet the tolerance; when that panel
is too narrow to split, the integral fails (QUADPACK's ier = 3). Kronrod
nodes are kept strictly inside each panel (math.nextafter clamps them
where a panel is only a few ulps wide), so an integrand is never
evaluated on a seeded breakpoint or an endpoint: each panel sees one
smooth piece, and integrable endpoint singularities need no special
handling. The one exception is a seeded panel one ulp wide.
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

from .errors import ConvergenceError, DomainError, SumOverflowError

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
    When the panel to bisect next is too narrow to split (at most 2^-50 of
    the set's extent wide, or its ends within 4 eps of its midpoint, where
    QUADPACK's qage tests 100 eps), integrate raises ConvergenceError at
    once, as qage stops with ier = 3; it does so too when 2000 bisections
    of one integral (the module's cap, as QUADPACK's limit) have not met
    the tolerance.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1e-2):
            raise DomainError(f"rel_tol must be in (0, 1e-2), got {self.rel_tol!r}")
        if not (0.0 < self.abs_tol < math.inf):
            raise DomainError(f"abs_tol must be positive and finite, got {self.abs_tol!r}")


DEFAULT_INTEGRATOR = Integrator()


@dataclass(frozen=True)
class IntegralResult:
    """One integral and how it was obtained.

    error_bound is the sum of the final panels' error estimates (0 for a
    finite set), above the tolerance only when it is the rounding floor
    of the rule; evals counts integrand nodes (15 per Kronrod panel, one
    per piecewise-constant panel, one per atom); panels is the size of
    the final partition; worst_panel is the (a, b) of the panel with the
    largest estimate, None when there are no panels.
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


def _step_off(f: Callable[[float], float], x: float, nudge: float,
              v) -> float:
    """The value at node x, given f's value v there (inf or nan where f
    raised OverflowError or ZeroDivisionError): v as a float when finite,
    else f at nudge, but at least one float, off the node (off a pole)."""
    if isinstance(v, float) and math.isfinite(v):
        return v
    if not isinstance(v, float):
        v = float(v)
        if math.isfinite(v):
            return v
    for cand in (max(x + nudge, math.nextafter(x, math.inf)),
                 min(x - nudge, math.nextafter(x, -math.inf))):
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
_FIRST = _NODES[:1]   # where a piecewise-constant integrand is called
_ROUNDOFF = 50.0 * 2.0 ** -52
_NARROW = 1.0 + 4.0 * 2.0 ** -52  # qage's narrow-panel test has 100 eps
_TINY = 1000.0 * 2.0 ** -1022     # 1000 times the least normal float
# Cap on the bisections of one integral, so on the panels it adds to
# those seeded at the breakpoints (QUADPACK's limit). The largest
# partition any caller needs today has 39 panels; without a cap an
# integrand that oscillates without end near a point, such as sin(1/x)
# on [0, 1], splits forever, because the panels near the point multiply
# long before any of them is too narrow to split. 2000 bisections leave
# a margin of fifty times and cost about 60,000 nodes.
_MAX_SPLITS = 2000


def _kronrod(f, a: float, b: float,
             piecewise_constant: bool = False) -> tuple[float, float, bool]:
    """G7K15 on [a, b]: (value, error estimate, final).

    The estimate is QUADPACK's: the Kronrod-Gauss difference scaled by
    resasc (the mean absolute deviation of f), floored at the rounding
    error 50*eps*resabs. A panel at that floor is final: bisecting it
    cannot lower its estimate.

    With piecewise_constant, f is constant inside the panel: it is called
    once, at the first node, and the rule's sums are formed from that one
    value with the same float operations as on 15 equal node values, so
    the result is bit for bit the one the 15 calls would give.
    """
    h = 0.5 * b - 0.5 * a  # b - a may overflow; its half does not
    c = a + h
    xs = [c + h * t for t in (_FIRST if piecewise_constant else _NODES)]
    if xs[0] <= a or xs[-1] >= b:
        # a panel a few ulps wide: rounding put an outer node on an end
        lo, hi = math.nextafter(a, b), math.nextafter(b, a)
        xs = [min(max(x, lo), hi) for x in xs]
    nudge = h * 2e-12
    # one call of f per node, an overflow read as inf and a division by
    # zero as nan; only a value that is not a finite float goes on to
    # _step_off
    isfinite = math.isfinite
    fx = []
    for x in xs:
        try:
            v = f(x)
        except OverflowError:
            v = math.inf
        except ZeroDivisionError:
            v = math.nan
        if type(v) is not float or not isfinite(v):
            v = _step_off(f, x, nudge, v)
            if v != v:
                raise DomainError(
                    f"the integrand is nan at {x!r} on the panel "
                    f"[{a!r}, {b!r}]")
        fx.append(v)
    if piecewise_constant:
        # the sums over 15 nodes that all hold v
        resk = sum(map(mul, _WK, repeat(v, 15)))
        # w*|v| == |w*v| and a sum of negated terms is the negated sum,
        # as rounding to nearest is symmetric about 0
        resabs = h * abs(resk)
        err = h * abs(sum(map(mul, _WD, repeat(v, 15))))
        dev = abs(v - 0.5 * resk)   # |f - mean| at every node
        # resasc only scales a nonzero err, and is 0 when dev is
        resasc = (h * sum(map(mul, _WK, repeat(dev, 15)))
                  if dev != 0.0 and err != 0.0 else 0.0)
    else:
        resk = sum(map(mul, _WK, fx))
        resabs = h * sum(map(mul, _WK, map(abs, fx)))
        mean = 0.5 * resk
        resasc = h * sum(map(mul, _WK, map(abs, map(sub, fx, repeat(mean)))))
        err = h * abs(sum(map(mul, _WD, fx)))
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    value = h * resk
    if not (isfinite(value) and isfinite(err)):
        return value, math.inf, False
    floor = _ROUNDOFF * resabs
    if err <= floor:
        return value, floor, True
    return value, err, False


def integrate_result(f: Callable, s, cfg: Integrator = DEFAULT_INTEGRATOR,
                     breakpoints: Sequence[float] = (),
                     piecewise_constant: bool = False) -> IntegralResult:
    """Like integrate, but returns the value with its error bound, the
    nodes evaluated and the final partition's size and worst panel."""
    if s.is_finite:
        terms = [f(a) for a in s.atoms]
        try:
            total = math.fsum(terms)
        except (OverflowError, ValueError):  # past the range, or inf - inf
            total = math.inf
        if not math.isfinite(total):
            for atom, t in zip(s.atoms, terms):  # the first not finite
                if t != t:
                    raise DomainError(f"the summand is nan at the atom {atom!r}")
                if math.isinf(t):
                    raise SumOverflowError(
                        f"the sum over {len(terms)} atoms exceeds the float "
                        f"range: the term at the atom {atom!r} is {t!r}")
            raise SumOverflowError(
                f"the sum over {len(terms)} atoms exceeds the float range "
                f"(largest term {max(terms, key=abs)!r})")
        return IntegralResult(total, 0.0, len(terms), 0, None)

    heap = []      # (-error, index, a, b, value) of the splittable panels
    done = []      # (a, b, value, error) of the final panels
    stuck = False  # the worst panel was too narrow to split
    # running totals steer the loop (QUADPACK's result and errsum); the
    # stop is confirmed, and the totals re-synced, with fsum over the panels
    value = bound = 0.0
    todo = _split_panels(s.intervals, breakpoints)
    if todo:  # the narrowest panel worth splitting: 2^-50 of the extent
        least = math.ldexp(0.5 * todo[-1][1] - 0.5 * todo[0][0], -49)
    count = splits = 0
    while True:
        for a, b in todo:
            v, err, final = _kronrod(f, a, b, piecewise_constant)
            if math.isinf(v):
                raise SumOverflowError(
                    f"the integral exceeds the float range: {v!r} on the "
                    f"panel [{a!r}, {b!r}]")
            value += v
            bound += err
            if final:
                done.append((a, b, v, err))
            else:
                heapq.heappush(heap, (-err, count, a, b, v))
            count += 1
        stop = not heap or stuck or splits >= _MAX_SPLITS
        if stop or not bound > max(cfg.abs_tol, cfg.rel_tol * abs(value)):
            parts = done + [(a, b, v, -e) for e, _, a, b, v in heap]
            try:
                value = math.fsum(map(itemgetter(2), parts))
                bound = math.fsum(map(itemgetter(3), parts))
            except OverflowError:  # finite panels summing past the range
                value = bound = math.inf
            met = bound <= max(cfg.abs_tol, cfg.rel_tol * abs(value))
            if met or stop:
                break
        e, _, a, b, v = heapq.heappop(heap)
        m = 0.5 * a + 0.5 * b
        if b - a <= least or max(abs(a), abs(b)) <= _NARROW * (abs(m) + _TINY):
            done.append((a, b, v, -e))
            stuck = True  # too narrow to split: stop at once, as qage does
            todo = ()
        else:
            value -= v
            bound += e
            splits += 1
            todo = ((a, m), (m, b))

    worst = max(parts, key=itemgetter(3), default=None)
    if not (math.isfinite(value) and math.isfinite(bound)):
        a, b, _, err = worst
        raise SumOverflowError(
            f"the integral exceeds the float range: estimate {value!r}, "
            f"error bound {bound!r}; worst panel [{a!r}, {b!r}] with error "
            f"{err!r}")
    if not met and (stuck or heap):
        a, b, _, err = worst
        why = ("the worst panel is too narrow to split" if stuck
               else f"{_MAX_SPLITS} bisections did not suffice")
        raise ConvergenceError(
            f"quadrature did not converge: {why} (best estimate "
            f"{value!r}, error bound {bound!r}; worst panel "
            f"[{a!r}, {b!r}] with error {err!r})",
            estimate=value, error_bound=bound)
    return IntegralResult(value, bound,
                          count if piecewise_constant else 15 * count,
                          len(parts),
                          None if worst is None else worst[:2])


def integrate(f: Callable, s, cfg: Integrator = DEFAULT_INTEGRATOR,
              breakpoints: Sequence[float] = (),
              piecewise_constant: bool = False) -> float:
    """Integrate f over the measurable set s against the base coordinate measure.

    For a finite set this is the exact sum of f over its atoms. For an
    interval union it is global-adaptive Gauss-Kronrod, panels seeded at
    `breakpoints`, and the result meets the Integrator contract
    |I - true| <= max(rel_tol*|I|, abs_tol, rounding floor) as far as the
    error estimates are reliable. Raises ConvergenceError (carrying the
    best estimate and error bound, and naming the worst panel) when the
    tolerance is not met and the panel with the largest estimate is too
    narrow to split, or when the cap on bisections is reached first.
    Raises SumOverflowError when the sum or the integral is not finite,
    naming an infinite term's atom, or an infinite panel (an integrand
    that saturates to inf or raises OverflowError, say), else the worst
    panel. Raises DomainError, naming the atom, or x and the panel, when
    the integrand is nan (or raises ZeroDivisionError) at an atom, or at
    a node and beside it.

    piecewise_constant promises that f is constant on each open interval
    between consecutive breakpoints; each panel then costs one call of f
    instead of 15, and the result is bit for bit the same. A false
    promise gives a wrong integral without any error, so callers pass
    the flag of a Density, never a guess: Density.const and
    step_density set it, and a density built from others keeps it only
    when every operand has it, the one rule of measures._combined.
    """
    return integrate_result(f, s, cfg, breakpoints, piecewise_constant).value
