"""Spaces, measurable sets, densities, measures, and weight functions.

A Space is either a finite tuple of atoms or a closed real interval.
Every measure is stored as a density against the base coordinate measure
of its space (counting for finite spaces, Lebesgue for intervals), so
chained references always bottom out in one canonical chart.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from . import quadrature
from .errors import AbsoluteContinuityError, DomainError
from .quadrature import DEFAULT_INTEGRATOR, Integrator

__all__ = [
    "Space", "MeasurableSet", "Density", "Measure", "WeightFunction",
    "mass", "radon_nikodym", "measure_of_weight",
    "step_density", "table_density",
]

FINITE = "finite"
INTERVAL = "interval"


@dataclass(frozen=True)
class Space:
    """Carrier of all sets and measures: finite atoms or one closed interval."""

    kind: str
    atoms: tuple = ()
    bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind == FINITE:
            if not self.atoms:
                raise DomainError("finite space needs at least one atom")
            if len(set(self.atoms)) != len(self.atoms):
                raise DomainError("atoms must be distinct")
            if self.bounds is not None:
                raise DomainError("finite space takes no bounds")
        elif self.kind == INTERVAL:
            if self.atoms:
                raise DomainError("interval space takes no atoms")
            if self.bounds is None:
                raise DomainError("interval space needs bounds")
            lo, hi = self.bounds
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise DomainError(f"invalid interval bounds {self.bounds!r}")
        else:
            raise DomainError(f"unknown space kind {self.kind!r}")

    @classmethod
    def finite(cls, atoms: Iterable) -> "Space":
        return cls(FINITE, atoms=tuple(atoms))

    @classmethod
    def interval(cls, lo: float, hi: float) -> "Space":
        return cls(INTERVAL, bounds=(float(lo), float(hi)))

    @property
    def is_finite(self) -> bool:
        return self.kind == FINITE

    @cached_property
    def _atom_positions(self) -> dict:
        return {a: i for i, a in enumerate(self.atoms)}

    def atom_position(self, atom) -> int:
        try:
            return self._atom_positions[atom]
        except (KeyError, TypeError):
            raise DomainError(f"{atom!r} is not an atom of this space") from None

    def resolve_atom(self, token):
        """Map a user-supplied token (often a string) onto an atom."""
        if not self.is_finite:
            raise DomainError("atoms exist only in finite spaces")
        if token in self._atom_positions:
            return token
        if isinstance(token, str):
            try:
                as_int = int(token)
            except ValueError:
                as_int = None
            if as_int is not None and as_int in self._atom_positions:
                return as_int
            for a in self.atoms:
                if str(a) == token:
                    return a
        raise DomainError(f"{token!r} is not an atom of this space")


def _normalize_intervals(space: Space,
                         pairs: Iterable[tuple[float, float]]) -> tuple:
    lo, hi = space.bounds
    cleaned = []
    for a, b in pairs:
        a, b = float(a), float(b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DomainError(f"non-finite interval endpoint in ({a!r}, {b!r})")
        if a > b:
            raise DomainError(f"interval ({a!r}, {b!r}) has a > b")
        if a < lo or b > hi:
            raise DomainError(
                f"interval ({a!r}, {b!r}) escapes space bounds {space.bounds!r}")
        cleaned.append((a, b))
    cleaned.sort()
    merged: list[list[float]] = []
    for a, b in cleaned:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return tuple((a, b) for a, b in merged)


@dataclass(frozen=True)
class MeasurableSet:
    """A subset of atoms, or a normalized finite union of closed subintervals."""

    space: Space
    atoms: tuple = ()
    intervals: tuple = ()

    @classmethod
    def of_atoms(cls, space: Space, atoms: Iterable) -> "MeasurableSet":
        chosen = set()
        for a in atoms:
            space.atom_position(a)  # membership check
            chosen.add(a)
        ordered = tuple(a for a in space.atoms if a in chosen)
        return cls(space, atoms=ordered)

    @classmethod
    def of_intervals(cls, space: Space,
                     pairs: Iterable[tuple[float, float]]) -> "MeasurableSet":
        if space.is_finite:
            raise DomainError("interval sets need an interval space")
        return cls(space, intervals=_normalize_intervals(space, pairs))

    @classmethod
    def of_interval(cls, space: Space, a: float, b: float) -> "MeasurableSet":
        return cls.of_intervals(space, [(a, b)])

    @classmethod
    def full(cls, space: Space) -> "MeasurableSet":
        if space.is_finite:
            return cls(space, atoms=space.atoms)
        return cls(space, intervals=(space.bounds,))

    @property
    def is_finite(self) -> bool:
        return self.space.is_finite

    @property
    def is_empty(self) -> bool:
        return not self.atoms and not self.intervals

    def iter_atoms(self):
        return iter(self.atoms)

    def contains_point(self, x) -> bool:
        if self.is_finite:
            return x in set(self.atoms)
        return any(a <= x <= b for a, b in self.intervals)

    def union(self, other: "MeasurableSet") -> "MeasurableSet":
        if self.space != other.space:
            raise DomainError("union needs sets over the same space")
        if self.is_finite:
            return MeasurableSet.of_atoms(
                self.space, set(self.atoms) | set(other.atoms))
        return MeasurableSet.of_intervals(
            self.space, list(self.intervals) + list(other.intervals))

    def difference(self, other: "MeasurableSet") -> "MeasurableSet":
        if self.space != other.space:
            raise DomainError("difference needs sets over the same space")
        if not self.is_finite:
            raise DomainError("difference implemented for finite sets only")
        drop = set(other.atoms)
        return MeasurableSet.of_atoms(
            self.space, [a for a in self.atoms if a not in drop])

    def boundary_points(self) -> tuple:
        if self.is_finite:
            return ()
        out = []
        for a, b in self.intervals:
            out.append(a)
            out.append(b)
        return tuple(out)


def merge_breakpoints(a, b) -> tuple:
    """Sorted union of two breakpoint sequences."""
    return tuple(sorted(set(a) | set(b)))


def sample_grid(a: float, b: float, n: int, breakpoints) -> list:
    """n+1 evenly spaced points of [a, b], then the breakpoints inside it:
    the points where a quotient or density is sampled on an interval."""
    pts = [a + (b - a) * i / n for i in range(n + 1)]
    pts.extend(bp for bp in breakpoints if a <= bp <= b)
    return pts


@dataclass(frozen=True)
class Density:
    """Pointwise nonnegative weight against a reference measure.

    breakpoints: points where the evaluator may be non-smooth (quadrature
    panels are seeded there). sup: analytic supremum when known, consulted
    before any grid search. constant: set when the density is a known
    constant function, enabling exact quotient/sup arithmetic.
    piecewise_constant: the evaluator is constant on each open interval
    between consecutive breakpoints, so quadrature calls it once per
    panel instead of 15 times. A wrong True gives wrong integrals with no
    error, so only Density.const and step_density set it, and the
    combinators below (scaled, times, restricted_to, radon_nikodym and
    the weight conversions) keep it only when every operand has it.
    """

    evaluator: Callable
    breakpoints: tuple = ()
    sup: float | None = None
    constant: float | None = None
    piecewise_constant: bool = False

    @classmethod
    def const(cls, c: float) -> "Density":
        c = float(c)
        if c < 0:
            raise DomainError(f"constant density must be nonnegative: {c!r}")
        if not math.isfinite(c):
            raise DomainError(f"constant density must be finite: {c!r}")
        return cls(lambda x, _c=c: _c, (), sup=c, constant=c,
                   piecewise_constant=True)

    def __call__(self, x) -> float:
        return self.evaluator(x)

    def scaled(self, factor: float) -> "Density":
        factor = float(factor)
        if factor < 0:
            raise DomainError(f"scale factor must be nonnegative: {factor!r}")
        if not math.isfinite(factor):
            raise DomainError(f"scale factor must be finite: {factor!r}")
        if factor == 1.0:
            return self  # y * 1.0 == y: no wrapper
        if self.constant is not None:
            return Density.const(self.constant * factor)
        ev = self.evaluator
        return Density(lambda x: ev(x) * factor, self.breakpoints,
                       sup=None if self.sup is None else self.sup * factor,
                       piecewise_constant=self.piecewise_constant)

    def times(self, other: "Density") -> "Density":
        if self.constant is not None:
            return other.scaled(self.constant)
        if other.constant is not None:
            return self.scaled(other.constant)
        f, g = self.evaluator, other.evaluator
        return Density(lambda x: f(x) * g(x),
                       merge_breakpoints(self.breakpoints, other.breakpoints),
                       piecewise_constant=(self.piecewise_constant
                                           and other.piecewise_constant))

    def restricted_to(self, s: MeasurableSet) -> "Density":
        ev = self.evaluator
        if s.is_finite:
            members = frozenset(s.atoms)
            return Density(lambda x: ev(x) if x in members else 0.0)
        ivs = s.intervals
        def gated(x, _ev=ev, _ivs=ivs):
            for a, b in _ivs:
                if a <= x <= b:
                    return _ev(x)
            return 0.0
        return Density(gated, merge_breakpoints(self.breakpoints,
                                                s.boundary_points()),
                       piecewise_constant=self.piecewise_constant)


def step_density(edges: Sequence[float], values: Sequence[float]) -> Density:
    """Piecewise-constant density: values[i] on (edges[i-1], edges[i])."""
    edges = tuple(float(e) for e in edges)
    values = tuple(float(v) for v in values)
    if len(values) != len(edges) + 1:
        raise DomainError("need exactly one more value than edges")
    if any(v < 0 for v in values):
        raise DomainError("density values must be nonnegative")
    if not all(map(math.isfinite, values)):
        raise DomainError(f"density values must be finite: {values!r}")
    if list(edges) != sorted(edges):
        raise DomainError("edges must be sorted")

    def ev(x, _e=edges, _v=values):
        return _v[bisect_right(_e, x)]

    return Density(ev, breakpoints=edges, sup=max(values),
                   piecewise_constant=True)


def table_density(space: Space, weights: Mapping) -> Density:
    """Per-atom weights for a finite space; missing atoms weigh 0."""
    if not space.is_finite:
        raise DomainError("table densities need a finite space")
    table = {}
    for atom, w in weights.items():
        atom = space.resolve_atom(atom)
        w = float(w)
        if w < 0:
            raise DomainError(f"negative weight {w!r} for atom {atom!r}")
        if not math.isfinite(w):
            raise DomainError(f"weight {w!r} for atom {atom!r} is not finite")
        table[atom] = w
    sup = max(table.values(), default=0.0)
    return Density(lambda x, _t=table: _t.get(x, 0.0), sup=sup)


@dataclass(frozen=True)
class Measure:
    """A nonnegative density over the base coordinate measure of its space."""

    space: Space
    density: Density
    label: str = ""

    @classmethod
    def from_density(cls, space: Space, density: Density,
                     label: str = "") -> "Measure":
        points = (space.atoms if space.is_finite else
                  sample_grid(*space.bounds, 16, density.breakpoints))
        for p in points:
            v = density(p)
            if v < 0 or math.isnan(v):
                raise DomainError(
                    f"density of {label or 'measure'} is {v!r} at {p!r}")
        return cls(space, density, label)

    @classmethod
    def lebesgue(cls, space: Space, label: str = "lebesgue") -> "Measure":
        if space.is_finite:
            raise DomainError("Lebesgue base needs an interval space")
        return cls(space, Density.const(1.0), label)

    @classmethod
    def counting(cls, space: Space, label: str = "counting") -> "Measure":
        if not space.is_finite:
            raise DomainError("counting base needs a finite space")
        return cls(space, Density.const(1.0), label)

    @classmethod
    def over(cls, reference: "Measure", density: Density,
             label: str = "") -> "Measure":
        """Measure given by a density with respect to another measure."""
        return cls.from_density(reference.space,
                                density.times(reference.density), label)

    def scaled(self, factor: float, label: str | None = None) -> "Measure":
        return Measure(self.space, self.density.scaled(factor),
                       self.label if label is None else label)

    def restricted(self, s: MeasurableSet, label: str | None = None) -> "Measure":
        if s.space != self.space:
            raise DomainError("restriction set lives on a different space")
        return Measure(self.space, self.density.restricted_to(s),
                       self.label if label is None else label)


@dataclass(frozen=True)
class WeightFunction:
    """Pointwise weight in [0, +inf]; the measure it induces has density e^-phi.

    piecewise_constant has the meaning and the promise it has on Density;
    WeightFunction.const sets it.
    """

    evaluator: Callable
    breakpoints: tuple = ()
    piecewise_constant: bool = False

    def __call__(self, x) -> float:
        return self.evaluator(x)

    @classmethod
    def const(cls, a: float) -> "WeightFunction":
        a = float(a)
        if a < 0 or math.isnan(a):
            raise DomainError(f"weight values must be in [0, +inf]: {a!r}")
        return cls(lambda x, _a=a: _a, piecewise_constant=True)


def mass(m: Measure, s: MeasurableSet,
         cfg: Integrator = DEFAULT_INTEGRATOR) -> float:
    """Total measure of s under m. Nonnegative; exact sums on finite spaces."""
    if s.space != m.space:
        raise DomainError("set lives outside the measure's space")
    d = m.density
    val = quadrature.integrate(d.evaluator, s, cfg, breakpoints=d.breakpoints,
                               piecewise_constant=d.piecewise_constant)
    if val < 0:
        if val < -1e-9 * (1.0 + abs(val)):
            raise DomainError(f"negative mass {val!r}: density is not nonnegative")
        return 0.0
    return val


def radon_nikodym(m: Measure, reference: Measure) -> Density:
    """Pointwise density of m with respect to reference.

    The quotient raises AbsoluteContinuityError at any evaluated point where
    the reference vanishes but m does not; 0/0 is taken as 0 (a null set for
    both measures). Breakpoints are merged from both operands.
    """
    if m.space != reference.space:
        raise DomainError("measures live on different spaces")
    md, rd = m.density, reference.density
    if md.constant is not None and rd.constant is not None:
        if rd.constant == 0.0:
            if md.constant == 0.0:
                return Density.const(0.0)
            raise AbsoluteContinuityError(
                "reference is the zero measure but the numerator is not")
        return Density.const(md.constant / rd.constant)
    bps = merge_breakpoints(md.breakpoints, rd.breakpoints)
    c = rd.constant
    if c is not None and c > 0:
        # a positive constant reference never vanishes, and y / 1.0 == y
        # for a float y; an atom may be an int, which y / 1.0 makes a float
        sup = None if md.sup is None else md.sup / c
        flat = md.piecewise_constant
        if c == 1.0 and not m.space.is_finite:
            return Density(md.evaluator, bps, sup=sup, piecewise_constant=flat)
        return Density(lambda x, _m=md.evaluator: _m(x) / c, bps, sup=sup,
                       piecewise_constant=flat)

    def quot(x, _m=md.evaluator, _r=rd.evaluator):
        den = _r(x)
        num = _m(x)
        if den == 0.0:
            if num == 0.0:
                return 0.0
            raise AbsoluteContinuityError(
                f"reference density vanishes at {x!r} where the measure "
                f"has density {num!r}")
        return num / den

    return Density(quot, bps, piecewise_constant=(md.piecewise_constant
                                                  and rd.piecewise_constant))


def measure_of_weight(phi: WeightFunction, reference: Measure,
                      label: str = "") -> Measure:
    """The measure with density e^-phi against reference (e^-inf = 0 exactly)."""
    def dens(x, _p=phi.evaluator):
        v = _p(x)
        if v < 0 or math.isnan(v):
            raise DomainError(f"weight value {v!r} at {x!r} is outside [0, +inf]")
        return math.exp(-v) if v != math.inf else 0.0

    bps = merge_breakpoints(phi.breakpoints, reference.density.breakpoints)
    own = Density(dens, bps, piecewise_constant=phi.piecewise_constant)
    return Measure(reference.space, own.times(reference.density), label)
