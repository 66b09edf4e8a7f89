"""Spaces, measurable sets, densities and measures.

A Space is either a finite tuple of atoms or a closed real interval.
Every measure is stored as a density against the base coordinate measure
of its space (counting for finite spaces, Lebesgue for intervals), so
chained references always bottom out in one canonical chart. A weight
function phi is a Density with values in [0, +inf]; the measure it
induces has density e^-phi (weight_density, measure_of_weight).
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
    "Space", "MeasurableSet", "Density", "Measure",
    "mass", "radon_nikodym", "measure_of_weight",
    "step_density", "table_density",
]

@dataclass(frozen=True)
class Space:
    """Carrier of all sets and measures: finite atoms, or the closed
    interval between bounds."""

    atoms: tuple = ()
    bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if self.bounds is None:
            if not self.atoms:
                raise DomainError("finite space needs at least one atom")
            if len(set(self.atoms)) != len(self.atoms):
                raise DomainError("atoms must be distinct")
        else:
            if self.atoms:
                raise DomainError("interval space takes no atoms")
            lo, hi = self.bounds
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise DomainError(f"invalid interval bounds {self.bounds!r}")

    @classmethod
    def finite(cls, atoms: Iterable) -> "Space":
        return cls(atoms=tuple(atoms))

    @classmethod
    def interval(cls, lo: float, hi: float) -> "Space":
        return cls(bounds=(float(lo), float(hi)))

    @property
    def is_finite(self) -> bool:
        return self.bounds is None

    @cached_property
    def _atom_positions(self) -> dict:
        return dict(zip(self.atoms, range(len(self.atoms))))

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
            # ASCII digits only, as a NUMBER literal: int() would read
            # every Unicode digit, so "١" would name the atom 1
            if (token.isascii() and token.isdigit()
                    and int(token) in self._atom_positions):
                return int(token)
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
        positions, chosen = space._atom_positions, set()
        for a in atoms:
            try:
                chosen.add(positions[a])
            except (KeyError, TypeError):
                space.atom_position(a)  # raises the DomainError
        return cls(space, atoms=tuple(map(space.atoms.__getitem__,
                                          sorted(chosen))))

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


def sample_grid(a: float, b: float, n: int, breakpoints) -> list:
    """n+1 evenly spaced points of [a, b], then the breakpoints inside it:
    the points where a quotient or density is sampled on an interval."""
    if b - a < math.inf:
        pts = [a + (b - a) * i / n for i in range(n + 1)]
    else:  # the width overflows; half of it does not
        step = (0.5 * b - 0.5 * a) / n
        pts = [min(a + step * i + step * i, b) for i in range(n + 1)]
    pts.extend(bp for bp in breakpoints if a <= bp <= b)
    return pts


@dataclass(frozen=True)
class Density:
    """Pointwise nonnegative weight against a reference measure.

    breakpoints: points where the evaluator may be non-smooth (quadrature
    panels are seeded there). constant: set when the density is a known
    constant function, enabling exact quotient/sup arithmetic.
    piecewise_constant: the evaluator is constant on each open interval
    between consecutive breakpoints, so quadrature calls it once per
    panel instead of 15 times. A wrong True gives wrong integrals with no
    error, so only Density.const and step_density set it. It is read
    only on interval sets.

    A density built from others follows one rule, _combined: its
    breakpoints are the sorted union of its operands' (and of a
    restricting set's ends), and it is piecewise_constant only when
    every operand is. scaled, times, restricted_to, radon_nikodym,
    weight_density and entropy's integrands are built by it.
    """

    evaluator: Callable
    breakpoints: tuple = ()
    constant: float | None = None
    piecewise_constant: bool = False

    @classmethod
    def const(cls, c: float) -> "Density":
        c = float(c)
        if c < 0:
            raise DomainError(f"constant density must be nonnegative: {c!r}")
        if not math.isfinite(c):
            raise DomainError(f"constant density must be finite: {c!r}")
        return cls(lambda x, _c=c: _c, (), constant=c,
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
        return _combined(lambda x: ev(x) * factor, self)

    def times(self, other: "Density") -> "Density":
        if self.constant is not None:
            return other.scaled(self.constant)
        if other.constant is not None:
            return self.scaled(other.constant)
        f, g = self.evaluator, other.evaluator
        return _combined(lambda x: f(x) * g(x), self, other)

    def restricted_to(self, s: MeasurableSet) -> "Density":
        ev = self.evaluator
        if s.is_finite:
            members = frozenset(s.atoms)
            gated = lambda x: ev(x) if x in members else 0.0
        else:
            ivs = s.intervals
            def gated(x, _ev=ev, _ivs=ivs):
                for a, b in _ivs:
                    if a <= x <= b:
                        return _ev(x)
                return 0.0
        return _combined(gated, self, ends=s.boundary_points())


def _combined(evaluator: Callable, *operands: Density,
              ends: Sequence[float] = ()) -> Density:
    """The Density with this evaluator, built from operands: its
    breakpoints are the sorted union of theirs and of ends, and it is
    piecewise_constant only when every operand is. The one rule for every
    density computed pointwise from others (see Density)."""
    bps: set = set()
    for d in operands:
        bps.update(d.breakpoints)
    bps.update(ends)
    return Density(evaluator, tuple(sorted(bps)),
                   piecewise_constant=all(d.piecewise_constant
                                          for d in operands))


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

    return Density(ev, breakpoints=edges, piecewise_constant=True)


def table_density(space: Space, weights: Mapping) -> Density:
    """Per-atom weights for a finite space; missing atoms weigh 0."""
    if not space.is_finite:
        raise DomainError("table densities need a finite space")
    table, positions = {}, space._atom_positions
    for atom, w in weights.items():
        if atom not in positions:
            atom = space.resolve_atom(atom)
        w = float(w)
        if w < 0:
            raise DomainError(f"negative weight {w!r} for atom {atom!r}")
        if not math.isfinite(w):
            raise DomainError(f"weight {w!r} for atom {atom!r} is not finite")
        table[atom] = w
    return Density(lambda x, _t=table: _t.get(x, 0.0))


@dataclass(frozen=True)
class Measure:
    """A nonnegative density over the base coordinate measure of its space.

    A measure remembers its most recent mass and its most recent xlogx
    integral (entropy's, against some reference), one (key, value) slot
    for each: a repeat of the call with the same set and integrator, and
    for xlogx the same reference Density, returns the remembered float
    instead of integrating again. Densities are functions and quadrature
    returns bit-identical results for identical inputs, so the memo never
    changes a result. One slot per kind bounds its memory, also for a
    long-lived measure used with many sets; the key holds the reference's
    Density, not its Measure, so a measure taken as its own reference
    makes no reference cycle. Every check of a call runs before the
    lookup, so its errors and warnings are raised on a repeat too.
    """

    space: Space
    density: Density
    label: str = ""
    # kind ("mass" or "xlogx") -> (key, value), written only on success
    _memo: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)

    @classmethod
    def from_density(cls, space: Space, density: Density,
                     label: str = "") -> "Measure":
        points = (space.atoms if space.is_finite else
                  sample_grid(*space.bounds, 16, density.breakpoints))
        ev = density.evaluator
        for p in points:
            v = ev(p)
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

    def scaled(self, factor: float) -> "Measure":
        return Measure(self.space, self.density.scaled(factor), self.label)

    def restricted(self, s: MeasurableSet, label: str | None = None) -> "Measure":
        if s.space != self.space:
            raise DomainError("restriction set lives on a different space")
        return Measure(self.space, self.density.restricted_to(s),
                       self.label if label is None else label)


def mass(m: Measure, s: MeasurableSet,
         cfg: Integrator = DEFAULT_INTEGRATOR) -> float:
    """Total measure of s under m. Nonnegative; exact sums on finite spaces.
    Remembered on m (see Measure) under the key (s, cfg)."""
    if s.space != m.space:
        raise DomainError("set lives outside the measure's space")
    key = (s, cfg)
    slot = m._memo.get("mass")
    if slot is not None and slot[0] == key:
        return slot[1]
    d = m.density
    val = quadrature.integrate(d.evaluator, s, cfg, breakpoints=d.breakpoints,
                               piecewise_constant=d.piecewise_constant)
    if val < 0:
        if val < -1e-9 * (1.0 + abs(val)):
            raise DomainError(f"negative mass {val!r}: density is not nonnegative")
        val = 0.0
    m._memo["mass"] = (key, val)
    return val


def radon_nikodym(m: Measure, reference: Measure) -> Density:
    """Pointwise density of m with respect to reference.

    The quotient raises AbsoluteContinuityError at any evaluated point where
    the reference vanishes but m does not; 0/0 is taken as 0 (a null set for
    both measures). Its breakpoints and flag follow _combined.
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
    c = rd.constant
    if c is not None and c > 0:
        # a positive constant reference never vanishes, and y / 1.0 == y
        # for a float y; an atom may be an int, which y / 1.0 makes a float
        if c == 1.0 and not m.space.is_finite:
            return _combined(md.evaluator, md, rd)
        return _combined(lambda x, _m=md.evaluator: _m(x) / c, md, rd)

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

    return _combined(quot, md, rd)


def weight_density(phi: Density, reference: Measure) -> Density:
    """e^-phi (e^-inf = 0 exactly) for a weight phi, a Density with values
    in [0, +inf]: the density against reference of the measure phi
    induces. The one check of a weight's values: DomainError naming x
    where phi(x) is negative or NaN."""
    def dens(x, _p=phi.evaluator):
        v = _p(x)
        if v < 0 or math.isnan(v):
            raise DomainError(f"weight value {v!r} at {x!r} is outside [0, +inf]")
        return math.exp(-v) if v != math.inf else 0.0

    return _combined(dens, phi, reference.density)


def measure_of_weight(phi: Density, reference: Measure,
                      label: str = "") -> Measure:
    """The measure with density e^-phi against reference (e^-inf = 0 exactly)."""
    own = weight_density(phi, reference)
    return Measure(reference.space, own.times(reference.density), label)
