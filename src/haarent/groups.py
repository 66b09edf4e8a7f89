"""Group kinds, Haar measures, translations, and subgroup enumeration.

Finite kinds (cyclic, dihedral, symmetric up to n=6) carry their own
elements as atoms of a finite space; continuous kinds live on a bounded
window of the real line (or the circle). The only measures a group hands
out are its Haar measures; everything else is built on top of them.

Every kind has the interface of Group: `carrier`, `compose_reps` (also
the action on the carrier, the one `translate_set` uses), `inverse_rep`,
`identity_rep`, `label_of`, `check_rep`, `haar_density` and `describe`.
A group element is its rep; `check_rep` is the one check that lets one
in, and every function taking elements (`translate_set`,
`generated_subgroup`, the samples of `supnorm.check_translate_bound`)
calls it.

Every subgroup of a finite kind (in `subgroups`, `subgroup_chains` and
`generated_subgroup`) comes from one closure routine, `_extend`: Dimino's
walk over the right cosets of a subgroup H inside <H, x>, or is a
conjugate of one that does (`subgroups` extends one subgroup per
conjugacy class).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from typing import Iterable

from .errors import (DomainError, UnsupportedOperationError,
                     WindowOverflowError)
# mass is unused; bench/test_bench.py asserts the tracer wraps it here too
from .measures import Density, Measure, MeasurableSet, Space, mass

__all__ = [
    "Group", "Subgroup",
    "Cyclic", "Dihedral", "Symmetric", "AdditiveReals",
    "MultiplicativePositiveReals", "Circle",
    "haar", "translate_set", "subgroups",
    "translation_samples", "group_from_descriptor",
    "subgroup_chains", "generated_subgroup",
]

TWO_PI = 2.0 * math.pi
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Group:
    """Common interface; concrete kinds are frozen dataclasses below.

    The carrier is the group itself, so compose_reps(a, x) is both the law
    and the left action of a on a carrier point x; inverse_rep and
    identity_rep complete the law. label_of names a rep (the atom, on finite
    kinds), check_rep checks one in and returns the group's own rep,
    haar_density is against the carrier's base measure, and describe gives
    what group_from_descriptor parses.
    """

    is_finite = False

    @property
    def carrier(self) -> Space:
        raise NotImplementedError

    def compose_reps(self, a, b):
        raise NotImplementedError

    def inverse_rep(self, a):
        raise NotImplementedError

    def identity_rep(self):
        raise NotImplementedError

    def label_of(self, rep) -> str:
        return str(rep)

    def check_rep(self, rep):
        raise NotImplementedError

    def haar_density(self) -> Density:
        return Density.const(1.0)

    @property
    def order(self) -> int:
        raise UnsupportedOperationError(
            f"{self.describe()} is not a finite group")

    def describe(self) -> str:
        raise NotImplementedError


class FiniteGroup(Group):
    is_finite = True

    # subclasses provide _reps() (canonical order) and label_of()

    def _reps(self) -> tuple:
        raise NotImplementedError

    @cached_property
    def reps(self) -> tuple:
        return self._reps()

    @cached_property
    def carrier(self) -> Space:
        return Space.finite(self._rep_by_label)

    @cached_property
    def _rep_by_label(self) -> dict:
        # in canonical order, which the carrier's atoms follow
        return {self.label_of(r): r for r in self.reps}

    @property
    def order(self) -> int:
        return len(self.reps)

    def check_rep(self, rep):
        """The group's own rep of `rep`, given as a label or a rep (so
        Cyclic(6).check_rep(2.0) is the int 2)."""
        try:
            return self.reps[self._index[self._rep_by_label.get(rep, rep)]]
        except (KeyError, TypeError):
            raise DomainError(f"{rep!r} is not an element of "
                              f"{self.describe()}") from None

    @cached_property
    def _index(self) -> dict:
        """Position of each rep in the canonical order."""
        return {r: i for i, r in enumerate(self.reps)}

    @cached_property
    def _columns(self) -> dict:
        return {}

    def _column(self, g: int) -> list:
        """Right multiplication by reps[g]: entry i is the index of
        reps[i]*reps[g]. Built on first use, n compositions."""
        if g not in self._columns:
            b, index = self.reps[g], self._index
            self._columns[g] = [index[self.compose_reps(a, b)]
                                for a in self.reps]
        return self._columns[g]


@dataclass(frozen=True)
class Cyclic(FiniteGroup):
    """Integers mod n under addition."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("cyclic order must be >= 1")

    def _reps(self):
        return tuple(range(self.n))

    def identity_rep(self):
        return 0

    def compose_reps(self, a, b):
        return (a + b) % self.n

    def inverse_rep(self, a):
        return (-a) % self.n

    def describe(self) -> str:
        return f"Z{self.n}"


@dataclass(frozen=True)
class Dihedral(FiniteGroup):
    """Symmetries of the regular n-gon: reps (r, f) meaning rotation^r * flip^f."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("dihedral index must be >= 1")

    def _reps(self):
        return tuple((r, f) for f in (0, 1) for r in range(self.n))

    def identity_rep(self):
        return (0, 0)

    def compose_reps(self, a, b):
        (r1, f1), (r2, f2) = a, b
        return ((r1 + (r2 if f1 == 0 else -r2)) % self.n, (f1 + f2) % 2)

    def inverse_rep(self, a):
        r, f = a
        return ((-r) % self.n, 0) if f == 0 else a

    def label_of(self, rep) -> str:
        r, f = rep
        return f"{'rs'[f]}{r}"

    def describe(self) -> str:
        return f"D{self.n}"


@dataclass(frozen=True)
class Symmetric(FiniteGroup):
    """All permutations of {0..n-1}; capped at n=6 (order 720)."""

    n: int

    def __post_init__(self):
        if not 1 <= self.n <= 6:
            raise DomainError("symmetric group supported for 1 <= n <= 6")

    def _reps(self):
        return tuple(permutations(range(self.n)))

    def identity_rep(self):
        return tuple(range(self.n))

    def compose_reps(self, a, b):
        return tuple([a[i] for i in b])

    def inverse_rep(self, a):
        out = [0] * self.n
        for i, v in enumerate(a):
            out[v] = i
        return tuple(out)

    def label_of(self, rep) -> str:
        return "".join(str(d) for d in rep)

    def describe(self) -> str:
        return f"S{self.n}"


class ContinuousGroup(Group):
    @cached_property
    def carrier(self) -> Space:
        return Space.interval(*self.window)

    def check_rep(self, rep) -> float:
        try:
            rep = float(rep)
        except (TypeError, ValueError):
            raise DomainError(f"translation amount must be a number: "
                              f"{rep!r}") from None
        if not math.isfinite(rep):
            raise DomainError(f"translation amount must be finite: {rep!r}")
        return rep


@dataclass(frozen=True)
class AdditiveReals(ContinuousGroup):
    """(R, +) restricted numerically to a bounded window."""

    window: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.window
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise DomainError(f"invalid window {self.window!r}")

    def identity_rep(self):
        return 0.0

    def compose_reps(self, a, b):
        return a + b

    def inverse_rep(self, a):
        return -a

    def describe(self) -> str:
        lo, hi = self.window
        return f"R+add:[{lo:g},{hi:g}]"


@dataclass(frozen=True)
class MultiplicativePositiveReals(ContinuousGroup):
    """(R_{>0}, *) on a strictly positive window; Haar density is 1/x."""

    window: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.window
        if not (math.isfinite(lo) and math.isfinite(hi) and 0 < lo < hi):
            raise DomainError(
                f"multiplicative window must be strictly positive: {self.window!r}")

    def identity_rep(self):
        return 1.0

    def compose_reps(self, a, b):
        return a * b

    def inverse_rep(self, a):
        return 1.0 / a

    def check_rep(self, rep) -> float:
        rep = super().check_rep(rep)
        if rep <= 0:
            raise DomainError(f"multiplicative elements must be positive: {rep!r}")
        return rep

    def haar_density(self) -> Density:
        lo = self.window[0]
        return Density(lambda x: 1.0 / x, sup=1.0 / lo)

    def describe(self) -> str:
        lo, hi = self.window
        return f"R*mul:[{lo:g},{hi:g}]"


@dataclass(frozen=True)
class Circle(ContinuousGroup):
    """Rotations of the circle, parameterized by angle in [0, 2*pi)."""

    window = (0.0, TWO_PI)

    def identity_rep(self):
        return 0.0

    def compose_reps(self, a, b):
        return (a + b) % TWO_PI

    def inverse_rep(self, a):
        return (TWO_PI - a) % TWO_PI  # (-a) % TWO_PI is TWO_PI for tiny a

    def check_rep(self, rep) -> float:
        # x % TWO_PI is TWO_PI for x in (-ulp, 0); the second % maps it to 0
        return super().check_rep(rep) % TWO_PI % TWO_PI

    def describe(self) -> str:
        return "circle"


def haar(group: Group, scale: float = 1.0) -> Measure:
    """The group's translation-invariant measure on its carrier, scaled by
    a positive factor."""
    if scale <= 0 or not math.isfinite(scale):
        raise DomainError(f"Haar scale must be positive: {scale!r}")
    dens = group.haar_density().scaled(scale)
    return Measure(group.carrier, dens, label=f"haar({group.describe()})")


def translate_set(group: Group, rep, s: MeasurableSet) -> MeasurableSet:
    """Image g*s of a carrier set under left translation by the element
    g = group.check_rep(rep): every atom or interval end x moves to
    compose_reps(g, x).

    Additive and multiplicative windows raise WindowOverflowError when the
    image escapes (recoverable: rebuild the group with a larger window);
    the circle wraps, possibly splitting one arc into two.
    """
    g = group.check_rep(rep)
    if s.space != group.carrier:
        raise DomainError("set does not live on the group's carrier")
    move = group.compose_reps
    if group.is_finite:
        return MeasurableSet.of_atoms(s.space, [
            group.label_of(move(g, group._rep_by_label[a]))
            for a in s.atoms])
    if isinstance(group, Circle):
        arcs = []
        for a, b in s.intervals:
            width = b - a
            if width >= TWO_PI:
                return MeasurableSet.full(s.space)
            a2 = move(g, a)
            b2 = a2 + width
            if b2 <= TWO_PI:
                arcs.append((a2, b2))
            else:
                arcs.append((a2, TWO_PI))
                arcs.append((0.0, b2 - TWO_PI))
        return MeasurableSet.of_intervals(s.space, arcs)
    lo, hi = group.window
    moved = []
    for a, b in s.intervals:
        a2 = move(g, a)
        b2 = move(g, b)
        if a2 < lo or b2 > hi:
            raise WindowOverflowError(
                f"translate of [{a!r}, {b!r}] by {g!r} gives "
                f"[{a2!r}, {b2!r}], escaping window [{lo!r}, {hi!r}]; "
                f"enlarge the window and retry")
        moved.append((a2, b2))
    return MeasurableSet.of_intervals(s.space, moved)


@dataclass(frozen=True)
class RestrictedGroup(FiniteGroup):
    """A subgroup presented as a group in its own right."""

    parent: FiniteGroup
    member_reps: tuple

    def _reps(self):
        return self.member_reps

    def identity_rep(self):
        return self.parent.identity_rep()

    def compose_reps(self, a, b):
        return self.parent.compose_reps(a, b)

    def inverse_rep(self, a):
        return self.parent.inverse_rep(a)

    def label_of(self, rep) -> str:
        return self.parent.label_of(rep)

    def describe(self) -> str:
        return f"{self.parent.describe()}<{self.order}>"


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    elements: tuple  # atom labels, in the parent's canonical order

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def group(self) -> RestrictedGroup:
        reps = tuple(self.parent._rep_by_label[a] for a in self.elements)
        return RestrictedGroup(self.parent, reps)

    def as_set(self) -> MeasurableSet:
        return MeasurableSet.of_atoms(self.parent.carrier, self.elements)

    def contains(self, other: "Subgroup") -> bool:
        return set(other.elements) <= set(self.elements)


def _is_prime_power(k: int) -> bool:
    if k < 2:
        return False
    p = 2
    while p * p <= k:
        if k % p == 0:
            while k % p == 0:
                k //= p
            return k == 1
        p += 1
    return True  # k itself prime


def _mask(n: int, members: Iterable[int]) -> bytes:
    """Membership mask: one 0/1 byte per element, in canonical order."""
    mask = bytearray(n)
    for i in members:
        mask[i] = 1
    return bytes(mask)


def _members(mask: bytes) -> list[int]:
    return [i for i, bit in enumerate(mask) if bit]


def _extend(group: FiniteGroup, h: list[int], h_mask: bytes,
            gens: tuple) -> bytes:
    """Mask of <H, gens[-1]>, where H = <gens[:-1]> has element indices h
    and mask h_mask.

    <H, x> is a union of right cosets H*r, and right multiplication by the
    generators permutes these cosets transitively. So the walk starts from
    H, maps each coset through each generator's column, and keeps the image
    when its first element is not yet in the mask (cosets are disjoint).
    """
    cols = [group._column(g) for g in gens]
    mask = bytearray(h_mask)
    cosets = [h]
    for coset in cosets:
        for col in cols:
            if not mask[col[coset[0]]]:
                new = [col[i] for i in coset]
                for i in new:
                    mask[i] = 1
                cosets.append(new)
    return bytes(mask)


def _subgroup(group: FiniteGroup, mask: bytes) -> Subgroup:
    atoms = group.carrier.atoms
    return Subgroup(group, tuple(atoms[i] for i in _members(mask)))


def _closure(group: FiniteGroup, xs: Iterable[int]) -> tuple[bytes, tuple]:
    """Mask of the subgroup generated by the element indices xs, and the
    generators it took: each x not yet inside costs one coset walk."""
    mask, gens = _mask(group.order, [group._index[group.identity_rep()]]), ()
    for x in xs:
        if not mask[x]:
            gens += (x,)
            mask = _extend(group, _members(mask), mask, gens)
    return mask, gens


def generated_subgroup(group: FiniteGroup, xs: Iterable) -> Subgroup:
    """Smallest subgroup containing the elements xs, labels or reps (the
    trivial subgroup when they are all the identity, or none are given).

    The elements are added one at a time, each by one coset walk.
    """
    if not group.is_finite:
        raise UnsupportedOperationError(
            f"generated subgroups need a finite kind, got {group.describe()}")
    index = group._index
    return _subgroup(group, _closure(
        group, [index[group.check_rep(x)] for x in xs])[0])


def _conjugation(group: FiniteGroup, g: int) -> list[int]:
    """Conjugation by reps[g]: entry i is the index of g^-1 * reps[i] * g."""
    ginv, index = group.inverse_rep(group.reps[g]), group._index
    col = group._column(g)
    return [col[index[group.compose_reps(ginv, r)]] for r in group.reps]


def _conjugates(mask: bytes, conj: list[list[int]]) -> set[bytes]:
    """Masks of all conjugates of a subgroup: the orbit of its mask under
    conjugation by each map in conj, which come from generators of the
    group."""
    orbit, todo = {mask}, [mask]
    for k in todo:
        members = _members(k)
        for c in conj:
            image = _mask(len(k), [c[i] for i in members])
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


def subgroups(group: FiniteGroup) -> list[Subgroup]:
    """All subgroups, sorted by order (trivial and full included).

    The cyclic extension method, extending one subgroup per conjugacy
    class (Neubueser 1960; Holt, Eick & O'Brien, Handbook of Computational
    Group Theory, 2005, ch. 4). Every cyclic subgroup <x> is one coset
    walk from the trivial subgroup; the prime-power-order ones form the
    pool, with one generator each. A subgroup K not seen before enters the
    result with its whole conjugacy class: the orbit of K's mask under
    conjugation by a generating set of the group, picked greedily from
    the pool. Only K itself is then extended, once by each pool generator
    outside it, one coset walk each.

    The search is exhaustive. Every subgroup is generated by its
    prime-power-order elements, so it is reached from one of its cyclic
    subgroups by pool extensions, provided the result is closed under
    them. It is: if H was extended, g is any element and x is in the pool,
    then <H^g, x> = <H, y>^g, where <y> = <x>^(g^-1) is a pool subgroup.
    So <H^g, x> is H^g itself (y in H) or a conjugate of the extension
    <H, y>, which entered with its class.
    """
    if not group.is_finite:
        raise UnsupportedOperationError(
            f"subgroup enumeration needs a finite kind, got {group.describe()}")
    n = group.order
    if n > 720:
        raise DomainError(f"subgroup enumeration capped at order 720, got {n}")
    e = group._index[group.identity_rep()]
    trivial = _mask(n, [e])

    cyclic: dict[bytes, int] = {}
    for x in range(n):
        cyclic.setdefault(_extend(group, [e], trivial, (x,)), x)
    pool = [x for key, x in cyclic.items() if _is_prime_power(sum(key))]
    conj = [_conjugation(group, g) for g in _closure(group, pool)[1]]

    found = {trivial}
    queue: list[tuple[bytes, tuple]] = []  # (K, its generators), one per class

    def add(k: bytes, gens: tuple) -> None:
        if k not in found:
            found.update(_conjugates(k, conj))
            queue.append((k, gens))

    for key, x in cyclic.items():
        add(key, (x,))
    for h_mask, h_gens in queue:
        h = _members(h_mask)
        for x in pool:
            if not h_mask[x]:
                add(_extend(group, h, h_mask, h_gens + (x,)), h_gens + (x,))

    subs = [_subgroup(group, key) for key in found]
    subs.sort(key=lambda s: (s.order, s.elements))
    return subs


def subgroup_chains(group: FiniteGroup) -> list[list[Subgroup]]:
    """All maximal chains of the subgroup lattice, trivial to full.

    Covers come from the membership masks read as ints (H <= K iff
    H & ~K == 0): a larger K covers H unless a cover of H found earlier
    lies inside K.
    """
    subs = subgroups(group)
    keys = sorted(subs, key=lambda s: (s.order, sorted(s.elements)))
    index = {a: i for i, a in enumerate(group.carrier.atoms)}
    bits = [int.from_bytes(_mask(group.order, (index[a] for a in s.elements)),
                           "little") for s in keys]
    covers = []
    for i, small in enumerate(bits):
        up = []
        for j in range(i + 1, len(bits)):
            big = bits[j]
            if small & ~big == 0 and all(bits[c] & ~big for c in up):
                up.append(j)
        covers.append(up)
    chains = []

    def walk(i, acc):
        if i == len(keys) - 1:
            chains.append([keys[k] for k in acc])
            return
        for j in covers[i]:
            walk(j, acc + [j])

    walk(0, [0])
    return chains


def translation_samples(group: Group, count: int = 64,
                        for_set: MeasurableSet | None = None) -> list:
    """Deterministic sample of group elements (reps) for invariance checks.

    Finite kinds return every rep, in canonical order. Continuous kinds return a golden-ratio
    low-discrepancy sequence over the window of translations that keep
    `for_set` inside the carrier window (log-spaced for the multiplicative
    kind); the circle needs no constraint.
    """
    if group.is_finite:
        return list(group.reps)
    u = [_GOLDEN * (i + 1) % 1.0 for i in range(count)]
    if isinstance(group, Circle):
        return [x * TWO_PI for x in u]
    if for_set is None or not for_set.intervals:
        raise DomainError("windowed kinds need for_set to bound translations")
    lo, hi = group.window
    mn = min(a for a, _ in for_set.intervals)
    mx = max(b for _, b in for_set.intervals)
    if isinstance(group, AdditiveReals):
        glo, ghi = lo - mn, hi - mx
        if glo > ghi:
            return []
        return [glo + x * (ghi - glo) for x in u]
    glo, ghi = lo / mn, hi / mx
    if glo > ghi:
        return []
    llo, lhi = math.log(glo), math.log(ghi)
    return [math.exp(llo + x * (lhi - llo)) for x in u]


_DESCRIPTOR_RE = re.compile(
    r"^(?:(?P<cyc>[ZC])(?P<cycn>\d+)|D(?P<dihn>\d+)|S(?P<symn>\d+)|"
    r"R\+add:\[(?P<alo>[^,\]]+),(?P<ahi>[^,\]]+)\]|"
    r"R\*mul:\[(?P<mlo>[^,\]]+),(?P<mhi>[^,\]]+)\]|"
    r"(?P<circ>circle))$")


def group_from_descriptor(text: str) -> Group:
    """Parse CLI descriptors like "Z6", "D4", "S4", "R+add:[0,10]",
    "R*mul:[0.1,100]", "circle"."""
    m = _DESCRIPTOR_RE.match(text.strip())
    if not m:
        raise DomainError(f"unrecognized group descriptor {text!r}")
    if m.group("cyc"):
        return Cyclic(int(m.group("cycn")))
    if m.group("dihn"):
        return Dihedral(int(m.group("dihn")))
    if m.group("symn"):
        return Symmetric(int(m.group("symn")))
    if m.group("alo"):
        return AdditiveReals((float(m.group("alo")), float(m.group("ahi"))))
    if m.group("mlo"):
        return MultiplicativePositiveReals(
            (float(m.group("mlo")), float(m.group("mhi"))))
    return Circle()
