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
`generated_subgroup`) calls it.

On the windowed kinds `_translation_range` alone decides which
translations keep a set inside the window; `translation_samples` and
`_translation_knots` stay inside it.

A finite kind defines its law once, in bulk: `_right_products(xs, b)` is
[x*b for x in xs], and `compose_reps` is its one-element case. The group
tables are built from it whole: `_column(g)`, right multiplication by
reps[g] as element indices, is one bulk product. Symmetric labels its
reps from the permutations of its digit string, which follow the reps'
order.

Subgroups of a finite kind are closed by one routine, `_extend`, Dimino's
walk over the right cosets of H inside <H, x>, which stops with all of G
once its cosets hold more than half the group (Lagrange):
`generated_subgroup` uses it alone, and `_enumerate_subgroups` walks each
cyclic subgroup by the powers of one generator, extends by `_extend` from
there, and takes in the conjugates of each subgroup it extends,
conjugating by index through the columns and the inverse map.

A finite group object keeps what it computes: its tables, its lattice
(`FiniteGroup._lattice`, which `subgroups` copies) and its maximal chains
(`FiniteGroup._chains`, which `subgroup_chains` copies).
`group_from_descriptor` keeps one object per finite group of order up to
LATTICE_ORDER, the groups whose lattice can be enumerated, so a process
builds each of these once; a larger group is a new object on each call
and is freed with it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, permutations
from operator import itemgetter
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
# Largest order of a Cyclic or Dihedral group. A group's tables grow in
# proportion to its order: Z_{2^16}'s carrier, Haar measure and one finite
# entropy take about 11 MB, so a group at this limit takes about 180 MB.
MAX_ORDER = 2 ** 20
# Largest order whose subgroup lattice is enumerated, and so the largest
# group that group_from_descriptor keeps.
LATTICE_ORDER = 720


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

    # subclasses provide _reps() (canonical order), _right_products() and
    # label_of()

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
        return dict(zip(self.reps, range(len(self.reps))))

    @cached_property
    def _columns(self) -> dict:
        return {}

    def _column(self, g: int) -> list:
        """Right multiplication by reps[g]: entry i is the index of
        reps[i]*reps[g]. Built on first use, by one _right_products."""
        col = self._columns.get(g)
        if col is None:
            index = self._index
            col = self._columns[g] = [
                index[x] for x in self._right_products(self.reps,
                                                       self.reps[g])]
        return col

    def compose_reps(self, a, b):
        return self._right_products((a,), b)[0]

    def _right_products(self, xs, b) -> list:
        """[x*b for x in xs]: the group law, once per kind, in bulk."""
        raise NotImplementedError

    # the lattice and its maximal chains, computed on first use; callers
    # get copies from subgroups and subgroup_chains, so these never change

    @cached_property
    def _lattice(self) -> list:
        return _enumerate_subgroups(self)

    @cached_property
    def _chains(self) -> list:
        return _maximal_chains(self)


@dataclass(frozen=True)
class Cyclic(FiniteGroup):
    """Integers mod n under addition."""

    n: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_ORDER:
            raise DomainError(
                f"cyclic order must be between 1 and {MAX_ORDER}")

    @property
    def order(self) -> int:
        return self.n

    def _reps(self):
        return tuple(range(self.n))

    def identity_rep(self):
        return 0

    def _right_products(self, xs, b):
        n = self.n
        return [(a + b) % n for a in xs]

    def inverse_rep(self, a):
        return (-a) % self.n

    def describe(self) -> str:
        return f"Z{self.n}"


@dataclass(frozen=True)
class Dihedral(FiniteGroup):
    """Symmetries of the regular n-gon: reps (r, f) meaning rotation^r * flip^f."""

    n: int

    def __post_init__(self):
        if not 1 <= 2 * self.n <= MAX_ORDER:
            raise DomainError(f"dihedral index must be between 1 and "
                              f"{MAX_ORDER // 2} (order {MAX_ORDER})")

    @property
    def order(self) -> int:
        return 2 * self.n

    def _reps(self):
        return tuple((r, f) for f in (0, 1) for r in range(self.n))

    def identity_rep(self):
        return (0, 0)

    def _right_products(self, xs, b):
        n, (r2, f2) = self.n, b
        return [((r1 + (r2 if f1 == 0 else -r2)) % n, (f1 + f2) % 2)
                for r1, f1 in xs]

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

    def _right_products(self, xs, b):
        # (x*b)[i] = x[b[i]]; itemgetter of one index gives the item, not
        # a 1-tuple, so S1 wraps it
        get = itemgetter(*b)
        if len(b) == 1:
            return [(get(x),) for x in xs]
        return list(map(get, xs))

    def inverse_rep(self, a):
        out = [0] * self.n
        for i, v in enumerate(a):
            out[v] = i
        return tuple(out)

    def label_of(self, rep) -> str:
        return "".join(str(d) for d in rep)

    @cached_property
    def _rep_by_label(self) -> dict:
        # the permutations of the digit string come out in the order of
        # the reps, the permutations of range(n): no str call per digit
        return dict(zip(map("".join, permutations("012345"[:self.n])),
                        self.reps))

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
        return Density(lambda x: 1.0 / x)

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
class Subgroup:
    parent: FiniteGroup
    elements: tuple  # atom labels, in the parent's canonical order

    @property
    def order(self) -> int:
        return len(self.elements)

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
    return list(compress(range(len(mask)), mask))


def _extend(group: FiniteGroup, h: list[int], h_mask: bytes,
            gens: tuple) -> bytes:
    """Mask of <H, gens[-1]>, where H = <gens[:-1]> has element indices h
    and mask h_mask.

    <H, x> is a union of right cosets H*r, and right multiplication by the
    generators permutes these cosets transitively. So the walk starts from
    H, maps each coset through each generator's column, and keeps the image
    when its first element is not yet in the mask (cosets are disjoint).
    The walk stops as soon as its cosets hold more than half the group:
    by Lagrange the order of <H, x> divides |G|, so it is then G.
    """
    cols = [group._column(g) for g in gens]
    mask = bytearray(h_mask)
    cosets = [h]
    most = len(mask) // (2 * len(h))  # cosets that hold at most half of G
    for coset in cosets:
        for col in cols:
            if not mask[col[coset[0]]]:
                new = [col[i] for i in coset]
                for i in new:
                    mask[i] = 1
                cosets.append(new)
                if len(cosets) > most:
                    return b"\x01" * len(mask)
    return bytes(mask)


def _subgroup(group: FiniteGroup, mask: bytes) -> Subgroup:
    return Subgroup(group, tuple(compress(group.carrier.atoms, mask)))


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


def _conjugation(col: list[int], inv: list[int]) -> list[int]:
    """Conjugation by the element g whose column is col: entry i is the
    index of g^-1 * r * g for r = reps[i], read as ((r^-1 * g)^-1) * g
    through inv, where inv[i] is the index of reps[i]^-1."""
    return [col[inv[col[j]]] for j in inv]


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


def _enumerate_subgroups(group: FiniteGroup) -> list[Subgroup]:
    """All subgroups, sorted by order (trivial and full included), up to
    order LATTICE_ORDER.

    The cyclic extension method, extending one subgroup per conjugacy
    class (Neubueser 1960; Holt, Eick & O'Brien, Handbook of Computational
    Group Theory, 2005, ch. 4). Every cyclic subgroup <x> is walked once,
    by the powers of its lowest-index generator x, and its other
    generators x^k (k prime to the order of x) are then skipped; the
    prime-power-order ones form the pool, with one generator each. A
    subgroup K not seen before enters the result with its whole conjugacy
    class: the orbit of K's mask under conjugation by a generating set of
    the group, picked greedily from the pool. Only K itself is then
    extended, once by each pool generator outside it, one coset walk each.

    The search is exhaustive. Every subgroup is generated by its
    prime-power-order elements, so it is reached from one of its cyclic
    subgroups by pool extensions, provided the result is closed under
    them. It is: if H was extended, g is any element and x is in the pool,
    then <H^g, x> = <H, y>^g, where <y> = <x>^(g^-1) is a pool subgroup.
    So <H^g, x> is H^g itself (y in H) or a conjugate of the extension
    <H, y>, which entered with its class.
    """
    n = group.order
    if n > LATTICE_ORDER:
        raise DomainError(f"subgroup enumeration capped at order "
                          f"{LATTICE_ORDER}, got {n}")
    e = group._index[group.identity_rep()]
    trivial = _mask(n, [e])

    cyclic: dict[bytes, int] = {}  # <x>: its lowest-index generator x
    reps, index = group.reps, group._index
    done = bytearray(n)
    for x in range(n):
        if done[x]:
            continue
        powers, y = [e], x
        while y != e:
            powers.append(y)
            y = index[group.compose_reps(reps[y], reps[x])]
        cyclic[_mask(n, powers)] = x
        for k in range(1, len(powers)):
            if math.gcd(k, len(powers)) == 1:
                done[powers[k]] = 1
    pool = [x for key, x in cyclic.items() if _is_prime_power(sum(key))]
    inv = [index[group.inverse_rep(r)] for r in reps]
    conj = [_conjugation(group._column(g), inv)
            for g in _closure(group, pool)[1]]

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


def _maximal_chains(group: FiniteGroup) -> list[list[Subgroup]]:
    """All maximal chains of the lattice, trivial to full.

    Covers come from the membership masks read as ints (H <= K iff
    H & ~K == 0): a larger K covers H unless a cover of H found earlier
    lies inside K.
    """
    keys = sorted(group._lattice, key=lambda s: (s.order, sorted(s.elements)))
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


def _finite(group: Group) -> FiniteGroup:
    if not group.is_finite:
        raise UnsupportedOperationError(
            f"subgroup enumeration needs a finite kind, got {group.describe()}")
    return group


def subgroups(group: FiniteGroup) -> list[Subgroup]:
    """All subgroups, sorted by order (trivial and full included), for a
    finite group of order up to LATTICE_ORDER (720); a larger order
    raises DomainError.

    The group object enumerates its lattice once, on the first call (see
    `_enumerate_subgroups`); every call returns a new list of the same
    Subgroup objects, which the caller may change freely.
    """
    return list(_finite(group)._lattice)


def subgroup_chains(group: FiniteGroup) -> list[list[Subgroup]]:
    """All maximal chains of the subgroup lattice, trivial to full, each a
    list of the lattice's own Subgroup objects (those `subgroups` lists).

    The group object computes its chains once, on the first call; every
    call returns new lists.
    """
    return [list(c) for c in _finite(group)._chains]


def _translation_range(group: Group, s: MeasurableSet) -> tuple:
    """(glo, ghi) with glo <= identity <= ghi, the translations g of s on
    a windowed kind: translate_set accepts both limits, at both ends of
    the window. Rounded + and * are monotone in each operand, so it
    accepts every g between them too. A set with no ends has the identity
    alone; all its translates are equal.
    """
    e = group.identity_rep()
    ends = s.boundary_points()
    if not ends:
        return e, e
    lo, hi = group.window
    move, inverse = group.compose_reps, group.inverse_rep

    def limit(bound: float, end: float, step: float) -> float:
        # the g moving `end` onto `bound`, stepped by ulps towards `step`
        # while the moved end is outside (fl(bound - end) + end may round
        # past bound)
        g = move(bound, inverse(end))
        while (move(g, end) - bound) * step < 0:
            g = math.nextafter(g, step * math.inf)
        return g

    # a limit past the identity (fl(lo * fl(1/lo)) can be above 1) may
    # fail the other end; the identity passes both
    return (min(limit(lo, min(ends), 1.0), e),
            max(limit(hi, max(ends), -1.0), e))


def _translation_knots(group: Group, s: MeasurableSet, breakpoints) -> list:
    """Every g at which g -> m(gs) can bend, for a continuous group and
    measures whose densities are constant between `breakpoints`.

    m(gs) is then piecewise linear in g (on R*mul too: d/dg m([ga, gb])
    = b m'(gb) - a m'(ga) is constant between knots), so its max and its
    min over all translations are attained at these knots: the g putting
    an end of s on a breakpoint or on an end of the carrier (on the
    circle, an end crossing 0), and on the windowed kinds the two limits
    of _translation_range, with the knots between them.
    """
    lo, hi = group.window
    points = [lo, hi, *(p for p in breakpoints if lo < p < hi)]
    move, inverse = group.compose_reps, group.inverse_rep
    knots = {move(p, inverse(e)) for p in points for e in s.boundary_points()}
    if isinstance(group, Circle):
        return sorted(knots) or [0.0]  # every translate of {} is {}
    glo, ghi = _translation_range(group, s)
    return sorted({glo, ghi, *(g for g in knots if glo < g < ghi)})


def translation_samples(group: Group, count: int = 64,
                        for_set: MeasurableSet | None = None) -> list:
    """Deterministic sample of group elements (reps) for invariance checks.

    Finite kinds return every rep, in canonical order. The circle returns
    a golden-ratio low-discrepancy sequence over [0, 2*pi). The windowed
    kinds return that sequence over _translation_range(group, for_set)
    (log-spaced on R*mul), clamped to it, so translate_set accepts every
    sample.
    """
    if group.is_finite:
        return list(group.reps)
    u = [_GOLDEN * (i + 1) % 1.0 for i in range(count)]
    if isinstance(group, Circle):
        return [x * TWO_PI for x in u]
    if for_set is None:
        raise DomainError("windowed kinds need for_set to bound translations")
    glo, ghi = _translation_range(group, for_set)
    if isinstance(group, AdditiveReals):
        # a blend, not glo + x*(ghi - glo): the width overflows on a range
        # wider than the float range
        gs = [glo * (1.0 - x) + ghi * x for x in u]
    else:
        llo, lhi = math.log(glo), math.log(ghi)
        gs = [math.exp(llo + x * (lhi - llo)) for x in u]
    return [min(max(g, glo), ghi) for g in gs]


# dsl's NUMBER literal (ASCII digits), kept here so groups need not load dsl
_NUMBER = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"

_DESCRIPTOR_RE = re.compile(
    r"^(?:(?P<kind>[ZCDS])(?P<n>[0-9]+)|"
    rf"R\+add:\[\s*(?P<alo>-?{_NUMBER})\s*,\s*(?P<ahi>-?{_NUMBER})\s*\]|"
    rf"R\*mul:\[\s*(?P<mlo>-?{_NUMBER})\s*,\s*(?P<mhi>-?{_NUMBER})\s*\]|"
    r"(?P<circ>circle))$")
_FINITE_KINDS = {"Z": Cyclic, "C": Cyclic, "D": Dihedral, "S": Symmetric}


def group_from_descriptor(text: str) -> Group:
    """Parse CLI descriptors like "Z6", "D4", "S4", "R+add:[0,10]",
    "R*mul:[0.1,100]", "circle"; a window bound is '-'? NUMBER, as in --set.

    A finite group of order up to LATTICE_ORDER is built once per process
    and kept for its life: every spelling of it ("Z6", " Z6 ", "C06")
    returns the same object, so its tables, subgroup lattice and chains
    are computed once. A larger finite group, whose lattice cannot be
    enumerated, and the windowed kinds and the circle, which hold no
    tables, are new objects on each call.
    """
    m = _DESCRIPTOR_RE.match(text.strip())
    if not m:
        raise DomainError(f"unrecognized group descriptor {text!r}")
    if m.group("kind"):
        digits = m.group("n").lstrip("0")
        if len(digits) > len(str(MAX_ORDER)):
            raise DomainError(f"a group index of {len(digits)} digits is too "
                              f"large: orders must be between 1 and "
                              f"{MAX_ORDER}")
        return _finite_group(_FINITE_KINDS[m.group("kind")], int(digits or 0))
    if m.group("alo"):
        return AdditiveReals((float(m.group("alo")), float(m.group("ahi"))))
    if m.group("mlo"):
        return MultiplicativePositiveReals(
            (float(m.group("mlo")), float(m.group("mhi"))))
    return Circle()


# (kind, n) -> the one object of that group, for orders up to LATTICE_ORDER
_KEPT: dict = {}


def _finite_group(kind: type, n: int) -> FiniteGroup:
    group = _KEPT.get((kind, n))
    if group is None:
        group = kind(n)  # a kind that rejects n raises, and nothing is kept
        if group.order <= LATTICE_ORDER:
            _KEPT[kind, n] = group
    return group
