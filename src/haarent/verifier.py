"""Named, seeded checks for the entropy identities and inequalities.

Every checkable statement the library implements gets a catalog entry:
a stable claim id, a plain-language statement, a generator of random
instances, and a checker producing one VerificationReport per trial.
Reports are reproducible from (claim id, seed, trial index). Finite-group
instances are exact (finite sums), so their tolerance tightens to 1e-12.

Strict inequalities are encoded with a negative tolerance: a report with
tolerance -t passes only when slack >= t, preserving the invariant that
passed means slack >= -tolerance.
"""

from __future__ import annotations

import bisect
import math
import warnings
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .entropy import (NonUnitMassWarning, Verdict, change_reference,
                      entropic_gap, entropy_finite, entropy_prob,
                      entropy_weight, nonneg_certificate, uniform_measure)
from .errors import CatalogError, DomainError
from .groups import (AdditiveReals, Cyclic, Dihedral, FiniteGroup,
                     MultiplicativePositiveReals, haar, subgroups,
                     translate_set)
from .maxent import concavity_probe
from .measures import (Density, MeasurableSet, Measure, Space,
                       WeightFunction, mass, measure_of_weight,
                       step_density, table_density)
from .quadrature import DEFAULT_INTEGRATOR as CFG
from .report import eq_report, le_report, skip_report
from .supnorm import check_translate_bound, sup_density

__all__ = ["ClaimSpec", "ClaimSummary", "RunSummary", "catalog", "claim_ids",
           "verify", "run_examples", "run_all", "summary_to_table"]

_TOL_EXACT = 1e-12
_TOL_QUAD = 1e-8


def _trial_rng(claim_id: str, seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(
        [seed, trial, zlib.crc32(claim_id.encode("utf-8"))])


# ---------------------------------------------------------------------------
# Random instance ingredients


def _cuts(rng, lo: float, hi: float, pieces: int) -> tuple:
    interior = np.sort(rng.uniform(lo, hi, pieces - 1))
    return tuple(float(c) for c in interior)


def _step(rng, lo: float, hi: float, vmin: float, vmax: float,
          pieces: int = 5) -> Density:
    values = tuple(float(v) for v in rng.uniform(vmin, vmax, pieces))
    return step_density(_cuts(rng, lo, hi, pieces), values)


def _linear(rng, lo: float, hi: float, vmin: float, vmax: float,
            pieces: int = 4) -> Density:
    edges = (lo, *_cuts(rng, lo, hi, pieces), hi)
    values = tuple(float(v) for v in rng.uniform(vmin, vmax, pieces + 1))

    def ev(x, edges=edges, values=values):
        i = bisect.bisect_right(edges, x) - 1
        i = min(max(i, 0), len(edges) - 2)
        x0, x1 = edges[i], edges[i + 1]
        t = (x - x0) / (x1 - x0)
        return values[i] * (1.0 - t) + values[i + 1] * t

    return Density(ev, breakpoints=edges[1:-1])


def _table(rng, space: Space, vmin: float, vmax: float) -> Density:
    return table_density(space, {a: float(rng.uniform(vmin, vmax))
                                 for a in space.atoms})


def _subset(rng, space: Space) -> MeasurableSet:
    picks = [a for a in space.atoms if rng.random() < 0.5]
    if not picks:
        picks = [space.atoms[int(rng.integers(len(space.atoms)))]]
    return MeasurableSet.of_atoms(space, picks)


def _subinterval(rng, lo: float, hi: float,
                 min_width: float = 0.2) -> MeasurableSet:
    a = float(rng.uniform(lo, hi - min_width))
    b = float(rng.uniform(a + min_width, hi))
    space = Space.interval(lo, hi)
    return MeasurableSet.of_interval(space, a, b)


_FINITE_POOL = (Cyclic(8), Cyclic(12), Cyclic(16), Dihedral(3), Dihedral(4))
_SYMMETRY_POOL = (Cyclic(8), Cyclic(10), Cyclic(12), Cyclic(16), Dihedral(6))
_SUBGROUPS: dict = {}


def _subgroups_of(group: FiniteGroup):
    key = group.describe()
    if key not in _SUBGROUPS:
        _SUBGROUPS[key] = tuple(subgroups(group))
    return _SUBGROUPS[key]


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


# ---------------------------------------------------------------------------
# Claim checkers. Each takes (rng, tol, seed, trial) and returns one report.


def _check_finite_form(rng, tol, seed, trial):
    claim = "lem-finite-form"
    if trial % 2 == 0:
        space = Space.interval(0.0, 2.0)
        nu = Measure.lebesgue(space)
        mu = Measure.from_density(space, _step(rng, 0.0, 2.0, 0.05, 1.5))
    else:
        space = Cyclic(12).carrier
        nu = Measure.counting(space)
        mu = Measure.from_density(space, _table(rng, space, 0.05, 1.5))
    s = MeasurableSet.full(space)
    fin = entropy_finite(mu, nu, s, CFG)
    prob = entropy_prob(mu.scaled(1.0 / fin.mass), nu, s, CFG)
    return eq_report(claim, fin.nats, prob.nats, tol, seed, trial,
                     scope_notes=f"mass {fin.mass!r} before normalizing")


def _check_weight_form(rng, tol, seed, trial):
    claim = "lem-weight-form"
    if trial % 2 == 0:
        space = Space.interval(0.0, 1.0)
        nu = Measure.lebesgue(space)
        d = _step(rng, 0.0, 1.0, 0.0, 3.0)
    else:
        space = Cyclic(10).carrier
        nu = Measure.counting(space)
        d = _table(rng, space, 0.0, 3.0)
    phi = WeightFunction(d.evaluator, breakpoints=d.breakpoints,
                         piecewise_constant=d.piecewise_constant)
    s = MeasurableSet.full(space)
    lhs = entropy_weight(phi, nu, s, CFG)
    rhs = entropy_finite(measure_of_weight(phi, nu), nu, s, CFG)
    return eq_report(claim, lhs.nats, rhs.nats, tol, seed, trial,
                     scope_notes=f"weight mass {lhs.mass!r}")


def _check_nonnegativity(rng, tol, seed, trial):
    claim = "lem-nonnegativity"
    if trial % 2 == 0:
        space = Space.interval(0.0, 2.0)
        nu = Measure.lebesgue(space)
        m = Measure.from_density(space, _step(rng, 0.0, 2.0, 0.5, 1.0))
    else:
        space = Cyclic(12).carrier
        nu = Measure.counting(space)
        m = Measure.from_density(space, _table(rng, space, 0.5, 1.0))
    s = MeasurableSet.full(space)
    cert = nonneg_certificate(m, nu, s, CFG)
    value = entropy_finite(m, nu, s, CFG)
    return le_report(claim, 0.0, value.nats, tol, seed, trial,
                     scope_notes=(f"certificate {cert.verdict.value}, "
                                  f"mass {value.mass!r}"))


def _check_change_reference(rng, tol, seed, trial):
    claim = "lem-change-of-reference"
    if trial % 2 == 0:
        space = Space.interval(0.0, 1.0)
        nu = Measure.lebesgue(space)
        mu = Measure.from_density(space, _linear(rng, 0.0, 1.0, 0.2, 1.2))
        f = _step(rng, 0.0, 1.0, 0.05, 1.0)
    else:
        space = Cyclic(10).carrier
        nu = Measure.counting(space)
        mu = Measure.from_density(space, _table(rng, space, 0.2, 1.2))
        f = _table(rng, space, 0.05, 1.0)
    rho = Measure.over(mu, f)
    s = MeasurableSet.full(space)
    direct = entropy_finite(rho, nu, s, CFG)
    via = change_reference(rho, mu, nu, s, CFG)
    return eq_report(claim, via.nats, direct.nats, tol, seed, trial,
                     scope_notes="rebuilt through an intermediate reference")


def _check_discrete_counting(rng, tol, seed, trial):
    claim = "lem-discrete-counting"
    group = _pick(rng, _FINITE_POOL)
    space = group.carrier
    nu = Measure.counting(space)
    xi = Measure.from_density(space, _table(rng, space, 0.05, 1.0))
    a_set = _subset(rng, space)
    value = entropy_finite(xi, nu, a_set, CFG).nats
    weights = [xi.density.evaluator(a) for a in a_set.iter_atoms()]
    total = math.fsum(weights)
    shannon = -math.fsum(w / total * math.log(w / total) for w in weights)
    card = entropy_finite(nu, nu, a_set, CFG).nats
    card_resid = abs(card - math.log(len(a_set.atoms)))
    return eq_report(claim, value, shannon, tol, seed, trial,
                     scope_notes=(f"{group.describe()}, |A|={len(a_set.atoms)}; "
                                  f"cardinality case residual {card_resid!r}"))


def _check_uniform_maximizer(rng, tol, seed, trial):
    claim = "prop-uniform-maximizer"
    if trial % 2 == 0:
        space = Space.interval(0.0, 2.0)
        nu = Measure.lebesgue(space)
        s = _subinterval(rng, 0.0, 2.0)
        raw = Measure.from_density(space, _step(rng, 0.0, 2.0, 0.05, 2.0))
    else:
        space = Cyclic(16).carrier
        nu = Measure.counting(space)
        s = _subset(rng, space)
        raw = Measure.from_density(space, _table(rng, space, 0.05, 2.0))
    eta = raw.scaled(1.0 / mass(raw, s, CFG))
    value = entropy_prob(eta, nu, s, CFG).nats
    bound = math.log(mass(nu, s, CFG))
    attained = entropy_prob(uniform_measure(nu, s, CFG), nu, s, CFG).nats
    return le_report(claim, value, bound, tol, seed, trial,
                     scope_notes=(f"uniform attains the bound within "
                                  f"{abs(attained - bound)!r}"))


def _check_concavity(rng, tol, seed, trial):
    n = int(rng.integers(2, 11))
    nu = tuple(float(v) for v in rng.uniform(0.2, 2.0, n))
    return concavity_probe(nu, trials=40, seed=seed, tol=tol, trial=trial)


def _check_invariance(rng, tol, seed, trial):
    claim = "prop-invariance"
    if trial % 2 == 0:
        group = AdditiveReals((-10.0, 15.0))
        nu = haar(group)
        a = float(rng.uniform(-4.0, 4.0))
        b = a + float(rng.uniform(0.5, 6.0))
        target = math.log(b - a)
        gs = [-2.0, 0.5, 3.0, float(rng.uniform(-2.0, 3.0))]
    else:
        group = MultiplicativePositiveReals((0.01, 1000.0))
        nu = haar(group)
        a = float(rng.uniform(0.05, 3.0))
        b = a * float(rng.uniform(1.3, 12.0))
        target = math.log(math.log(b / a))
        gs = [0.5, 2.0, 10.0, float(rng.uniform(0.3, 8.0))]
    base = MeasurableSet.of_interval(group.carrier, a, b)
    worst = (-1.0, None, target)
    for g in gs:
        moved = translate_set(group, g, base)
        value = entropy_finite(nu, nu, moved, CFG).nats
        if abs(value - target) > worst[0]:
            worst = (abs(value - target), g, value)
    return eq_report(claim, worst[2], target, tol, seed, trial,
                     scope_notes=(f"{group.describe()}, A=[{a!r},{b!r}], "
                                  f"worst g={worst[1]!r} of {len(gs)} sampled"))


def _check_nested_haar(rng, tol, seed, trial):
    claim = "prop-nested-haar"
    group = _pick(rng, _FINITE_POOL)
    scale = float(rng.uniform(0.5, 2.0))
    nu = haar(group, scale)
    sub = _pick(rng, _subgroups_of(group))
    h_set = sub.as_set()
    value = entropy_finite(nu.restricted(h_set), nu, h_set, CFG).nats
    target = math.log(scale * sub.order)
    whole = math.log(scale * group.order)
    return eq_report(claim, value, target, tol, seed, trial,
                     scope_notes=(f"{group.describe()}, |H|={sub.order}, "
                                  f"log nu(H)={target!r} <= log nu(G)={whole!r}"))


def _check_supnorm_bounds(rng, tol, seed, trial):
    claim = "prop-supnorm-bounds"
    if trial % 2 == 0:
        space = Space.interval(0.0, 10.0)
        nu = Measure.lebesgue(space)
        rho = Measure.from_density(space, _step(rng, 0.0, 10.0, 0.05, 0.95))
        a_set = _subinterval(rng, 0.0, 10.0)
    else:
        space = _pick(rng, _FINITE_POOL).carrier
        nu = Measure.counting(space)
        rho = Measure.from_density(space, _table(rng, space, 0.05, 0.95))
        a_set = _subset(rng, space)
    c = sup_density(rho, nu, MeasurableSet.full(space))
    lhs = mass(rho, a_set, CFG)
    rhs = c * mass(nu, a_set, CFG)
    return le_report(claim, lhs, rhs, tol, seed, trial,
                     scope_notes=(f"c={c!r}; equivalently rho(A) <= xi(A) "
                                  f"for the dominating xi = c*nu"))


def _check_translated_bound(rng, tol, seed, trial):
    claim = "cor-translated-bound"
    if trial % 2 == 0:
        group = AdditiveReals((0.0, 10.0))
        space = group.carrier
        nu = haar(group)
        rho = Measure.from_density(space, _step(rng, 0.0, 10.0, 0.05, 0.95))
        a_set = _subinterval(rng, 0.0, 10.0, min_width=0.3)
    else:
        group = _pick(rng, _FINITE_POOL)
        space = group.carrier
        nu = haar(group)
        rho = Measure.from_density(space, _table(rng, space, 0.05, 0.95))
        a_set = _subset(rng, space)
    return check_translate_bound(rho, nu, group, a_set, count=32, tol=tol,
                                 cfg=CFG, seed=seed, trial=trial,
                                 claim_id=claim)


def _check_entropic_gap(rng, tol, seed, trial):
    claim = "thm-entropic-gap"
    if trial % 2 == 0:
        space = Space.interval(0.0, 1.0)
        mu = Measure.lebesgue(space)
        xi = Measure.over(mu, _step(rng, 0.0, 1.0, 0.1, 1.0))
        rho = Measure.over(xi, _step(rng, 0.0, 1.0, 0.05, 1.0))
    else:
        space = Cyclic(12).carrier
        mu = Measure.counting(space)
        xi = Measure.over(mu, _table(rng, space, 0.1, 1.0))
        rho = Measure.over(xi, _table(rng, space, 0.05, 1.0))
    s = MeasurableSet.full(space)
    gap = entropic_gap(rho, xi, mu, s, CFG)
    diff = entropy_finite(rho, mu, s, CFG).nats \
        - entropy_finite(rho, xi, s, CFG).nats
    return eq_report(claim, gap, diff, tol, seed, trial,
                     scope_notes=f"gap {gap!r} (nonnegative when xi <= mu)")


def _check_general_inequality(rng, tol, seed, trial):
    claim = "thm-general-inequality"
    group = _pick(rng, _FINITE_POOL)
    space = group.carrier
    mu_g = haar(group)
    xi = Measure.over(mu_g, _table(rng, space, 0.1, 1.0))
    rho = Measure.over(xi, _table(rng, space, 0.05, 1.0))
    a_set = _subset(rng, space)
    s_xi = entropy_finite(rho, xi, a_set, CFG).nats
    s_haar = entropy_finite(rho, mu_g, a_set, CFG).nats
    s_top = entropy_finite(mu_g, mu_g, a_set, CFG).nats
    lower, upper = s_haar - s_xi, s_top - s_haar
    if lower <= upper:
        lhs, rhs, which = s_xi, s_haar, "S_xi(rho,A) <= S_haar(rho,A)"
    else:
        lhs, rhs, which = s_haar, s_top, "S_haar(rho,A) <= S_haar(haar,A)"
    return le_report(claim, lhs, rhs, tol, seed, trial,
                     scope_notes=(f"{group.describe()}; binding: {which}; "
                                  f"slacks {lower!r}, {upper!r}"))


def _check_monotonicity(rng, tol, seed, trial):
    claim = "prop-monotonicity"
    group = _pick(rng, _SYMMETRY_POOL)
    space = group.carrier
    mu_g = haar(group)
    xi = Measure.from_density(space, _table(rng, space, 0.0, 1.0))
    proper = [s for s in _subgroups_of(group) if s.order < group.order]
    sub = _pick(rng, proper)
    s_h = entropy_finite(xi, mu_g, sub.as_set(), CFG).nats
    s_g = entropy_finite(xi, mu_g, MeasurableSet.full(space), CFG).nats
    return le_report(claim, s_h, s_g, tol, seed, trial,
                     scope_notes=(f"{group.describe()}, |H|={sub.order}; "
                                  f"iid uniform weights, sampled instances"))


def _check_relative_symmetry(rng, tol, seed, trial):
    claim = "thm-relative-symmetry"
    group = _pick(rng, _SYMMETRY_POOL)
    space = group.carrier
    subs = _subgroups_of(group)
    mode = trial % 3
    if mode == 0:
        sub = _pick(rng, subs)
        h_labels = sub.elements
        a_labels = sub.elements
        mode_note = "equality case A = H"
    elif mode == 1:
        pairs = [(h, a) for h in subs for a in subs
                 if h.order < a.order and a.contains(h)]
        h_sub, a_sub = _pick(rng, pairs)
        h_labels, a_labels = h_sub.elements, a_sub.elements
        mode_note = f"A a subgroup, |H|={h_sub.order}, |A|={a_sub.order}"
    else:
        proper = [s for s in subs if s.order < group.order]
        h_sub = _pick(rng, proper)
        h_labels = h_sub.elements
        rest = [a for a in space.atoms if a not in set(h_labels)]
        k = int(rng.integers(1, len(rest) + 1))
        extra = [rest[i] for i in rng.permutation(len(rest))[:k]]
        a_labels = tuple(h_labels) + tuple(extra)
        mode_note = f"A a plain superset, |H|={h_sub.order}, |A|={len(a_labels)}"
    h_set = MeasurableSet.of_atoms(space, h_labels)
    a_set = MeasurableSet.of_atoms(space, a_labels)
    xi = Measure.from_density(
        space, table_density(space, {a: float(rng.uniform(0.0, 1.0))
                                     for a in space.atoms}))
    counting = Measure.counting(space)
    if mode != 0:
        diff = a_set.difference(h_set)
        if mass(xi, diff, CFG) <= 0.0:
            return skip_report(claim, "xi vanishes on A minus H", tol, seed,
                               trial)
        cert = nonneg_certificate(xi, counting, diff, CFG)
        if cert.verdict is Verdict.MAY_BE_NEGATIVE:
            return skip_report(
                claim, "nonnegativity certificate failed on A minus H",
                tol, seed, trial)
        mode_note += f"; certificate {cert.verdict.value}"
    s_h = entropy_finite(xi, counting.restricted(h_set), h_set, CFG).nats
    s_a = entropy_finite(xi, counting.restricted(a_set), a_set, CFG).nats
    notes = f"{group.describe()}; {mode_note}; sampled instances only"
    if mode == 0:
        return eq_report(claim, s_h, s_a, tol, seed, trial, scope_notes=notes)
    return le_report(claim, s_h, s_a, -tol, seed, trial,
                     scope_notes=notes + "; strict margin as negative tolerance")


def _check_example_additive(rng, tol, seed, trial):
    claim = "ex-additive-interval"
    group = AdditiveReals((-10.0, 15.0))
    nu = haar(group)
    a = float(rng.uniform(-6.0, 6.0))
    b = a + float(rng.uniform(0.3, 6.0))
    s = MeasurableSet.of_interval(group.carrier, a, b)
    value = entropy_finite(nu, nu, s, CFG).nats
    return eq_report(claim, value, math.log(b - a), tol, seed, trial,
                     scope_notes=f"A=[{a!r},{b!r}]")


def _check_example_multiplicative(rng, tol, seed, trial):
    claim = "ex-multiplicative-interval"
    group = MultiplicativePositiveReals((0.01, 1000.0))
    nu = haar(group)
    a = float(rng.uniform(0.05, 5.0))
    b = a * float(rng.uniform(1.05, 20.0))
    s = MeasurableSet.of_interval(group.carrier, a, b)
    value = entropy_finite(nu, nu, s, CFG).nats
    return eq_report(claim, value, math.log(math.log(b / a)), tol, seed,
                     trial, scope_notes=f"A=[{a!r},{b!r}]")


def _check_example_mixed(rng, tol, seed, trial):
    claim = "ex-mixed-reference"
    space = Space.interval(0.01, 1000.0)
    nu = Measure.lebesgue(space)
    mu_h = haar(MultiplicativePositiveReals((0.01, 1000.0)))
    a = float(rng.uniform(0.05, 5.0))
    b = a * float(rng.uniform(1.05, 20.0))
    s = MeasurableSet.of_interval(space, a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonUnitMassWarning)
        value = entropy_prob(mu_h, nu, s, CFG).nats
    target = 0.5 * math.log(b / a) * math.log(a * b)
    alt = entropy_finite(mu_h, nu, s, CFG).nats
    alt_target = math.log(math.log(b / a)) + 0.5 * math.log(a * b)
    return eq_report(claim, value, target, tol, seed, trial,
                     scope_notes=(f"A=[{a!r},{b!r}]; normalized reading "
                                  f"residual {abs(alt - alt_target)!r}"))


# ---------------------------------------------------------------------------
# Catalog


@dataclass(frozen=True)
class ClaimSpec:
    """One checkable statement: id, what it says, and how it is sampled.

    `exact` says which trials run on finite carriers where sums are exact
    ("all", "odd", or "never"); those trials tighten to tolerance 1e-12.
    """

    claim_id: str
    statement: str
    checker: Callable
    default_tol: float = _TOL_QUAD
    exact: str = "odd"

    def tol_for(self, trial: int) -> float:
        if self.exact == "all" or (self.exact == "odd" and trial % 2 == 1):
            return min(self.default_tol, _TOL_EXACT)
        return self.default_tol


_CATALOG = (
    ClaimSpec("lem-finite-form",
              "the finite form equals the probability form of the "
              "normalized measure",
              _check_finite_form),
    ClaimSpec("lem-weight-form",
              "the weight form equals the finite form of the induced "
              "measure exp(-phi) d(reference)",
              _check_weight_form),
    ClaimSpec("lem-nonnegativity",
              "entropy is nonnegative for information measures of total "
              "mass at least one",
              _check_nonnegativity, default_tol=1e-10),
    ClaimSpec("lem-change-of-reference",
              "entropy against a new reference equals the old entropy "
              "minus the mean log density quotient",
              _check_change_reference),
    ClaimSpec("lem-discrete-counting",
              "with a counting reference, entropy is the Shannon entropy "
              "of the normalized weights; uniform weights give log "
              "cardinality",
              _check_discrete_counting, exact="all"),
    ClaimSpec("prop-uniform-maximizer",
              "probability measures on a set have entropy at most "
              "log reference-mass, attained by the uniform measure",
              _check_uniform_maximizer),
    ClaimSpec("maxent-concavity",
              "entropy is concave on the simplex of fixed-mass weight "
              "vectors",
              _check_concavity, default_tol=1e-10, exact="never"),
    ClaimSpec("prop-invariance",
              "entropy of an invariant measure over a translated set does "
              "not depend on the translation",
              _check_invariance, exact="never"),
    ClaimSpec("prop-nested-haar",
              "the invariant measure restricted to a subgroup has entropy "
              "log nu(H), bounded by log nu(G)",
              _check_nested_haar, exact="all"),
    ClaimSpec("prop-supnorm-bounds",
              "rho(A) <= c * nu(A) where c is the sup of the density "
              "quotient; equivalently xi = c*nu dominates rho",
              _check_supnorm_bounds),
    ClaimSpec("cor-translated-bound",
              "sup over translates of rho(gA) is at most c times the inf "
              "over translates of nu(gA)",
              _check_translated_bound),
    ClaimSpec("thm-entropic-gap",
              "the entropy difference between references equals the mean "
              "negative log quotient, nonnegative for information measures",
              _check_entropic_gap),
    ClaimSpec("thm-general-inequality",
              "S_xi(rho,A) <= S_haar(rho,A) <= S_haar(haar,A) for "
              "information measures rho <= xi <= haar",
              _check_general_inequality, exact="all"),
    ClaimSpec("prop-monotonicity",
              "entropy against the group's invariant reference does not "
              "decrease when the subgroup grows to the whole group",
              _check_monotonicity, exact="all"),
    ClaimSpec("thm-relative-symmetry",
              "entropy of xi over H against H's invariant reference is at "
              "most the entropy over A >= H against A's, equal iff A = H",
              _check_relative_symmetry, exact="all"),
    ClaimSpec("ex-additive-interval",
              "the translation-invariant measure scores log(b - a) on "
              "[a, b]",
              _check_example_additive, exact="never"),
    ClaimSpec("ex-multiplicative-interval",
              "the scale-invariant measure scores log log(b / a) on [a, b]",
              _check_example_multiplicative, exact="never"),
    ClaimSpec("ex-mixed-reference",
              "the scale-invariant measure against a flat reference scores "
              "(1/2) log(b/a) log(ab) on [a, b]",
              _check_example_mixed, exact="never"),
)

_BY_ID = {spec.claim_id: spec for spec in _CATALOG}


def catalog() -> tuple:
    """The ordered claim catalog."""
    return _CATALOG


def claim_ids() -> tuple:
    return tuple(spec.claim_id for spec in _CATALOG)


def verify(claim_id: str, trials: int = 20, seed: int = 0,
           tol: Optional[float] = None) -> list:
    """Run one claim's checker on `trials` seeded random instances.

    Each report is reproducible from (claim_id, seed, trial index). With
    tol=None the claim's default applies (1e-12 on exact finite instances).
    Raises DomainError for trials < 0.
    """
    spec = _BY_ID.get(claim_id)
    if spec is None:
        raise CatalogError(f"unknown claim id {claim_id!r}; known: "
                           f"{', '.join(claim_ids())}")
    if trials < 0:
        raise DomainError(f"trials must be >= 0, got {trials!r}")
    reports = []
    for t in range(trials):
        rng = _trial_rng(claim_id, seed, t)
        eff = tol if tol is not None else spec.tol_for(t)
        reports.append(spec.checker(rng, eff, seed, t))
    return reports


# ---------------------------------------------------------------------------
# Worked examples at pinned parameters

_EXAMPLE_PAIRS = ((1.0, math.e), (2.0, 5.0), (0.5, 8.0))


def run_examples() -> list:
    """Evaluate the three closed-form worked examples and the
    non-invariance of the mixed-reference one.

    Example 1: flat measure on [a,b] scores log(b-a). Example 2: the
    scale-invariant measure scores log log(b/a). Example 3: the
    scale-invariant measure against a flat reference scores
    (1/2) log(b/a) log(ab) and is not translation invariant.
    """
    tol = _TOL_QUAD
    reports = []

    add = AdditiveReals((-10.0, 15.0))
    leb_add = haar(add)
    for t, (a, b) in enumerate(_EXAMPLE_PAIRS):
        s = MeasurableSet.of_interval(add.carrier, a, b)
        value = entropy_finite(leb_add, leb_add, s, CFG).nats
        reports.append(eq_report(
            "ex-additive-interval", value, math.log(b - a), tol, 0, t,
            scope_notes=f"worked example, A=[{a!r},{b!r}]"))

    mul = MultiplicativePositiveReals((0.25, 20.0))
    mu_h = haar(mul)
    for t, (a, b) in enumerate(_EXAMPLE_PAIRS):
        s = MeasurableSet.of_interval(mul.carrier, a, b)
        value = entropy_finite(mu_h, mu_h, s, CFG).nats
        reports.append(eq_report(
            "ex-multiplicative-interval", value,
            math.log(math.log(b / a)), tol, 0, t,
            scope_notes=f"worked example, A=[{a!r},{b!r}]"))

    leb_mul = Measure.lebesgue(mul.carrier)
    for t, (a, b) in enumerate(_EXAMPLE_PAIRS):
        s = MeasurableSet.of_interval(mul.carrier, a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonUnitMassWarning)
            value = entropy_prob(mu_h, leb_mul, s, CFG).nats
        target = 0.5 * math.log(b / a) * math.log(a * b)
        reports.append(eq_report(
            "ex-mixed-reference", value, target, tol, 0, t,
            scope_notes=f"worked example, A=[{a!r},{b!r}]"))
    for t, (a, b) in enumerate(_EXAMPLE_PAIRS):
        s = MeasurableSet.of_interval(mul.carrier, a, b)
        value = entropy_finite(mu_h, leb_mul, s, CFG).nats
        target = math.log(math.log(b / a)) + 0.5 * math.log(a * b)
        reports.append(eq_report(
            "ex-mixed-reference", value, target, tol, 0, t + 3,
            scope_notes=(f"worked example, A=[{a!r},{b!r}]; normalized "
                         f"reading")))

    # not invariant: translating [2,5] must move the mixed-reference value
    a, b = 2.0, 5.0
    base = MeasurableSet.of_interval(mul.carrier, a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonUnitMassWarning)
        at_rest = entropy_prob(mu_h, leb_mul, base, CFG).nats
        shifted = MeasurableSet.of_interval(mul.carrier, a + 2.0, b + 2.0)
        add_moved = entropy_prob(mu_h, leb_mul, shifted, CFG).nats
        scaled = translate_set(mul, 2.0, base)
        mul_moved = entropy_prob(mu_h, leb_mul, scaled, CFG).nats
    for t, (kind, moved) in enumerate(
            (("addition of 2", add_moved), ("multiplication by 2",
                                            mul_moved))):
        reports.append(le_report(
            "ex-mixed-reference", 1e-3, abs(moved - at_rest), 0.0, 0, t + 6,
            scope_notes=(f"non-invariance under {kind} on [{a!r},{b!r}]: "
                         f"values {at_rest!r} vs {moved!r}")))
    return reports


# ---------------------------------------------------------------------------
# Full-suite aggregation


@dataclass(frozen=True)
class ClaimSummary:
    claim_id: str
    passed: int
    failed: int
    skipped: int
    worst_slack: float

    def to_dict(self) -> dict:
        return {"claim_id": self.claim_id, "passed": self.passed,
                "failed": self.failed, "skipped": self.skipped,
                "worst_slack": self.worst_slack}


@dataclass(frozen=True)
class RunSummary:
    seed: int
    trials: int
    claims: tuple
    reports: tuple

    @property
    def total_passed(self) -> int:
        return sum(c.passed for c in self.claims)

    @property
    def total_failed(self) -> int:
        return sum(c.failed for c in self.claims)

    @property
    def total_skipped(self) -> int:
        return sum(c.skipped for c in self.claims)

    @property
    def ok(self) -> bool:
        return self.total_failed == 0

    def to_dict(self) -> dict:
        return {"seed": self.seed, "trials": self.trials,
                "passed": self.total_passed, "failed": self.total_failed,
                "skipped": self.total_skipped,
                "claims": [c.to_dict() for c in self.claims]}


def _summarize(seed: int, trials: int, reports: list) -> RunSummary:
    order = []
    buckets: dict = {}
    for r in reports:
        if r.claim_id not in buckets:
            order.append(r.claim_id)
            buckets[r.claim_id] = []
        buckets[r.claim_id].append(r)
    claims = []
    for cid in order:
        group = buckets[cid]
        skipped = sum(1 for r in group if r.skipped)
        failed = sum(1 for r in group if not r.passed)
        passed = len(group) - failed - skipped
        live = [r.slack for r in group if not r.skipped]
        worst = min(live) if live else math.inf
        claims.append(ClaimSummary(cid, passed, failed, skipped, worst))
    return RunSummary(seed, trials, tuple(claims), tuple(reports))


def run_all(seed: int = 0, trials: int = 20,
            tol: Optional[float] = None) -> RunSummary:
    """Run every catalog claim plus the worked examples.

    With trials=0 everything is skipped (vacuous run, counts as success)
    and a warning is emitted; trials < 0 raises DomainError (from the first
    verify call).
    """
    if trials == 0:
        warnings.warn("trials=0: all claims skipped, nothing verified",
                      stacklevel=2)
        reports = [skip_report(spec.claim_id, "trials=0",
                               tol if tol is not None else spec.default_tol,
                               seed, 0)
                   for spec in _CATALOG]
        return _summarize(seed, trials, reports)
    reports = []
    for spec in _CATALOG:
        reports.extend(verify(spec.claim_id, trials, seed, tol))
    reports.extend(run_examples())
    return _summarize(seed, trials, reports)


def summary_to_table(summary: RunSummary) -> str:
    """Fixed-width per-claim totals plus a final verdict line."""
    head = f"{'claim':34} {'pass':>5} {'fail':>5} {'skip':>5}  worst slack"
    lines = [head, "-" * len(head)]
    for c in summary.claims:
        lines.append(f"{c.claim_id:34} {c.passed:5d} {c.failed:5d} "
                     f"{c.skipped:5d}  {c.worst_slack:.6g}")
    lines.append("-" * len(head))
    verdict = "PASS" if summary.ok else "FAIL"
    lines.append(f"{verdict}: {summary.total_passed} passed, "
                 f"{summary.total_failed} failed, "
                 f"{summary.total_skipped} skipped "
                 f"(seed {summary.seed}, trials {summary.trials})")
    return "\n".join(lines)
