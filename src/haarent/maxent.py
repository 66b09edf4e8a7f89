"""Entropy maximization over discrete measures of fixed total mass.

For weights p on n atoms with reference weights nu, the objective is
S(p) = -sum_i p_i log(p_i / nu_i), maximized over the scaled simplex
{p_i >= 0, sum p_i = mass}. The maximizer is p* = mass * nu / sum(nu);
the ascent below exists to confirm that numerically from random starts.
"""

from __future__ import annotations

import math
import operator
import random
import sys
from dataclasses import dataclass

from .errors import DomainError, StepSizeError

__all__ = ["SimplexPoint", "entropy_of_weights", "maximize_entropy",
           "concavity_probe"]

_MASS_TOL = 1e-12
_NORMAL = sys.float_info.min  # the smallest normal float
_SETTLED = 2.0 ** -54  # a spread of log(p / nu) whose exps all round to 1


@dataclass(frozen=True)
class SimplexPoint:
    """Nonnegative weights summing to `mass` (within 1e-12)."""

    weights: tuple
    mass: float

    def __post_init__(self):
        if not all(w >= 0 for w in self.weights):  # NaN fails too
            raise DomainError("simplex weights must be nonnegative numbers")
        # half the sum, which stays finite for weights up to the largest
        # float, and exact for normal weights
        half = math.fsum([0.5 * w for w in self.weights])
        if abs(half - 0.5 * self.mass) > \
                0.5 * _MASS_TOL * max(1.0, abs(self.mass)):
            raise DomainError(f"weights sum to {2.0 * half!r}, expected "
                              f"mass {self.mass!r}")


def seed_int(seed) -> int:
    """seed as an int, or DomainError unless it is a non-negative
    integer (a bool counts as one). The one seed rule of the package's
    random.Random generators, here and in the verifier: random.Random
    would take abs() of a negative int and hash a float."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1
    if value < 0:
        raise DomainError(
            f"seed must be a non-negative integer, got {seed!r}")
    return value


def entropy_of_weights(p, nu) -> float:
    """-sum p_i log(p_i / nu_i), with 0 log 0 = 0. A quotient p_i / nu_i
    that is 0, subnormal or inf takes the logs apart, so each term is
    finite wherever p_i log p_i and p_i log nu_i are."""
    return -math.fsum([
        w * (math.log(r) if _NORMAL <= (r := w / v) < math.inf
             else math.log(w) - math.log(v))
        for w, v in zip(p, nu) if w > 0])


def _validate_nu(nu_weights) -> list:
    try:
        nu = [float(v) for v in nu_weights]
    except (TypeError, ValueError):
        raise DomainError("reference weights must be a sequence of "
                          "numbers") from None
    if not nu:
        raise DomainError("reference weights must be a nonempty sequence")
    if not all(0 < v < math.inf for v in nu):  # NaN fails too
        raise DomainError("reference weights must be positive and finite")
    return nu


def _scaled(weights: list, mass: float) -> list:
    scale = mass / math.fsum(weights)
    return [scale * w for w in weights]


def _maximizer(nu: list, mass: float) -> list:
    """p* = mass * nu / sum(nu). nu times a power of two that puts its
    middle binade near 1, and its largest weight in [1, 2^1000], sums to
    a finite total of at least 1, so mass / total is finite too."""
    low, high = math.frexp(min(nu))[1], math.frexp(max(nu))[1]
    shift = min(1 - (low + high) // 2, 1000 - high)
    return _scaled([math.ldexp(v, shift) for v in nu], mass)


def maximize_entropy(nu_weights, mass: float = 1.0, iters: int = 500,
                     step: float = 0.9, seed: int = 0, start=None):
    """Entropic mirror ascent for S(p) (Beck & Teboulle, Operations
    Research Letters 31, 2003), by default from a seeded random interior
    start (pass `start` to fix one).

    Returns (SimplexPoint, entropy). Each iteration takes p to
    mass * normalize(p^(1-step) * nu^step), a gradient step of size
    `step` on log p. Its state is l = log(p / nu), up to a constant,
    which the step multiplies by 1 - step; the iterate is
    mass * normalize(exp(l + log nu - max)). A step of 2 or more does not
    contract l, so it raises StepSizeError before the first iteration. A
    zero weight counts as 1e-16 * mass / n, so the ascent leaves a
    vertex too.

    `iters` is a cap. Once max l - min l < 2^-54, every exp(l_i - max l)
    rounds to 1.0, so the iterate, mass * normalize(nu * exp(l - max l)),
    is p* = mass * nu / sum(nu); the spread never grows, so every later
    iterate is p* too. The ascent returns p* there, which is what running
    all `iters` iterations returns.
    """
    nu = _validate_nu(nu_weights)
    if mass <= 0 or not math.isfinite(mass):
        raise DomainError(f"mass must be positive: {mass!r}")
    if iters < 1:
        raise DomainError("iters must be at least 1")
    if not (step > 0 and math.isfinite(step)):
        raise DomainError(f"step must be positive and finite: {step!r}")
    if step >= 2.0:
        raise StepSizeError(f"step {step!r} diverges: the ascent contracts "
                            f"only for steps below 2")
    seed = seed_int(seed)

    if start is None:
        rng = random.Random(seed)
        p = _scaled([rng.random() + 0.1 for _ in nu], mass)
    else:
        p = [float(w) for w in start]
        if len(p) != len(nu):
            raise DomainError("start must have one weight per reference "
                              "weight")
        SimplexPoint(tuple(p), mass)
    # one objective call at the start and one per iteration, by which
    # callers count the iterations
    value = entropy_of_weights(p, nu)
    log_nu = [math.log(v) for v in nu]
    # the log of the floor 1e-16 * mass / n, which may underflow itself
    log_floor = math.log(1e-16) + math.log(mass) - math.log(len(nu))
    ell = [(math.log(w) if w > 0 else log_floor) - g
           for w, g in zip(p, log_nu)]
    keep = 1.0 - step
    for _ in range(iters):
        ell = [keep * x for x in ell]
        if max(ell) - min(ell) < _SETTLED:
            p = _maximizer(nu, mass)
            return SimplexPoint(tuple(p), mass), entropy_of_weights(p, nu)
        logs = [x + g for x, g in zip(ell, log_nu)]
        top = max(logs)
        p = _scaled([math.exp(g - top) for g in logs], mass)
        value = entropy_of_weights(p, nu)
    return SimplexPoint(tuple(p), mass), value


def _simplex_point(draw, n: int) -> list:
    # n exponentials -log(1 - U), normalized: uniform on the simplex. The
    # logs are minus the exponentials, a sign that the normalization removes
    logs = [math.log(1.0 - draw()) for _ in range(n)]
    total = math.fsum(logs)
    return [g / total for g in logs]


def concavity_probe(nu_weights, trials: int = 1000, seed: int = 0,
                    tol: float = 1e-10) -> tuple:
    """Sample `trials` pairs (p, q) and mixing weights l, checking
    S(lp + (1-l)q) >= l S(p) + (1-l) S(q). Returns (worst chord excess,
    notes): concavity holds on the sample when the excess is <= 0, and
    the notes count the pairs whose excess is above tol. Raises
    DomainError for trials < 1, or a seed that is not a non-negative
    integer.

    The draws come from random.Random(seed), whose random() sequence for
    a given seed Python keeps across versions. They make a chain of
    points x_0, x_1, ..., x_trials, uniform on the simplex, each n
    exponentials -log(1 - U), normalized. Pair t is (x_t, x_t+1), and its
    l is the U drawn after x_t+1. A point serves two pairs, so its draws
    and its entropy are computed once."""
    nu = _validate_nu(nu_weights)
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials!r}")
    draw = random.Random(seed_int(seed)).random
    n = len(nu)
    p = _simplex_point(draw, n)
    s_p = entropy_of_weights(p, nu)
    worst, at, violations = -math.inf, 0, 0
    for t in range(trials):
        q = _simplex_point(draw, n)
        s_q = entropy_of_weights(q, nu)
        lam = draw()
        mixed = [lam * a + (1.0 - lam) * b for a, b in zip(p, q)]
        gap = lam * s_p + (1.0 - lam) * s_q - entropy_of_weights(mixed, nu)
        violations += gap > tol
        if gap > worst:  # the first of equal gaps
            worst, at = gap, t
        p, s_p = q, s_q
    return worst, (f"{trials} sampled pairs, {violations} violations; "
                   f"worst chord excess {worst!r} at pair {at}")
