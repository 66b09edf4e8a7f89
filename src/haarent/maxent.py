"""Entropy maximization over discrete measures of fixed total mass.

For weights p on n atoms with reference weights nu, the objective is
S(p) = -sum_i p_i log(p_i / nu_i), maximized over the scaled simplex
{p_i >= 0, sum p_i = mass}. The maximizer is p* = mass * nu / sum(nu);
the ascent below exists to confirm that numerically from random starts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ._pcg64 import seed_int
from .errors import DomainError, StepSizeError

__all__ = ["SimplexPoint", "entropy_of_weights", "maximize_entropy",
           "concavity_probe"]

_MASS_TOL = 1e-12
_TINY = 2.0 ** -1022  # the smallest normal float
_CYCLE = 8  # the longest cycle of iterates that the early stop finds


@dataclass(frozen=True)
class SimplexPoint:
    """Nonnegative weights summing to `mass` (within 1e-12)."""

    weights: tuple
    mass: float

    def __post_init__(self):
        if not all(w >= 0 for w in self.weights):  # NaN fails too
            raise DomainError("simplex weights must be nonnegative numbers")
        total = math.fsum(self.weights)
        if abs(total - self.mass) > _MASS_TOL * max(1.0, abs(self.mass)):
            raise DomainError(
                f"weights sum to {total!r}, expected mass {self.mass!r}")


def entropy_of_weights(p, nu) -> float:
    """-sum p_i log(p_i / nu_i), with 0 log 0 = 0."""
    return -math.fsum([w * math.log(w / v) for w, v in zip(p, nu) if w > 0])


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


def _powers(p: list, nu: list, scaled_nu, keep: float,
            floor: float) -> list:
    """p^keep * nu^(1 - keep) up to a common factor, a zero weight at
    `floor`. scaled_nu is nu times a power of two, or None."""
    if scaled_nu is not None:
        # nu * (p / nu)^keep, each ratio over the extreme one: at p* the
        # ratios are equal, so near it the powers are near 1 and round least
        ratios = [(w if w > 0 else floor) / v for w, v in zip(p, scaled_nu)]
        low, high = min(ratios), max(ratios)
        if low >= _TINY * max(high, 1.0):
            top = high if keep >= 0 else low
            return [v * (r / top) ** keep for v, r in zip(scaled_nu, ratios)]
    # ratios whose quotients could round to 0 or inf: logs, less the top
    logs = [keep * math.log(w if w > 0 else floor) + (1.0 - keep)
            * math.log(v) for w, v in zip(p, nu)]
    top = max(logs)
    return [math.exp(g - top) for g in logs]


def maximize_entropy(nu_weights, mass: float = 1.0, iters: int = 500,
                     step: float = 0.9, seed: int = 0, start=None):
    """Entropic mirror ascent for S(p) (Beck & Teboulle, Operations
    Research Letters 31, 2003), by default from a seeded random interior
    start (pass `start` to fix one).

    Returns (SimplexPoint, entropy). Each iteration takes p to
    mass * normalize(p^(1-step) * nu^step), a gradient step of size
    `step` on log p. log(p / p*) shrinks by the factor |1 - step| per
    iteration, up to a constant, so a step of 2 or more raises
    StepSizeError before the first iteration. A zero weight counts as
    1e-16 * mass / n, so the ascent leaves a vertex too.

    `iters` is a cap. Each iterate is a function of the one before, so
    once p equals one of its last eight iterates the ascent has reached a
    cycle (a fixed point is a cycle of one), and it stops. It returns the
    iterate of the cycle that the cap reaches, so the result is bit for
    bit that of running all `iters` iterations. A run that enters no
    such cycle goes on to the cap.
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
    value = entropy_of_weights(p, nu)
    # nu times a power of two that brings it near 1 leaves every iterate
    # as it is, bit for bit, and keeps the sum of the powers finite; a nu
    # too wide for that takes the logs in every iteration
    low, high = math.frexp(min(nu))[1], math.frexp(max(nu))[1]
    scaled_nu = ([math.ldexp(v, -((low + high) // 2)) for v in nu]
                 if high - low < 2000 else None)
    keep = 1.0 - step
    floor = 1e-16 * mass / len(nu)
    history = []  # (p, value) of the last _CYCLE iterates, oldest first
    for done in range(1, iters + 1):
        history = [*history[1 - _CYCLE:], (p, value)]
        p = _scaled(_powers(p, nu, scaled_nu, keep, floor), mass)
        value = entropy_of_weights(p, nu)
        for back in range(1, len(history) + 1):
            if p == history[-back][0]:  # a cycle of `back` iterates
                p, value = history[(iters - done) % back - back]
                return SimplexPoint(tuple(p), mass), value
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
