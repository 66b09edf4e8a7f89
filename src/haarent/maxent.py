"""Entropy maximization over discrete measures of fixed total mass.

For weights p on n atoms with reference weights nu, the objective is
S(p) = -sum_i p_i log(p_i / nu_i), maximized over the scaled simplex
{p_i >= 0, sum p_i = mass}. The maximizer is p* = mass * nu / sum(nu);
the ascent below exists to confirm that numerically from random starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StepSizeError

__all__ = ["SimplexPoint", "entropy_of_weights", "maximize_entropy",
           "concavity_probe"]

_MASS_TOL = 1e-12
_MAX_DECREASES = 10
_DECREASE_TOL = 1e-12


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


def _project_simplex(v: np.ndarray, mass: float) -> np.ndarray:
    # Euclidean projection onto {p >= 0, sum p = mass} via the sorted
    # cumulative-sum threshold.
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - mass
    idx = np.arange(1, len(v) + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[rho - 1] / rho
    p = np.maximum(v - theta, 0.0)
    # renormalize away the last-ulp drift so SimplexPoint accepts it
    return p * (mass / p.sum())


def entropy_of_weights(p, nu):
    """-sum p_i log(p_i / nu_i), with 0 log 0 = 0.

    For a 2-D batch p, one such entropy per row, as an array: each row's
    terms are the elementwise ones of a 1-D call, summed by its own fsum.
    """
    p = np.asarray(p, dtype=float)
    nu = np.asarray(nu, dtype=float)
    mask = p > 0
    terms = np.zeros_like(p)
    if p.ndim == 1:
        terms[mask] = p[mask] * np.log(p[mask] / nu[mask])
        return -math.fsum(terms.tolist())
    nus = np.broadcast_to(nu, p.shape)
    terms[mask] = p[mask] * np.log(p[mask] / nus[mask])
    return np.array([-math.fsum(row) for row in terms.tolist()])


def _validate_nu(nu_weights) -> np.ndarray:
    nu = np.asarray(tuple(nu_weights), dtype=float)
    if nu.ndim != 1 or len(nu) == 0:
        raise DomainError("reference weights must be a nonempty sequence")
    if not np.all(np.isfinite(nu)) or np.any(nu <= 0):
        raise DomainError("reference weights must be positive and finite")
    return nu


def maximize_entropy(nu_weights, mass: float = 1.0, iters: int = 500,
                     step: float = 0.1, seed: int = 0, start=None):
    """Projected gradient ascent for S(p), by default from a seeded random
    interior start (pass `start` to fix one).

    Returns (SimplexPoint, entropy). Each iteration proposes one step of
    the current trial size; a proposal that fails to improve the objective
    is rejected and the trial size halved (it regrows on success, capped
    at `step`). Ten consecutive materially-decreasing proposals raise
    StepSizeError: the step diverges. They count only from a point whose
    gradient is exact, with no weight below the floor that stands in for
    a zero one.

    `iters` is a cap. The ascent returns early once its state can no
    longer change, which it detects exactly in two ways: the state at the
    top of the loop repeats bit for bit (an accepted candidate equal to p,
    with a trial size already seen since p last moved), or the proposal
    p + trial*grad rounds to the same array at every smaller trial size
    and is rejected without a material decrease. Every later iteration
    would then replay the same steps, so the result, or the
    StepSizeError, is bit-identical to running all `iters`.
    """
    nu = _validate_nu(nu_weights)
    if mass <= 0 or not math.isfinite(mass):
        raise DomainError(f"mass must be positive: {mass!r}")
    if iters < 1:
        raise DomainError("iters must be at least 1")
    if not (step > 0 and math.isfinite(step)):
        raise DomainError(f"step must be positive and finite: {step!r}")

    if start is None:
        rng = np.random.default_rng(seed)
        w = rng.random(len(nu)) + 0.1
        p = mass * w / w.sum()
    else:
        p = np.asarray(tuple(start), dtype=float)
        if p.shape != nu.shape:
            raise DomainError("start must have one weight per reference "
                              "weight")
        SimplexPoint(tuple(p), mass)
    value = entropy_of_weights(p, nu)
    # zero weights get a finite surrogate gradient; the true one-sided
    # slope there is +inf, any ascent-pointing stand-in works
    floor = 1e-16 * mass / len(nu)
    trial = step
    decreases = 0
    # trial sizes after each acceptance since p last moved; with p fixed,
    # each names one loop-top state (p, value, trial, decreases=0)
    still = set()
    for _ in range(iters):
        grad = -(np.log(np.maximum(p, floor) / nu) + 1.0)
        proposal = p + trial * grad
        cand = _project_simplex(proposal, mass)
        cand_value = entropy_of_weights(cand, nu)
        if cand_value > value or np.array_equal(cand, p):
            if cand.tobytes() != p.tobytes():
                still.clear()
            p, value = cand, cand_value
            decreases = 0
            trial = min(step, trial * 2.0)
            if trial in still:
                break
            still.add(trial)
        else:
            if cand_value < value - _DECREASE_TOL:
                # below the floor the gradient is a finite stand-in for
                # +inf, which a step can overshoot by any factor: halving
                # then searches for a step and says nothing of divergence
                decreases += bool(p.min() >= floor)
                if decreases >= _MAX_DECREASES:
                    raise StepSizeError(
                        f"entropy decreased {decreases} consecutive "
                        f"iterations (trial step {trial!r}, best value "
                        f"{value!r}); the step size diverges")
            elif np.array_equal(proposal, p):
                # rounding is monotone, so every smaller trial rounds to
                # this same proposal and the same rejection
                break
            trial /= 2.0
    return SimplexPoint(tuple(float(x) for x in p), mass), value


def concavity_probe(nu_weights, trials: int = 1000, seed: int = 0,
                    tol: float = 1e-10) -> tuple:
    """Sample `trials` pairs (p, q) and mixing weights l, checking
    S(lp + (1-l)q) >= l S(p) + (1-l) S(q). Returns (worst chord excess,
    notes): concavity holds on the sample when the excess is <= 0, and
    the notes count the pairs whose excess is above tol. Raises
    DomainError for trials < 1.

    p and q are uniform on the simplex and l uniform on [0, 1), drawn in
    the order p, q, l for each pair: the doubles, and the stream state
    after, of rng.dirichlet(ones(n)) twice and rng.uniform() once. For an
    all-ones alpha, numpy's Generator.dirichlet draws one
    standard_gamma(1.0), which is the ziggurat standard_exponential, per
    entry, sums each row left to right and multiplies the row by 1/sum;
    uniform() with its defaults is 0.0 + 1.0 * random(). Drawing the
    exponentials and l directly, and normalizing every row at once by a
    left-to-right cumsum, repeats that arithmetic without dirichlet's
    per-call overhead."""
    nu = _validate_nu(nu_weights)
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials!r}")
    n = len(nu)
    rng = np.random.default_rng(seed)
    gams, lams = [], []
    for _ in range(trials):
        gams.append(rng.standard_exponential((2, n)))
        lams.append(rng.random())
    gam = np.array(gams)
    # rows p_t, q_t and their mixture
    batch = np.empty((trials, 3, n))
    batch[:, :2] = gam * (1.0 / np.cumsum(gam, axis=-1)[..., -1:])
    lam = np.array(lams)[:, None]
    batch[:, 2] = lam * batch[:, 0] + (1.0 - lam) * batch[:, 1]
    s_p, s_q, mixed = entropy_of_weights(
        batch.reshape(3 * trials, n), nu).reshape(trials, 3).T
    lam = lam[:, 0]
    gaps = lam * s_p + (1.0 - lam) * s_q - mixed
    violations = int(np.count_nonzero(gaps > tol))
    worst = int(np.argmax(gaps))  # the first of equal gaps
    gap = float(gaps[worst])
    return gap, (f"{trials} sampled pairs, {violations} violations; "
                 f"worst chord excess {gap!r} at pair {worst}")
