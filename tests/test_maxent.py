import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarent import maxent
from haarent.errors import DomainError, StepSizeError
from haarent.maxent import (SimplexPoint, concavity_probe, entropy_of_weights,
                            maximize_entropy)


def full_run_maximize(nu_weights, mass=1.0, iters=500, step=0.1, seed=0,
                      start=None):
    """maximize_entropy without the early stop: every call runs all
    `iters` iterations. The reference for the stop's exactness."""
    nu = np.asarray(tuple(nu_weights), dtype=float)
    if start is None:
        rng = np.random.default_rng(seed)
        w = rng.random(len(nu)) + 0.1
        p = mass * w / w.sum()
    else:
        p = np.asarray(tuple(start), dtype=float)
    value = entropy_of_weights(p, nu)
    floor = 1e-16 * mass / len(nu)
    trial = step
    decreases = 0
    for _ in range(iters):
        grad = -(np.log(np.maximum(p, floor) / nu) + 1.0)
        cand = maxent._project_simplex(p + trial * grad, mass)
        cand_value = entropy_of_weights(cand, nu)
        if cand_value > value or np.array_equal(cand, p):
            p, value = cand, cand_value
            decreases = 0
            trial = min(step, trial * 2.0)
        else:
            if cand_value < value - maxent._DECREASE_TOL:
                decreases += bool(p.min() >= floor)
                if decreases >= maxent._MAX_DECREASES:
                    raise StepSizeError(
                        f"entropy decreased {decreases} consecutive "
                        f"iterations (trial step {trial!r}, best value "
                        f"{value!r}); the step size diverges")
            trial /= 2.0
    return SimplexPoint(tuple(float(x) for x in p), mass), value


def outcome_bits(solver, *args, **kwargs):
    """Weights and value as raw bytes, or the error type and message."""
    try:
        point, value = solver(*args, **kwargs)
    except StepSizeError as exc:
        return ("StepSizeError", str(exc))
    return (np.array(point.weights).tobytes(), point.mass,
            np.float64(value).tobytes())


class TestSimplexPoint:
    def test_accepts_exact_simplex(self):
        p = SimplexPoint((0.25, 0.75), 1.0)
        assert p.weights == (0.25, 0.75)

    def test_rejects_negative_weight(self):
        with pytest.raises(DomainError):
            SimplexPoint((-0.1, 1.1), 1.0)

    def test_rejects_wrong_total(self):
        with pytest.raises(DomainError):
            SimplexPoint((0.25, 0.25), 1.0)

    def test_scaled_mass(self):
        SimplexPoint((2.0, 3.0), 5.0)

    def test_rejects_nan_weight(self):
        with pytest.raises(DomainError):
            SimplexPoint((math.nan, 1.0), 1.0)


class TestEntropyOfWeights:
    def test_uniform_attains_log_n(self):
        assert entropy_of_weights([0.25] * 4, [1.0] * 4) == pytest.approx(
            math.log(4.0), abs=1e-15)

    def test_point_mass_is_zero_against_unit_reference(self):
        assert entropy_of_weights([1.0, 0.0, 0.0], [1.0] * 3) == 0.0

    def test_zero_weights_contribute_nothing(self):
        a = entropy_of_weights([0.5, 0.5, 0.0], [1.0] * 3)
        b = entropy_of_weights([0.5, 0.5], [1.0] * 2)
        assert a == pytest.approx(b, abs=1e-15)

    def test_reference_weights_shift_maximizer(self):
        nu = [1.0, 2.0, 3.0]
        best = entropy_of_weights([1.0 / 6.0, 2.0 / 6.0, 3.0 / 6.0], nu)
        assert best == pytest.approx(math.log(6.0), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_bounded_by_log_reference_total(self, key):
        rng = np.random.default_rng([3, key])
        n = int(rng.integers(2, 8))
        nu = rng.uniform(0.1, 3.0, n)
        p = rng.dirichlet(np.ones(n))
        assert entropy_of_weights(p, nu) <= math.log(nu.sum()) + 1e-10


class TestMaximizeEntropy:
    def test_uniform_reference_maximizer(self):
        point, value = maximize_entropy([1.0] * 4, iters=800)
        assert value == pytest.approx(math.log(4.0), abs=1e-8)
        for w in point.weights:
            assert w == pytest.approx(0.25, abs=1e-6)

    def test_weighted_reference_maximizer(self):
        nu = [1.0, 2.0, 3.0]
        point, value = maximize_entropy(nu, iters=1500)
        assert value == pytest.approx(math.log(6.0), abs=1e-9)
        for w, want in zip(point.weights, (1.0 / 6, 2.0 / 6, 3.0 / 6)):
            assert w == pytest.approx(want, abs=1e-5)

    def test_scaled_mass_maximizer(self):
        nu = [1.0, 1.0]
        point, value = maximize_entropy(nu, mass=3.0, iters=1200)
        assert point.mass == 3.0
        # p* = mass*nu/sum(nu); S(p*) = mass*log(sum/mass)
        assert value == pytest.approx(3.0 * math.log(2.0 / 3.0), abs=1e-7)
        for w in point.weights:
            assert w == pytest.approx(1.5, abs=1e-5)

    def test_vertex_start_escapes_to_interior(self):
        point, value = maximize_entropy([1.0, 1.0], iters=800,
                                        start=(1.0, 0.0))
        assert value == pytest.approx(math.log(2.0), abs=1e-8)
        for w in point.weights:
            assert w == pytest.approx(0.5, abs=1e-6)

    def test_random_starts_agree(self):
        nu = [0.5, 1.5, 2.0, 1.0]
        values = [maximize_entropy(nu, iters=1500, seed=s)[1]
                  for s in range(5)]
        want = math.log(sum(nu))
        for v in values:
            assert v == pytest.approx(want, abs=1e-8)

    def test_deterministic_for_fixed_seed(self):
        a = maximize_entropy([1.0, 2.0], iters=200, seed=7)
        b = maximize_entropy([1.0, 2.0], iters=200, seed=7)
        assert a[0].weights == b[0].weights
        assert a[1] == b[1]

    def test_ascent_never_decreases_value(self):
        nu = [1.0, 3.0, 0.5]
        _, short = maximize_entropy(nu, iters=50, seed=2)
        _, long = maximize_entropy(nu, iters=500, seed=2)
        assert long >= short - 1e-12

    def test_zero_weight_does_not_raise(self):
        # the ascent reaches a zero weight, whose stand-in gradient
        # overshoots at every trial size down to about 1e-5
        nu = np.random.default_rng([11, 512]).uniform(0.1, 5.0, 512)
        for step in (0.05, 0.1, 0.2):
            point, value = maximize_entropy(nu, mass=1.5, iters=1500,
                                            step=step, seed=512)
            best = 1.5 * nu / nu.sum()
            assert np.max(np.abs(np.array(point.weights) - best)) < 1e-6
            assert value == pytest.approx(
                entropy_of_weights(best, nu), abs=1e-6)

    def test_huge_step_raises(self):
        with pytest.raises(StepSizeError):
            maximize_entropy([1.0, 2.0, 3.0], iters=200, step=1e8)

    def test_stops_early_once_state_is_fixed(self, monkeypatch):
        evals = []

        def counted(p, nu):
            evals.append(1)
            return entropy_of_weights(p, nu)

        monkeypatch.setattr(maxent, "entropy_of_weights", counted)
        maximize_entropy([1.0, 2.0, 3.0], iters=1500, step=0.2)
        # one evaluation at the start, then one per iteration
        assert len(evals) - 1 < 300

    def test_validation(self):
        with pytest.raises(DomainError):
            maximize_entropy([])
        with pytest.raises(DomainError):
            maximize_entropy([1.0, -1.0])
        with pytest.raises(DomainError):
            maximize_entropy([1.0, math.inf])
        with pytest.raises(DomainError):
            maximize_entropy([1.0, 2.0], mass=0.0)
        with pytest.raises(DomainError):
            maximize_entropy([1.0, 2.0], iters=0)
        with pytest.raises(DomainError):
            maximize_entropy([1.0, 2.0], step=-0.5)
        with pytest.raises(DomainError):
            maximize_entropy([1.0, 2.0], start=(1.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            maximize_entropy([1.0, 2.0], start=(0.7, 0.7))

    @pytest.mark.parametrize("kwargs", [
        {"step": math.inf}, {"step": math.nan},
        {"start": (math.nan, 0.5, 0.5)},
    ], ids=["step-inf", "step-nan", "start-nan"])
    def test_non_finite_input_is_domain_error(self, kwargs):
        with pytest.raises(DomainError):
            maximize_entropy([1.0, 2.0, 3.0], **kwargs)


class TestEarlyStopIsExact:
    """The early stop returns exactly what running all `iters` returns."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 512])
    @pytest.mark.parametrize("reference", ["uniform", "random"])
    def test_grid_matches_full_run(self, n, reference):
        if reference == "uniform":
            nu = [1.0] * n
        else:
            nu = np.random.default_rng([11, n]).uniform(0.1, 5.0, n)
        for step in (0.05, 0.1, 0.2, 0.5):
            for iters in (1, 5, 50, 1500):
                kwargs = dict(mass=1.5, iters=iters, step=step, seed=n)
                assert outcome_bits(maximize_entropy, nu, **kwargs) == \
                    outcome_bits(full_run_maximize, nu, **kwargs), \
                    (step, iters)

    @pytest.mark.parametrize("kwargs", [
        dict(iters=200, step=1e8),
        dict(iters=3000, step=1e3),
        dict(iters=1500, step=0.2, start=(0.0, 0.5, 0.5)),
        dict(iters=1500, step=0.2, start=(1.0, 0.0, 0.0)),
    ], ids=["step-1e8", "step-1e3", "zero-start", "vertex-start"])
    def test_edge_cases_match_full_run(self, kwargs):
        nu = [1.0, 2.0, 3.0] if "start" not in kwargs else [1.0, 1.0, 1.0]
        assert outcome_bits(maximize_entropy, nu, **kwargs) == \
            outcome_bits(full_run_maximize, nu, **kwargs)


def one_pair_at_a_time_probe(nu_weights, trials=1000, seed=0, tol=1e-10):
    """concavity_probe as it was before the batched objective: three 1-D
    entropy_of_weights calls per sampled pair (trials >= 1). The
    reference for the batch's exactness."""
    nu = np.asarray(tuple(nu_weights), dtype=float)
    n = len(nu)
    rng = np.random.default_rng(seed)
    worst = (-math.inf, 0)
    violations = 0
    for t in range(trials):
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        lam = rng.uniform()
        chord = lam * entropy_of_weights(p, nu) \
            + (1.0 - lam) * entropy_of_weights(q, nu)
        mixed = entropy_of_weights(lam * p + (1.0 - lam) * q, nu)
        gap = chord - mixed
        if gap > tol:
            violations += 1
        if gap > worst[0]:
            worst = (gap, t)
    return worst[0], (f"{trials} sampled pairs, {violations} violations; "
                      f"worst chord excess {worst[0]!r} at pair {worst[1]}")


class TestConcavityProbe:
    @pytest.mark.parametrize("n", [2, 3, 7, 10, 64])
    def test_batch_matches_one_pair_at_a_time(self, n):
        rng = np.random.default_rng([5, n])
        for seed in range(40):
            nu = tuple(float(v) for v in rng.uniform(0.2, 2.0, n))
            trials = int(rng.integers(1, 60))
            for tol in (1e-10, -1.0):  # -1.0: every pair a violation
                got = concavity_probe(nu, trials, seed, tol)
                want = one_pair_at_a_time_probe(nu, trials, seed, tol)
                assert repr(got) == repr(want)

    def test_pair_draws_match_scalar_loop(self, monkeypatch):
        # each (p, q) is one dirichlet call of size 2; the old loop made
        # two calls of size 1. Same doubles, same stream state after.
        made = []
        default_rng = np.random.default_rng

        def spy(seed):
            made.append(default_rng(seed))
            return made[-1]

        monkeypatch.setattr(maxent.np.random, "default_rng", spy)
        for n in (1, 3, 8, 12, 16, 24):
            nu = [1.0 + 0.1 * i for i in range(n)]
            for seed in range(300):
                trials = 1 + seed % 4
                got = concavity_probe(nu, trials, seed)
                rng = default_rng(seed)
                for _ in range(trials):
                    rng.dirichlet(np.ones(n))
                    rng.dirichlet(np.ones(n))
                    rng.uniform()
                assert made[-1].bit_generator.state == \
                    rng.bit_generator.state
                assert repr(got) == repr(
                    one_pair_at_a_time_probe(nu, trials, seed))

    def test_one_objective_call_per_probe(self, monkeypatch):
        calls = []
        original = maxent.entropy_of_weights

        def counted(p, nu):
            calls.append(np.shape(p))
            return original(p, nu)

        monkeypatch.setattr(maxent, "entropy_of_weights", counted)
        concavity_probe([0.5, 1.0, 2.0], trials=40, seed=2)
        assert calls == [(120, 3)]

    def test_batch_rows_equal_single_calls(self):
        rng = np.random.default_rng(9)
        nu = rng.uniform(0.2, 2.0, 6)
        batch = rng.dirichlet(np.ones(6), 5)
        batch[1, 2] = 0.0  # 0 log 0 = 0 inside a batch too
        got = entropy_of_weights(batch, nu)
        assert [float(v) for v in got] == \
            [entropy_of_weights(row, nu) for row in batch]

    def test_uniform_reference_concave(self):
        gap, notes = concavity_probe([1.0] * 5, trials=400, seed=0)
        assert gap <= 1e-10
        assert "0 violations" in notes

    def test_weighted_reference_concave(self):
        gap, _ = concavity_probe([0.3, 1.0, 2.5], trials=400, seed=1)
        assert gap <= 1e-10

    def test_endpoints_give_zero_gap(self):
        # lam 0 or 1 makes chord == mixed; sampled lam is interior, so
        # check directly instead
        nu = np.array([1.0, 2.0])
        p = np.array([0.25, 0.75])
        q = np.array([0.5, 0.5])
        for lam in (0.0, 1.0):
            chord = lam * entropy_of_weights(p, nu) \
                + (1.0 - lam) * entropy_of_weights(q, nu)
            mixed = entropy_of_weights(lam * p + (1.0 - lam) * q, nu)
            assert chord == pytest.approx(mixed, abs=1e-15)

    def test_equal_arguments_give_zero_gap(self):
        nu = np.array([1.0, 2.0, 1.5])
        p = np.array([0.2, 0.3, 0.5])
        for lam in (0.25, 0.5, 0.9):
            mixed = entropy_of_weights(lam * p + (1.0 - lam) * p, nu)
            assert mixed == pytest.approx(entropy_of_weights(p, nu),
                                          abs=1e-15)

    def test_zero_trials_rejected(self):
        for trials in (0, -1):
            with pytest.raises(DomainError, match="trials must be at least 1"):
                concavity_probe([1.0, 2.0], trials=trials)

    def test_deterministic(self):
        a = concavity_probe([1.0, 2.0], trials=100, seed=3)
        b = concavity_probe([1.0, 2.0], trials=100, seed=3)
        assert a == b
