import math
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarent import maxent
from haarent.errors import DomainError, StepSizeError
from haarent.maxent import (SimplexPoint, concavity_probe, entropy_of_weights,
                            maximize_entropy)


def uniform_reference(key, n, low=0.1, high=5.0):
    rng = random.Random(key)
    return [rng.uniform(low, high) for _ in range(n)]


def simplex_draw(rng, n):
    """A uniform point of the probability simplex: n exponentials,
    normalized."""
    gams = [rng.expovariate(1.0) for _ in range(n)]
    total = math.fsum(gams)
    return [g / total for g in gams]


def outcome_bits(solver, *args, **kwargs):
    """Weights and value as exact reprs, or the error type and message."""
    try:
        point, value = solver(*args, **kwargs)
    except StepSizeError as exc:
        return ("StepSizeError", str(exc))
    return repr(point.weights), point.mass, repr(value)


def run_to_the_cap(nu, caps, mass=1.0, step=0.9, seed=0, start=None):
    """maximize_entropy without the early return: the same loop on
    l = log(p / nu) run to max(caps), with p* for every iterate whose
    spread of l is below 2^-54. The outcome after each cap in caps; the
    reference for the stop's exactness."""
    if step >= 2.0:  # raised before the first iteration, whatever the cap
        return dict.fromkeys(caps, outcome_bits(maximize_entropy, nu,
                                                step=step))
    if start is None:
        rng = random.Random(seed)
        p = maxent._scaled([rng.random() + 0.1 for _ in nu], mass)
    else:
        p = list(start)
    log_nu = [math.log(v) for v in nu]
    log_floor = math.log(1e-16) + math.log(mass) - math.log(len(nu))
    ell = [(math.log(w) if w > 0 else log_floor) - g
           for w, g in zip(p, log_nu)]
    out = {}
    for done in range(1, max(caps) + 1):
        ell = [(1.0 - step) * x for x in ell]
        if max(ell) - min(ell) < 2.0 ** -54:
            p = maxent._maximizer(nu, mass)
        else:
            logs = [x + g for x, g in zip(ell, log_nu)]
            top = max(logs)
            p = maxent._scaled([math.exp(g - top) for g in logs], mass)
        if done in caps:
            out[done] = (repr(tuple(p)), mass,
                         repr(entropy_of_weights(p, nu)))
    return out


def counted_objective(monkeypatch):
    """Record the length of every entropy_of_weights argument that
    maxent passes through its module-global binding."""
    calls = []
    original = maxent.entropy_of_weights

    def counted(p, nu):
        calls.append(len(p))
        return original(p, nu)

    monkeypatch.setattr(maxent, "entropy_of_weights", counted)
    return calls


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

    def test_sum_up_to_the_largest_float(self):
        # a plain fsum of either weight vector overflows in its partial sums
        top = 1.7976931348623157e308
        SimplexPoint((top / 3,) * 3, top)
        with pytest.raises(DomainError, match="weights sum to inf"):
            SimplexPoint((top, top / 2), top)


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
        rng = random.Random(key)
        n = rng.randrange(2, 8)
        nu = [rng.uniform(0.1, 3.0) for _ in range(n)]
        p = simplex_draw(rng, n)
        assert entropy_of_weights(p, nu) <= math.log(math.fsum(nu)) + 1e-10

    @pytest.mark.parametrize("w, v", [
        (1e-300, 1e20), (1e-300, 1e23), (1e-300, 1e300), (1e300, 1e-300),
        (1e10, 1e-300)],
        ids=["subnormal", "least", "zero", "inf", "inf-small-weight"])
    def test_quotient_past_the_normal_floats_takes_the_logs_apart(self, w,
                                                                  v):
        # w / v is subnormal (with few bits), 0 or inf, and
        # -w (log w - log v) is finite
        assert entropy_of_weights([w], [v]) == -w * (math.log(w)
                                                     - math.log(v))


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

    def test_vertex_start_with_a_weighted_reference(self, monkeypatch):
        # the zero weights enter the log at the floor 1e-16 * mass / n;
        # log(p / p*) then shrinks by 1/2 per iteration from about 38
        calls = counted_objective(monkeypatch)
        point, _ = maximize_entropy([1.0, 2.0, 3.0], step=0.5,
                                    start=(1.0, 0.0, 0.0))
        assert 50 <= len(calls) - 1 <= 70
        for w, want in zip(point.weights, (1 / 6, 2 / 6, 3 / 6)):
            assert abs(w - want) <= 2e-15

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
        # a vertex start on 512 atoms: 511 zero weights
        nu = uniform_reference(11_512, 512)
        best = [1.5 * v / math.fsum(nu) for v in nu]
        for step in (0.5, 0.9, 1.5):
            point, value = maximize_entropy(nu, mass=1.5, step=step,
                                            start=[1.5] + [0.0] * 511)
            assert max(abs(w - b) for w, b in zip(point.weights, best)) \
                < 1e-15
            assert value == pytest.approx(entropy_of_weights(best, nu),
                                          abs=1e-12)

    @pytest.mark.parametrize("step", [0.1, 0.5, 0.9, 1.5, 1.9])
    def test_converges_to_the_maximizer(self, step):
        # within 1e-14 relative of mass * nu / sum(nu), at every weight
        for n in [*range(1, 17), 31, 64, 100, 255, 256, 511, 512]:
            nu = uniform_reference(7_000 + n, n)
            total = math.fsum(nu)
            point, _ = maximize_entropy(nu, mass=1.5, step=step, seed=n)
            for w, v in zip(point.weights, nu):
                want = 1.5 * v / total
                assert abs(w - want) <= 1e-14 * want, (n, step)

    @pytest.mark.parametrize("nu", [
        [1e-170, 1e170], [1e170, 1e-170], [1e-300, 1e300],
        [1e-300, 1.0, 1e300], [1e308, 1e308], [1e308, 1e308, 1.0]],
        ids=["tiny-huge", "huge-tiny", "wider", "three", "sum-overflows",
             "sum-overflows-3"])
    @pytest.mark.parametrize("step", [0.1, 0.5, 0.9, 1.5, 1.9])
    def test_references_past_the_float_range(self, nu, step):
        # the ratios p_i / nu_i span more than the floats, or the sum of
        # nu is past the largest one; best is p*, from nu over 2^1000
        total = math.fsum(math.ldexp(v, -1000) for v in nu)
        best = [math.ldexp(v, -1000) / total for v in nu]
        point, value = maximize_entropy(nu, step=step)
        assert max(abs(w - b) for w, b in zip(point.weights, best)) \
            <= 2.0 ** -50
        assert value == pytest.approx(entropy_of_weights(best, nu),
                                      rel=1e-15)

    @pytest.mark.parametrize("nu, mass, entropy", [
        ([1e300, 1e300], 1e-300, 1.3822442029769874e-297),
        ([1e300, 1e300], 5e-324, -0.0),
        ([1e-300, 1e-300], 1e300, -1.3808579086158676e+303),
        ([1e-30, 1e300], 1e300, -0.0)],
        ids=["tiny-mass", "subnormal-mass", "huge-mass", "huge-mass-wide"])
    def test_extreme_masses_give_a_finite_entropy(self, nu, mass, entropy):
        # w / nu underflows or overflows, though each w log w and
        # w log nu is finite; S(p*) = mass log(sum(nu) / mass)
        point, value = maximize_entropy(nu, mass=mass)
        assert point.weights == tuple(maxent._maximizer(nu, mass))
        assert repr(value) == repr(entropy)

    def test_huge_step_raises(self):
        with pytest.raises(StepSizeError):
            maximize_entropy([1.0, 2.0, 3.0], iters=200, step=1e8)

    @pytest.mark.parametrize("step", [2.0, 2.5, 1e8])
    def test_step_of_two_raises_before_the_first_iteration(
            self, monkeypatch, step):
        calls = counted_objective(monkeypatch)
        with pytest.raises(StepSizeError, match="diverges"):
            maximize_entropy([1.0, 2.0, 3.0], step=step)
        assert calls == []

    def test_stops_early_once_state_is_fixed(self, monkeypatch):
        calls = counted_objective(monkeypatch)
        maximize_entropy([1.0, 2.0, 3.0], iters=1500, step=0.2)
        # one evaluation at the start, then one per iteration
        assert len(calls) - 1 < 300

    def test_validation(self):
        with pytest.raises(DomainError):
            maximize_entropy([])
        with pytest.raises(DomainError):
            maximize_entropy([1.0, -1.0])
        with pytest.raises(DomainError):
            maximize_entropy([1.0, math.inf])
        with pytest.raises(DomainError):
            maximize_entropy([[1.0, 2.0]])
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

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_bad_seed_is_a_domain_error(self, seed):
        # random.Random would take abs() of -1 and hash 1.5
        with pytest.raises(DomainError,
                           match="seed must be a non-negative integer"):
            maximize_entropy([1.0, 1.0], seed=seed)

    def test_bool_seed_counts_as_an_int(self):
        assert maximize_entropy([1.0, 2.0], iters=3, seed=True) == \
            maximize_entropy([1.0, 2.0], iters=3, seed=1)


class TestEarlyStopIsExact:
    """The early stop returns exactly what running all `iters` returns."""

    CAPS = (1, 2, 5, 50, 51, 400, 401)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 512])
    @pytest.mark.parametrize("reference", ["uniform", "random"])
    def test_grid_matches_full_run(self, n, reference):
        if reference == "uniform":
            nu = [1.0] * n
        else:
            nu = uniform_reference(11_000 + n, n)
        for step in (0.1, 0.5, 0.9, 1.0, 1.5, 1.9):
            want = run_to_the_cap(nu, self.CAPS, mass=1.5, step=step, seed=n)
            for iters in self.CAPS:
                got = outcome_bits(maximize_entropy, nu, mass=1.5,
                                   iters=iters, step=step, seed=n)
                assert got == want[iters], (step, iters)

    @pytest.mark.parametrize("nu, kwargs", [
        ([1.0, 2.0, 3.0], dict(step=1e8)),
        ([1.0, 2.0, 3.0], dict(step=1e3)),
        ([1.0, 1.0, 1.0], dict(step=0.2, start=(0.0, 0.5, 0.5))),
        ([1.0, 1.0, 1.0], dict(step=0.2, start=(1.0, 0.0, 0.0))),
        *[(nu, dict(step=step)) for nu in ([1e-170, 1e170],
                                           [1e308, 1e308, 1.0])
          for step in (0.1, 0.9, 1.9)],
        *[(nu, dict(mass=mass, step=step))
          for nu, mass in (([1e-30, 1e300], 1e300), ([1e300, 1e300], 1e-300),
                           ([1e300, 1e300], 5e-324))
          for step in (0.1, 1.9)],
    ], ids=["step-1e8", "step-1e3", "zero-start", "vertex-start",
            *[f"{name}-{step}" for name in ("wide", "sum-overflows")
              for step in (0.1, 0.9, 1.9)],
            *[f"{name}-{step}" for name in ("huge-mass", "tiny-mass",
                                            "subnormal-mass")
              for step in (0.1, 1.9)]])
    def test_edge_cases_match_full_run(self, nu, kwargs):
        want = run_to_the_cap(nu, self.CAPS, **kwargs)
        for iters in self.CAPS:
            assert outcome_bits(maximize_entropy, nu, iters=iters,
                                **kwargs) == want[iters]

    @pytest.mark.parametrize("nu, step, caps", [
        ([1.0, 2.0, 3.0], 1.9, (1000, 1001)),
        (uniform_reference(1, 3), 1.5, range(400, 404)),
        (uniform_reference(1, 3), 1.9, range(400, 404)),
        (uniform_reference(7, 4), 1.5, range(400, 404)),
    ], ids=["three-1.9", "3-1-1.5", "3-1-1.9", "4-7-1.5"])
    def test_caps_past_the_stop_agree(self, monkeypatch, nu, step, caps):
        # the stop comes before each cap, and what it returns does not
        # depend on how far off the cap is
        calls = counted_objective(monkeypatch)
        got = set()
        for iters in caps:
            calls.clear()
            got.add(outcome_bits(maximize_entropy, nu, iters=iters,
                                 step=step))
            assert len(calls) - 1 < iters  # stopped before the cap
        assert len(got) == 1
        monkeypatch.undo()
        want = run_to_the_cap(nu, caps, step=step)
        assert got == set(want.values())

    @pytest.mark.parametrize("nu, kwargs", [
        ([1e-170, 1e170], {}), ([1e308, 1e308, 1.0], {}),
        ([1e-300, 1.0, 1e300], {}), ([1e-30, 1e300], dict(mass=1e300)),
        ([1e300, 1e300], dict(mass=1e-300)),
        ([1.0, 1.0, 1.0], dict(start=(1.0, 0.0, 0.0))),
        ([1.0, 1.0, 1.0], dict(start=(0.0, 0.5, 0.5)))],
        ids=["tiny-huge", "sum-overflows", "wider", "huge-mass",
             "tiny-mass", "vertex-start", "zero-start"])
    @pytest.mark.parametrize("step", [0.1, 0.5, 0.9, 1.5, 1.9])
    def test_whole_float_range_stops_at_the_maximizer(self, monkeypatch,
                                                       nu, kwargs, step):
        calls = counted_objective(monkeypatch)
        point, _ = maximize_entropy(nu, iters=100_000, step=step, **kwargs)
        assert len(calls) - 1 < 1000
        assert point.weights == tuple(
            maxent._maximizer(nu, kwargs.get("mass", 1.0)))

    def test_largest_mass_returns_the_maximizer(self):
        # p* is finite, but each p_i log p_i overflows
        top = 1.7976931348623157e308
        point, value = maximize_entropy([1, 1, 1], mass=top)
        assert point.weights == tuple(maxent._maximizer([1.0] * 3, top))
        assert value == -math.inf


def one_pair_at_a_time_probe(nu, trials=1000, seed=0, tol=1e-10):
    """concavity_probe recomputed pair by pair: the chain of points from
    random.Random's own exponential draws, l from random(), and each
    pair's chord excess from three fresh entropy_of_weights calls
    (trials >= 1)."""
    rng = random.Random(seed)
    n = len(nu)
    worst = (-math.inf, 0)
    violations = 0
    q = simplex_draw(rng, n)
    for t in range(trials):
        p, q = q, simplex_draw(rng, n)
        lam = rng.random()
        chord = lam * entropy_of_weights(p, nu) \
            + (1.0 - lam) * entropy_of_weights(q, nu)
        mixed = entropy_of_weights(
            [lam * a + (1.0 - lam) * b for a, b in zip(p, q)], nu)
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
        # a probe's batch of pairs, against the pair-by-pair reference
        rng = random.Random(5000 + n)
        for seed in range(40):
            nu = tuple(rng.uniform(0.2, 2.0) for _ in range(n))
            trials = rng.randrange(1, 60)
            for tol in (1e-10, -1.0):  # -1.0: every pair a violation
                got = concavity_probe(nu, trials, seed, tol)
                want = one_pair_at_a_time_probe(nu, trials, seed, tol)
                assert repr(got) == repr(want)

    def test_pair_draws_match_scalar_loop(self, monkeypatch):
        # n doubles for the first point, then n for the next point and one
        # for l per pair: the stream ends where that many random() calls
        # leave it
        made = []

        def spy(seed):
            made.append(random.Random(seed))
            return made[-1]

        monkeypatch.setattr(maxent, "random",
                            types.SimpleNamespace(Random=spy))
        for n in (1, 3, 8, 12, 16, 24):
            nu = [1.0 + 0.1 * i for i in range(n)]
            for seed in range(100):
                trials = 1 + seed % 4
                concavity_probe(nu, trials, seed)
                rng = random.Random(seed)
                for _ in range(n + (n + 1) * trials):
                    rng.random()
                assert made[-1].getstate() == rng.getstate()

    def test_one_objective_call_per_point_and_mixture(self, monkeypatch):
        # 41 points make the 40 pairs, and each pair has one mixture
        calls = counted_objective(monkeypatch)
        concavity_probe([0.5, 1.0, 2.0], trials=40, seed=2)
        assert calls == [3] * 81

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
        nu = [1.0, 2.0]
        p = [0.25, 0.75]
        q = [0.5, 0.5]
        for lam in (0.0, 1.0):
            chord = lam * entropy_of_weights(p, nu) \
                + (1.0 - lam) * entropy_of_weights(q, nu)
            mixed = entropy_of_weights(
                [lam * a + (1.0 - lam) * b for a, b in zip(p, q)], nu)
            assert chord == pytest.approx(mixed, abs=1e-15)

    def test_equal_arguments_give_zero_gap(self):
        nu = [1.0, 2.0, 1.5]
        p = [0.2, 0.3, 0.5]
        for lam in (0.25, 0.5, 0.9):
            mixed = entropy_of_weights(
                [lam * a + (1.0 - lam) * a for a in p], nu)
            assert mixed == pytest.approx(entropy_of_weights(p, nu),
                                          abs=1e-15)

    def test_zero_trials_rejected(self):
        for trials in (0, -1):
            with pytest.raises(DomainError, match="trials must be at least 1"):
                concavity_probe([1.0, 2.0], trials=trials)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_is_a_domain_error(self, seed):
        with pytest.raises(DomainError,
                           match="seed must be a non-negative integer"):
            concavity_probe([1.0, 2.0], trials=1, seed=seed)

    def test_deterministic(self):
        a = concavity_probe([1.0, 2.0], trials=100, seed=3)
        b = concavity_probe([1.0, 2.0], trials=100, seed=3)
        assert a == b
