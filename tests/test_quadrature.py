import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarent.errors import ConvergenceError, DomainError
from haarent.measures import MeasurableSet, Space
from haarent.quadrature import (DEFAULT_INTEGRATOR, IntegralResult,
                                Integrator, integrate, integrate_result, xlogx)

UNIT = Space.interval(0.0, 1.0)


def full(lo, hi):
    return MeasurableSet.full(Space.interval(lo, hi))


class TestXlogx:
    def test_zero_is_exactly_zero(self):
        assert xlogx(0.0) == 0.0

    def test_one_is_zero(self):
        assert xlogx(1.0) == 0.0

    def test_e_is_e(self):
        assert xlogx(math.e) == math.e

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            xlogx(-1e-9)

    @given(st.floats(min_value=1e-300, max_value=1e-3))
    def test_vanishes_approaching_zero(self, t):
        assert abs(xlogx(t)) <= t * abs(math.log(t)) + 1e-300
        assert abs(xlogx(t)) < 1e-2

    @given(st.floats(min_value=1e-6, max_value=1.0 / math.e - 1e-9))
    def test_decreasing_below_inverse_e(self, t):
        # slope log(t)+1 < 0 there; allow curvature h^2/(2t) near the
        # stationary point at 1/e where the first-order drop vanishes
        h = t * 1e-6
        assert xlogx(t + h) <= xlogx(t) + h * h / t + 1e-12


class TestIntegrate:
    def test_linear(self):
        got = integrate(lambda x: x, full(0.0, 1.0))
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_reciprocal(self):
        got = integrate(lambda x: 1.0 / x, full(1.0, math.e))
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_log_over_x(self):
        got = integrate(lambda x: math.log(x) / x, full(1.0, math.e ** 2))
        assert got == pytest.approx(2.0, abs=1e-9)

    def test_finite_set_is_exact_sum(self):
        space = Space.finite(["a", "b", "c"])
        s = MeasurableSet.of_atoms(space, ["a", "c"])
        vals = {"a": 0.25, "b": 9.0, "c": 0.5}
        assert integrate(lambda p: vals[p], s) == 0.75

    def test_empty_interval_union_is_zero(self):
        space = Space.interval(0.0, 1.0)
        s = MeasurableSet.of_atoms(Space.finite([1]), [1])
        # degenerate [c, c] interval carries no mass
        degenerate = MeasurableSet.of_interval(space, 0.5, 0.5)
        assert integrate(lambda x: 100.0, degenerate) == 0.0
        assert integrate(lambda p: 3.0, s) == 3.0

    def test_breakpoint_seeding_resolves_jumps(self):
        def jump(x):
            return 1.0 if x < 0.3 else 5.0

        got = integrate(jump, full(0.0, 1.0), breakpoints=[0.3])
        assert got == pytest.approx(0.3 + 5.0 * 0.7, abs=1e-12)

    def test_jump_at_panel_edge_takes_inner_limit(self):
        # the integrand is constant on each side of every seeded cut, so
        # the result must be the exact piecewise sum, not a smeared average
        cuts = [0.2, 0.55, 0.8]
        vals = [1.0, 4.0, 2.0, 8.0]

        def step(x):
            for i, c in enumerate(cuts):
                if x <= c:
                    return vals[i]
            return vals[-1]

        want = 1.0 * 0.2 + 4.0 * 0.35 + 2.0 * 0.25 + 8.0 * 0.2
        got = integrate(step, full(0.0, 1.0), breakpoints=cuts)
        assert got == pytest.approx(want, abs=1e-12)

    def test_integrable_endpoint_singularity(self):
        got = integrate(lambda x: xlogx(x), full(0.0, 1.0))
        assert got == pytest.approx(-0.25, abs=1e-9)

    def test_convergence_error_carries_estimate(self):
        cfg = Integrator(rel_tol=1e-10, abs_tol=1e-12, max_depth=10)

        def nasty(x):
            return 1.0 if x < 1.0 / math.pi else 3.0

        with pytest.raises(ConvergenceError) as err:
            integrate(nasty, full(0.0, 1.0), cfg)
        assert math.isfinite(err.value.estimate)
        assert err.value.error_bound >= 0.0

    def test_polynomial_oracle_battery(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            deg = int(rng.integers(0, 6))
            coef = rng.uniform(-2.0, 2.0, deg + 1)
            a, b = sorted(rng.uniform(-3.0, 3.0, 2))
            if b - a < 0.1:
                b = a + 0.1
            want = sum(c / (k + 1) * (b ** (k + 1) - a ** (k + 1))
                       for k, c in enumerate(coef))
            got = integrate(
                lambda x: sum(c * x ** k for k, c in enumerate(coef)),
                full(a, b))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


ADD_WINDOW = (-10.0, 15.0)       # the verifier's R+add window
MUL_WINDOW = (0.01, 1000.0)      # the R*mul window, also used on R+add

# (name, integrand, window, exact value), exact values from antiderivatives
CLOSED_FORMS = [
    ("gauss", lambda x: math.exp(-x * x), ADD_WINDOW,
     math.sqrt(math.pi) / 2.0 * (math.erf(15.0) + math.erf(10.0))),
    ("cos", math.cos, ADD_WINDOW, math.sin(15.0) + math.sin(10.0)),
    ("cubic", lambda x: x ** 3 - 2.0 * x, ADD_WINDOW,
     (15.0 ** 4 - 10.0 ** 4) / 4.0 - (15.0 ** 2 - 10.0 ** 2)),
    ("exp-decay", lambda x: math.exp(-0.3 * x), ADD_WINDOW,
     (math.exp(3.0) - math.exp(-4.5)) / 0.3),
    ("inv", lambda x: 1.0 / x, MUL_WINDOW, math.log(1e5)),
    ("log-over-x", lambda x: math.log(x) / x, MUL_WINDOW,
     (math.log(1000.0) ** 2 - math.log(0.01) ** 2) / 2.0),
    ("inv-sqrt", lambda x: 1.0 / math.sqrt(x), MUL_WINDOW,
     2.0 * (math.sqrt(1000.0) - 0.1)),
    ("inv-log-inv", lambda x: xlogx(1.0 / x), MUL_WINDOW,
     -(math.log(1000.0) ** 2 - math.log(0.01) ** 2) / 2.0),
    ("sqrt-from-0", math.sqrt, (0.0, 6.97), 2.0 / 3.0 * 6.97 ** 1.5),
    ("xlogx-from-0", xlogx, (0.0, 1.0), -0.25),
    # log(0) raises ValueError: the endpoint must never be evaluated
    ("log-from-0", math.log, (0.0, 2.0), 2.0 * math.log(2.0) - 2.0),
]


class TestContract:
    """|I - true| <= error_bound <= max(rel_tol*|I|, abs_tol)."""

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("name,f,window,exact", CLOSED_FORMS,
                             ids=[c[0] for c in CLOSED_FORMS])
    def test_closed_forms_on_full_windows(self, name, f, window, exact,
                                          rel_tol):
        cfg = Integrator(rel_tol=rel_tol)
        r = integrate_result(f, full(*window), cfg)
        # the exact value is itself rounded: allow a few ulps of it
        assert abs(r.value - exact) <= r.error_bound + 8e-16 * abs(exact)
        assert r.error_bound <= max(rel_tol * abs(r.value), cfg.abs_tol)

    def test_reciprocal_full_window_cost(self):
        # 1/x on [0.01, 1000] was missed by 1.21e-5 at rel 1e-6 and gave
        # up at rel 1e-10; plain bisection resolves it in under 600 nodes
        r = integrate_result(lambda x: 1.0 / x, full(*MUL_WINDOW))
        assert r.evals <= 600

    def test_result_fields(self):
        r = integrate_result(lambda x: x * x, full(0.0, 3.0))
        assert isinstance(r, IntegralResult)
        assert r.value == pytest.approx(9.0, rel=1e-15)
        assert (r.evals, r.panels, r.worst_panel) == (15, 1, (0.0, 3.0))
        assert integrate(lambda x: x * x, full(0.0, 3.0)) == r.value

    def test_finite_result(self):
        space = Space.finite(["a", "b", "c"])
        s = MeasurableSet.of_atoms(space, ["a", "c"])
        r = integrate_result(lambda p: {"a": 0.25, "c": 0.5}[p], s)
        assert r == IntegralResult(0.75, 0.0, 2, 0, None)

    def test_repeated_calls_bit_identical(self):
        def kinked(x):
            return math.exp(-abs(x - 1.3)) + (2.0 if x > 0.4 else 0.5)

        runs = [integrate_result(kinked, full(-1.0, 4.0),
                                 Integrator(rel_tol=1e-10),
                                 breakpoints=[0.4])
                for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0].value.hex() == runs[1].value.hex()
        assert runs[0].error_bound.hex() == runs[1].error_bound.hex()

    @pytest.mark.parametrize("f,window,abs_integral", [
        (lambda x: x, (-10.0, 10.0), 100.0),
        (lambda x: x ** 3 - x, (-10.0, 10.0), 4901.0),
        (lambda x: x, (-1000.0, 1000.0), 1e6),
        (math.sin, (0.0, 200.0 * math.pi), 400.0),
    ], ids=["x", "cubic", "x-wide", "sin"])
    def test_cancelling_integral_returns_rounding_floor(self, f, window,
                                                        abs_integral):
        # the exact value is 0, but the rounding floor 50*eps*int|f| of
        # the rule is above abs_tol: the value comes back with that bound
        # (int|f| as the rule estimates it, within 10% here)
        r = integrate_result(f, full(*window))
        floor = 50.0 * 2.0 ** -52 * abs_integral
        assert DEFAULT_INTEGRATOR.abs_tol < r.error_bound <= 1.1 * floor
        assert abs(r.value) <= r.error_bound

    def test_cancelling_integral_within_abs_tol(self):
        assert abs(integrate(lambda x: x, full(-10.0, 10.0))) <= 1e-12
        assert abs(integrate(lambda x: x ** 3 - x, full(-10.0, 10.0))) <= 1e-12

    def test_nodes_strictly_inside_narrow_panels(self):
        # near 1000 the panels at the singular end are a few ulps wide;
        # rounding must not put a node on the end, where f divides by 0
        xs = []

        def f(x):
            xs.append(x)
            return (1000.0 - x) ** -0.5

        r = integrate_result(f, full(999.0, 1000.0), Integrator(rel_tol=1e-6))
        assert 999.0 < min(xs) and max(xs) < 1000.0
        assert abs(r.value - 2.0) <= r.error_bound

    def test_panel_too_narrow_to_halve_raises(self):
        # three ulps wide with ulp-scale noise: the halves of the panel
        # would hold no float inside them, so it cannot be split
        a = 1e6
        b = math.nextafter(math.nextafter(math.nextafter(a, 2e6), 2e6), 2e6)
        xs = []

        def noise(x):
            xs.append(x)
            return float(int(math.frexp(x)[0] * 2.0 ** 53) % 2)

        with pytest.raises(ConvergenceError):
            integrate(noise, full(a, b))
        assert a < min(xs) and max(xs) < b

    def test_convergence_error_names_worst_panel(self):
        cfg = Integrator(rel_tol=1e-10, max_depth=10)
        with pytest.raises(ConvergenceError) as err:
            integrate(lambda x: 1.0 if x < 1.0 / math.pi else 3.0,
                      full(0.0, 1.0), cfg)
        # the panel 10 bisections deep that holds the jump at 1/pi
        assert "worst panel [0.3173828125, 0.318359375]" in str(err.value)
        assert err.value.error_bound > 1e-10

    def test_endless_oscillation_hits_the_bisection_cap(self):
        # sin(1/x) doubles its oscillations at every level near 0, so the
        # panels there multiply before any reaches max_depth
        t0 = time.perf_counter()
        with pytest.raises(ConvergenceError) as err:
            integrate(lambda x: math.sin(1.0 / x), full(0.0, 1.0))
        assert time.perf_counter() - t0 < 2.0
        assert "2000 bisections did not suffice" in str(err.value)
        assert "worst panel [" in str(err.value)
        # the exact value is 0.504067061906928...
        assert abs(err.value.estimate - 0.5040670619) < err.value.error_bound

    def test_many_seeded_panels_do_not_count_against_the_cap(self):
        edges = [i / 4096 for i in range(1, 4096)]
        r = integrate_result(lambda x: 1.0 if int(x * 4096) % 2 else 2.0,
                             full(0.0, 1.0), breakpoints=edges)
        assert r.panels == 4096
        assert r.value == pytest.approx(1.5, rel=1e-12)

    @pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
    def test_matches_scipy_quad(self):
        quad = pytest.importorskip("scipy.integrate").quad
        for name, f, window, _ in CLOSED_FORMS:
            want, _err = quad(f, *window, epsabs=1e-13, epsrel=1e-12,
                              limit=500)
            got = integrate(f, full(*window))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), name


class TestIntegratorConfig:
    def test_tolerances_validated(self):
        with pytest.raises(DomainError):
            Integrator(rel_tol=0.0)
        with pytest.raises(DomainError):
            Integrator(abs_tol=0.0)
        with pytest.raises(DomainError):
            Integrator(max_depth=3)

    def test_defaults(self):
        assert DEFAULT_INTEGRATOR.rel_tol == 1e-10
        assert DEFAULT_INTEGRATOR.abs_tol == 1e-12
        assert DEFAULT_INTEGRATOR.max_depth == 50


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0))
def test_linearity(alpha, beta):
    f = lambda x: math.sin(x) + 0.5
    g = lambda x: x * x
    s = full(0.0, 2.0)
    lhs = integrate(lambda x: alpha * f(x) + beta * g(x), s)
    rhs = alpha * integrate(f, s) + beta * integrate(g, s)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.1, max_value=1.9))
def test_interval_additivity(b):
    f = lambda x: math.exp(-x) * (x + 1.0)
    whole = integrate(f, full(0.0, 2.0))
    split = integrate(f, full(0.0, b)) + integrate(f, full(b, 2.0))
    assert whole == pytest.approx(split, abs=1e-9)
