import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarent.errors import ConvergenceError, DomainError, SumOverflowError
from haarent.measures import MeasurableSet, Space, step_density
from haarent.quadrature import (_ROUNDOFF, _SAFE, _WK, DEFAULT_INTEGRATOR,
                                IntegralResult, Integrator, _kronrod,
                                _one_node, _split_panels, integrate,
                                integrate_result, xlogx)

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
        assert integrate(lambda x: 100.0,
                         MeasurableSet.of_intervals(space, [])) == 0.0
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
        # a strong singularity at the end 1: the panel there gets too
        # narrow to split before the bound meets the tolerance
        with pytest.raises(ConvergenceError) as err:
            integrate(lambda x: (1.0 - x) ** -0.7, full(0.0, 1.0))
        assert math.isfinite(err.value.estimate)
        assert err.value.error_bound > 1e-10 * 3.3

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

    def test_extent_floor_on_a_window_off_zero(self):
        # the narrowest panel split is 2^-50 of the extent, 4 here, not of
        # the window's midpoint or its right end
        def f(x):
            return x ** -0.9 if x > 0.0 else 0.0
        with pytest.raises(ConvergenceError) as err:
            integrate(f, full(-3.0, 1.0))
        assert "too narrow to split" in str(err.value)
        assert f"worst panel [0.0, {2.0 ** -48!r}]" in str(err.value)

    def test_convergence_error_names_worst_panel(self):
        with pytest.raises(ConvergenceError) as err:
            integrate(lambda x: x ** -0.9, full(0.0, 1.0))
        # the panel at the singular end, 2^-50 of the window wide: on a
        # window without breakpoints the narrowest panel split is the one
        # 49 bisections deep
        assert "too narrow to split" in str(err.value)
        assert "worst panel [0.0, 8.881784197001252e-16]" in str(err.value)
        assert err.value.error_bound > 1e-10 * 10.0

    def test_endless_oscillation_hits_the_bisection_cap(self):
        # sin(1/x) doubles its oscillations at every level near 0, so the
        # panels there multiply before any is too narrow to split
        f, seen = _counted(lambda x: math.sin(1.0 / x))
        t0 = time.perf_counter()
        with pytest.raises(ConvergenceError) as err:
            integrate(f, full(0.0, 1.0))
        assert time.perf_counter() - t0 < 2.0
        assert "2000 bisections did not suffice" in str(err.value)
        # the one seeded panel and the two halves of each bisection
        assert len(seen) == 15 * (1 + 2 * 2000)
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


def _steps(x, k):
    """x and the k floats on either side of it, in increasing order."""
    out = [x]
    for _ in range(k):
        out = ([math.nextafter(out[0], -math.inf)] + out
               + [math.nextafter(out[-1], math.inf)])
    return out


def _counted(f):
    """f with a list that receives every point it is called at."""
    seen = []

    def g(x):
        seen.append(x)
        return f(x)
    return g, seen


class TestPiecewiseConstant:
    """The one-node rule calls f once per panel and returns, bit for bit,
    what the 15-node rule returns for a function constant on the panel."""

    @staticmethod
    def _triples(rng, n):
        """(a, b, v): n panels from a few ulps to 1e3 wide at magnitudes up
        to 1e3, values of every sign and magnitude from subnormal to 1e305,
        and the edge values repeated; then the edges of the one-node rule's
        early return: values at _SAFE and its neighbouring floats, panels
        whose rounding floor sits at _SAFE, and panels up to 1e300 wide,
        where the value overflows."""
        special = (0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-310, -1e-310,
                   2.2250738585072014e-308, 1e300, -1e300, 1e305, -1e305)
        mags = 10.0 ** rng.uniform(-323.0, 305.0, n)
        signs = rng.choice((-1.0, 1.0), n)
        pick = rng.integers(len(special), size=n)
        use_special = rng.random(n) < 0.1
        starts = rng.uniform(-1e3, 1e3, n) * 10.0 ** rng.integers(-6, 1, n)
        widths = 10.0 ** rng.uniform(-12.0, 3.0, n)
        ulps = rng.integers(1, 8, n)
        narrow = rng.random(n) < 0.1
        for i in range(n):
            a = float(starts[i])
            if narrow[i]:
                b = a
                for _ in range(int(ulps[i])):
                    b = math.nextafter(b, math.inf)
            else:
                b = a + float(widths[i])
                if b <= a:
                    b = math.nextafter(a, math.inf)
            v = (special[pick[i]] if use_special[i]
                 else float(signs[i] * mags[i]))
            yield a, b, v

        for v in _steps(_SAFE, 4) + [0.5 * _SAFE, 2.0 * _SAFE]:
            for a, b in ((0.0, 1e-300), (-1.0, 1.0), (1e3, 1e3 + 1e-9),
                         (0.0, 1e300), (5.0, math.nextafter(5.0, 6.0))):
                yield a, b, v
                yield a, b, -v
        yield from TestPiecewiseConstant._floor_edges(rng)
        for w in 10.0 ** rng.uniform(250.0, 300.0, 200):
            a = float(rng.uniform(-1.0, 1.0)) * 1e300
            v = float(10.0 ** rng.uniform(-5.0, 305.0))
            yield a, a + float(w), v
            yield a, a + float(w), -v

    @staticmethod
    def _floor_edges(rng):
        """(a, b, v): 200 values from 1e-250 to 1e250 of either sign, each
        on the panel whose rounding floor 50*eps*h*|2v| is _SAFE and on
        the panels up to 4 floats wider or narrower."""
        for v in 10.0 ** rng.uniform(-250.0, 250.0, 200):
            h = _SAFE / (_ROUNDOFF * 2.0 * float(v))
            for b in _steps(2.0 * h, 4):
                yield 0.0, b, float(v)
                yield 0.0, b, -float(v)

    def test_flagged_rule_is_the_15_node_rule_bit_for_bit(self):
        rng = np.random.default_rng(20261018)
        bad = []
        n = early = 0
        for a, b, v in self._triples(rng, 100_000):
            f15, seen15 = _counted(lambda x, v=v: v)
            f1, seen1 = _counted(lambda x, v=v: v)
            want = _kronrod(f15, a, b)
            got = _one_node(f1, a, b)
            # repr tells -0.0 from 0.0 and matches nan with nan
            if repr(got) != repr(want) or seen1 != seen15[:1]:
                bad.append((a, b, v, got, want))
            n += 1
            early += got[2] and got[1] >= _SAFE
        assert n == 100_000 + 2 * (11 * 5 + 200 * 9 + 200)
        assert early > n // 2  # most panels take the early return
        assert bad == []

    def test_floor_edge_panels_fall_on_both_sides(self):
        floors = [_ROUNDOFF * (0.5 * b * abs(sum(w * v for w in _WK)))
                  for a, b, v in self._floor_edges(np.random.default_rng(5))]
        assert min(floors) < _SAFE <= max(floors)

    def test_flagged_rule_calls_f_at_the_first_node_only(self):
        f, seen = _counted(lambda x: 2.5)
        _one_node(f, 1.0, 3.0)
        g, every = _counted(lambda x: 2.5)
        _kronrod(g, 1.0, 3.0)
        assert len(seen) == 1 and len(every) == 15
        assert seen[0] == every[0] == min(every)

    def test_every_panel_of_a_verify_run(self, monkeypatch, capsys):
        # the flagged panels of real traffic, each against the 15-node
        # rule on the constant that f returned there
        from haarent import quadrature
        from haarent.cli import main
        one_node, panels = quadrature._one_node, []

        def recorded(f, a, b):
            seen = []

            def g(x):
                seen.append(f(x))
                return seen[-1]
            got = one_node(g, a, b)
            panels.append((a, b, got, seen))
            return got

        monkeypatch.setattr(quadrature, "_one_node", recorded)
        assert main(["verify", "--all", "--trials", "2"]) == 0
        capsys.readouterr()
        assert len(panels) > 100
        for a, b, got, seen in panels:
            assert len(seen) == 1
            v = float(seen[0])
            assert repr(got) == repr(_kronrod(lambda x: v, a, b)), (a, b, v)

    def test_step_densities_on_unions_match_the_unflagged_rule(self):
        rng = np.random.default_rng(91)
        loose = Integrator(rel_tol=1e-6)
        for trial in range(300):
            lo = float(rng.uniform(-50.0, 50.0))
            hi = lo + float(10.0 ** rng.uniform(-3.0, 2.0))
            space = Space.interval(lo, hi)
            pieces = int(rng.integers(1, 9))
            edges = sorted(float(e) for e in rng.uniform(lo, hi, pieces - 1))
            if trial % 5 == 0 and edges:
                edges[0] = lo  # an edge on the window's end
            values = [float(v) for v in rng.uniform(0.0, 3.0, pieces)]
            if trial % 3 == 0:
                values[int(rng.integers(pieces))] = 0.0
            d = step_density(edges, values)
            ends = sorted(float(p) for p in rng.uniform(lo, hi, 2 * int(
                rng.integers(1, 4))))
            s = MeasurableSet.of_intervals(space, zip(ends[::2], ends[1::2]))
            for f in (d.evaluator, lambda x: xlogx(d(x)),
                      lambda x: -math.log(d(x) + 0.5)):
                for cfg in (DEFAULT_INTEGRATOR, loose):
                    flat = integrate_result(f, s, cfg, d.breakpoints, True)
                    full_ = integrate_result(f, s, cfg, d.breakpoints)
                    assert (flat.value, flat.error_bound, flat.panels,
                            flat.worst_panel) == (
                        full_.value, full_.error_bound, full_.panels,
                        full_.worst_panel)
                    assert full_.evals == 15 * flat.evals
                    assert integrate(f, s, cfg, d.breakpoints, True) \
                        == flat.value


class TestEvalCounts:
    """IntegralResult.evals is the number of integrand calls."""

    def test_finite_path(self):
        space = Space.finite(range(10))
        s = MeasurableSet.of_atoms(space, [1, 4, 5, 9])
        f, seen = _counted(lambda a: a * 0.5)
        r = integrate_result(f, s)
        assert r.evals == len(seen) == 4

    @pytest.mark.parametrize("f,window,bps", [
        (math.exp, (0.0, 1.0), ()),
        (lambda x: 1.0 / x, (0.01, 1000.0), ()),
        (lambda x: abs(x - 0.3), (0.0, 2.0), (0.3, 1.1)),
    ])
    def test_kronrod_path(self, f, window, bps):
        g, seen = _counted(f)
        r = integrate_result(g, full(*window), breakpoints=bps)
        assert r.evals == len(seen)
        assert len(seen) % 15 == 0 and len(seen) >= 15 * r.panels

    def test_piecewise_constant_path(self):
        d = step_density([0.2, 0.5, 0.9], [1.0, 0.0, 3.0, 0.25])
        s = MeasurableSet.of_intervals(Space.interval(0.0, 1.0),
                                       [(0.0, 0.3), (0.4, 1.0)])
        g, seen = _counted(d.evaluator)
        r = integrate_result(g, s, breakpoints=d.breakpoints,
                             piecewise_constant=True)
        assert r.evals == len(seen) == r.panels == 5


class TestFiniteOverflow:
    def test_overflowing_sum_is_a_typed_error(self):
        space = Space.finite(["a", "b", "c"])
        s = MeasurableSet.full(space)
        with pytest.raises(SumOverflowError, match="exceeds the float range"):
            integrate(lambda p: 1e308, s)

    def test_sum_near_the_top_of_the_range_is_kept(self):
        space = Space.finite(["a", "b"])
        s = MeasurableSet.full(space)
        assert integrate(lambda p: 8e307, s) == 1.6e308

    @pytest.mark.parametrize("terms", [{"a": math.inf, "b": 1.0},
                                       {"a": math.inf, "b": -math.inf}],
                             ids=["inf", "inf-minus-inf"])
    def test_infinite_term_is_a_typed_error(self, terms):
        # math.fsum passes an inf term through without OverflowError
        s = MeasurableSet.full(Space.finite(["a", "b"]))
        with pytest.raises(SumOverflowError, match="exceeds the float range"):
            integrate(terms.__getitem__, s)


class TestIntervalOverflow:
    @pytest.mark.parametrize("f", [
        lambda x: math.inf,                    # a saturated exp(1000)
        lambda x: 1e308 * (x + 1.0) * 10.0,    # inf in float arithmetic
    ], ids=["inf", "product"])
    def test_infinite_panel_is_named(self, f):
        with pytest.raises(SumOverflowError,
                           match=r"range: inf on the panel \[0.0, 1.0\]"):
            integrate(f, full(0.0, 1.0))

    def test_finite_panels_summing_past_the_range(self):
        # each panel holds 8e307; their sum does not fit
        with pytest.raises(SumOverflowError, match="worst panel"):
            integrate(lambda x: 8e307, full(0.0, 3.0), breakpoints=(1.0, 2.0))

    @pytest.mark.parametrize("flat", [False, True])
    def test_nan_integrand_is_no_overflow(self, flat):
        # nan at a node and beside it is a domain fault, named with the
        # node and the panel
        with pytest.raises(DomainError,
                           match=r"integrand is nan at .+ on the panel "
                                 r"\[0.5, 1.0\]"):
            integrate(lambda x: math.nan if x > 0.5 else 1.0,
                      full(0.0, 1.0), breakpoints=(0.5,),
                      piecewise_constant=flat)

    def test_infinite_nodes_of_both_signs_stay_an_overflow(self):
        # inf - inf is nan in the panel's sums, but no node value is nan
        with pytest.raises(SumOverflowError, match="exceeds the float range"):
            integrate(lambda x: math.inf if x > 0.5 else -math.inf,
                      full(0.0, 1.0))


def test_split_panels_cut_only_inside():
    # breakpoints on an end, outside or repeated cut nothing
    got = _split_panels([(0.0, 1.0), (2.0, 3.0)],
                        [0.0, 0.5, 0.5, 1.0, 2.0, 2.5, 3.0, 4.0, math.inf])
    assert got == [(0.0, 0.5), (0.5, 1.0), (2.0, 2.5), (2.5, 3.0)]


class TestIntegratorConfig:
    def test_tolerances_validated(self):
        with pytest.raises(DomainError):
            Integrator(rel_tol=0.0)
        with pytest.raises(DomainError):
            Integrator(abs_tol=0.0)
        with pytest.raises(DomainError):
            Integrator(rel_tol=1e-2)
        # the bisections stop by the panel width alone; there is no knob
        with pytest.raises(TypeError):
            Integrator(max_depth=50)

    def test_defaults(self):
        assert DEFAULT_INTEGRATOR.rel_tol == 1e-10
        assert DEFAULT_INTEGRATOR.abs_tol == 1e-12
        assert [f.name for f in dataclasses.fields(Integrator)] == [
            "rel_tol", "abs_tol"]


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
