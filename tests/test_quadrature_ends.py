"""The stop rule of the bisection, at integrable singular ends, and the
reading of values that are not finite.

A panel is not split when it is at most 2^-50 of the set's extent wide,
or when its ends lie within 4 eps of its midpoint (QUADPACK qage's test);
when the worst panel is such a panel the integral raises ConvergenceError
at once. So an error bound does not lie at a singular end: each integral
below either meets |I - true| <= error_bound or raises. The rule rests on
float spacing and math.nextafter, and these tests need no numpy.

A nan integrand or summand is a DomainError, and an infinite one a
SumOverflowError, each naming where it occurs; neither is reported as a
finite sum past the float range.
"""

import math
import re

import pytest

from haarent.errors import ConvergenceError, DomainError, SumOverflowError
from haarent.measures import MeasurableSet, Space
from haarent.quadrature import (Integrator, _step_off, integrate,
                                integrate_result)

WINDOWS = [(0.0, 1.0), (1.0, 2.0), (1.0, 3.0), (999.0, 1000.0),
           (0.0, 50.0), (-1.0, 0.0), (-3.0, -1.0), (1e-3, 2e-3)]
POWERS = (0.1, 0.3, 0.5, 0.7, 0.9)
RELS = (1e-6, 1e-8, 1e-10)


def full(lo, hi):
    return MeasurableSet.full(Space.interval(lo, hi))


def atoms(names):
    return MeasurableSet.full(Space.finite(list(names)))


def singular_end(a, b, p, end):
    """(x - a)^-p or (b - x)^-p; each integrates to (b-a)^(1-p)/(1-p)."""
    if end == "left":
        return lambda x: (x - a) ** -p
    return lambda x: (b - x) ** -p


@pytest.mark.parametrize("a, b", WINDOWS,
                         ids=[f"[{a!r},{b!r}]" for a, b in WINDOWS])
def test_no_bound_lies_at_a_singular_end(a, b):
    met = set()
    for p in POWERS:
        true = (b - a) ** (1.0 - p) / (1.0 - p)
        for end in ("left", "right"):
            for rel in RELS:
                try:
                    r = integrate_result(singular_end(a, b, p, end),
                                         full(a, b), Integrator(rel_tol=rel))
                except ConvergenceError as err:
                    assert math.isfinite(err.estimate)
                    continue
                assert abs(r.value - true) <= r.error_bound, (p, end, rel)
                met.add((p, end, rel))
    # the mild singularities converge, so the rule does not merely raise
    for p in (0.1, 0.3):
        for end in ("left", "right"):
            for rel in (1e-6, 1e-8):
                assert (p, end, rel) in met


def test_singular_end_at_1000_raises():
    # panels at 1000 stop 16 floats wide; QAG's estimate is unreliable
    # on the narrower ones: split to the float limit, they sum to a bound
    # of 2.0e-10 on an error of 2.9e-7
    with pytest.raises(ConvergenceError, match="too narrow to split") as err:
        integrate(lambda x: (1000.0 - x) ** -0.5, full(999.0, 1000.0),
                  Integrator(rel_tol=1e-10))
    assert abs(err.value.estimate - 2.0) <= err.value.error_bound


def test_window_as_wide_as_the_float_range():
    # the window's width overflows to inf, but 2^-50 of it does not, so
    # the panel [0, 1e308] is split at the jump
    r = integrate_result(lambda x: 1e-300 if x < 5e307 else 2e-300,
                         full(-1e308, 1e308), breakpoints=(0.0,))
    assert r.value == pytest.approx(2.5e8, rel=1e-12)
    assert r.panels == 3


def test_one_panel_as_wide_as_the_float_range():
    # b - a overflows on [-1e308, 1e308], but the half width the nodes
    # are placed by does not
    r = integrate_result(lambda x: 1e-300, full(-1e308, 1e308),
                         piecewise_constant=True)
    assert r.value == pytest.approx(2e8, rel=1e-15)
    assert r.panels == 1


def test_split_of_a_panel_whose_ends_sum_past_the_float_range():
    # a + b overflows on [1e308, 1.7e308], but the midpoint 0.5 a + 0.5 b
    # does not, so the panel holding the peak is split
    c, w = 1.35e308, 1e306
    r = integrate_result(lambda x: math.exp(-((x - c) / w) ** 2),
                         full(1e308, 1.7e308))
    assert abs(r.value - math.sqrt(math.pi) * w) <= r.error_bound
    assert r.value == pytest.approx(math.sqrt(math.pi) * w, rel=1e-10)


class TestStepOff:
    def test_steps_at_least_one_float(self):
        x = 1.0 / math.pi
        f = lambda t: abs(t - x) ** -0.5   # faults on x itself
        # a nudge far below x's spacing rounds back to x
        w = _step_off(f, x, 1e-30, math.nan)
        assert w == f(math.nextafter(x, math.inf))

    def test_steps_by_the_nudge(self):
        # the first try is x + nudge when that is more than one float off
        w = _step_off(lambda t: t, 1.0, 1e-6, math.nan)
        assert w == 1.0 + 1e-6

    def test_finite_value_that_is_no_float_is_kept(self):
        # an int is read as a float, and f is not called again
        calls = []
        w = _step_off(lambda t: calls.append(t) or 0.0, 1.0, 1e-6, 7)
        assert type(w) is float and w == 7.0
        assert calls == []

    def test_interior_singularity_off_the_breakpoints(self):
        # a node lands on x0, where f faults; a step shorter than one
        # float would call f on x0 again, and the estimate would be nan
        x0 = 1.0 / math.pi
        f = lambda x: abs(x - x0) ** -0.5
        true = 2.0 * (math.sqrt(x0) + math.sqrt(1.0 - x0))
        r = integrate_result(f, full(0.0, 1.0), Integrator(rel_tol=1e-6))
        assert abs(r.value - true) <= r.error_bound
        for rel in (1e-8, 1e-10):
            with pytest.raises(ConvergenceError) as err:
                integrate(f, full(0.0, 1.0), Integrator(rel_tol=rel))
            assert math.isfinite(err.value.estimate)


class TestNotFinite:
    def test_division_by_zero_on_a_stretch_is_nan(self):
        def f(x):
            if x > 0.5:
                raise ZeroDivisionError("float division by zero")
            return 1.0
        with pytest.raises(DomainError, match=re.escape(
                "the integrand is nan at 0.6038924775039493 on the panel "
                "[0.0, 1.0]")):
            integrate(f, full(0.0, 1.0))

    def test_overflow_on_a_stretch_is_an_infinite_panel(self):
        def f(x):
            return math.exp(1e4 * x) if x > 0.5 else 1.0
        with pytest.raises(SumOverflowError, match=re.escape(
                "the integral exceeds the float range: inf on the panel "
                "[0.0, 1.0]")):
            integrate(f, full(0.0, 1.0))

    def test_nan_term_names_its_atom(self):
        with pytest.raises(DomainError,
                           match="the summand is nan at the atom 'b'"):
            integrate(lambda p: math.nan if p == "b" else 1.0, atoms("abc"))

    @pytest.mark.parametrize("terms", [
        {"b": math.inf}, {"b": -math.inf}, {"b": math.inf, "c": -math.inf},
        {"b": math.inf, "c": math.nan}])
    def test_infinite_term_names_its_atom(self, terms):
        with pytest.raises(SumOverflowError, match=re.escape(
                f"the sum over 3 atoms exceeds the float range: the term "
                f"at the atom 'b' is {terms['b']!r}")):
            integrate(lambda p: terms.get(p, 1.0), atoms("abc"))

    def test_finite_terms_past_the_range(self):
        with pytest.raises(SumOverflowError, match=re.escape(
                "the sum over 3 atoms exceeds the float range (largest "
                "term 1.7e+308)")):
            integrate(lambda p: 1.7e308, atoms("abc"))

    @pytest.mark.parametrize("abs_tol", [0.0, -1e-12, math.nan, math.inf])
    def test_abs_tol_positive_and_finite(self, abs_tol):
        with pytest.raises(DomainError, match="abs_tol must be positive "
                                              "and finite"):
            Integrator(abs_tol=abs_tol)
