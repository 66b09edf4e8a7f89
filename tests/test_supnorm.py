import math
import re

import numpy as np
import pytest

from haarent.dsl import density_from_expr
from haarent.entropy import nonneg_certificate
from haarent.errors import DomainError, NormalizationError
from haarent.groups import (TWO_PI, AdditiveReals, Circle, Cyclic,
                            MultiplicativePositiveReals, _translation_knots,
                            haar, translate_set, translation_samples)
from haarent.measures import (Density, MeasurableSet, Measure, Space, mass,
                              step_density, table_density)
from haarent.supnorm import (check_translate_bound, is_information_measure,
                             sup_density, sup_normalize)

UNIT = Space.interval(0.0, 1.0)
LEB = Measure.lebesgue(UNIT)
FULL = MeasurableSet.full(UNIT)
DIE = Space.finite([1, 2, 3, 4, 5, 6])


def density_measure(space, f, breakpoints=()):
    return Measure.from_density(space, Density(f, tuple(breakpoints)))


class TestSupDensity:
    def test_linear_density_attains_at_endpoint(self):
        m = density_measure(UNIT, lambda x: 2.0 * x)
        assert sup_density(m, LEB, FULL) == 2.0

    def test_step_density_exact(self):
        m = Measure.from_density(UNIT, step_density([0.3], [1.0, 3.0]))
        assert sup_density(m, LEB, FULL) == 3.0

    def test_finite_space_exact(self):
        m = Measure.from_density(DIE, table_density(DIE, {1: 0.5, 6: 2.0}))
        assert sup_density(m, Measure.counting(DIE),
                           MeasurableSet.full(DIE)) == 2.0

    def test_constant_quotient_exact(self):
        m = LEB.scaled(0.37)
        assert sup_density(m, LEB, FULL) == 0.37

    def test_restricted_to_subset(self):
        m = density_measure(UNIT, lambda x: 2.0 * x)
        half = MeasurableSet.of_interval(UNIT, 0.0, 0.5)
        assert sup_density(m, LEB, half) == pytest.approx(1.0, abs=1e-12)

    def test_reciprocal_sup_found_at_the_window_start(self):
        space = Space.interval(1.0, 10.0)
        m = haar(MultiplicativePositiveReals((1.0, 10.0)))
        assert sup_density(m, Measure.lebesgue(space),
                           MeasurableSet.full(space)) == 1.0

    def test_step_pieces_outside_the_space_do_not_count(self):
        # the pieces below -1 (3.0) and above 5 (0.2) lie outside [0, 2]
        space = Space.interval(0.0, 2.0)
        leb, full = Measure.lebesgue(space), MeasurableSet.full(space)
        rho = Measure.from_density(space, step_density([-1.0, 5.0],
                                                       [3.0, 0.5, 0.2]))
        assert sup_density(rho, leb, full) == 0.5
        assert is_information_measure(rho, leb, full)
        assert nonneg_certificate(rho, leb, full).lhs == 1.0  # rho(X) = 1
        _, _, report = sup_normalize(rho, rho, leb, full)
        assert report.sup_rho == 0.5
        assert rho.density(report.at_rho) == 0.5

    def test_interior_peak_found(self):
        m = density_measure(UNIT, lambda x: math.exp(-40.0 * (x - 0.37) ** 2))
        assert sup_density(m, LEB, FULL) == pytest.approx(1.0, abs=1e-6)

    def test_step_quotient_costs_one_evaluation_per_piece(self):
        step = step_density([0.3, 0.6], [1.0, 3.0, 2.0])
        calls = []

        def counted(x):
            calls.append(x)
            return step(x)

        m = Measure(UNIT, Density(counted, step.breakpoints,
                                  piecewise_constant=True))
        assert sup_density(m, LEB, FULL) == 3.0
        assert calls == pytest.approx([0.15, 0.45, 0.8])
        # a union meeting one piece with each interval
        calls.clear()
        two = MeasurableSet.of_intervals(UNIT, [(0.0, 0.2), (0.7, 1.0)])
        assert sup_density(m, LEB, two) == 2.0
        assert calls == [0.1, 0.85]
        # a point set is one evaluation too
        calls.clear()
        assert sup_density(m, LEB, MeasurableSet.of_interval(UNIT, 0.4, 0.4))\
            == 3.0
        assert calls == [0.4]

    def test_integer_atoms_keep_a_float_quotient(self):
        space = Space.finite([1, 2, 3])
        m = Measure.from_density(space, Density(lambda x: x))
        sup = sup_density(m, Measure.counting(space),
                          MeasurableSet.full(space))
        assert (type(sup), sup) == (float, 3.0)

    @pytest.mark.parametrize("space, f, at", [
        # exp(800) - exp(800) is inf - inf on (0.33, 0.34)
        (UNIT, "piecewise {0.33 < x < 0.34: exp(800) - exp(800); "
               "else: 0.5}", 0.33203125),
        (UNIT, "piecewise {x < 0.5: 0.5; else: exp(800) - exp(800)}", 0.5),
        (DIE, lambda a: math.nan if a == 4 else 0.5, 4)])
    def test_nan_sample_raises(self, space, f, at):
        density = (density_from_expr(f, space) if isinstance(f, str)
                   else Density(f))
        m = Measure(space, density)  # no check of the density's values
        ref = Measure.lebesgue(space) if space is UNIT \
            else Measure.counting(space)
        full = MeasurableSet.full(space)
        for check in (sup_density, is_information_measure,
                      nonneg_certificate):
            with pytest.raises(DomainError, match=re.escape(
                    f"the density quotient is nan at {at!r}")):
                check(m, ref, full)


class TestSupNormalize:
    def test_pinned_pair(self):
        rho = density_measure(UNIT, lambda x: 2.0 * x)
        xi = density_measure(UNIT, lambda x: math.exp(-x))
        rho2, xi2, report = sup_normalize(rho, xi, LEB, FULL)
        assert report.c == 1.0
        assert report.sup_rho == pytest.approx(2.0, abs=1e-10)
        assert report.sup_xi == pytest.approx(1.0, abs=1e-10)
        assert report.scale_rho == pytest.approx(0.5, abs=1e-10)
        assert report.scale_xi == pytest.approx(1.0, abs=1e-10)
        assert sup_density(rho2, LEB, FULL) == pytest.approx(1.0, abs=1e-10)
        assert sup_density(xi2, LEB, FULL) == pytest.approx(1.0, abs=1e-10)

    def test_idempotent(self):
        rho = density_measure(UNIT, lambda x: 2.0 * x)
        xi = density_measure(UNIT, lambda x: math.exp(-x))
        rho2, xi2, _ = sup_normalize(rho, xi, LEB, FULL)
        _, _, again = sup_normalize(rho2, xi2, LEB, FULL)
        assert again.scale_rho == pytest.approx(1.0, abs=1e-9)
        assert again.scale_xi == pytest.approx(1.0, abs=1e-9)

    def test_custom_target(self):
        rho = Measure.from_density(UNIT, step_density([0.5], [1.0, 4.0]))
        xi = LEB.scaled(0.25)
        rho2, xi2, report = sup_normalize(rho, xi, LEB, FULL, target=2.0)
        assert report.c == 2.0
        assert sup_density(rho2, LEB, FULL) == pytest.approx(2.0, abs=1e-10)
        assert sup_density(xi2, LEB, FULL) == pytest.approx(2.0, abs=1e-10)

    def test_argmax_locations_reported(self):
        rho = density_measure(UNIT, lambda x: 2.0 * x)
        xi = density_measure(UNIT, lambda x: math.exp(-x))
        _, _, report = sup_normalize(rho, xi, LEB, FULL)
        assert report.at_rho == pytest.approx(1.0, abs=1e-6)
        assert report.at_xi == pytest.approx(0.0, abs=1e-6)

    def test_finite_space_pair(self):
        counting = Measure.counting(DIE)
        rho = Measure.from_density(DIE, table_density(
            DIE, {a: float(a) for a in DIE.atoms}))
        xi = counting.scaled(0.5)
        rho2, xi2, report = sup_normalize(rho, xi, counting,
                                          MeasurableSet.full(DIE))
        assert report.sup_rho == 6.0
        assert rho2.density(6) == pytest.approx(1.0, abs=1e-12)
        assert xi2.density(3) == pytest.approx(1.0, abs=1e-12)

    def test_zero_measure_rejected(self):
        zero = density_measure(UNIT, lambda x: 0.0)
        with pytest.raises(NormalizationError):
            sup_normalize(zero, LEB, LEB, FULL)

    def test_bad_target_rejected(self):
        with pytest.raises(NormalizationError):
            sup_normalize(LEB, LEB, LEB, FULL, target=0.0)
        with pytest.raises(NormalizationError):
            sup_normalize(LEB, LEB, LEB, FULL, target=math.inf)


class TestEmptySet:
    # the counting measure against itself has a constant quotient
    @pytest.mark.parametrize("m", [
        Measure.counting(DIE),
        Measure.from_density(DIE, table_density(DIE, {1: 0.5, 2: 1.0}))])
    def test_sup_over_empty_set_rejected(self, m):
        counting = Measure.counting(DIE)
        empty = MeasurableSet.of_atoms(DIE, [])
        with pytest.raises(DomainError):
            sup_density(m, counting, empty)
        with pytest.raises(DomainError):
            sup_normalize(m, counting, counting, empty)
        with pytest.raises(DomainError):
            is_information_measure(m, counting, empty)
        with pytest.raises(DomainError):
            nonneg_certificate(m, counting, empty)


class TestIsInformationMeasure:
    def test_sub_unit_quotients_accepted(self):
        m = density_measure(UNIT, lambda x: math.exp(-x))
        assert is_information_measure(m, LEB, FULL)

    def test_super_unit_quotients_rejected(self):
        m = density_measure(UNIT, lambda x: 2.0 * x)
        assert not is_information_measure(m, LEB, FULL)

    def test_boundary_quotient_accepted(self):
        assert is_information_measure(LEB, LEB, FULL)

    def test_constant_fast_path(self):
        assert is_information_measure(LEB.scaled(0.5), LEB, FULL)
        assert not is_information_measure(LEB.scaled(1.5), LEB, FULL)

    def test_subset_scope(self):
        m = density_measure(UNIT, lambda x: 2.0 * x)
        half = MeasurableSet.of_interval(UNIT, 0.0, 0.5)
        assert is_information_measure(m, LEB, half)


class TestTranslateBound:
    def test_finite_group_dominated_measure_passes(self):
        g = Cyclic(6)
        nu = haar(g)
        rho = Measure.from_density(g.carrier, table_density(
            g.carrier, {"0": 0.2, "1": 0.9, "2": 0.5, "3": 0.1,
                        "4": 0.7, "5": 0.4}))
        a = MeasurableSet.of_atoms(g.carrier, ["0", "2"])
        lhs, rhs, _ = check_translate_bound(rho, nu, g, a)
        assert lhs <= rhs

    def test_window_group_passes(self):
        g = AdditiveReals((0.0, 10.0))
        nu = haar(g)
        rho = density_measure(g.carrier, lambda x: math.exp(-x))
        a = MeasurableSet.of_interval(g.carrier, 1.0, 2.0)
        lhs, rhs, notes = check_translate_bound(rho, nu, g, a)
        assert lhs <= rhs
        assert "sampled translates" in notes

    def test_set_near_the_window_ends_uses_every_sample(self):
        # A fills the window up to an ulp below 100: every sample is the
        # identity, and none is dropped
        g = MultiplicativePositiveReals((0.1, 100.0))
        a = MeasurableSet.of_interval(g.carrier, 0.1, 99.99999999999999)
        rho = density_measure(g.carrier, lambda x: 0.5)
        lhs, rhs, notes = check_translate_bound(rho, haar(g), g, a)
        assert lhs <= rhs
        assert notes.startswith("sampled translates only (64 used);")

    def test_equality_case_passes_with_zero_slack(self):
        g = Cyclic(4)
        nu = haar(g)
        a = MeasurableSet.of_atoms(g.carrier, ["0"])
        lhs, rhs, _ = check_translate_bound(nu, nu, g, a)
        assert rhs - lhs == pytest.approx(0.0, abs=1e-12)



def sampled_max(rho, group, a_set, count):
    """max rho(gA) over `count` translation_samples."""
    return max(mass(rho, translate_set(group, g, a_set))
               for g in translation_samples(group, count, for_set=a_set))


def cumulative(edges, values, lo, hi):
    """x -> exact mass of [lo, x] under step_density(edges, values) on
    [lo, hi] (edges inside the window): sum of v_k * |[lo, x] & cell_k|,
    linear between the cuts. Vectorised over x."""
    cuts = np.array([lo, *edges, hi])
    cum = np.concatenate(([0.0], np.cumsum(np.diff(cuts) * values)))
    return lambda x: np.interp(x, cuts, cum)


def random_step(rng, lo, hi, pieces=5):
    edges = tuple(float(e) for e in np.sort(rng.uniform(lo, hi, pieces - 1)))
    values = tuple(float(v) for v in rng.uniform(0.05, 0.95, pieces))
    return edges, values


class TestTranslateBoundKnots:
    """Piecewise-constant rho and nu on a continuous group: the check runs
    over the knots of g -> rho(gA), where both extremes are attained."""

    G = AdditiveReals((0.0, 10.0))

    def test_finds_the_max_the_samples_miss(self):
        g = self.G
        rho = Measure.from_density(g.carrier, step_density(
            [5.0, 5.05], [0.1, 0.9, 0.1]))
        a = MeasurableSet.of_interval(g.carrier, 1.0, 1.05)
        lhs, rhs, notes = check_translate_bound(rho, haar(g), g, a)
        sampled = sampled_max(rho, g, a, 32)
        # gA = [5, 5.05], the spike, at g = 4 alone; and the bound is tight
        assert lhs == pytest.approx(0.9 * 0.05, rel=1e-12)
        assert rhs - lhs == pytest.approx(0.0, abs=1e-12)
        assert sampled < 0.5 * lhs
        assert notes.startswith("every translation (")
        assert "knots)" in notes

    @staticmethod
    def _additive_instance(i):
        rng = np.random.default_rng([13, i])
        rho = random_step(rng, 0.0, 10.0)
        nu = random_step(rng, 0.0, 10.0) if i % 2 else ((), (1.0,))
        if i % 4 == 3:  # a union of two intervals
            a, b, c, d = (float(x) for x in np.sort(rng.uniform(0, 10, 4)))
            ends = ((a, b), (c, d))
        else:
            a = float(rng.uniform(0.0, 9.7))
            ends = ((a, float(rng.uniform(a + 0.3, 10.0))),)
        return rho, nu, ends

    def test_knot_extremes_bracket_10k_translates(self):
        g = self.G
        for i in range(200):
            rho_sv, nu_sv, ends = self._additive_instance(i)
            rho = Measure.from_density(g.carrier, step_density(*rho_sv))
            nu = Measure.from_density(g.carrier, step_density(*nu_sv))
            a_set = MeasurableSet.of_intervals(g.carrier, ends)
            lhs, rhs, notes = check_translate_bound(rho, nu, g, a_set)
            assert notes.startswith("every translation (")
            # closed-form rho(gA), nu(gA) over 10^4 admissible translates
            mn, mx = ends[0][0], ends[-1][1]
            gs = np.linspace(-mn, 10.0 - mx, 10_000)
            r_cum = cumulative(*rho_sv, 0.0, 10.0)
            n_cum = cumulative(*nu_sv, 0.0, 10.0)
            r = sum(r_cum(gs + b) - r_cum(gs + a) for a, b in ends)
            n = sum(n_cum(gs + b) - n_cum(gs + a) for a, b in ends)
            # |d/dg m(gA)| <= 2 * len(ends) * sup density, so the true
            # extremes lie within half a grid step of it from the grid's
            lip = 2 * len(ends) * max(max(rho_sv[1]), max(nu_sv[1]))
            reach = lip * (gs[1] - gs[0]) / 2 + 1e-12
            assert r.max() - 1e-12 <= lhs <= r.max() + reach, i
            c = sup_density(rho, nu, MeasurableSet.full(g.carrier))
            inf_nu = rhs / c
            assert n.min() - reach <= inf_nu <= n.min() + 1e-12, i

    def test_multiplicative_knots(self):
        g = MultiplicativePositiveReals((0.1, 100.0))
        rho_sv = ((3.0, 7.5, 20.0, 41.0), (0.2, 0.9, 0.05, 0.6, 0.3))
        nu_sv = ((12.0, 60.0), (0.5, 0.1, 0.8))
        rho = Measure.from_density(g.carrier, step_density(*rho_sv))
        nu = Measure.from_density(g.carrier, step_density(*nu_sv))
        a, b = 2.0, 5.0
        a_set = MeasurableSet.of_interval(g.carrier, a, b)
        lhs, rhs, notes = check_translate_bound(rho, nu, g, a_set)
        assert notes.startswith("every translation (")
        gs = np.linspace(0.1 / a, 100.0 / b, 10_000)
        r_cum = cumulative(*rho_sv, 0.1, 100.0)
        n_cum = cumulative(*nu_sv, 0.1, 100.0)
        r = r_cum(gs * b) - r_cum(gs * a)
        n = n_cum(gs * b) - n_cum(gs * a)
        reach = 2 * b * 0.9 * (gs[1] - gs[0]) / 2 + 1e-12
        assert r.max() - 1e-12 <= lhs <= r.max() + reach
        c = sup_density(rho, nu, MeasurableSet.full(g.carrier))
        assert n.min() - reach <= rhs / c <= n.min() + 1e-12

    def test_circle_knots_with_wrap_around(self):
        g = Circle()
        rho_sv = ((1.0, 1.3, 4.0, 5.5), (0.1, 0.9, 0.1, 0.3, 0.05))
        rho = Measure.from_density(g.carrier, step_density(*rho_sv))
        # an arc of width 0.3 across 0, and one more; the max needs the
        # first on the spike [1, 1.3], at g = 1.2 alone
        ends = ((0.0, 0.1), (3.0, 3.2), (TWO_PI - 0.2, TWO_PI))
        a_set = MeasurableSet.of_intervals(g.carrier, ends)
        lhs, rhs, notes = check_translate_bound(rho, haar(g), g, a_set)
        sampled = sampled_max(rho, g, a_set, 64)
        assert notes.startswith("every translation (")
        assert sampled < lhs - 1e-3
        r_cum = cumulative(*rho_sv, 0.0, TWO_PI)

        def arc_mass(x, w):  # the arc [x, x + w] of the circle, x in [0, 2pi)
            over = np.maximum(x + w - TWO_PI, 0.0)
            return (r_cum(np.minimum(x + w, TWO_PI)) - r_cum(x)
                    + r_cum(over))

        gs = np.linspace(0.0, TWO_PI, 10_000, endpoint=False)
        r = sum(arc_mass((gs + a) % TWO_PI, b - a) for a, b in ends)
        reach = 2 * len(ends) * 0.9 * (gs[1] - gs[0]) / 2 + 1e-12
        assert r.max() - 1e-12 <= lhs <= r.max() + reach
        # haar is rotation invariant, and c = sup rho = 0.9
        width = sum(b - a for a, b in ends)
        assert rhs == pytest.approx(0.9 * width, rel=1e-12)

    @pytest.mark.parametrize("group, a, b", [
        # fl(fl(0.1 - a) + a) < 0.1 and fl(fl(7.3 - b) + b) > 7.3
        (AdditiveReals((0.1, 7.3)), 0.4128263596016052, 2.270156510358175),
        # fl(fl(0.1 / a) * a) < 0.1 and fl(fl(100 / b) * b) > 100
        (MultiplicativePositiveReals((0.1, 100.0)),
         18.57641382711301, 89.99960645091213),
    ])
    def test_window_limits_are_admissible(self, group, a, b):
        lo, hi = group.window
        move, solve = ((lambda g, x: g + x, lambda p, x: p - x)
                       if isinstance(group, AdditiveReals) else
                       (lambda g, x: g * x, lambda p, x: p / x))
        # the naive limits escape the window by rounding
        assert move(solve(lo, a), a) < lo and move(solve(hi, b), b) > hi
        a_set = MeasurableSet.of_interval(group.carrier, a, b)
        knots = _translation_knots(group, a_set, (1.0, 2.0, 5.0))
        for k in knots:
            translate_set(group, k, a_set)  # no WindowOverflowError
        # the limits are kept: they move A onto the window's ends
        assert move(knots[0], a) == pytest.approx(lo, rel=1e-15)
        assert move(knots[-1], b) == pytest.approx(hi, rel=1e-15)
        leb = Measure.lebesgue(group.carrier)
        _, _, notes = check_translate_bound(leb, leb, group, a_set)
        assert notes.startswith("every translation (2 knots)")

    def test_full_window_counts_admissible_knots_only(self):
        # fl(hi * fl(1/hi)) is one ulp below 1, which would move lo out
        g = MultiplicativePositiveReals(
            (0.062134256810232984, 33.90479033722107))
        full = MeasurableSet.full(g.carrier)
        leb = Measure.lebesgue(g.carrier)
        lhs, rhs, notes = check_translate_bound(leb, leb, g, full)
        assert lhs == rhs == mass(leb, full)
        assert notes.startswith("every translation (1 knots)")

    def test_empty_set_has_one_translate(self):
        g = self.G
        empty = MeasurableSet.of_intervals(g.carrier, [])
        lhs, rhs, notes = check_translate_bound(haar(g), haar(g), g, empty)
        assert (lhs, rhs) == (0.0, 0.0)
        assert notes.startswith("every translation (1 knots)")

    def test_finite_groups_use_every_element(self):
        g = Cyclic(6)
        rho = Measure.from_density(g.carrier, table_density(
            g.carrier, {"0": 0.2, "1": 0.9, "4": 0.7}))
        a = MeasurableSet.of_atoms(g.carrier, ["0", "2"])
        _, _, notes = check_translate_bound(rho, haar(g), g, a)
        assert notes.startswith("every translation (6 elements)")

    def test_unflagged_densities_keep_the_samples(self):
        g = self.G
        a = MeasurableSet.of_interval(g.carrier, 1.0, 2.0)
        step = Measure.from_density(g.carrier, step_density([5.0], [0.2, 0.8]))
        closure = density_measure(g.carrier, lambda x: 0.5, ())
        dsl = Measure.from_density(g.carrier, density_from_expr(
            "piecewise {x < 5: 0.2; else: 0.8}", g.carrier))
        for rho, nu in ((step, closure), (closure, haar(g)),
                        (dsl, haar(g))):
            lhs, rhs, notes = check_translate_bound(rho, nu, g, a)
            assert lhs <= rhs
            assert notes.startswith("sampled translates only (64 used)")
