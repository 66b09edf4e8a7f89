"""Acceptance gate: one test per advertised guarantee, at its stated
tolerance. Run with -v to get a pass/fail line per criterion."""

import bisect
import math
import time

import numpy as np
import pytest

from haarent.cli import main as cli_main
from haarent.dsl import (BinOp, Call, Neg, Num, Piecewise, Var, evaluate,
                         format_expr, parse)
from haarent.entropy import (Verdict, entropic_gap, entropy_finite,
                             entropy_prob, entropy_weight, nonneg_certificate,
                             uniform_measure)
from haarent.errors import ExprEvalError, ExprSyntaxError
from haarent.groups import (AdditiveReals, Dihedral,
                            MultiplicativePositiveReals, haar,
                            subgroup_chains, translate_set)
from haarent.maxent import concavity_probe, maximize_entropy
from haarent.measures import (MeasurableSet, Measure, Space, WeightFunction,
                              mass, measure_of_weight, step_density,
                              table_density)


def step_measure(space, rng, pieces=4, vlo=0.0, vhi=3.0):
    lo, hi = space.bounds
    cuts = np.sort(rng.uniform(lo, hi, pieces - 1))
    vals = rng.uniform(vlo, vhi, pieces)
    return Measure.from_density(
        space, step_density([float(c) for c in cuts],
                            [float(v) for v in vals]))


def table_measure(space, rng, vlo=0.0, vhi=2.0, zero_rate=0.0):
    vals = rng.uniform(vlo, vhi, len(space.atoms))
    if zero_rate:
        vals[rng.random(len(vals)) < zero_rate] = 0.0
        if not vals.any():
            vals[0] = 1.0
    return Measure.from_density(
        space, table_density(space, dict(zip(space.atoms,
                                             (float(v) for v in vals)))))


def test_criterion_01_flat_reference_scores_log_length():
    """Entropy of the translation-invariant measure on [a,b] is log(b-a),
    unchanged by translation; within 1e-8 and under a second."""
    t0 = time.perf_counter()
    add = AdditiveReals((-10.0, 15.0))
    nu = haar(add)
    for a, b in ((0.0, 1.0), (2.0, 5.0)):
        s = MeasurableSet.of_interval(add.carrier, a, b)
        want = math.log(b - a)
        got = entropy_finite(nu, nu, s).nats
        assert got == pytest.approx(want, abs=1e-8)
        for g in (-2.0, 0.5, 3.0):
            moved = translate_set(add, g, s)
            assert entropy_finite(nu, nu, moved).nats == pytest.approx(
                want, abs=1e-8)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_scale_reference_scores_loglog():
    """Entropy of the scale-invariant measure on [a,b] is log log(b/a),
    unchanged by rescaling; within 1e-8."""
    mul = MultiplicativePositiveReals((0.05, 100.0))
    nu = haar(mul)
    for a, b in ((1.0, math.e ** 2), (2.0, 8.0)):
        s = MeasurableSet.of_interval(mul.carrier, a, b)
        want = math.log(math.log(b / a))
        got = entropy_finite(nu, nu, s).nats
        assert got == pytest.approx(want, abs=1e-8)
        for g in (0.5, 2.0, 10.0):
            moved = translate_set(mul, g, s)
            assert entropy_finite(nu, nu, moved).nats == pytest.approx(
                want, abs=1e-8)


def test_criterion_03_mixed_reference_value_and_non_invariance():
    """The scale-invariant measure against a flat reference scores
    (1/2) log(b/a) log(ab) within 1e-8, and translation by 2 moves the
    value by more than 1e-3."""
    mul = MultiplicativePositiveReals((0.25, 20.0))
    mu_h = haar(mul)
    leb = Measure.lebesgue(mul.carrier)
    import warnings

    from haarent.entropy import NonUnitMassWarning

    def value(s):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonUnitMassWarning)
            return entropy_prob(mu_h, leb, s).nats

    for a, b in ((1.0, math.e), (2.0, 5.0)):
        s = MeasurableSet.of_interval(mul.carrier, a, b)
        want = 0.5 * math.log(b / a) * math.log(a * b)
        assert value(s) == pytest.approx(want, abs=1e-8)

    base = MeasurableSet.of_interval(mul.carrier, 2.0, 5.0)
    at_rest = value(base)
    shifted = MeasurableSet.of_interval(mul.carrier, 4.0, 7.0)
    assert abs(value(shifted) - at_rest) > 1e-3
    scaled = translate_set(mul, 2.0, base)
    assert abs(value(scaled) - at_rest) > 1e-3


def test_criterion_04_dihedral_entropy_exact_and_chain_monotone():
    """S of the invariant measure of D_n is log 2n with exact float
    equality; entropy grows along every subgroup chain of D_6."""
    for n in (3, 4, 6):
        g = Dihedral(n)
        nu = haar(g)
        counting = Measure.counting(g.carrier)
        got = entropy_finite(nu, counting,
                             MeasurableSet.full(g.carrier)).nats
        assert got == math.log(2 * n)

    g = Dihedral(6)
    nu = haar(g)
    counting = Measure.counting(g.carrier)
    chains = subgroup_chains(g)
    assert chains
    for chain in chains:
        values = [entropy_finite(nu, counting, h.as_set()).nats
                  for h in chain]
        for prev, nxt in zip(values, values[1:]):
            assert nxt > prev


def test_criterion_05_uniform_maximizes_entropy():
    """500 random measures per carrier stay at or below log nu(s) + 1e-8;
    the uniform measure attains log nu(s) within 1e-9; under 30 s."""
    t0 = time.perf_counter()

    cyc = Space.finite([str(k) for k in range(16)])
    counting = Measure.counting(cyc)
    full_c = MeasurableSet.full(cyc)
    bound_c = math.log(mass(counting, full_c))
    for trial in range(500):
        rng = np.random.default_rng([5, 1, trial])
        eta = table_measure(cyc, rng, vlo=0.0, vhi=2.0, zero_rate=0.2)
        assert entropy_finite(eta, counting, full_c).nats <= bound_c + 1e-8
    u = uniform_measure(counting, full_c)
    assert entropy_finite(u, counting, full_c).nats == pytest.approx(
        bound_c, abs=1e-9)

    space = Space.interval(0.0, 2.0)
    leb = Measure.lebesgue(space)
    full_i = MeasurableSet.full(space)
    bound_i = math.log(mass(leb, full_i))
    for trial in range(500):
        rng = np.random.default_rng([5, 2, trial])
        eta = step_measure(space, rng, vlo=0.0, vhi=3.0)
        assert entropy_finite(eta, leb, full_i).nats <= bound_i + 1e-8
    u = uniform_measure(leb, full_i)
    assert entropy_finite(u, leb, full_i).nats == pytest.approx(
        bound_i, abs=1e-9)

    assert time.perf_counter() - t0 < 30.0


def test_criterion_06_weight_form_identities():
    """Constant weights 0, 1, 7 all score log nu(X) within 1e-9; on 200
    random weight functions the weight form agrees with the finite form
    of the induced measure within 1e-9."""
    space = Space.interval(0.0, 3.0)
    leb = Measure.lebesgue(space)
    full = MeasurableSet.full(space)
    for a in (0.0, 1.0, 7.0):
        got = entropy_weight(WeightFunction.const(a), leb, full)
        assert got.nats == pytest.approx(math.log(3.0), abs=1e-9)

    unit = Space.interval(0.0, 1.0)
    leb1 = Measure.lebesgue(unit)
    full1 = MeasurableSet.full(unit)
    for trial in range(200):
        rng = np.random.default_rng([6, trial])
        edges = tuple(float(c) for c in np.sort(rng.uniform(0.0, 1.0, 3)))
        values = [float(v) if rng.random() > 0.1 else math.inf
                  for v in rng.uniform(0.0, 4.0, 4)]
        if all(v == math.inf for v in values):
            values[0] = 1.0

        def ev(x, _e=edges, _v=tuple(values)):
            return _v[bisect.bisect_right(_e, x)]

        phi = WeightFunction(ev, breakpoints=edges)
        a = entropy_weight(phi, leb1, full1)
        b = entropy_finite(measure_of_weight(phi, leb1), leb1, full1)
        assert a.nats == pytest.approx(b.nats, abs=1e-9)


def test_criterion_07_change_of_reference_residual():
    """Moving the reference through an intermediate measure reproduces the
    direct entropy: 200 interval triples within 1e-8, 200 finite triples
    within 1e-12."""
    from haarent.entropy import change_reference

    unit = Space.interval(0.0, 1.0)
    for trial in range(200):
        rng = np.random.default_rng([7, 1, trial])
        rho = step_measure(unit, rng, vlo=0.05, vhi=2.0)
        mu = step_measure(unit, rng, vlo=0.05, vhi=2.0)
        nu = step_measure(unit, rng, vlo=0.05, vhi=2.0)
        direct = entropy_finite(rho, nu, MeasurableSet.full(unit)).nats
        via = change_reference(rho, mu, nu, MeasurableSet.full(unit)).nats
        assert abs(direct - via) < 1e-8

    cyc = Space.finite([str(k) for k in range(10)])
    full = MeasurableSet.full(cyc)
    for trial in range(200):
        rng = np.random.default_rng([7, 2, trial])
        rho = table_measure(cyc, rng, vlo=0.1, vhi=2.0)
        mu = table_measure(cyc, rng, vlo=0.1, vhi=2.0)
        nu = table_measure(cyc, rng, vlo=0.1, vhi=2.0)
        direct = entropy_finite(rho, nu, full).nats
        via = change_reference(rho, mu, nu, full).nats
        assert abs(direct - via) < 1e-12


def test_criterion_08_entropic_gap_identity_and_sign():
    """On 200 random instances with an information-measure factor, the gap
    equals the entropy difference within 1e-8 and is >= -1e-10."""
    add = AdditiveReals((0.0, 1.0))
    nu = haar(add)
    full = MeasurableSet.full(add.carrier)
    for trial in range(200):
        rng = np.random.default_rng([8, trial])
        rho = step_measure(add.carrier, rng, vlo=0.05, vhi=2.0)
        xi = step_measure(add.carrier, rng, vlo=0.05, vhi=1.0)
        gap = entropic_gap(rho, xi, nu, full)
        s_haar = entropy_finite(rho, nu, full).nats
        s_xi = entropy_finite(rho, xi, full).nats
        assert abs(gap - (s_haar - s_xi)) < 1e-8
        assert gap >= -1e-10


def test_criterion_09_nonnegativity_at_unit_mass():
    """500 random information measures of mass >= 1: entropy >= -1e-10 and
    the certificate never reports MayBeNegative."""
    space = Space.interval(0.0, 3.0)
    leb = Measure.lebesgue(space)
    full_i = MeasurableSet.full(space)
    cyc = Space.finite([str(k) for k in range(12)])
    counting = Measure.counting(cyc)
    full_c = MeasurableSet.full(cyc)

    for trial in range(250):
        rng = np.random.default_rng([9, 1, trial])
        m = step_measure(space, rng, vlo=0.4, vhi=1.0)
        assert mass(m, full_i) >= 1.0
        assert entropy_finite(m, leb, full_i).nats >= -1e-10
        cert = nonneg_certificate(m, leb, full_i)
        assert cert.verdict is not Verdict.MAY_BE_NEGATIVE

    for trial in range(250):
        rng = np.random.default_rng([9, 2, trial])
        m = table_measure(cyc, rng, vlo=0.4, vhi=1.0)
        assert mass(m, full_c) >= 1.0
        assert entropy_finite(m, counting, full_c).nats >= -1e-10
        cert = nonneg_certificate(m, counting, full_c)
        assert cert.verdict is not Verdict.MAY_BE_NEGATIVE


def test_criterion_10_claim_suite_and_exact_finite_slack():
    """The full claim suite at seed 0 with 200 trials per claim exits 0;
    on a finite carrier both halves of the sandwich inequality hold with
    slack >= 0 in exact summation."""
    assert cli_main(["verify", "--all", "--seed", "0",
                     "--trials", "200"]) == 0

    cyc = Space.finite([str(k) for k in range(12)])
    counting = Measure.counting(cyc)
    for trial in range(40):
        rng = np.random.default_rng([10, trial])
        xi_vals = rng.uniform(0.3, 0.9, 12)
        rho_vals = xi_vals * rng.uniform(0.1, 1.0, 12)
        xi = Measure.from_density(cyc, table_density(
            cyc, dict(zip(cyc.atoms, (float(v) for v in xi_vals)))))
        rho = Measure.from_density(cyc, table_density(
            cyc, dict(zip(cyc.atoms, (float(v) for v in rho_vals)))))
        size = int(rng.integers(2, 13))
        atoms = [str(k) for k in sorted(
            rng.choice(12, size=size, replace=False))]
        s = MeasurableSet.of_atoms(cyc, atoms)
        s_xi = entropy_finite(rho, xi, s).nats
        s_haar_rho = entropy_finite(rho, counting, s).nats
        s_haar_haar = entropy_finite(counting, counting, s).nats
        assert s_haar_rho - s_xi >= 0.0
        assert s_haar_haar - s_haar_rho >= 0.0


def test_criterion_11_maxent_converges_and_is_concave():
    """20 random starts per size reach the closed-form maximizer within
    1e-6 sup-distance; the concavity probe sees no violations in 1000
    sampled pairs."""
    for n, total in ((3, 1.0), (8, 1.0), (64, 2.5)):
        rng = np.random.default_rng(n)
        nu = rng.uniform(0.5, 2.0, n)
        target = total * nu / nu.sum()
        for s in range(20):
            point, _ = maximize_entropy(nu, mass=total, iters=4000,
                                        step=0.2, seed=s)
            dist = max(abs(w - o) for w, o in zip(point.weights, target))
            assert dist < 1e-6

    report = concavity_probe([1.0, 0.5, 2.0, 1.5], trials=1000, seed=0)
    assert report.passed
    assert "0 violations" in report.scope_notes


EXPRESSION_CORPUS = [
    "0", "1", "42", "3.5", ".5", "1e3", "2.5e-2", "x",
    "-x", "--x", "x+1", "x-1", "2*x", "x/2", "x^2", "2^x",
    "-x^2", "(-x)^2", "x^-1", "1/x", "1/(1+x^2)", "x*(x+1)",
    "(x+1)*(x-1)", "x-1-2", "12/x/2", "2^3^2", "(x^2)^3", "(0-2)^x",
    "exp(x)", "exp(-x)", "exp(-x^2)", "log(x+3)", "sqrt(x+2.5)",
    "abs(x)", "abs(x-0.5)", "sqrt(abs(x))", "min(x, 0)", "max(x, 0)",
    "min(x, 1-x, 0.3)", "max(1, x, x^2)", "exp(log(x+3))", "log(exp(x))",
    "piecewise {x < 0: -x; else: x}",
    "piecewise {x < 0.5: 1; else: 2}",
    "piecewise {-1 <= x < 0: 0; 0 <= x < 1: x; else: 1}",
    "piecewise {x >= 0: exp(-x)}",
    "1 - (2 - x)", "x*(-2)", "3.0*x^2 - 2*x + 1", "(1+x)/(1+x^2)",
]


def _reference_eval(e, x):
    """Independent tree walk used to cross-check the shipped evaluator."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return float(x)
    if isinstance(e, Neg):
        return -_reference_eval(e.operand, x)
    if isinstance(e, BinOp):
        a = _reference_eval(e.left, x)
        b = _reference_eval(e.right, x)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0:
                raise ValueError("division by zero")
            return a / b
        try:
            return math.pow(a, b)
        except OverflowError:
            return math.inf
    if isinstance(e, Call):
        args = [_reference_eval(arg, x) for arg in e.args]
        if e.func == "exp":
            try:
                return math.exp(args[0])
            except OverflowError:
                return math.inf
        if e.func == "log":
            if args[0] <= 0:
                raise ValueError("log domain")
            return math.log(args[0])
        if e.func == "abs":
            return abs(args[0])
        if e.func == "sqrt":
            if args[0] < 0:
                raise ValueError("sqrt domain")
            return math.sqrt(args[0])
        if e.func == "min":
            return min(args)
        return max(args)
    assert isinstance(e, Piecewise)
    for guard, body in e.branches:
        if guard.matches(x):
            return _reference_eval(body, x)
    if e.otherwise is not None:
        return _reference_eval(e.otherwise, x)
    raise ValueError("no branch")


def test_criterion_12_expression_language():
    """Parsing survives 10^4 random inputs (clean syntax errors only), the
    50-expression corpus round-trips, and 1000 random evaluations match an
    independent evaluator exactly."""
    assert len(EXPRESSION_CORPUS) == 50

    pool = "x0123456789.+-*/^()<>=,:;{} abeilmnopqrstwz$"
    rng = np.random.default_rng(12)
    for _ in range(10_000):
        n = int(rng.integers(1, 31))
        text = "".join(pool[i] for i in rng.integers(0, len(pool), n))
        try:
            parse(text)
        except ExprSyntaxError:
            pass

    trees = [parse(src) for src in EXPRESSION_CORPUS]
    for tree in trees:
        assert parse(format_expr(tree)) == tree

    for trial in range(1000):
        tree = trees[trial % len(trees)]
        x = float(rng.uniform(-2.0, 3.0))
        try:
            mine = evaluate(tree, x)
            mine_err = False
        except ExprEvalError:
            mine_err = True
        try:
            ref = _reference_eval(tree, x)
            ref_err = False
        except ValueError:
            ref_err = True
        assert mine_err == ref_err
        if not mine_err:
            assert mine == ref or (math.isnan(mine) and math.isnan(ref))
