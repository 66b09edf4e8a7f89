import gc
import math
import random
import weakref

import pytest

from haarent.dsl import (BinOp, Call, Guard, Neg, Num, Piecewise, Var,
                         breakpoints, density_from_expr, evaluate,
                         format_expr, parse, parse_set, weight_from_expr)
from haarent.errors import ExprEvalError, ExprSyntaxError
from haarent.measures import MeasurableSet, Space

UNIT = Space.interval(0.0, 1.0)
DIE = Space.finite([1, 2, 3, 4, 5, 6])

ROUND_TRIP_CORPUS = [
    "1",
    "x",
    "-x",
    "1/x",
    "exp(-x)",
    "2*x^2+1",
    "-x^2",
    "(x+1)*2",
    "x-1-2",
    "2^3^2",
    "x/(1-x)",
    "sqrt(abs(x-0.5))",
    "log(x+1)",
    "min(x, 1-x)",
    "max(x, 0.25, 1-x)",
    "x*(-2)",
    "(x^2)^3",
    "1 - (2 - x)",
    "piecewise {x < 0.25: 1; else: 2}",
    "piecewise {0.1 <= x < 0.5: x; x >= 0.5: 1-x}",
]


class TestParse:
    def test_division_tree(self):
        assert parse("1/x") == BinOp("/", Num(1.0), Var())

    def test_call_tree(self):
        assert parse("exp(-x)") == Call("exp", (Neg(Var()),))

    def test_precedence_tree(self):
        expected = BinOp(
            "+",
            BinOp("*", Num(2.0), BinOp("^", Var(), Num(2.0))),
            Num(1.0))
        assert parse("2*x^2+1") == expected

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse("-x^2") == Neg(BinOp("^", Var(), Num(2.0)))

    def test_power_right_associative(self):
        assert evaluate(parse("2^3^2"), 0.0) == 512.0

    def test_subtraction_left_associative(self):
        assert evaluate(parse("x-1-2"), 0.0) == -3.0

    def test_whitespace_insensitive(self):
        assert parse(" 2 * x ^ 2 + 1 ") == parse("2*x^2+1")

    def test_piecewise_tree(self):
        tree = parse("piecewise {x < 0.25: 1; else: 2}")
        assert isinstance(tree, Piecewise)
        assert len(tree.branches) == 1
        assert tree.otherwise == Num(2.0)


class TestSyntaxErrors:
    def test_dangling_operator(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("2*")
        assert info.value.position == 2

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse("(x+1")

    def test_unknown_function(self):
        with pytest.raises(ExprSyntaxError):
            parse("tanh(x)")

    def test_unknown_character(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("x + $")
        assert info.value.position == 4

    def test_guards_must_increase(self):
        with pytest.raises(ExprSyntaxError):
            parse("piecewise {x >= 0.5: 1; x < 0.25: 2}")

    def test_overlapping_guards_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("piecewise {x <= 0.5: 1; 0.25 <= x < 1: 2}")

    def test_else_must_be_last(self):
        with pytest.raises(ExprSyntaxError):
            parse("piecewise {else: 1; x < 0.5: 2}")


class TestEvaluate:
    def test_polynomial(self):
        assert evaluate(parse("2*x^2+1"), 1.5) == 5.5

    def test_exponential(self):
        assert evaluate(parse("exp(-x)"), 0.0) == 1.0
        assert evaluate(parse("exp(-x)"), 1.0) == pytest.approx(
            math.exp(-1.0), abs=1e-15)

    def test_unary_minus_applies_after_power(self):
        assert evaluate(parse("-x^2"), 2.0) == -4.0

    def test_variadic_min(self):
        assert evaluate(parse("min(x, 1-x, 0.3)"), 0.1) == pytest.approx(0.1)

    def test_piecewise_branches_and_else(self):
        tree = parse("piecewise {x < 0.25: 1; 0.25 <= x < 0.75: x; else: 0}")
        assert evaluate(tree, 0.1) == 1.0
        assert evaluate(tree, 0.5) == 0.5
        assert evaluate(tree, 0.9) == 0.0

    def test_overflow_saturates(self):
        assert evaluate(parse("exp(x)"), 1e6) == math.inf

    def test_division_by_zero(self):
        with pytest.raises(ExprEvalError) as info:
            evaluate(parse("1/x"), 0.0)
        assert info.value.x == 0.0
        assert "x" in info.value.subexpression

    def test_log_of_nonpositive(self):
        with pytest.raises(ExprEvalError):
            evaluate(parse("log(x)"), 0.0)

    def test_sqrt_of_negative(self):
        with pytest.raises(ExprEvalError):
            evaluate(parse("sqrt(x-1)"), 0.0)

    def test_zero_to_negative_power(self):
        with pytest.raises(ExprEvalError):
            evaluate(parse("x^(-1)"), 0.0)

    def test_fractional_power_of_negative(self):
        with pytest.raises(ExprEvalError):
            evaluate(parse("(x-2)^0.5"), 0.0)

    def test_no_matching_branch(self):
        with pytest.raises(ExprEvalError):
            evaluate(parse("piecewise {x < 0.5: 1}"), 0.75)


# The tree walk that evaluate was before trees were compiled, verbatim
# but for its name: the reference the compiled closures must match.


def _eval_error(message, node, x):
    return ExprEvalError(message, subexpression=format_expr(node), x=x)


def reference_evaluate(e, x):
    """Evaluate at x. Domain faults (log of a nonpositive value, division
    by zero, sqrt of a negative, 0 to a negative power, a fractional power
    of a negative base, no matching piecewise branch) raise ExprEvalError.
    Overflow saturates to inf."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return x
    if isinstance(e, Neg):
        return -reference_evaluate(e.operand, x)
    if isinstance(e, BinOp):
        a = reference_evaluate(e.left, x)
        b = reference_evaluate(e.right, x)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0:
                raise _eval_error("division by zero", e, x)
            return a / b
        # math.pow, not **: ** yields a complex for (-2.0) ** 0.5
        try:
            return math.pow(a, b)
        except OverflowError:
            return math.inf
        except ValueError:
            if a == 0.0:
                raise _eval_error("zero raised to a negative power", e, x) \
                    from None
            raise _eval_error(
                "fractional power of a negative base", e, x) from None
    if isinstance(e, Call):
        args = [reference_evaluate(arg, x) for arg in e.args]
        if e.func == "exp":
            try:
                return math.exp(args[0])
            except OverflowError:
                return math.inf
        if e.func == "log":
            if args[0] <= 0:
                raise _eval_error("log of a nonpositive value", e, x)
            return math.log(args[0])
        if e.func == "abs":
            return abs(args[0])
        if e.func == "sqrt":
            if args[0] < 0:
                raise _eval_error("sqrt of a negative value", e, x)
            return math.sqrt(args[0])
        if e.func == "min":
            return min(args)
        return max(args)
    if isinstance(e, Piecewise):
        for guard, body in e.branches:
            if guard.matches(x):
                return reference_evaluate(body, x)
        if e.otherwise is not None:
            return reference_evaluate(e.otherwise, x)
        raise _eval_error("no piecewise branch matches", e, x)
    raise TypeError(f"not an expression node: {e!r}")


_FAULTS = ("division by zero", "log of a nonpositive value",
           "sqrt of a negative value", "zero raised to a negative power",
           "fractional power of a negative base",
           "no piecewise branch matches")
# constants that reach every fault and overflow, and exact guard bounds
_CONSTS = (0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -0.5, 3.0, -2.5, 1e-300, 1e300,
           710.0, -750.0)
_POINTS = _CONSTS + (0.25, -3.75, 1e-9, 40.0, -1e308, math.inf, -math.inf,
                     math.nan)


def _random_tree(rng, depth):
    """A random tree over every node kind, operator and function."""
    if depth == 0 or rng.random() < 0.2:
        return Var() if rng.random() < 0.55 else Num(rng.choice(_CONSTS))
    kind = rng.randrange(5)
    sub = lambda: _random_tree(rng, depth - 1)
    if kind == 0:
        return Neg(sub())
    if kind == 1 or kind == 2:
        return BinOp(rng.choice("+-*/^"), sub(), sub())
    if kind == 3:
        func = rng.choice(("exp", "log", "abs", "sqrt", "min", "max"))
        nargs = rng.choice((2, 2, 3)) if func in ("min", "max") else 1
        return Call(func, tuple(sub() for _ in range(nargs)))
    cuts = sorted(rng.sample(_CONSTS[:10], 3))
    closed = [rng.random() < 0.5 for _ in range(4)]
    branches = ((Guard(-math.inf, False, cuts[0], closed[0]), sub()),
                (Guard(cuts[1], closed[1], cuts[2], closed[2]), sub()))
    return Piecewise(branches, sub() if rng.random() < 0.5 else None)


def _outcome(fn, tree, x):
    try:
        return "value", type(v := fn(tree, x)), repr(v)
    except ExprEvalError as exc:
        return ("fault", str(exc), exc.subexpression, repr(exc.x))


class TestCompiledMatchesTreeWalk:
    def test_random_trees_bit_for_bit(self):
        rng = random.Random(20240611)
        seen = set()
        for _ in range(3000):
            tree = _random_tree(rng, rng.randrange(1, 6))
            for x in rng.sample(_POINTS, 6):
                ref = _outcome(reference_evaluate, tree, x)
                assert _outcome(evaluate, tree, x) == ref, (tree, x)
                seen.add(ref[1] if ref[0] == "fault" else ref[2])
        # every fault kind and both saturations were exercised
        assert set(_FAULTS) <= seen
        assert {"inf", "-inf", "nan", "-0.0"} <= seen

    def test_parsed_corpus_bit_for_bit(self):
        for source in ROUND_TRIP_CORPUS:
            tree = parse(source)
            for x in _POINTS:
                assert (_outcome(evaluate, tree, x)
                        == _outcome(reference_evaluate, tree, x)), (source, x)

    def test_constant_fault_reports_each_point(self):
        tree = parse("x + log(1 - 2)")
        for x in (0.5, 7.0):
            with pytest.raises(ExprEvalError) as info:
                evaluate(tree, x)
            assert info.value.x == x
            assert info.value.subexpression == "log(1.0 - 2.0)"

    def test_compiled_once_and_kept_on_the_tree(self):
        tree = parse("exp(-x^2) + 1/x")
        evaluate(tree, 0.5)
        fn = vars(tree)["_fn"]
        evaluate(tree, 1.5)
        assert vars(tree)["_fn"] is fn
        assert parse("exp(-x^2) + 1/x") == tree

    def test_compiled_tree_is_freed_without_the_collector(self):
        # a closure that names its own node would make a reference cycle
        source = ("sqrt(x) / (x^0.5 + piecewise {x < 1: log(x); "
                  "x > 2: 1/x})")
        gc.disable()
        try:
            tree = parse(source)
            evaluate(tree, 0.5)
            ref = weakref.ref(tree)
            del tree
            assert ref() is None
        finally:
            gc.enable()

    def test_not_a_tree(self):
        with pytest.raises(TypeError, match="not an expression node"):
            evaluate("x", 1.0)


class TestBreakpoints:
    def test_divisor_zero_found(self):
        pts = breakpoints(parse("1/(x-0.3)"), MeasurableSet.full(UNIT))
        assert len(pts) == 1
        assert pts[0] == pytest.approx(0.3, abs=1e-9)

    def test_abs_kink_found(self):
        pts = breakpoints(parse("abs(x-0.5)"), MeasurableSet.full(UNIT))
        assert len(pts) == 1
        assert pts[0] == pytest.approx(0.5, abs=1e-9)

    def test_guard_bounds_reported(self):
        pts = breakpoints(parse("piecewise {x < 0.25: 1; else: 2}"),
                          MeasurableSet.full(UNIT))
        assert pts == (0.25,)

    def test_min_crossing_found(self):
        pts = breakpoints(parse("min(x, 1-x)"), MeasurableSet.full(UNIT))
        assert any(abs(p - 0.5) < 1e-9 for p in pts)

    def test_outside_points_dropped(self):
        s = MeasurableSet.of_interval(UNIT, 0.5, 1.0)
        assert breakpoints(parse("1/(x-0.3)"), s) == ()

    def test_finite_space_has_none(self):
        assert breakpoints(parse("1/(x-0.3)"),
                           MeasurableSet.full(DIE)) == ()


class TestFormat:
    @pytest.mark.parametrize("source", ROUND_TRIP_CORPUS)
    def test_round_trip(self, source):
        tree = parse(source)
        assert parse(format_expr(tree)) == tree

    def test_needed_parens_kept(self):
        assert format_expr(parse("(x+1)*2")) == "(x + 1.0) * 2.0"

    def test_redundant_parens_dropped(self):
        assert format_expr(parse("(x)+(1)")) == "x + 1.0"

    def test_unary_minus_of_power_unparenthesized(self):
        text = format_expr(parse("-x^2"))
        assert "(" not in text
        assert parse(text) == parse("-x^2")


class TestMeasureBridges:
    def test_density_from_expr_evaluates(self):
        d = density_from_expr("2*x", UNIT)
        assert d(0.25) == 0.5

    def test_density_breakpoints_attached(self):
        d = density_from_expr("abs(x-0.5)", UNIT)
        assert any(abs(p - 0.5) < 1e-9 for p in d.breakpoints)

    def test_weight_from_expr_evaluates(self):
        w = weight_from_expr("x^2", UNIT)
        assert w(0.5) == 0.25

    def test_parsed_tree_accepted_directly(self):
        d = density_from_expr(parse("x+1"), UNIT)
        assert d(0.0) == 1.0


class TestParseSet:
    def test_interval_union(self):
        s = parse_set("[0,0.4] U [0.6,1]", UNIT)
        assert s.intervals == ((0.0, 0.4), (0.6, 1.0))

    def test_union_sign_accepted(self):
        s = parse_set("[0,0.4] ∪ [0.6,1]", UNIT)
        assert s.intervals == ((0.0, 0.4), (0.6, 1.0))

    def test_atom_list(self):
        s = parse_set("{1, 3}", DIE)
        assert s.atoms == (1, 3)

    def test_full_keyword(self):
        assert parse_set("full", UNIT) == MeasurableSet.full(UNIT)

    def test_malformed_interval_positioned(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_set("[0,0.4] U (0.6,1)", UNIT)
        assert info.value.position >= 0

    def test_unknown_atom_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_set("{1, 9}", DIE)

    def test_escaping_interval_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_set("[0, 2]", UNIT)
