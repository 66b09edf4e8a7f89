import functools
import gc
import math
import random
import weakref

import pytest

from haarent import dsl
from haarent.dsl import (BinOp, Call, Guard, Neg, Num, Piecewise, Var,
                         breakpoints, density_from_expr, evaluate,
                         format_expr, parse, parse_set)
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


# The guard rule as it stood before one flip table replaced its eight
# direction branches, kept as the reference the parser's guard must match
# (reference_evaluate and reference_scan_zeros below are kept the same
# way). Its numbers were read by float() alone, so an overflowing bound
# became an infinite one.


class ReferenceGuardParser(dsl._Parser):
    def signed_number(self) -> float:
        neg = False
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            neg = True
        tok = self.peek()
        if tok.kind != "num":
            self.fail(("number",))
        self.advance()
        value = float(tok.text)
        return -value if neg else value

    def guard(self) -> Guard:
        tok = self.peek()
        if tok.kind == "name" and tok.text == "x":
            self.advance()
            op = self.cmp()
            c = self.signed_number()
            if op == "<":
                return Guard(-math.inf, False, c, False)
            if op == "<=":
                return Guard(-math.inf, False, c, True)
            if op == ">":
                return Guard(c, False, math.inf, False)
            return Guard(c, True, math.inf, False)
        lo = self.signed_number()
        op1 = self.cmp()
        var_tok = self.peek()
        if not (var_tok.kind == "name" and var_tok.text == "x"):
            self.fail(("'x'",))
        self.advance()
        if op1 in (">", ">="):
            hi, hi_closed = lo, op1 == ">="
            if self.peek().kind == "op" and self.peek().text in (">", ">="):
                op2 = self.advance().text
                lo2 = self.signed_number()
                if lo2 >= hi:
                    raise ExprSyntaxError(
                        f"empty guard interval ({lo2!r}, {hi!r})",
                        position=tok.pos, found=tok.text)
                return Guard(lo2, op2 == ">=", hi, hi_closed)
            return Guard(-math.inf, False, hi, hi_closed)
        lo_closed = op1 == "<="
        if self.peek().kind == "op" and self.peek().text in ("<", "<="):
            op2 = self.advance().text
            hi = self.signed_number()
            guard = Guard(lo, lo_closed, hi, op2 == "<=")
            if guard.lo >= guard.hi:
                raise ExprSyntaxError(
                    f"empty guard interval ({guard.lo!r}, {guard.hi!r})",
                    position=tok.pos, found=tok.text)
            return guard
        return Guard(lo, lo_closed, math.inf, False)


_GUARD_NUMBERS = ("0", "2.5", "-1", "- 3", "1e308", "-1e308", "1e400",
                  "-1e400")
_CMPS = ("<", "<=", ">", ">=")


def _guard_corpus():
    """Guards of every shape, well formed or not: every CMP, one- and
    two-sided, both orders, mixed directions, negative, huge and
    overflowing numbers."""
    forms = []
    for op in _CMPS:
        for n in _GUARD_NUMBERS:
            forms += [f"x {op} {n}", f"{n} {op} x", f"{n} {op} y",
                      f"{op} x", f"x {n}", f"x {op}", f"{n} {op} x {op}",
                      f"x {op} {n} {op} 4", f"{n} {op} {n}", f"x {op} -"]
            for op2 in _CMPS:
                forms += [f"{n} {op} x {op2} {m}" for m in _GUARD_NUMBERS]
    return [f"piecewise {{{form}: 1; else: 0}}" for form in forms]


def _parse_outcome(parser, src):
    try:
        return parser(src).parse()
    except ExprSyntaxError as exc:
        return (str(exc), exc.position, exc.expected, exc.found)


class TestAsciiDigits:
    """A NUMBER's digits are ASCII 0-9; other Unicode decimal digits are
    not read as numbers, so the text printed is the text written."""

    @pytest.mark.parametrize("text, position", [
        ("\u0661 + x", 0),            # ARABIC-INDIC DIGIT ONE
        ("x + 1\u0662", 5),           # 1 then ARABIC-INDIC DIGIT TWO
        ("x * \uff13", 4),            # FULLWIDTH DIGIT THREE
        ("2.\u0665", 2),
        ("piecewise {x < \u0661: 1; else: 2}", 15)])
    def test_non_ascii_digit_is_unexpected(self, text, position):
        with pytest.raises(ExprSyntaxError) as info:
            parse(text)
        assert str(info.value).startswith("unexpected character")
        assert info.value.position == position

    def test_ascii_digits_still_read(self):
        assert parse("1234567890 + .5e1") == BinOp(
            "+", Num(1234567890.0), Num(5.0))


class TestGuardMatchesReference:
    def test_guard_corpus(self):
        accepted = overflowing = 0
        for src in _guard_corpus():
            got = _parse_outcome(dsl._Parser, src)
            want = _parse_outcome(ReferenceGuardParser, src)
            if "1e400" not in src:
                assert got == want, src
            else:
                # an overflowing number is a syntax error at that number,
                # unless the guard has failed before it is read
                overflowing += 1
                at = src.index("1e400")
                assert isinstance(got, tuple), src
                if got[0].startswith("number literal"):
                    assert got == ("number literal 1e400 overflows", at, (),
                                   "1e400"), src
                else:
                    assert got == want and got[1] <= at, src
                    assert not got[0].startswith("empty"), src
            if isinstance(got, Piecewise):
                accepted += 1
                assert parse(format_expr(got)) == got, src
        assert accepted > 100 and overflowing > 300

    @pytest.mark.parametrize("source, at", [
        ("piecewise {x >= 1e400: 1}", 16),
        ("piecewise {x < 1e400: 1}", 15),
        ("piecewise {-1e400 < x < 0: 1}", 12),
        ("piecewise {0 > x > -1e400: 1}", 20),
    ])
    def test_overflowing_bound_is_a_syntax_error(self, source, at):
        with pytest.raises(ExprSyntaxError) as info:
            parse(source)
        assert str(info.value) == "number literal 1e400 overflows"
        assert info.value.position == at


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

    def test_crossing_beside_a_zero_base_found(self):
        # x^x = 1 + x at 1.7768; 0.0 ^ x has the range [0, 0] there
        pts = breakpoints(parse("abs(-(-1.0 - x) - max(0.0 ^ x, x ^ x))"),
                          MeasurableSet.full(Space.interval(0.01, 1000.0)))
        assert pts == (1.7767750400970548,)

    def test_outside_points_dropped(self):
        s = MeasurableSet.of_interval(UNIT, 0.5, 1.0)
        assert breakpoints(parse("1/(x-0.3)"), s) == ()

    def test_finite_space_has_none(self):
        assert breakpoints(parse("1/(x-0.3)"),
                           MeasurableSet.full(DIE)) == ()


# Boxes that reach overflow (exp of 710, x^2 beyond 1e154) and the float
# extremes, and boxes of one point
_FIXED_BOXES = ((-1e300, 1e300), (-750.0, 710.0), (0.0, 0.0), (-0.0, -0.0),
                (-0.5, -0.5), (1e-300, 1e-300), (710.0, 710.0),
                (-3.75, -3.75))


def _random_box(rng):
    kind = rng.randrange(4)
    if kind == 0:
        a, b = rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)
    elif kind == 1:  # a narrow box at or around a constant or a guard cut
        c, w = rng.choice(_CONSTS), 10.0 ** rng.uniform(-12.0, 1.0)
        a, b = c - w * rng.random(), c + w * rng.random()
    elif kind == 2:
        a, b = (rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)
                for _ in range(2))
    else:
        a = b = rng.choice(_POINTS[:-3])
    return min(a, b), max(a, b)


def _box_points(rng, lo, hi):
    """Both ends, their neighbours inside the box, about 30 points
    inside, and the constants and guard cuts that fall inside."""
    points = [lo, hi, math.nextafter(lo, hi), math.nextafter(hi, lo)]
    points += [min(max(lo + (hi - lo) * rng.random(), lo), hi)
               for _ in range(30)]
    points += [c for c in _CONSTS if lo <= c <= hi]
    return points


def _kind(e):
    if isinstance(e, BinOp):
        return e.op
    if isinstance(e, Call):
        return e.func
    return type(e).__name__


class TestRangeEnclosure:
    def test_random_trees_enclosed(self):
        rng = random.Random(20261019)
        enclosed = set()
        for k in range(3000):
            tree = _random_tree(rng, rng.randrange(1, 6))
            for lo, hi in (_FIXED_BOXES[k % len(_FIXED_BOXES)],
                           _random_box(rng), _random_box(rng)):
                r = dsl._range(tree, lo, hi)
                if r is None:
                    continue
                enclosed.add(_kind(tree))
                rlo, rhi = r
                for x in _box_points(rng, lo, hi):
                    v = evaluate(tree, x)  # a fault fails the test
                    assert not math.isnan(v), (format_expr(tree), lo, hi, x)
                    assert rlo <= v <= rhi, (format_expr(tree), lo, hi, x, r)
        # every node kind, operator and function got bounds somewhere
        assert enclosed == {"Num", "Var", "Neg", "+", "-", "*", "/", "^",
                            "exp", "log", "abs", "sqrt", "min", "max",
                            "Piecewise"}

    @pytest.mark.parametrize("source, lo, hi, expected", [
        ("x", 0.5, 2.0, (0.5, 2.0)),
        ("1.5 - 4", -1.0, 1.0, (-2.5, -2.5)),
        ("-abs(x)", -1.0, 3.0, (-3.0, 0.0)),
        ("max(x, 0.5, -x)", -1.0, 0.25, (0.5, 1.0)),
    ])
    def test_exact_where_nothing_rounds(self, source, lo, hi, expected):
        assert dsl._range(parse(source), lo, hi) == expected

    @pytest.mark.parametrize("source, lo, hi", [
        ("1/x", -1.0, 1.0),                   # the divisor holds 0
        ("log(x)", 0.0, 1.0),                 # log of 0
        ("sqrt(x)", -1e-300, 1.0),            # sqrt of a negative
        ("x^0.5", 0.0, 1.0),                  # a base that is not positive
        ("x^(-2)", -1.0, 1.0),                # 0 to a negative power
        ("piecewise {x < 0: 1}", -1.0, 0.0),  # no branch at 0
        ("exp(x) - exp(x)", 0.0, 1000.0),     # inf - inf is NaN
        ("x * exp(x)", -1.0, 1000.0),         # 0 * inf is NaN
    ])
    def test_unknown_where_a_fault_or_nan_may_occur(self, source, lo, hi):
        assert dsl._range(parse(source), lo, hi) is None

    def test_integer_powers(self):
        assert dsl._range(parse("x^2"), -3.0, 2.0)[0] == 0.0
        lo, hi = dsl._range(parse("x^2"), -3.0, -2.0)
        assert lo <= 4.0 < 4.0000001 and 8.9999999 < 9.0 <= hi
        lo, hi = dsl._range(parse("x^(-1)"), -4.0, -2.0)
        assert lo <= -0.5 < -0.4999999 and -0.2500001 < -0.25 <= hi
        # a negative odd power that overflows saturates to +inf, also
        # next to a base of -inf, whose own power is -inf
        whole_line = (-math.inf, math.inf)
        assert dsl._range(parse("x^3"), -1e200, -1.0) == whole_line
        assert dsl._range(parse("(-exp(x))^3"), -750.0, 710.0) == whole_line
        assert evaluate(parse("(-exp(x))^3"), 560.0) == math.inf

    @pytest.mark.parametrize("source, lo, hi", [
        ("exp(x)", -800.0, -700.0),    # underflows to 0 and subnormals
        ("sqrt(x)", 0.0, 1e-300),      # sqrt(0) is 0
        ("x^2", -1.0, 1.0),            # the even power's minimum is 0
        ("x^4", -1e-200, 1e-300),      # underflows to 0
        ("abs(x)", -1.0, 1.0),
    ])
    def test_nonnegative_functions_enclose_from_zero(self, source, lo, hi):
        # outward rounding would take these lower ends to -1e-323; none of
        # the functions returns a negative float
        assert dsl._range(parse(source), lo, hi)[0] == 0.0

    def test_zero_base(self):
        # 0^y is 0 for every y > 0, as evaluate gives
        assert dsl._range(parse("0.0 ^ x"), 0.5, 1.0) == (0.0, 0.0)
        assert evaluate(parse("0.0 ^ x"), 0.75) == 0.0
        # a base that takes both signs may fault, and 0^0 is 1
        assert dsl._range(parse("(x - 0.5) ^ 0.5"), 0.0, 1.5) is None
        assert dsl._range(parse("0.0 ^ x"), 0.0, 1.0) is None

    def test_piecewise_meets_only_the_guards_on_the_box(self):
        tree = parse("piecewise {x < 0: log(x - 1); 0 <= x < 1: 2; "
                     "else: 3}")
        lo, hi = dsl._range(tree, 0.0, 2.0)
        assert lo <= 2.0 < 2.0000001 and 2.9999999 < 3.0 <= hi
        assert dsl._range(tree, -1.0, 2.0) is None
        assert dsl._range(parse("piecewise {x > 0: 1}"), 0.0, 1.0) is None


# The zero scan that breakpoints ran before it isolated zeros by interval
# bisection, verbatim but for its name and constants: 513 grid points and
# 80 bisection steps. The reference the bisection must cover.


def reference_scan_zeros(sub, a, b, out):
    def value(x):
        try:
            v = evaluate(sub, x)
        except ExprEvalError:
            return None
        return v if math.isfinite(v) else None

    step = (b - a) / 512
    prev_x, prev_v = a, value(a)
    for i in range(1, 512 + 1):
        cur_x = a + step * i if i < 512 else b
        cur_v = value(cur_x)
        if prev_v is not None and prev_v == 0.0:
            out.append(prev_x)
        if (prev_v is not None and cur_v is not None
                and (prev_v < 0) != (cur_v < 0) and prev_v != 0
                and cur_v != 0):
            lo, hi, flo = prev_x, cur_x, prev_v
            for _ in range(80):
                mid = (lo + hi) / 2.0
                if mid == lo or mid == hi:
                    break
                fm = value(mid)
                if fm is None or fm == 0.0:
                    break
                if (fm < 0) == (flo < 0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            out.append((lo + hi) / 2.0)
        prev_x, prev_v = cur_x, cur_v
    if prev_v is not None and prev_v == 0.0:
        out.append(b)


def reference_breakpoints(e, s):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dsl, "_isolate_zeros", reference_scan_zeros)
        return breakpoints(e, s)


# Windows of the expression families the entropy benchmark draws: 1/x on
# R*mul and on R+add windows, exp(-lx), exp(-x^2), three-piece constants,
# and abs, min/max, sqrt and log kinks on R*mul and R+add windows
_FAMILY_CASES = [
    ("1/x", 0.01, 1000.0), ("1/x", 0.3174, 27.5), ("1/x", 1.2, 36.0),
    ("exp(-0.7342*x)", 0.4, 8.1), ("exp(-2.91*x)", 1.93, 3.1),
    ("exp(-x^2)", -2.6, 3.8), ("exp(-x^2)", 0.21, 0.71),
    ("piecewise {x < 0.8: 1.25; 0.8 <= x < 4.3: 0.5; else: 3.7}",
     -1.5, 6.0),
    ("abs(x - 1.3) + 0.4", 0.4, 6.2), ("abs(x - 2.55) + 0.9", 0.0, 7.9),
    ("min(x, 1.7) + max(0.3, x / 1.7)", 0.3, 4.4),
    ("min(x, 0.61) + max(0.82, x / 0.61)", 0.0, 3.6),
    ("sqrt(x) + 0.2", 0.2, 5.0), ("sqrt(x) + 0.75", 0.0, 7.25),
    ("log(x + 2.1) + 0.5", 0.5, 3.9), ("log(x + 3.95) + 0.15", 0.0, 8.0),
]

_CORPUS_WINDOWS = ((0.0, 1.0), (-3.0, 2.5), (0.01, 1000.0), (-750.0, 710.0),
                   (0.3, 0.3 + 1e-7), (1e-9, 40.0), (-1e300, 1e300),
                   (-1e308, 1e308))

# Subexpressions of the corpus that are 0 on a stretch, where the scan
# reports every grid point of the stretch and the bisection one point per
# stretch: exp(x) underflows to 0 below -745 on [-750, 710], and the
# power is -0.0 ^ (x + 1e-300) = 0 on (0, 0.5]
_ZERO_STRETCHES = {
    "exp(x)",
    "piecewise {x < 0.0: x; -0.0 < x <= 0.5: -0.0} ^ (x + 1e-300)",
}


def _bits(points):
    return [x.hex() for x in points]


def _is_density(tree, a, b):
    """Whether tree is finite and >= 0, without a fault, at 63 evenly
    spaced points inside [a, b]."""
    for k in range(1, 64):
        t = k / 64
        try:
            v = evaluate(tree, a * (1 - t) + b * t)
        except ExprEvalError:
            return False
        if not (math.isfinite(v) and v >= 0):
            return False
    return True


@functools.cache
def _density_corpus():
    """The family cases, and the (tree, window) pairs of 1,000 random trees
    on the corpus windows where the tree is a density."""
    rng = random.Random(20240611)
    trees = [_random_tree(rng, rng.randrange(1, 6)) for _ in range(1000)]
    cases = [(parse(source), a, b) for source, a, b in _FAMILY_CASES]
    cases += [(tree, a, b) for a, b in _CORPUS_WINDOWS for tree in trees
              if _is_density(tree, a, b)]
    return cases


class TestPrunedScanMatchesFullScan:
    """The interval bisection, which prunes every box that its enclosure
    rules out, against the full 513-point scan it replaced."""

    def test_random_trees_cover_the_full_scan(self):
        # every zero the scan finds in a subexpression where it finds at
        # most 8 lies within max(1e-9*max(1, |x|), one leaf width) of a
        # breakpoint, but for the zero stretches
        checked = 0
        for tree, a, b in _density_corpus():
            points = breakpoints(tree, MeasurableSet.full(
                Space.interval(a, b)))
            leaf = math.ldexp(0.5 * b - 0.5 * a, 1 - dsl._LEAF_BITS)
            subs = []
            dsl._candidates(tree, [], subs)
            for sub in subs:
                zeros = []
                reference_scan_zeros(sub, a, b, zeros)
                if (not 1 <= len(zeros) <= 8
                        or format_expr(sub) in _ZERO_STRETCHES):
                    continue
                checked += 1
                for z in zeros:
                    tol = max(1e-9 * max(1.0, abs(z)), leaf)
                    assert any(abs(p - z) <= tol for p in points), (
                        format_expr(sub), a, b, z, points)
        assert checked > 300  # the corpus has zeros to find

    @pytest.mark.parametrize("source, a, b", _FAMILY_CASES)
    def test_entropy_families_bit_for_bit(self, source, a, b):
        s = MeasurableSet.full(Space.interval(a, b))
        tree = parse(source)
        assert (_bits(breakpoints(tree, s))
                == _bits(reference_breakpoints(tree, s)))

    def test_breakpoints_make_no_evaluate_call(self, monkeypatch):
        # not even the divisor x of 1/x, the first family case
        def fail(e, x):
            raise AssertionError(f"evaluate({format_expr(e)}, {x!r})")

        monkeypatch.setattr(dsl, "evaluate", fail)
        for tree, a, b in _density_corpus():
            breakpoints(tree, MeasurableSet.full(Space.interval(a, b)))


_EIGHTY_JUMPS = "abs(piecewise {%s; else: 1})" % "; ".join(
    f"{k / 80!r} <= x < {(k + 1) / 80!r}: {(-1) ** k}" for k in range(80))


class TestIsolateZeros:
    # a zero stretch, a divisor that is 0 everywhere and an enclosure
    # that holds 0 on every box wider than 0.5 (x + 0.5 - x): the boxes
    # left pass _MAX_BOXES in the eighth round, so at most
    # 1 + 2 + ... + 128 = 255 boxes are enclosed. The 80 sign jumps lie
    # at the sub's own guard bounds, so its zeros are sought on each of
    # the 80 pieces between them, bounds left out, where it is a nonzero
    # constant: one box each, and the 81 bounds (ends included) alone.
    @pytest.mark.parametrize("source, a, b, most_points", [
        ("min(x, x)", 0.0, 1.0, 2), ("abs(0*x)", 0.0, 1.0, 2),
        ("1/(x - x)", 0.0, 1.0, 2), ("max(x + 0.5, x)", 0.01, 1000.0, 2),
        (_EIGHTY_JUMPS, 0.0, 1.0, 81),
    ], ids=["min", "abs", "divisor", "max", "jumps"])
    def test_bounded_work(self, monkeypatch, source, a, b, most_points):
        tree = parse(source)
        subs = []
        dsl._candidates(tree, [], subs)
        calls = []
        enclose = dsl._range
        monkeypatch.setattr(dsl, "_range", lambda e, lo, hi: (
            calls.append(e in subs) or enclose(e, lo, hi)))
        pts = breakpoints(tree, MeasurableSet.full(Space.interval(a, b)))
        assert len(pts) <= most_points
        assert 0 < sum(calls) <= 255

    @pytest.mark.parametrize("source, want", [
        ("abs(piecewise {x < 1: exp(x - 1) - 1; else: x - 1.5})", (1.0, 1.5)),
        ("abs(piecewise {x < 1: x - 0.5; else: x - 1.5})", (0.5, 1.0, 1.5)),
    ], ids=["zero-at-a-bound", "zero-in-each-piece"])
    def test_zeros_between_own_guard_bounds(self, source, want):
        # the enclosure of exp(x - 1) - 1 holds 0 on the boxes beside 1,
        # a bound: that zero is the bound itself, not the float below it
        assert breakpoints(parse(source), MeasurableSet.full(
            Space.interval(0.0, 2.0))) == want

    # the enclosure of exp(x) - 1 holds 0 on every box within a few ulps
    # of 0, and so does that of log(3^x)
    @pytest.mark.parametrize("source, a, b", [
        ("abs(exp(x) - 1)", -1.0, 1.0), ("min(exp(x), 1)", -1.0, 1.0),
        ("1/log(3^x)", 0.0, 1.0),
    ])
    def test_zero_in_rounding_fuzz_found(self, source, a, b):
        pts = breakpoints(parse(source), MeasurableSet.full(
            Space.interval(a, b)))
        assert any(abs(p) <= 1e-12 for p in pts), pts

    def test_window_as_wide_as_the_float_range(self):
        # b - a overflows; the zero is found within one leaf, 2^-80 of
        # the window
        pts = breakpoints(parse("abs(x - 1)"), MeasurableSet.full(
            Space.interval(-1e308, 1e308)))
        assert len(pts) == 1
        assert abs(pts[0] - 1.0) <= math.ldexp(1e308, 1 - dsl._LEAF_BITS)


class TestTwoRootsInOneCell:
    """Two zeros inside one cell of the full scan's 512 give no sign change
    at the cell's ends, so the scan missed both; interval bisection
    isolates each."""

    @pytest.mark.parametrize("source", [
        "sqrt((x-0.3)*(x-0.3001))",
        "abs((x-0.3)*(x-0.3001))",
        "1/((x-0.3)*(x-0.3001))",
    ])
    def test_both_zeros_found(self, source):
        pts = breakpoints(parse(source), MeasurableSet.full(UNIT))
        assert any(abs(p - 0.3) < 1e-9 for p in pts)
        assert any(abs(p - 0.3001) < 1e-9 for p in pts)


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

    @pytest.mark.parametrize("text", ["{\u0661, \uff13}", "{1, \u0663}",
                                      "{+1}", "{1_0}"])
    def test_atom_tokens_are_ascii_digits(self, text):
        # int() read "\u0661" and "\uff13" as 1 and 3
        with pytest.raises(ExprSyntaxError, match="is not an atom"):
            parse_set(text, Space.finite([1, 2, 3, 10]))

    def test_escaping_interval_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_set("[0, 2]", UNIT)

    def test_bounds_are_number_literals(self):
        line = Space.interval(-5.0, 5.0)
        s = parse_set("[-1, -.5e-1] U [2.5E-1,5.]", line)
        assert s.intervals == ((-1.0, -0.05), (0.25, 5.0))

    @pytest.mark.parametrize("text", ["[1_0, 12]", "[+1, 2]", "[0, inf]",
                                      "[nan, 1]", "[- 1, 2]", "[0, 1e]",
                                      "[\u0660, \u0661]", "[0, 1\u0660]"])
    def test_python_only_spellings_rejected(self, text):
        with pytest.raises(ExprSyntaxError) as info:
            parse_set(text, Space.interval(-20.0, 20.0))
        assert str(info.value).startswith("expected an interval like [a,b]")

    def test_overflowing_bound_is_the_literal_error(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_set("[0, 1] U [2, -1e400]", Space.interval(0.0, 3.0))
        assert str(info.value) == "number literal 1e400 overflows"
        assert info.value.position == 14
