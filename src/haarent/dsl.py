"""A small expression language for densities and weight functions of x.

Grammar (operator precedence low to high: + -, * /, unary -, ^; all left
associative except ^ which is right associative and binds tighter than
unary minus, so -x^2 parses as -(x^2)):

    expr      := term (('+' | '-') term)*
    term      := unary (('*' | '/') unary)*
    unary     := '-' unary | power
    power     := atom ('^' unary)?
    atom      := NUMBER | 'x' | NAME '(' expr (',' expr)* ')'
               | '(' expr ')' | piecewise
    piecewise := 'piecewise' '{' branch (';' branch)* '}'
    branch    := guard ':' expr | 'else' ':' expr
    guard     := signed CMP 'x' (CMP signed)? | 'x' CMP signed
    signed    := '-'? NUMBER
    CMP       := '<' | '<=' | '>' | '>='
    NUMBER    := (D+ '.'? D* | '.' D+) (('e' | 'E') ('+' | '-')? D+)?
    D         := '0' | '1' | ... | '9'

Functions: exp, log, abs, sqrt (one argument), min, max (two or more).
Piecewise guards must be disjoint intervals in increasing order; at most
one else branch, last. A NUMBER past the float range is a syntax error.
Syntax errors carry the byte offset and what was expected; evaluation
errors carry the offending subexpression and x.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

from .errors import DomainError, ExprEvalError, ExprSyntaxError
from .groups import _NUMBER
from .measures import Density, MeasurableSet, Space

__all__ = [
    "Num", "Var", "BinOp", "Neg", "Call", "Guard", "Piecewise",
    "parse", "evaluate", "breakpoints", "format_expr",
    "density_from_expr", "parse_set",
]

_UNARY_FUNCS = ("exp", "log", "abs", "sqrt")
_VARIADIC_FUNCS = ("min", "max")


# ---------------------------------------------------------------------------
# AST


class Expr:
    __slots__ = ()

    @cached_property
    def _code(self):
        return _compile(self)

    @cached_property
    def _fn(self):
        """The compiled function of x; see evaluate."""
        return _as_fn(self._code)


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    args: tuple


@dataclass(frozen=True)
class Guard:
    """Interval condition on x; infinite bounds mean one-sided guards."""

    lo: float
    lo_closed: bool
    hi: float
    hi_closed: bool

    def matches(self, x: float) -> bool:
        if x < self.lo or (x == self.lo and not self.lo_closed):
            return False
        if x > self.hi or (x == self.hi and not self.hi_closed):
            return False
        return True


@dataclass(frozen=True)
class Piecewise(Expr):
    branches: tuple
    otherwise: Optional[Expr]


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(rf"""
      (?P<num>{_NUMBER})
    | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op><=|>=|[-+*/^(){{}},:;<>])
    | (?P<ws>\s+)
""", re.VERBOSE)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _byte_offset(src: str, index: int) -> int:
    return len(src[:index].encode("utf-8"))


def _number(text: str, position: int) -> float:
    """The value of a NUMBER literal; one past the float range is an error."""
    value = float(text)
    if not math.isfinite(value):
        raise ExprSyntaxError(f"number literal {text} overflows",
                              position=position, found=text)
    return value


def _tokenize(src: str) -> list:
    tokens = []
    i = 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if m is None:
            raise ExprSyntaxError(
                f"unexpected character {src[i]!r}",
                position=_byte_offset(src, i), found=src[i])
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), _byte_offset(src, i)))
        i = m.end()
    tokens.append(_Token("end", "", _byte_offset(src, len(src))))
    return tokens


# ---------------------------------------------------------------------------
# Parser


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: tuple):
        tok = self.peek()
        found = tok.text if tok.kind != "end" else "end of input"
        raise ExprSyntaxError(
            f"expected {' or '.join(expected)}, found {found}",
            position=tok.pos, expected=expected, found=found)

    def expect(self, text: str) -> _Token:
        # a token's text fixes its kind (the end's text "" is never expected)
        if self.peek().text == text:
            return self.advance()
        self.fail((repr(text),))

    def parse(self) -> Expr:
        e = self.expr()
        if self.peek().kind != "end":
            self.fail(("end of input",))
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            e = BinOp(op, e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(_number(tok.text, tok.pos))
        if tok.kind == "name":
            if tok.text == "x":
                self.advance()
                return Var()
            if tok.text == "piecewise":
                return self.piecewise()
            if tok.text in _UNARY_FUNCS or tok.text in _VARIADIC_FUNCS:
                return self.call()
            self.fail(("number", "'x'", "function name", "'('"))
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        self.fail(("number", "'x'", "function name", "'('"))

    def call(self) -> Expr:
        name_tok = self.advance()
        self.expect("(")
        args = [self.expr()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.advance()
            args.append(self.expr())
        self.expect(")")
        name = name_tok.text
        if name in _UNARY_FUNCS and len(args) != 1:
            raise ExprSyntaxError(
                f"{name} takes exactly 1 argument, got {len(args)}",
                position=name_tok.pos, found=name)
        if name in _VARIADIC_FUNCS and len(args) < 2:
            raise ExprSyntaxError(
                f"{name} takes at least 2 arguments, got {len(args)}",
                position=name_tok.pos, found=name)
        return Call(name, tuple(args))

    def piecewise(self) -> Expr:
        self.advance()
        self.expect("{")
        branches = []
        otherwise = None
        while True:
            tok = self.peek()
            if tok.kind == "name" and tok.text == "else":
                self.advance()
                self.expect(":")
                otherwise = self.expr()
                break
            guard = self.guard()
            self.expect(":")
            body = self.expr()
            if branches and not _comes_after(branches[-1][0], guard):
                raise ExprSyntaxError(
                    "piecewise guards must be disjoint and increasing",
                    position=tok.pos, found=tok.text)
            branches.append((guard, body))
            if self.peek().kind == "op" and self.peek().text == ";":
                self.advance()
                continue
            break
        self.expect("}")
        if not branches and otherwise is None:
            raise ExprSyntaxError("piecewise needs at least one branch",
                                  position=self.peek().pos)
        return Piecewise(tuple(branches), otherwise)

    def signed_number(self) -> float:
        neg = self.peek().kind == "op" and self.peek().text == "-"
        if neg:
            self.advance()
        if self.peek().kind != "num":
            self.fail(("number",))
        value = self.atom().value
        return -value if neg else value

    def cmp(self) -> str:
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("<", "<=", ">", ">="):
            return self.advance().text
        self.fail(("'<'", "'<='", "'>'", "'>='"))

    def guard(self) -> Guard:
        # forms: x CMP c | c CMP x | c CMP x CMP c, where c CMP x reads
        # x _FLIP[CMP] c and a second CMP points the way of the first
        tok = self.peek()
        if tok.kind == "name" and tok.text == "x":
            self.advance()
            comparisons = [(self.cmp(), self.signed_number())]
        else:
            c = self.signed_number()
            op = self.cmp()
            self.expect("x")
            comparisons = [(_FLIP[op], c)]
            if self.peek().kind == "op" and self.peek().text[0] == op[0]:
                comparisons.append((self.cmp(), self.signed_number()))
        ends = {">": (-math.inf, False), "<": (math.inf, False)}
        for op, c in comparisons:  # x > c is a lower end, x < c an upper
            ends[op[0]] = (c, op[1:] == "=")
        (lo, lo_closed), (hi, hi_closed) = ends[">"], ends["<"]
        if lo >= hi:
            raise ExprSyntaxError(f"empty guard interval ({lo!r}, {hi!r})",
                                  position=tok.pos, found=tok.text)
        return Guard(lo, lo_closed, hi, hi_closed)


def _comes_after(prev: Guard, nxt: Guard) -> bool:
    if nxt.lo > prev.hi:
        return True
    if nxt.lo == prev.hi and not (nxt.lo_closed and prev.hi_closed):
        return True
    return False


def parse(src: str) -> Expr:
    """Parse source text to an expression tree, or raise ExprSyntaxError."""
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# Evaluation


def _eval_error(message: str, node: Expr, x: float) -> ExprEvalError:
    return ExprEvalError(message, subexpression=format_expr(node), x=x)


def evaluate(e: Expr, x: float) -> float:
    """Evaluate at x. Domain faults (log of a nonpositive value, division
    by zero, sqrt of a negative, 0 to a negative power, a fractional power
    of a negative base, no matching piecewise branch) raise ExprEvalError
    naming the faulting subexpression and x. Overflow saturates to inf.

    A tree is compiled once, on its first evaluation, into nested closures
    cached on its nodes (see _compile); later evaluations call them and do
    not walk the tree. Values and faults are those of a walk of the tree.
    """
    try:
        fn = e._fn
    except AttributeError:
        raise TypeError(f"not an expression node: {e!r}") from None
    return fn(x)


# Compilation. Every node compiles to a code: a number for a subtree
# without x whose evaluation does not fault (its value, folded once), or a
# closure of x. A closure makes the math calls of a walk of its subtree in
# the same order, so its value, its overflow saturation and its faults are
# bit for bit those of the walk.


def _var(x):
    return x


def _as_fn(code):
    return code if callable(code) else (lambda x: code)


_ARITH = {
    "+": lambda f, g: lambda x: f(x) + g(x),
    "-": lambda f, g: lambda x: f(x) - g(x),
    "*": lambda f, g: lambda x: f(x) * g(x),
}


def _divide(e: BinOp, f, g):
    def divide(x):
        num = f(x)
        den = g(x)
        if den == 0:
            raise _eval_error("division by zero", e, x)
        return num / den
    return divide


def _power(e: BinOp, f, g):
    # math.pow, not **: ** yields a complex for (-2.0) ** 0.5
    pow_, inf = math.pow, math.inf

    def power(x):
        base = f(x)
        exponent = g(x)
        try:
            return pow_(base, exponent)
        except OverflowError:
            return inf
        except ValueError:
            if base == 0.0:
                raise _eval_error(
                    "zero raised to a negative power", e, x) from None
            raise _eval_error(
                "fractional power of a negative base", e, x) from None
    return power


def _exp(f):
    exp, inf = math.exp, math.inf

    def exp_f(x):
        v = f(x)
        try:
            return exp(v)
        except OverflowError:
            return inf
    return exp_f


def _log(e: Call, f):
    log = math.log

    def log_f(x):
        v = f(x)
        if v <= 0:
            raise _eval_error("log of a nonpositive value", e, x)
        return log(v)
    return log_f


def _sqrt(e: Call, f):
    sqrt = math.sqrt

    def sqrt_f(x):
        v = f(x)
        if v < 0:
            raise _eval_error("sqrt of a negative value", e, x)
        return sqrt(v)
    return sqrt_f


def _piecewise(e: Piecewise):
    branches = tuple((g.matches, body._fn) for g, body in e.branches)
    otherwise = None if e.otherwise is None else e.otherwise._fn

    def piecewise(x):
        for matches, fn in branches:
            if matches(x):
                return fn(x)
        if otherwise is not None:
            return otherwise(x)
        raise _eval_error("no piecewise branch matches", e, x)
    return piecewise


def _compile(e: Expr):
    """The code of e (see above), compiling its children first.

    A closure that can fault names a field-for-field copy of e in its
    ExprEvalError: e itself caches the closure, and the cycle would keep
    the tree alive until the garbage collector ran."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return _var
    if isinstance(e, Piecewise):
        return _piecewise(replace(e))
    if isinstance(e, Neg):
        operands = (e.operand._code,)
    elif isinstance(e, BinOp):
        operands = (e.left._code, e.right._code)
    elif isinstance(e, Call):
        operands = tuple(arg._code for arg in e.args)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    fns = tuple(map(_as_fn, operands))
    f = fns[0]
    if isinstance(e, Neg):
        fn = lambda x: -f(x)
    elif isinstance(e, BinOp):
        if e.op == "/":
            fn = _divide(replace(e), *fns)
        elif e.op == "^":
            fn = _power(replace(e), *fns)
        else:
            fn = _ARITH[e.op](*fns)
    elif e.func == "exp":
        fn = _exp(f)
    elif e.func == "log":
        fn = _log(replace(e), f)
    elif e.func == "sqrt":
        fn = _sqrt(replace(e), f)
    elif e.func == "abs":
        fn = lambda x: abs(f(x))
    else:
        pick = min if e.func == "min" else max
        fn = lambda x: pick([g(x) for g in fns])
    if not any(map(callable, operands)):
        try:
            return fn(0.0)  # no x below e: fold the value
        except ExprEvalError:
            pass  # a constant fault still reports the x it is evaluated at
    return fn


# ---------------------------------------------------------------------------
# Range enclosures: interval arithmetic over the tree (Moore, Kearfott &
# Cloud, Introduction to Interval Analysis, SIAM 2009). Each bound steps
# outward by one ulp after a float operation, which bounds its exact
# result too, and by two after a math library call, which may be off by
# up to an ulp either way. An enclosure is None where a value may fault or
# be NaN (inf - inf, 0 * inf, inf / inf), so a value under a known
# enclosure is never NaN, and overflow saturates to an infinite bound just
# as evaluate saturates.

_INF = math.inf


def _out(lo: float, hi: float, steps: int = 1) -> tuple:
    for _ in range(steps):
        lo, hi = math.nextafter(lo, -_INF), math.nextafter(hi, _INF)
    return lo, hi


def _nonnegative(r: tuple) -> tuple:
    # the enclosure of a function that returns no negative float (exp,
    # sqrt, an even power), whose lower end outward rounding took below 0
    return max(0.0, r[0]), r[1]


def _saturating(f, *args) -> float:
    try:
        return f(*args)
    except OverflowError:
        return _INF


def _range(e: Expr, lo: float, hi: float) -> Optional[tuple]:
    """An enclosure (rlo, rhi) of every value evaluate(e, x) returns for a
    float x in [lo, hi], or None where e may fault or be NaN there, or no
    bound is known."""
    code = e._code
    if not callable(code):  # a constant: its folded value, exactly
        return (code, code) if code == code else None
    if isinstance(e, Var):
        return (lo, hi) if lo <= hi else None
    if isinstance(e, Neg):
        r = _range(e.operand, lo, hi)
        return None if r is None else (-r[1], -r[0])
    if isinstance(e, BinOp):
        return _binop_range(e, lo, hi)
    if isinstance(e, Call):
        return _call_range(e, lo, hi)
    return _piecewise_range(e, lo, hi)


def _binop_range(e: BinOp, lo: float, hi: float) -> Optional[tuple]:
    a = _range(e.left, lo, hi)
    if a is None:
        return None
    if e.op == "^":
        return _power_range(e, a, lo, hi)
    b = _range(e.right, lo, hi)
    if b is None:
        return None
    (alo, ahi), (blo, bhi) = a, b
    if e.op == "+":
        if (ahi == _INF and blo == -_INF) or (alo == -_INF and bhi == _INF):
            return None
        return _out(alo + blo, ahi + bhi)
    if e.op == "-":
        if (ahi == _INF and bhi == _INF) or (alo == -_INF and blo == -_INF):
            return None
        return _out(alo - bhi, ahi - blo)
    a_inf = alo == -_INF or ahi == _INF
    b_inf = blo == -_INF or bhi == _INF
    if e.op == "/":
        if blo <= 0 <= bhi or (a_inf and b_inf):
            return None
        corners = (alo / blo, alo / bhi, ahi / blo, ahi / bhi)
    else:
        if (alo <= 0 <= ahi and b_inf) or (blo <= 0 <= bhi and a_inf):
            return None
        corners = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return _out(min(corners), max(corners))


def _power_range(e: BinOp, a: tuple, lo: float, hi: float) -> Optional[tuple]:
    alo, ahi = a
    n = e.right._code
    if not callable(n) and n % 1 == 0:  # a constant integer exponent
        if n < 0 and alo <= 0 <= ahi:
            return None  # zero raised to a negative power
        c1 = _saturating(math.pow, alo, n)
        c2 = _saturating(math.pow, ahi, n)
        if n % 2 == 1 and alo < 0 and not (math.isfinite(c1)
                                           and math.isfinite(c2)):
            # a negative odd power that overflows saturates to +inf, not
            # -inf, so near an infinite corner the values take both signs
            return -_INF, _INF
        rlo, rhi = min(c1, c2), max(c1, c2)
        if n > 0 and n % 2 == 0 and alo < 0 < ahi:
            rlo = 0.0
        r = _out(rlo, rhi, 2)
        return _nonnegative(r) if n % 2 == 0 else r
    if not (alo > 0 or alo == ahi == 0):
        return None  # a negative base, or one that may be 0, may fault
    b = _range(e.right, lo, hi)
    if b is None:
        return None
    if alo == 0:  # a zero base: 0^y is 0 for y > 0 and faults for y < 0
        return (0.0, 0.0) if b[0] > 0 else None
    # x^y = exp(y log x) is monotone in each argument, so its extremes
    # over the box are at the corners
    corners = [_saturating(math.pow, base, y)
               for base in (alo, ahi) for y in b]
    return _out(min(corners), max(corners), 2)


def _call_range(e: Call, lo: float, hi: float) -> Optional[tuple]:
    ranges = [_range(arg, lo, hi) for arg in e.args]
    if None in ranges:
        return None
    if e.func in _VARIADIC_FUNCS:
        pick = min if e.func == "min" else max
        return pick(r[0] for r in ranges), pick(r[1] for r in ranges)
    vlo, vhi = ranges[0]
    if e.func == "abs":
        if vlo >= 0:
            return vlo, vhi
        if vhi <= 0:
            return -vhi, -vlo
        return 0.0, max(-vlo, vhi)
    if e.func == "exp":
        return _nonnegative(_out(_saturating(math.exp, vlo),
                                 _saturating(math.exp, vhi), 2))
    if e.func == "log":
        return None if vlo <= 0 else _out(math.log(vlo), math.log(vhi), 2)
    if vlo < 0:
        return None
    return _nonnegative(_out(math.sqrt(vlo), math.sqrt(vhi), 2))


def _piecewise_range(e: Piecewise, lo: float, hi: float) -> Optional[tuple]:
    """The union of the enclosures of the branches on the floats of
    [lo, hi] that their guards match, and of the else branch on the hull
    of the floats that no guard matches; None if some float has no
    branch. The guards are disjoint and increasing, so one walk from lo
    finds both."""
    parts = []
    gap_lo = gap_hi = None
    cur = lo  # the least float of the box that no guard has yet matched
    for guard, body in e.branches:
        p = max(cur, guard.lo)
        if p == guard.lo and not guard.lo_closed:
            p = math.nextafter(p, _INF)
        q = min(hi, guard.hi)
        if q == guard.hi and not guard.hi_closed:
            q = math.nextafter(q, -_INF)
        if p > q:
            continue
        if cur < p:
            gap_lo = cur if gap_lo is None else gap_lo
            gap_hi = math.nextafter(p, -_INF)
        parts.append(_range(body, p, q))
        if q >= hi:
            break
        cur = math.nextafter(q, _INF)
    else:
        if cur <= hi:
            gap_lo = cur if gap_lo is None else gap_lo
            gap_hi = hi
    if gap_lo is not None:
        if e.otherwise is None:
            return None
        parts.append(_range(e.otherwise, gap_lo, gap_hi))
    if not parts or None in parts:
        return None
    return min(r[0] for r in parts), max(r[1] for r in parts)


# ---------------------------------------------------------------------------
# Breakpoints: where an expression may kink, jump, or change formula


_LEAF_BITS = 80  # a box at most 2^-80 of the window wide is a leaf
_MAX_BOXES = 64  # past this many undecided boxes, runs end whole


def _candidates(e: Expr, bounds: list, subs: list):
    """One walk of e collecting finite piecewise guard bounds into `bounds`
    and subexpressions whose zeros are breakpoints into `subs`."""
    if isinstance(e, BinOp):
        _candidates(e.left, bounds, subs)
        _candidates(e.right, bounds, subs)
        if e.op == "/":
            subs.append(e.right)
    elif isinstance(e, Neg):
        _candidates(e.operand, bounds, subs)
    elif isinstance(e, Call):
        for arg in e.args:
            _candidates(arg, bounds, subs)
        if e.func in ("log", "sqrt", "abs"):
            subs.append(e.args[0])
        elif e.func in ("min", "max") and len(e.args) == 2:
            subs.append(BinOp("-", e.args[0], e.args[1]))
    elif isinstance(e, Piecewise):
        for guard, body in e.branches:
            bounds.extend(b for b in (guard.lo, guard.hi) if math.isfinite(b))
            _candidates(body, bounds, subs)
        if e.otherwise is not None:
            _candidates(e.otherwise, bounds, subs)


def _runs(boxes: list) -> list:
    """Sorted boxes grouped into runs of adjacent boxes."""
    runs: list = []
    for lo, hi in boxes:
        if runs and runs[-1][-1][1] == lo:
            runs[-1].append((lo, hi))
        else:
            runs.append([(lo, hi)])
    return runs


def _isolate_zeros(sub: Expr, a: float, b: float, out: list):
    """Append to out a point at each zero of sub on [a, b], found by
    interval bisection of its enclosures (_range) alone.

    Each round halves every box whose enclosure is unknown or holds 0 and
    drops the others. A box at most 2^-_LEAF_BITS of the window wide, or
    with no float strictly inside, is a leaf and is kept. So is a whole
    run of more than _MAX_BOXES adjacent boxes (a zero stretch, an
    enclosure that overestimates, a stretch where it is unknown, or the
    rounding fuzz around a zero computed through the math library), and
    every run once the shorter runs hold more than _MAX_BOXES boxes, so a
    round encloses at most 2*_MAX_BOXES boxes. Each run of adjacent kept
    boxes gives one point: the end of the window it touches, else its
    midpoint. Widths are halved before they are taken, so a window as
    wide as the float range does not overflow."""
    leaf = math.ldexp(0.5 * b - 0.5 * a, -_LEAF_BITS)
    boxes, kept = [(a, b)], []
    while boxes:
        undecided = [(lo, hi) for lo, hi in boxes
                     if (r := _range(sub, lo, hi)) is None
                     or r[0] <= 0 <= r[1]]
        if len(undecided) > _MAX_BOXES:
            runs = _runs(undecided)
            crowded = sum(len(run) for run in runs
                          if len(run) <= _MAX_BOXES) > _MAX_BOXES
            undecided = []
            for run in runs:
                if crowded or len(run) > _MAX_BOXES:
                    kept.append((run[0][0], run[-1][1]))
                else:
                    undecided += run
        boxes = []
        for lo, hi in undecided:
            mid = 0.5 * lo + 0.5 * hi
            if 0.5 * hi - 0.5 * lo <= leaf or not lo < mid < hi:
                kept.append((lo, hi))
            else:
                boxes += ((lo, mid), (mid, hi))
    for run in _runs(sorted(kept)):
        lo, hi = run[0][0], run[-1][1]
        if lo == a:
            out.append(a)
        if hi == b:
            out.append(b)
        if a < lo and hi < b:
            out.append(0.5 * lo + 0.5 * hi)


def breakpoints(e: Expr, s: MeasurableSet) -> tuple:
    """Points inside s where e can kink or jump: piecewise guard bounds,
    and zeros (by interval bisection, _isolate_zeros) of divisors and of
    log, sqrt, abs, and two-argument min/max arguments.

    A sub may jump at its own guard bounds, which are breakpoints
    already, so its zeros are isolated on each piece of the window
    between them, the bound floats left out of every piece; a window end
    that is a bound is left out too."""
    if s.is_finite:
        return ()
    candidates: list = []
    subs: list = []
    _candidates(e, candidates, subs)
    for sub in subs:
        bounds: list = []
        if candidates:  # a sub's guard bounds are among e's
            _candidates(sub, bounds, [])
        for a, b in s.intervals:
            cuts = [a, *sorted({t for t in bounds if a <= t <= b}), b]
            for lo, hi in zip(cuts, cuts[1:]):
                p = math.nextafter(lo, _INF) if lo in bounds else lo
                q = math.nextafter(hi, -_INF) if hi in bounds else hi
                if p <= q:
                    found: list = []
                    _isolate_zeros(sub, p, q, found)
                    # a piece end beside a bound stands for that bound
                    candidates += (x for x in found
                                   if not (x == p != lo or x == q != hi))
    inside = [x for x in candidates if s.contains_point(x)]
    inside.sort()
    deduped: list = []
    for x in inside:
        if not deduped or x - deduped[-1] > 1e-12 * max(1.0, abs(x)):
            deduped.append(x)
    return tuple(deduped)


# ---------------------------------------------------------------------------
# Printing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC["neg"]
    return _PREC["atom"]


def _wrap(text: str, need: bool) -> str:
    return f"({text})" if need else text


def _guard_text(g: Guard) -> str:
    if math.isinf(g.lo):
        return f"x {'<=' if g.hi_closed else '<'} {g.hi!r}"
    if math.isinf(g.hi):
        return f"x {'>=' if g.lo_closed else '>'} {g.lo!r}"
    return (f"{g.lo!r} {'<=' if g.lo_closed else '<'} x "
            f"{'<=' if g.hi_closed else '<'} {g.hi!r}")


def format_expr(e: Expr) -> str:
    """Render with minimal parentheses; parse(format_expr(e)) == e for any
    tree produced by parse."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Neg):
        inner = format_expr(e.operand)
        return "-" + _wrap(inner, _prec(e.operand) < _PREC["neg"])
    if isinstance(e, BinOp):
        p = _PREC[e.op]
        left = format_expr(e.left)
        right = format_expr(e.right)
        if e.op == "^":
            left = _wrap(left, _prec(e.left) <= p)
            right = _wrap(right, isinstance(e.right, BinOp)
                          and _PREC[e.right.op] < _PREC["neg"])
        else:
            left = _wrap(left, _prec(e.left) < p)
            wrap_right = _prec(e.right) < p or (
                isinstance(e.right, BinOp) and _PREC[e.right.op] == p)
            right = _wrap(right, wrap_right)
        return f"{left} {e.op} {right}"
    if isinstance(e, Call):
        return f"{e.func}({', '.join(format_expr(a) for a in e.args)})"
    if isinstance(e, Piecewise):
        parts = [f"{_guard_text(g)}: {format_expr(body)}"
                 for g, body in e.branches]
        if e.otherwise is not None:
            parts.append(f"else: {format_expr(e.otherwise)}")
        return "piecewise {" + "; ".join(parts) + "}"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Bridges to measures


def _as_expr(source) -> Expr:
    return source if isinstance(source, Expr) else parse(source)


def density_from_expr(source, space: Space) -> Density:
    """Compile expression text (or a parsed tree) to a Density whose
    breakpoints are the expression's kink points inside the space."""
    e = _as_expr(source)
    bps = breakpoints(e, MeasurableSet.full(space))
    return Density(lambda x: evaluate(e, x), breakpoints=bps)


# ---------------------------------------------------------------------------
# Set syntax: "[a,b]" unions and "{atom, atom}" lists

_INTERVAL_RE = re.compile(
    rf"\s*\[\s*(-?)({_NUMBER})\s*,\s*(-?)({_NUMBER})\s*\]\s*")


def parse_set(text: str, space: Space) -> MeasurableSet:
    """Parse "[a,b]" or "[a,b] U [c,d]" (also the union sign) on interval
    spaces, "{a1, a2}" atom lists on finite ones, or "full"."""
    stripped = text.strip()
    if stripped == "full":
        return MeasurableSet.full(space)
    if stripped.startswith("{"):
        if not stripped.endswith("}"):
            raise ExprSyntaxError("unterminated atom list",
                                  position=len(text.encode("utf-8")) - 1)
        body = stripped[1:-1].strip()
        names = [part.strip() for part in body.split(",")] if body else []
        try:
            atoms = [space.resolve_atom(name) for name in names]
            return MeasurableSet.of_atoms(space, atoms)
        except DomainError as exc:
            raise ExprSyntaxError(str(exc), position=0) from None
    pieces = re.split(r"∪|U|u", stripped)
    intervals = []
    for piece in pieces:
        at = text.find(piece)
        m = _INTERVAL_RE.fullmatch(piece)
        if m is None:
            raise ExprSyntaxError(
                f"expected an interval like [a,b], found {piece.strip()!r}",
                position=_byte_offset(text, at))
        # a bound is an optional minus and a NUMBER literal, as in a guard
        intervals.append(tuple(
            (-1.0 if m[i - 1] else 1.0)
            * _number(m[i], _byte_offset(text, at + m.start(i)))
            for i in (2, 4)))
    try:
        return MeasurableSet.of_intervals(space, intervals)
    except DomainError as exc:
        raise ExprSyntaxError(str(exc), position=0) from None
