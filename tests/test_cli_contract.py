"""The CLI's output contract, fuzzed: `entropy` and `supnorm` on random
expression densities, windows, references and sets.

Whatever the input, main returns an exit code in {0, 1, 2, 3} and raises
nothing; on exit 0 the JSON output is valid JSON (RFC 8259 has no NaN or
Infinity); and the same invocation prints the same bytes twice.
Derandomized with a fixed example budget, so the suite stays reproducible.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from haarent.cli import main

# constants that reach overflow, underflow, zero and negative values
NUMBERS = st.sampled_from(["0", "0.5", "1", "2", "3.7", "-1", "-2.5",
                           "1000", "1e308", "1e-300", "700", "0.001"])
UNARY = ("exp", "log", "sqrt", "abs")
BINARY = ("+", "-", "*", "/", "^")

EXPRS = st.recursive(
    st.one_of(st.just("x"), NUMBERS),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(UNARY), inner).map(
            lambda t: f"{t[0]}({t[1]})"),
        st.tuples(inner, st.sampled_from(BINARY), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(("min", "max")), inner, inner).map(
            lambda t: f"{t[0]}({t[1]}, {t[2]})"),
        inner.map(lambda e: f"-{e}")),
    max_leaves=5)
# most random expressions go negative somewhere; these wrappers keep a
# share of the densities nonnegative, so that they reach the integrals
DENSITIES = st.tuples(st.sampled_from(["{}", "abs({})", "exp({})", "{}^2"]),
                      EXPRS).map(lambda t: t[0].format(t[1]))

WINDOWS = st.sampled_from([(0.0, 1.0), (0.01, 1000.0), (-5.0, 5.0),
                           (1.0, 2.0), (0.1, 100.0), (2.0, 7.5)])


@st.composite
def invocations(draw, tmp):
    """argv for one `entropy` or `supnorm` call, with its spec files."""
    lo, hi = draw(WINDOWS)
    space = {"kind": "interval", "bounds": [lo, hi]}
    files = []

    def spec(density):
        path = tmp / f"spec{len(files)}.json"
        path.write_text(json.dumps({"space": space, "density": density}))
        files.append(str(path))
        return files[-1]

    def expr():
        return {"kind": "expr", "payload": draw(DENSITIES)}

    reference = draw(st.sampled_from(
        ["lebesgue", "uniform", "haar", "expr", "group"]))
    if reference == "group":
        kind = "R*mul" if lo > 0 and draw(st.booleans()) else "R+add"
        ref_args = ["--group", f"{kind}:[{lo!r},{hi!r}]"]
    elif reference == "expr":
        ref_args = ["--reference", spec(expr())]
    else:
        payload = "haar:R*" if reference == "haar" and lo > 0 else "lebesgue"
        ref_args = ["--reference",
                    spec({"kind": "builtin", "payload": payload})]
    command = draw(st.sampled_from(["entropy", "supnorm"]))
    measures = [spec(expr()) for _ in range(
        draw(st.integers(1, 2)) if command == "supnorm" else 1)]
    argv = [command, *(a for m in measures for a in ("--measure", m)),
            *ref_args, "--format", "json"]
    if draw(st.booleans()):
        a = draw(st.floats(lo, hi))
        b = draw(st.floats(a, hi))
        argv += ["--set", f"[{a!r},{b!r}]"]
    if command == "entropy" and draw(st.booleans()):
        argv += ["--tol", draw(st.sampled_from(["1e-6", "1e-10"]))]
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_entropy_and_supnorm_keep_the_output_contract(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("contract")

    @settings(derandomize=True, max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(invocations(tmp))
    def check(argv):
        first = run(argv)
        code, out, _ = first
        assert code in (0, 1, 2, 3), (argv, first)
        if code == 0:
            json.loads(out, parse_constant=reject_constant)
        assert run(argv) == first, argv

    check()
