"""Byte-identity guard: exact CLI output for a fixed set of invocations.

tests/golden_cli.json holds the stdout and stderr bytes and the exit code
of every case below. Any change to a printed bit fails this test. The
bytes depend on the platform's libm rounding, so the file also names the
Python and platform it was recorded under, and the test fails first,
with that message, on any other. When an output is meant to change,
re-record the file and say why in the commit:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import io
import json
import platform
import sys
from itertools import permutations
from pathlib import Path

import pytest

from haarent import cli, groups, verifier

GOLDEN = Path(__file__).with_name("golden_cli.json")

# (name, expression, group descriptor): together the expressions use
# + - * / ^ and unary minus, exp log abs sqrt min max (with two and three
# arguments), and piecewise with and without an else branch
_EXPR_SPECS = (
    ("gauss", "exp(-x^2) + 0.1", "R+add:[-2.0,3.0]"),
    ("inv-haar", "1/x", "R*mul:[0.01,1000.0]"),
    ("sqrt-log", "sqrt(x) + log(x + 2) - 0.5*x/(x + 1)", "R+add:[0.0,4.0]"),
    ("abs", "abs(x - 1.5) + 0.2", "R+add:[0.0,4.0]"),
    ("min-max", "min(x, 2) + max(0.3, x/3)", "R*mul:[0.1,6.0]"),
    ("steps-else", "piecewise {x < 1: 0.5; 1 <= x < 2: 2; else: 1}",
     "R+add:[0.0,3.0]"),
    ("steps-no-else", "piecewise {x <= 1: x^2 + 0.1; 1 < x <= 3: 2 - x/3}",
     "R+add:[0.0,3.0]"),
    ("max3-pow", "max(x^0.5, 2^-x, 0.25) * exp(-x/4)", "R+add:[0.0,5.0]"),
)
_FAULTING = ("log-fault", "log(x - 1)", "R+add:[0.0,2.0]")

# (case name, spec name, density, group arguments) on the finite groups:
# S5 restricted to <a 5-cycle, a 3-cycle>, D12 to <r2, s1>, and README's
# Z6 example in its default table rendering
_FINITE_CASES = (
    ("entropy/S5/subgroup", "s5-table",
     {"kind": "table",
      "payload": {"".join(p): 1.0 + k % 7 / 4
                  for k, p in enumerate(permutations("01234"))}},
     ["--group", "S5", "--subgroup", "12340,12034", "--format", "json"]),
    ("entropy/D12/subgroup", "uniform",
     {"kind": "builtin", "payload": "uniform"},
     ["--group", "D12", "--subgroup", "r2,s1", "--format", "json"]),
    ("entropy/Z6/set", "z6-table",
     {"kind": "table", "payload": {"0": 0.5, "1": 1.0, "2": 2.0,
                                   "3": 0.25, "4": 1.5, "5": 3.0}},
     ["--group", "Z6", "--set", "{0,3}"]),
)


def _cases() -> list:
    """(case name, argv, {spec name: density}) for every golden case;
    argv names spec files as {name}."""
    cases = []
    for cid in verifier.claim_ids():
        cases.append((f"verify/{cid}",
                      ["verify", "--claim", cid, "--trials", "4",
                       "--seed", "7", "--format", "json"], {}))
    # the worked examples in both renderings, and the haarent-run/1
    # summary document of the whole catalog
    cases.append(("examples/json", ["examples", "--format", "json"], {}))
    cases.append(("examples/table", ["examples"], {}))
    cases.append(("verify/all", ["verify", "--all", "--trials", "2",
                                 "--seed", "7", "--format", "json"], {}))
    for name, expr, group in _EXPR_SPECS + (_FAULTING,):
        specs = {name: _expr(expr)}
        for tol in ("1e-6", "1e-10"):
            cases.append((f"entropy/{name}/tol{tol}",
                          ["entropy", "--measure", f"{{{name}}}", "--group",
                           group, "--tol", tol, "--format", "json"], specs))
        cases.append((f"supnorm/{name}",
                      ["supnorm", "--measure", f"{{{name}}}", "--group",
                       group, "--format", "json"], specs))
    pair = {name: _expr(expr) for name, expr, _ in _EXPR_SPECS[2:4]}
    cases.append(("supnorm/pair",
                  ["supnorm", "--measure", "{sqrt-log}", "--measure",
                   "{abs}", "--group", "R+add:[0.0,4.0]", "--format",
                   "json"], pair))
    for case, name, density, group_args in _FINITE_CASES:
        cases.append((case, ["entropy", "--measure", f"{{{name}}}",
                             *group_args], {name: density}))
    return cases


def _expr(expr: str) -> dict:
    return {"kind": "expr", "payload": expr}


def _run(argv, specs, workdir: Path) -> dict:
    paths = {}
    for name, density in specs.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps({"density": density}), encoding="utf-8")
        paths[name] = str(path)
    argv = [paths.get(a[1:-1], a) if a.startswith("{") else a
            for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _environment() -> dict:
    """What the recorded bytes depend on besides haarent itself."""
    return {"platform": f"{platform.system()} {platform.machine()}",
            "python": "{} {}.{}".format(platform.python_implementation(),
                                        *sys.version_info[:2])}


def _document() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _golden() -> dict:
    return _document()["cases"]


def _require_recorded_environment() -> None:
    recorded, here = _document()["recorded_under"], _environment()
    if recorded != here:
        pytest.fail(f"golden outputs were recorded under {recorded}; "
                    f"this is {here}", pytrace=False)


def test_recorded_under_this_environment():
    _require_recorded_environment()


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(name for name, _, _ in _cases())


def test_faulting_expression_is_recorded_as_a_numeric_failure():
    for key, rec in _golden().items():
        if "/log-fault/" in key or key.endswith("/log-fault"):
            assert rec["exit"] == 3
            assert "log of a nonpositive value" in rec["stderr"]
            assert rec["stdout"] == ""


@pytest.mark.parametrize("name,argv,specs", _cases(),
                         ids=[c[0] for c in _cases()])
def test_output_is_byte_identical(name, argv, specs, tmp_path):
    _require_recorded_environment()
    assert _run(argv, specs, tmp_path) == _golden()[name]


def _finite_cases() -> list:
    names = {case for case, _, _, _ in _FINITE_CASES}
    return [c for c in _cases() if c[0] in names]


@pytest.mark.parametrize("name,argv,specs", _finite_cases(),
                         ids=[c[0] for c in _finite_cases()])
def test_kept_group_gives_the_same_bytes(name, argv, specs, tmp_path,
                                         monkeypatch):
    # the first run builds the group in an empty process-wide store, the
    # second is served by the object the first one kept
    _require_recorded_environment()
    monkeypatch.setattr(groups, "_KEPT", {})
    first = _run(argv, specs, tmp_path)
    assert len(groups._KEPT) == 1
    assert (first, _run(argv, specs, tmp_path)) == (_golden()[name],) * 2


def _record() -> None:
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        cases = {name: _run(argv, specs, Path(tmp))
                 for name, argv, specs in _cases()}
    doc = {"recorded_under": _environment(), "cases": cases}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    _record()
