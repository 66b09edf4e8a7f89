"""Every subcommand runs without numpy.

haarent needs nothing outside the standard library: the verifier and
maxent draw from random.Random. Each check runs in a fresh interpreter
whose import system refuses numpy, since the test process may have
loaded it (other tests use it as an oracle), and compares the bytes with
this process's or with the golden file's.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from haarent import cli

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).with_name("golden_cli.json")

MAXENT_N = ["maxent", "--n", "3", "--format", "json"]
MAXENT_NU = ["maxent", "--nu", "1,2,3", "--format", "json"]
VERIFY = ["verify", "--claim", "lem-finite-form", "--trials", "4",
          "--seed", "7", "--format", "json"]
CONCAVITY = ["verify", "--claim", "maxent-concavity", "--trials", "4",
             "--seed", "7", "--format", "json"]
ALL = ["verify", "--all", "--trials", "2", "--seed", "7", "--format",
       "json"]
EXAMPLES = ["examples", "--format", "json"]

# Blocks numpy on the meta path, computes the Z16 subgroup lattice, then
# runs each argv list of sys.argv[1] through cli.main, in order. Prints
# one JSON document, which records whether numpy stayed unimportable.
_SCRIPT = """
import contextlib, importlib.abc, io, json, sys

class NoNumpy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoNumpy())
from haarent import cli, groups

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

doc = {"lattice": len(groups.subgroups(groups.group_from_descriptor("Z16"))),
       "runs": [run(argv) for argv in json.loads(sys.argv[1])]}
try:
    import numpy
except ImportError:
    doc["numpy_blocked"] = "numpy" not in sys.modules
else:
    doc["numpy_blocked"] = False
print(json.dumps(doc))
"""


def _env() -> dict:
    # this process's environment, with src first on the path, so both
    # sides of each comparison read the same settings (HAARENT_TOL, ...)
    path = os.pathsep.join(filter(None, [str(SRC), os.getenv("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _without_numpy(calls: list) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(calls)],
        env=_env(), capture_output=True, text=True,
        check=True, timeout=120)
    doc = json.loads(proc.stdout)
    assert doc["numpy_blocked"]
    return doc


def _spec(tmp_path, name: str, density: dict, **rest) -> str:
    path = tmp_path / name
    path.write_text(json.dumps({"density": density, **rest}),
                    encoding="utf-8")
    return str(path)


def _in_process(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_entropy_supnorm_and_groups_run_without_numpy(tmp_path):
    inv = _spec(tmp_path, "inv.json", {"kind": "expr", "payload": "1/x"})
    pair = _spec(tmp_path, "pair.json",
                 {"kind": "table", "payload": {"0": 1.0, "3": 1.0}})
    calls = [
        ["entropy", "--measure", inv, "--group", "R*mul:[0.01,1000.0]",
         "--format", "json"],
        ["entropy", "--measure", pair, "--group", "Z6", "--format", "json"],
        ["supnorm", "--measure", inv, "--group", "R*mul:[0.01,1000.0]",
         "--format", "json"],
    ]
    doc = _without_numpy(calls)
    assert doc["lattice"] == 5
    # the same bytes as in this process, which may have numpy loaded
    assert doc["runs"] == [_in_process(argv) for argv in calls]
    assert [r["exit"] for r in doc["runs"]] == [0, 0, 0]


def test_entropy_checks_run_without_numpy(tmp_path):
    # the flat and the decaying density on a window; a quotient that is
    # nan where supnorm samples it (exp(800) - exp(800) is inf - inf),
    # which exits 3; a finite reference that is 0 at the atom c, against
    # a measure that is 0 there too (exit 0) and one with mass there
    # (AbsoluteContinuityError, exit 3); and the claims that run the
    # weight path and the checked quotient of the identities
    flat = _spec(tmp_path, "flat.json",
                 {"kind": "builtin", "payload": "uniform"})
    decay = _spec(tmp_path, "decay.json",
                  {"kind": "expr", "payload": "exp(-x)"})
    nan = _spec(tmp_path, "nan.json", {"kind": "expr", "payload":
        "piecewise {0.33 < x < 0.34: exp(800) - exp(800); else: 0.5}"})
    space = {"kind": "atoms", "atoms": ["a", "b", "c"]}
    ref, null, charged = (
        _spec(tmp_path, name, {"kind": "table", "payload": payload},
              space=space)
        for name, payload in (("ref.json", {"a": 1.0, "b": 2.0}),
                              ("null.json", {"a": 0.5, "b": 0.25}),
                              ("charged.json",
                               {"a": 0.5, "b": 0.25, "c": 0.125})))
    window = ["--group", "R+add:[0.0,2.0]"]
    calls = [
        ["entropy", "--measure", flat, *window],
        ["entropy", "--measure", decay, *window],
        ["supnorm", "--measure", flat, *window],
        ["supnorm", "--measure", decay, *window],
        ["supnorm", "--measure", nan, "--group", "R+add:[0,1]"],
        ["entropy", "--measure", null, "--reference", ref],
        ["entropy", "--measure", charged, "--reference", ref],
        *[["verify", "--claim", claim, "--trials", "4", "--seed", "7"]
          for claim in ("lem-weight-form", "lem-change-of-reference",
                        "thm-entropic-gap")],
    ]
    doc = _without_numpy(calls)
    assert doc["runs"] == [_in_process(argv) for argv in calls]
    assert [r["exit"] for r in doc["runs"]] == [0, 0, 0, 0, 3, 0, 3, 0, 0, 0]


def test_maxent_runs_without_numpy():
    doc = _without_numpy([MAXENT_N, MAXENT_NU])
    assert doc["runs"] == [_in_process(MAXENT_N), _in_process(MAXENT_NU)]
    assert [r["exit"] for r in doc["runs"]] == [0, 0]


def test_verify_and_examples_run_without_numpy(monkeypatch):
    # the golden cases were made at the default tolerance, in a process
    # with its own hash seed; the verifier's str seeds do not depend on it
    monkeypatch.delenv("HAARENT_TOL", raising=False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]
    for hashseed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", hashseed)
        doc = _without_numpy([VERIFY, CONCAVITY, ALL, EXAMPLES])
        assert doc["runs"] == [golden["verify/lem-finite-form"],
                               golden["verify/maxent-concavity"],
                               golden["verify/all"],
                               golden["examples/json"]]
