"""numpy is loaded only by the code that uses it.

entropy, supnorm, the group API, the verifier and the worked examples
run without numpy: the verifier draws from haarent's own PCG64 stream.
maxent loads it on first use, and so does the maxent-concavity claim,
through maxent.concavity_probe. Each check runs in a fresh interpreter,
since this process has numpy loaded already.
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

MAXENT = ["maxent", "--nu", "1,2,3", "--iters", "200", "--format", "json"]
VERIFY = ["verify", "--claim", "lem-finite-form", "--trials", "4",
          "--seed", "7", "--format", "json"]
CONCAVITY = ["verify", "--claim", "maxent-concavity", "--trials", "4",
             "--seed", "7", "--format", "json"]
EXAMPLES = ["examples", "--format", "json"]

# Computes the Z16 subgroup lattice, then runs each argv list of
# sys.argv[1] through cli.main, in order, and records after each step
# whether numpy is loaded. Prints one JSON document.
_SCRIPT = """
import contextlib, io, json, sys
from haarent import cli, groups

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

doc = {"lattice": len(groups.subgroups(groups.group_from_descriptor("Z16"))),
       "runs": []}
doc["numpy_loaded"] = ["numpy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    doc["runs"].append(run(argv))
    doc["numpy_loaded"].append("numpy" in sys.modules)
print(json.dumps(doc))
"""


def _env() -> dict:
    # this process's environment, with src first on the path, so both
    # sides of each comparison read the same settings (HAARENT_TOL, ...)
    path = os.pathsep.join(filter(None, [str(SRC), os.getenv("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _fresh(calls: list) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(calls)],
        env=_env(), capture_output=True, text=True,
        check=True, timeout=120)
    return json.loads(proc.stdout)


def _spec(tmp_path, name: str, density: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps({"density": density}), encoding="utf-8")
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
    numpy_free = [
        ["entropy", "--measure", inv, "--group", "R*mul:[0.01,1000.0]",
         "--format", "json"],
        ["entropy", "--measure", pair, "--group", "Z6", "--format", "json"],
        ["supnorm", "--measure", inv, "--group", "R*mul:[0.01,1000.0]",
         "--format", "json"],
    ]
    doc = _fresh(numpy_free + [MAXENT])
    # numpy first loads at maxent
    assert doc["numpy_loaded"] == [False, False, False, False, True]
    assert doc["lattice"] == 5
    runs = doc["runs"]
    # the same bytes as in this process, which has numpy loaded
    assert runs[:3] == [_in_process(argv) for argv in numpy_free]
    assert [r["exit"] for r in runs] == [0, 0, 0, 0]
    # the numpy command still works in the same process afterwards
    assert runs[3] == _in_process(MAXENT)


def test_verify_and_examples_run_without_numpy(monkeypatch):
    # the golden cases were made at the default tolerance
    monkeypatch.delenv("HAARENT_TOL", raising=False)
    doc = _fresh([VERIFY, EXAMPLES, CONCAVITY])
    # numpy first loads at the maxent-concavity claim
    assert doc["numpy_loaded"] == [False, False, False, True]
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]
    assert doc["runs"] == [golden["verify/lem-finite-form"],
                           golden["examples/json"],
                           golden["verify/maxent-concavity"]]
