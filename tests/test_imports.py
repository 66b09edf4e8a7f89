"""numpy is loaded only by the code that uses it.

entropy, supnorm and the group API run without numpy; maxent and the
verifier (hence the maxent, verify and examples commands) import it on
first use. Each check runs in a fresh interpreter, since this process has
numpy loaded already.
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

# Runs each argv list of sys.argv[1] through cli.main, in order; after
# the first `numpy_free` of them, and after groups.subgroups, records
# whether numpy is loaded. Prints one JSON document.
_SCRIPT = """
import contextlib, io, json, sys
from haarent import cli, groups

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

calls, numpy_free = json.loads(sys.argv[1])
doc = {"runs": [run(argv) for argv in calls[:numpy_free]]}
doc["lattice"] = len(groups.subgroups(groups.group_from_descriptor("Z16")))
doc["numpy_loaded"] = "numpy" in sys.modules
doc["runs"] += [run(argv) for argv in calls[numpy_free:]]
print(json.dumps(doc))
"""


def _env() -> dict:
    # this process's environment, with src first on the path, so both
    # sides of each comparison read the same settings (HAARENT_TOL, ...)
    path = os.pathsep.join(filter(None, [str(SRC), os.getenv("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _fresh(calls: list, numpy_free: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps([calls, numpy_free])],
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


def test_entropy_supnorm_and_groups_run_without_numpy(tmp_path, monkeypatch):
    # the golden case was made at the default tolerance
    monkeypatch.delenv("HAARENT_TOL", raising=False)
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
    doc = _fresh(numpy_free + [MAXENT, VERIFY], len(numpy_free))
    assert doc["numpy_loaded"] is False
    assert doc["lattice"] == 5
    runs = doc["runs"]
    # the same bytes as in this process, which has numpy loaded
    assert runs[:3] == [_in_process(argv) for argv in numpy_free]
    assert [r["exit"] for r in runs] == [0, 0, 0, 0, 0]
    # the numpy commands still work in the same process afterwards
    assert runs[3] == _in_process(MAXENT)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]
    assert runs[4] == golden["verify/lem-finite-form"]
