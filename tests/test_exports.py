import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import haarent


def test_every_exported_name_resolves():
    modules = [haarent] + [importlib.import_module(f"haarent.{info.name}")
                           for info in pkgutil.iter_modules(haarent.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing


def test_lazy_names_resolve_in_a_fresh_interpreter():
    # the verifier is imported on first use; dir() lists its names before
    # that, and the submodule name and the names it exports resolve
    script = """
import json, sys, types
import haarent
doc = {"not_in_dir": sorted(set(haarent.__all__) - set(dir(haarent))),
       "verifier_loaded": "haarent.verifier" in sys.modules}
doc["submodule"] = isinstance(haarent.verifier, types.ModuleType)
doc["unresolved"] = [n for n in haarent.__all__ if not hasattr(haarent, n)]
print(json.dumps(doc))
"""
    # this process's environment, with src first on the path
    src = Path(haarent.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.getenv("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True,
                          timeout=120)
    assert json.loads(proc.stdout) == {"not_in_dir": [],
                                       "verifier_loaded": False,
                                       "submodule": True,
                                       "unresolved": []}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        haarent.no_such_name


def test_lazy_names_follow_the_submodule_binding(monkeypatch):
    # nothing is cached on the package, so a wrapper put on a verifier
    # function (as bench/tracer.py does) and removed again shows through
    original = haarent.verifier.verify
    assert haarent.verify is original
    monkeypatch.setattr(haarent.verifier, "verify", len)
    assert haarent.verify is len
    monkeypatch.undo()
    assert haarent.verify is original
