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
    # maxent and verifier are imported on first use (maxent needs numpy,
    # the verifier does not, but resolving concavity_probe loads maxent);
    # dir() lists their names before that, and the submodule names and the
    # names they export resolve
    script = """
import json, sys, types
import haarent
doc = {"not_in_dir": sorted(set(haarent.__all__) - set(dir(haarent))),
       "numpy_loaded": "numpy" in sys.modules}
doc["submodules"] = [isinstance(getattr(haarent, m), types.ModuleType)
                     for m in ("maxent", "verifier")]
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
                                       "numpy_loaded": False,
                                       "submodules": [True, True],
                                       "unresolved": []}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        haarent.no_such_name


def test_lazy_names_follow_the_submodule_binding(monkeypatch):
    # nothing is cached on the package, so a wrapper put on a submodule
    # function (as bench/tracer.py does) and removed again shows through
    original = haarent.maxent.maximize_entropy
    assert haarent.maximize_entropy is original
    monkeypatch.setattr(haarent.maxent, "maximize_entropy", len)
    assert haarent.maximize_entropy is len
    monkeypatch.undo()
    assert haarent.maximize_entropy is original
