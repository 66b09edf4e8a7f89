import importlib
import pkgutil

import haarent


def test_every_exported_name_resolves():
    modules = [haarent] + [importlib.import_module(f"haarent.{info.name}")
                           for info in pkgutil.iter_modules(haarent.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing
