import importlib
import pkgutil

import qcs


def test_every_exported_name_resolves():
    modules = [qcs] + [
        importlib.import_module(f"qcs.{info.name}")
        for info in pkgutil.iter_modules(qcs.__path__)
        if info.name != "__main__"  # running it starts the CLI
    ]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
