"""Every module under ``src/repro`` imports, so a deletion that leaves a
dangling import fails here in seconds rather than inside a Spark job."""
import importlib
import pkgutil

import repro


def test_every_module_imports():
    names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
    assert "repro.backends.kernel" in names
    for name in names:
        importlib.import_module(name)
