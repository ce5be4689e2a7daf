"""Every module under ``src/repro`` imports, so a deletion that leaves a
dangling import fails here in seconds rather than inside a Spark job; and
the modules keep to the shared Arrow data path, checkpoint lifecycle and
reduce kernel."""
import importlib
import pkgutil
import re
from pathlib import Path

import repro


def test_every_module_imports():
    names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
    assert "repro.backends.kernel" in names
    for name in names:
        importlib.import_module(name)


def test_arrow_passes_and_one_checkpoint_owner():
    """Python passes go through Arrow, never pandas batches, and only
    ``backends/common.py`` makes (and so releases) local checkpoints."""
    root = Path(repro.__file__).parent
    for path in root.rglob("*.py"):
        text = path.read_text()
        assert "applyInPandas" not in text and "mapInPandas" not in text, path
        if path != root / "backends" / "common.py":
            assert "localCheckpoint" not in text, path


def test_one_copy_of_the_ordering_and_scatter_kernels():
    """Under ``backends/``, only ``kernel.py`` orders rows or scatters into
    segments, so every reduction runs through one ``(dst, src)`` order."""
    backends = Path(repro.__file__).parent / "backends"
    primitives = re.compile(r"np\.(lexsort|argsort|searchsorted)\b|\.at\(")
    for path in backends.rglob("*.py"):
        if path.name != "kernel.py":
            assert not primitives.search(path.read_text()), path
