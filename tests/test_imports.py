"""Every module under ``src/repro`` imports, so a deletion that leaves a
dangling import fails here in seconds rather than inside a Spark job; and
the modules keep to the shared Arrow data path, checkpoint lifecycle,
planner scope and reduce kernel."""
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


def test_one_owner_of_the_planner_settings():
    """Only ``backends/common.py`` sets adaptive execution or the shuffle
    partition count, inside the scope that restores them."""
    root = Path(repro.__file__).parent
    for path in root.rglob("*.py"):
        text = path.read_text()
        owner = path == root / "backends" / "common.py"
        assert ("spark.sql.adaptive.enabled" in text) == owner, path
        assert ("spark.sql.shuffle.partitions" in text) == owner, path


def test_one_copy_of_the_ordering_and_scatter_kernels():
    """Under ``backends/``, only ``kernel.py`` orders rows or scatters into
    segments, so every reduction runs through one ``(dst, src)`` order."""
    backends = Path(repro.__file__).parent / "backends"
    primitives = re.compile(r"np\.(lexsort|argsort|searchsorted)\b|\.at\(")
    for path in backends.rglob("*.py"):
        if path.name != "kernel.py":
            assert not primitives.search(path.read_text()), path


def test_one_module_shapes_messages():
    """Under ``backends/``, only ``kernel.py`` expands adjacency lists, so
    every message is shaped by ``kernel.send`` and fanned out by
    ``kernel.update``."""
    backends = Path(repro.__file__).parent / "backends"
    expands = re.compile(r"\blist_(parent_indices|flatten)\b")
    for path in backends.rglob("*.py"):
        if path.name != "kernel.py":
            assert not expands.search(path.read_text()), path


def test_one_copy_of_each_placement_hash():
    """Spark computes a node's logical worker (``pmod`` of ``xxhash64``)
    only in ``common.py`` and NumPy only in ``kernel.py``, so the two
    copies sit where one test checks they agree."""
    backends = Path(repro.__file__).parent / "backends"
    spark_hash = re.compile(r"pmod\(\s*F\.xxhash64\b")
    numpy_port = re.compile(r"0x9E3779B185EBCA87", re.IGNORECASE)  # xxHash64's first prime
    for path in Path(repro.__file__).parent.rglob("*.py"):
        text = path.read_text()
        assert bool(spark_hash.search(text)) == (path == backends / "common.py"), path
        assert bool(numpy_port.search(text)) == (path == backends / "kernel.py"), path


def test_one_place_decides_shadow_nodes():
    """Under ``src/`` and ``jobs/``, only ``graphs/shadow.py`` computes the
    hub threshold, from the vertex rows it rewrites; λ is no option."""
    src = Path(repro.__file__).parent
    jobs = Path(__file__).resolve().parents[1] / "jobs"
    for path in [*src.rglob("*.py"), *jobs.rglob("*.py")]:
        text = path.read_text()
        assert ("shadow_threshold" in text) == (path == src / "graphs" / "shadow.py"), path
        assert "shadow_lambda" not in text, path
