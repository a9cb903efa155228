"""The benchmark's layer tracer finds every function it names.

``benchmark/layers.py`` patches the functions listed in its ``TRACED``
table by module and attribute name, so renaming one of them breaks the
benchmark.  The benchmark's own tests are not collected with this suite;
this test loads the table from the file, unchanged, and resolves it here.
"""

import importlib
import importlib.util
from pathlib import Path

import qnetsim  # noqa: F401  (imports every module the tracer patches)

LAYERS = Path(__file__).resolve().parent.parent / "benchmark" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("benchmark_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_in_qnetsim():
    layers = _load_layers()
    assert layers.TRACED
    missing = []
    for name, module_name, attr in layers.TRACED:
        owner = importlib.import_module(module_name)
        class_name, _, attr = attr.rpartition(".")
        if class_name:
            owner = getattr(owner, class_name, None)
        # the tracer reads the attribute from the owner's own namespace
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(name)
    assert missing == []
