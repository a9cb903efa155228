"""The import surface: each name is imported from the module that defines
it, so the package itself imports nothing, and every module imports on its
own, which an import cycle between modules would break.  No class is
generated at import: records are ``collections.namedtuple`` types and the
rest are plain classes, so past numpy and PyYAML the package loads only its
own modules and the csv and heapq modules it uses.  No class defines
``__new__`` and none subclasses a ``namedtuple``: a record is plain data,
and the config reader checks every bound.  No module imports a name it never uses, and the event engine loads
only the protocols and the register it uses.  The tests' oracles in
``reference.py`` import nothing from the package."""

import ast
import json
import os
import subprocess
import sys

from reference import REPO_ROOT

SRC = REPO_ROOT / "src"

# Run in a fresh interpreter with the module names as arguments; prints the
# qnetsim modules a bare ``import qnetsim`` loaded, and each module that
# failed to import from a state with no qnetsim module loaded.
CHILD = """
import importlib, json, sys
import qnetsim
eager = sorted(n for n in sys.modules if n.startswith("qnetsim."))
failed = {}
for name in sys.argv[1:]:
    for loaded in [n for n in sys.modules if n.startswith("qnetsim")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        failed[name] = repr(exc)
print(json.dumps({"eager": eager, "failed": failed}))
"""


def _run_child(code: str, *args: str):
    """What ``code``, run in a fresh interpreter with ``src`` on its path
    and ``args`` as its arguments, prints as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
        check=True,
    )
    return json.loads(child.stdout)


def test_package_imports_no_module_and_each_module_imports_alone():
    modules = sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        for path in (SRC / "qnetsim").rglob("*.py")
    )
    assert {"qnetsim", "qnetsim.services", "qnetsim.services.routing"} <= set(modules)
    assert _run_child(CHILD, *modules) == {"eager": [], "failed": {}}


def test_reference_oracles_import_no_qnetsim_module():
    # Every oracle test compares the package with reference.py, so an oracle
    # built from package code would check that code against itself.
    tree = ast.parse((REPO_ROOT / "tests" / "reference.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported and not {name for name in imported if name.split(".")[0] == "qnetsim"}


# Measured as the median of 21 fresh interpreters with numpy and PyYAML
# loaded (Python 3.11.7, 2-vCPU host): a first ``@dataclass(frozen=True)``
# of five fields costs 1.06 ms, since the decorator execs the methods it
# generates, and ``import dataclasses``, which pulls in ``copy``, another
# 1.05 ms.  A ``typing.NamedTuple`` of five fields costs 0.24 ms, since
# under ``from __future__ import annotations`` it compiles every field's
# string annotation; a ``collections.namedtuple`` costs 0.08 ms, subclassed
# with a ``__new__`` too, and a plain class 0.01 ms.


def _class_generators(path) -> list[str]:
    """Each use in a module of the ``dataclasses`` module or of ``NamedTuple``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [name for name in names if name in ("dataclasses", "NamedTuple")]
    return found


def test_no_module_imports_a_class_generator():
    found = {
        str(path.relative_to(SRC)): uses
        for path in (SRC / "qnetsim").rglob("*.py")
        if (uses := _class_generators(path))
    }
    assert found == {}


def test_no_class_defines_new():
    # A check in a namedtuple's __new__ is skipped by _make and _replace,
    # which build through tuple.__new__, so a record checks nothing and
    # every bound lives in the reader that validate reports from.
    found = [
        f"{path.relative_to(SRC)}: {node.name}"
        for path in (SRC / "qnetsim").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "__new__" for item in node.body)
    ]
    assert found == []


def test_no_class_subclasses_a_namedtuple():
    # A record's methods are logic on data; a function of the module that
    # owns the record does the same and leaves the record plain.
    found = [
        f"{path.relative_to(SRC)}: {node.name}"
        for path in (SRC / "qnetsim").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(base, ast.Call)
            and getattr(base.func, "id", getattr(base.func, "attr", None)) == "namedtuple"
            for base in node.bases
        )
    ]
    assert found == []


def _unused_imports(path) -> list[str]:
    """Each name a module imports but never reads.  A name that only a
    docstring mentions counts as unused, since a docstring holds no
    ``Name`` node; an annotation is parsed into nodes, so a name it
    mentions counts as used."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    found = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted((SRC / "qnetsim").rglob("*.py"))
        for name in _unused_imports(path)
    ]
    assert found == []


# Prints the qnetsim modules that ``import qnetsim.engine`` loads on its own.
ENGINE_CHILD = """
import json, sys
import qnetsim.engine
print(json.dumps(sorted(n for n in sys.modules if n.split(".")[0] == "qnetsim")))
"""


def test_engine_alone_loads_only_the_protocols_and_the_register():
    # A link's pair is its correlation matrix, built in protocols, so the
    # engine needs neither the channels module nor the field reader.
    assert _run_child(ENGINE_CHILD) == [
        "qnetsim",
        "qnetsim.engine",
        "qnetsim.protocols",
        "qnetsim.qstate",
    ]


# The modules the package may add to a fresh interpreter that has loaded
# numpy and PyYAML, which a run loads anyway.
SETUP_CHILD = """
import json, sys
import numpy, yaml
before = set(sys.modules)
import qnetsim.config, qnetsim.runner
print(json.dumps(sorted(set(sys.modules) - before)))
"""
SETUP_MODULES = {"csv", "_csv", "heapq", "_heapq", "__future__"}


def test_setup_loads_only_qnetsim_csv_and_heapq_past_numpy_and_yaml():
    added = _run_child(SETUP_CHILD)
    assert "qnetsim.runner" in added
    assert [
        name
        for name in added
        if name not in SETUP_MODULES and name.split(".")[0] != "qnetsim"
    ] == []
