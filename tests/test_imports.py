"""The import surface: each name is imported from the module that defines
it, so the package itself imports nothing, and every module imports on its
own, which an import cycle between modules would break.  Only the record
types whose constructors check their input are dataclasses.  The tests'
oracles in ``reference.py`` import nothing from the package."""

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


def test_package_imports_no_module_and_each_module_imports_alone():
    modules = sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        for path in (SRC / "qnetsim").rglob("*.py")
    )
    assert {"qnetsim", "qnetsim.services", "qnetsim.services.routing"} <= set(modules)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", CHILD, *modules],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
        check=True,
    )
    assert json.loads(child.stdout) == {"eager": [], "failed": {}}


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


# A dataclass costs about 0.7 ms of import, since the decorator execs the
# methods it generates, against 0.1 ms for a NamedTuple (Python 3.11 on a
# 2-vCPU host); so a record that checks nothing when built is a NamedTuple.
CHECKED_DATACLASSES = {
    "qnetsim.channels.ChannelModel",
    "qnetsim.engine.ClassicalLink",
    "qnetsim.engine.QuantumLink",
    "qnetsim.engine.Topology",
    "qnetsim.protocols.CorrectionMessage",
    "qnetsim.qstate.GateSpec",
    "qnetsim.services.mac.MacConfig",
}


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
    return name == "dataclass"


def test_only_records_that_check_their_input_are_dataclasses():
    found = set()
    for path in (SRC / "qnetsim").rglob("*.py"):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                if any(map(_is_dataclass_decorator, node.decorator_list)):
                    found.add(f"{module}.{node.name}")
    assert found == CHECKED_DATACLASSES
