"""The import surface: each name is imported from the module that defines
it, so the package itself imports nothing, and every module imports on its
own, which an import cycle between modules would break."""

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
