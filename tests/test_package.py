"""The package's public namespace."""

import ast
import sys
import types
from pathlib import Path

import cvteleport


def test_all_matches_init_bindings():
    # a name dropped from __init__'s imports but left in __all__ (or the
    # reverse) breaks ``from cvteleport import *`` or hides a public name
    exported = cvteleport.__all__
    assert len(set(exported)) == len(exported)
    assert all(hasattr(cvteleport, name) for name in exported)
    bound = {
        name
        for name, value in vars(cvteleport).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == bound



def test_runtime_imports_only_stdlib_and_numpy():
    # the tests may use scipy; the package itself stays numpy-only
    allowed = set(sys.stdlib_module_names) | {"numpy", "cvteleport"}
    package = Path(cvteleport.__file__).parent
    outside = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in allowed]
    assert outside == []
