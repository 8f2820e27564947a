"""What `import cvteleport` loads, and what the package itself imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import cvteleport


def test_import_loads_no_submodule_and_no_numpy():
    # public names are imported from their defining modules; the package
    # itself re-exports nothing, so importing it costs no numpy start-up
    src = str(Path(cvteleport.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    probe = (
        "import sys, cvteleport; print(sorted(m for m in sys.modules"
        " if m == 'numpy' or m.startswith(('numpy.', 'cvteleport.'))))"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


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
