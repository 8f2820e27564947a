"""Hold Monte Carlo runner CSVs to the benchmark's references by their statistics.

Run from the repository root as

    python tests/match_reference.py smoke fig1.csv circle-vs-line.csv

Each CSV is checked against the file of its name under
``perfbench/reference/<config>`` by ``check_csv`` of ``perfbench/run.py``,
with the rule the benchmark applies at a seed other than the references':
each Monte Carlo mean within 5*sqrt(se^2 + se_ref^2) of the reference mean,
each standard error within a factor 2 of the reference's, and every other
cell equal to the reference to one unit in its 9th significant digit.
``perfbench/run.py`` needs only the standard library, so this holds the
Monte Carlo runners to the references on any supported Python, whatever
numpy draws there.

Exit status: 1 if any CSV breaks the rule (each failure is printed), 0 if
none does, 2 on a usage error.
"""

import sys
import types
from pathlib import Path


def load_perfbench(name):
    """``perfbench/<name>.py`` executed from its source as a module.  An
    import would write its bytecode under ``perfbench/``; this writes nothing."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


perfbench_run = load_perfbench("run")


def main(argv):
    if len(argv) < 2:
        print("usage: python tests/match_reference.py CONFIG CSV...", file=sys.stderr)
        return 2
    config, *paths = argv
    errors = [error for path in map(Path, paths)
              for error in perfbench_run.check_csv(path.stem, path, config, exact_mc=False)]
    for error in errors:
        print(error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
