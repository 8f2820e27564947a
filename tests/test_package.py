"""What `import cvteleport` and the CLI's start-up load, and what the
package itself imports."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvteleport
from cvteleport import cli, experiments
from match_reference import load_perfbench

# The only modules that import numpy, and both do so when they load.
# ``experiments`` and ``measurement`` reach it through ``kernel``, which
# loads on the first Monte Carlo estimate; ``alphabet`` computes in plain
# floats.
NUMPY_AT_LOAD = {"kernel.py", "acceptance.py"}


def child_env(env=None):
    """``env``, by default ours, with the package the tests import, installed
    or not, first on ``PYTHONPATH``: a child process's environment."""
    src = str(Path(cvteleport.__file__).resolve().parents[1])
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def fresh_python(probe, cwd=None, env=None):
    """Run ``python -c probe`` on the package the tests import; its stdout.

    ``env`` is the child's environment before ``PYTHONPATH``, by default ours.
    """
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=child_env(env), cwd=cwd, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_import_loads_no_submodule_and_no_numpy():
    # public names are imported from their defining modules; the package
    # itself re-exports nothing, so importing it costs no numpy start-up
    probe = (
        "import sys, cvteleport; print(sorted(m for m in sys.modules"
        " if m == 'numpy' or m.startswith(('numpy.', 'cvteleport.'))))"
    )
    assert fresh_python(probe).strip() == "[]"


# The package modules ``from cvteleport.cli import main`` loads; a run adds
# only the modules its subcommand computes with.
AT_START = {"cli", "experiments", "fidelity", "measurement", "optimize", "protocol"}


@pytest.mark.parametrize(
    "argv, code, numpy, added",
    [
        (None, None, False, set()),
        (["--help"], 0, False, set()),
        (["fig1", "--samples", "10"], 2, False, set()),
        (["gaussian", "--lambda-points", "2", "--out", "g.csv"], 0, False, {"alphabet"}),
        (["fig3", "--lambda-points", "2", "--out", "f3.csv"], 0, False, set()),
        # the guard is not vacuous: a Monte Carlo run does load numpy
        (["fig1", "--lambda-points", "2", "--samples", "2000", "--out", "f.csv"], 0, True,
         {"kernel"}),
        (["circle-vs-line", "--lambda-points", "2", "--samples", "2000", "--out", "c.csv"],
         0, True, {"kernel"}),
        # check exits 1: criterion 9 is red by its definition (README)
        (["check"], 1, True, {"kernel", "alphabet", "acceptance"}),
    ],
    ids=["import", "help", "bad-input", "gaussian", "fig3", "fig1", "circle-vs-line", "check"],
)
def test_cli_start_up_loads_numpy_only_for_arrays(tmp_path, argv, code, numpy, added):
    # and each subcommand loads only the package modules it runs: only
    # gaussian and check evaluate the alphabet-weighted fidelity.  No run
    # loads OpenSSL's _hashlib, which numpy.random's secrets import pulls in,
    # or dataclasses, whose import with inspect used to be most of start-up
    probe = (
        "import sys\n"
        "from cvteleport.cli import main\n"
        "code = None\n"
        f"if {argv!r} is not None:\n"
        "    try:\n"
        f"        code = main({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(code, 'numpy' in sys.modules, '_hashlib' in sys.modules,"
        " 'dataclasses' in sys.modules,"
        " sorted(m.split('.')[1] for m in sys.modules if m.startswith('cvteleport.')))\n"
    )
    last = fresh_python(probe, cwd=tmp_path).splitlines()[-1]
    assert last == f"{code} {numpy} False False {sorted(AT_START | added)}"


def test_alphabet_oracle_loads_no_numpy():
    # the trapezoidal oracle computes in plain floats
    probe = (
        "import sys\n"
        "from cvteleport.alphabet import gaussian_weighted_fidelity_quadrature\n"
        "from cvteleport.protocol import SqueezeLevel\n"
        "f = gaussian_weighted_fidelity_quadrature(SqueezeLevel(0.5), 0.8, 0.3, 1.2)\n"
        "print(0.0 < f < 1.0, 'numpy' in sys.modules)\n"
    )
    assert fresh_python(probe).split() == ["True", "False"]


@pytest.mark.parametrize("command", ["fig3", "gaussian"])
def test_closed_form_runners_start_no_thread_pool(tmp_path, command):
    # their points hold the GIL, so the runners loop over them whatever
    # --threads says, and the CSV is the one-thread CSV
    probe = (
        "import threading\n"
        "from cvteleport.cli import main\n"
        "starts = []\n"
        "start = threading.Thread.start\n"
        "threading.Thread.start = lambda t: (starts.append(t), start(t))\n"
        "for threads in ('1', '2'):\n"
        f"    main([{command!r}, '--lambda-points', '5', '--threads', threads,"
        " '--out', f't{threads}.csv'])\n"
        "print(len(starts))\n"
    )
    assert fresh_python(probe, cwd=tmp_path).splitlines()[-1] == "0"
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or experiments.available_cpus() < 2,
    reason="needs /proc/self/task and at least two CPUs",
)
@pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "preset"])
def test_cli_starts_no_blas_threads(tmp_path, preset):
    # numpy's OpenBLAS starts a worker per extra CPU, each spinning ~0.1 CPU-s,
    # for BLAS calls no runner makes; main keeps the process to one thread
    # unless the caller chose a thread count, and unsets its own setting on
    # return.  The child starts without the variable whatever ours holds.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = (
        "import os\n"
        "from cvteleport.cli import main\n"
        "for argv in (['fig1', '--lambda-points', '2', '--samples', '1000', '--out', 'f.csv'],"
        " ['check']):\n"
        "    main(argv)\n"
        "    print('probe', len(os.listdir('/proc/self/task')),"
        " os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    out = fresh_python(probe, cwd=tmp_path, env=env).splitlines()
    probes = [line.split()[1:] for line in out if line.startswith("probe ")]
    if preset is None:
        assert probes == [["1", "None"], ["1", "None"]]
    else:
        assert [value for _, value in probes] == [preset, preset]


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="reads /proc/self/maps")
def test_cli_maps_no_libcrypto(tmp_path):
    # numpy.random imports secrets, whose hashlib and hmac would load
    # OpenSSL's _hashlib and map libcrypto; main blocks it while it runs
    probe = (
        "from cvteleport.cli import main\n"
        "for argv in (['fig1', '--lambda-points', '2', '--samples', '1000', '--out', 'f.csv'],"
        " ['check']):\n"
        "    main(argv)\n"
        "    with open('/proc/self/maps') as maps:\n"
        "        print('probe', sum('libcrypto' in line for line in maps))\n"
    )
    out = fresh_python(probe, cwd=tmp_path).splitlines()
    assert [line for line in out if line.startswith("probe ")] == ["probe 0", "probe 0"]


IN_PROCESS = pytest.mark.parametrize(
    "argv", [["gaussian", "--lambda-points", "2"], ["gaussian", "--samples", "1"], ["--help"]],
    ids=["ok", "bad-input", "help"],
)


@IN_PROCESS
def test_cli_unsets_its_blas_setting(tmp_path, monkeypatch, capsys, argv):
    # the one-thread setting is for main's own numpy import; a caller that
    # runs main in-process must not pass it on to its later subprocesses
    # (a caller's own value is kept: test_cli_starts_no_blas_threads[preset])
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    try:
        cli.main(argv)
    except SystemExit:
        pass
    assert "OPENBLAS_NUM_THREADS" not in os.environ


@pytest.mark.skipif(importlib.util.find_spec("_hashlib") is None,
                    reason="a Python built without OpenSSL")
@IN_PROCESS
def test_cli_leaves_hashlib_as_it_found_it(tmp_path, monkeypatch, capsys, argv):
    # main blocks OpenSSL's _hashlib only while it runs: a module the caller
    # already imported stays, and a process that had none is left without
    # the block, so a later `import _hashlib` loads it
    hashlib_module = importlib.import_module("_hashlib")
    monkeypatch.chdir(tmp_path)
    try:
        cli.main(argv)
    except SystemExit:
        pass
    assert sys.modules["_hashlib"] is hashlib_module
    probe = (
        "import sys\n"
        "from cvteleport.cli import main\n"
        "try:\n"
        f"    main({argv!r})\n"
        "except SystemExit:\n"
        "    pass\n"
        "print('_hashlib' in sys.modules)\n"
    )
    assert fresh_python(probe, cwd=tmp_path).splitlines()[-1] == "False"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads ru_maxrss in KiB, as Linux reports it")
def test_criterion_10_adds_no_memory_to_the_monte_carlo_peak():
    # check peaks in its Monte Carlo phase.  Criterion 10 used to add about
    # 2 MiB on top: whole 201x201 temporaries and numpy.polynomial's
    # hermgauss, whose eigvalsh paged in LAPACK
    probe = (
        "import resource, sys\n"
        "from cvteleport import acceptance\n"
        "from cvteleport.measurement import LineTailored, mc_average_fidelity\n"
        "from cvteleport.protocol import SqueezeLevel\n"
        "mc_average_fidelity(LineTailored(), 5.0, SqueezeLevel(0.5), 100_000, 1)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "passed = acceptance.criterion_property_suites().passed\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(passed, 'numpy.polynomial' in sys.modules, after - before)\n"
    )
    passed, polynomial, grown_kib = fresh_python(probe).split()
    assert (passed, polynomial) == ("True", "False")
    assert int(grown_kib) < 512


def test_tracer_wraps_every_layer():
    # perfbench/tracer.py reads each layer's metrics from the package's
    # cross-module function bindings; a refactor that drops them zeroes
    # those metrics silently.  The tracer is executed from its source, so
    # nothing is written next to it.
    tracer = load_perfbench("tracer")

    package = Path(cvteleport.__file__).parent
    modules = {
        p.stem: importlib.import_module(f"cvteleport.{p.stem}")
        for p in sorted(package.glob("*.py")) if p.stem not in ("__init__", "__main__")
    }
    before = {name: dict(vars(module)) for name, module in modules.items()}
    runners = dict(modules["cli"]._RUNNERS)
    wrapped = []

    class Recording(tracer.Tracer):
        def wrap(self, func, name, info=None):
            wrapped.append(name)
            return super().wrap(func, name, info)

    recorder = Recording(modules)
    try:
        recorder.install()
    finally:
        recorder.uninstall()
    assert set(tracer.INFO) <= set(wrapped)
    layers = {"measurement", "fidelity", "optimize", "protocol", "alphabet",
              "experiments", "acceptance"}
    assert layers <= {name.split(".")[0] for name in wrapped}
    for name, module in modules.items():
        assert vars(module).keys() == before[name].keys(), name
        assert all(vars(module)[key] is value for key, value in before[name].items()), name
    assert modules["cli"]._RUNNERS == runners  # functions compare by identity


def _imported(node):
    """Absolute module names an import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def _load_time_imports(node):
    """Import statements that run when the module loads: not those inside a
    function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        yield from _load_time_imports(child)


def test_runtime_imports_only_stdlib_and_numpy():
    # the tests may use scipy; the package itself stays numpy-only, and only
    # NUMPY_AT_LOAD import numpy, when they load
    allowed = set(sys.stdlib_module_names) | {"numpy", "cvteleport"}
    package = Path(cvteleport.__file__).parent
    outside = []
    numpy_at_load = set()
    numpy_anywhere = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        outside += [f"{path.name}: {n}" for node in ast.walk(tree) for n in _imported(node)
                    if n.split(".")[0] not in allowed]
        if any(n.split(".")[0] == "numpy"
               for node in _load_time_imports(tree) for n in _imported(node)):
            numpy_at_load.add(path.name)
        if any(n.split(".")[0] == "numpy" for node in ast.walk(tree) for n in _imported(node)):
            numpy_anywhere.add(path.name)
    assert outside == []
    assert numpy_at_load == NUMPY_AT_LOAD
    assert numpy_anywhere == NUMPY_AT_LOAD
