#!/usr/bin/env python3
"""Benchmark for the cvteleport CLI: cold-process curve time, Monte Carlo
throughput and per-module layer costs.

Usage (from the root of a checkout that holds ``src/cvteleport``):

    python3 perfbench/run.py --workload mc_curves --seed 1 --seconds 50 --trace 0

One benchmark process runs a workload as a closed loop: one job at a time,
each job a fresh ``python -m cvteleport ...`` process, read back with
``os.wait4`` so every child's rusage is known.  A pass is one run of the
workload's job list; passes repeat until ``--seconds`` have elapsed and the
end-to-end metrics are medians over passes.  With ``--trace 1`` the same
jobs also run in-process under ``perfbench/tracer.py``, which wraps each
layer's public bindings and derives the per-layer metrics.

Every job's output is checked (exit code, CSV header, row count and values
against ``perfbench/reference``); a job that fails the check counts in
``failed``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run artefacts
(CSVs, the spans file, a full result record) go to ``.perfbench/``.
See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference"

# Fewest timed cold imports behind setup_s in one run.
MIN_IMPORTS = 7

DEFAULT_SEED = 123456789  # the CLI default; reference CSVs were made with it

# Every job passes its full config, so a change of CLI defaults cannot
# shrink the work.
CONFIGS = {
    "full": {"lambda_points": 50, "samples": 100_000, "tol": "1e-8", "alpha": "5"},
    "smoke": {"lambda_points": 2, "samples": 1_000, "tol": "1e-8", "alpha": "5"},
}

# Monte Carlo outcome samples drawn by `cvteleport check` (criteria 1, 2, 6
# and 9: 5x1e5 + 1e6 + 51x1e5 + 102x1e5).  `check` takes no size flags.
CHECK_SAMPLES = 16_800_000

# `check` is expected to exit 1 with exactly criterion 9 red (README,
# "Known acceptance result").  Criterion 9 turning green is a failure too.
EXPECTED_CHECK = {n: ("FAIL" if n == 9 else "PASS") for n in range(1, 11)}

# (mean, stderr) column pairs of each runner's Monte Carlo columns; every
# other column is seed-independent.  Closed-form runners have none.
MC_COLUMNS = {
    "fig1": (("f_tailored_disp_mc", "f_tailored_disp_mc_stderr"),),
    "circle-vs-line": (("f_line", "f_line_stderr"), ("f_circle", "f_circle_stderr")),
    "fig3": (),
    "gaussian": (),
}


def _threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def workload_jobs(workload: str) -> list[tuple[str, list[str]]]:
    """(command, extra flags) of each job of a workload, in run order."""
    threads = str(_threads())
    return {
        # MC kernel and allocation; bypasses optimize, protocol and alphabet.
        "mc_curves": [("fig1", []), ("circle-vs-line", [])],
        # Optimisers and closed forms, zero Monte Carlo samples.
        "closed_form_curves": [("fig3", []), ("gaussian", ["--s", "0.2"])],
        # The acceptance gate: MC with the Standard strategy, fig3 computed twice.
        "acceptance_gate": [("check", [])],
        # The experiments thread-pool path; mc_curves is its baseline.
        "mc_threads": [
            ("fig1", ["--threads", threads]),
            ("circle-vs-line", ["--threads", threads]),
        ],
    }[workload]


WORKLOADS = ("mc_curves", "closed_form_curves", "acceptance_gate", "mc_threads")


def job_argv(command: str, extra: list[str], config: dict, seed: int, out_dir: Path) -> list[str]:
    """CLI arguments of one job (without the interpreter)."""
    if command == "check":
        return ["check"]
    argv = [
        command,
        "--lambda-points", str(config["lambda_points"]),
        "--samples", str(config["samples"]),
        "--tol", config["tol"],
        "--alpha", config["alpha"],
    ]
    if MC_COLUMNS[command]:
        argv += ["--seed", str(seed)]
    return argv + extra + ["--out", str(out_dir / f"{command}.csv")]


def samples_per_pass(workload: str, config: dict) -> int:
    """Work units of one pass behind ``samples_per_s``.

    Monte Carlo outcome samples on the MC workloads; on closed_form_curves,
    which draws none, the lambda-grid points solved.
    """
    points = config["lambda_points"] + 1
    if workload == "acceptance_gate":
        return CHECK_SAMPLES
    if workload == "closed_form_curves":
        return 2 * points
    return 3 * points * config["samples"]  # fig1: 1 curve, circle-vs-line: 2


# ---------------------------------------------------------------- processes

_current_child = 0


def _kill_child(signum, frame) -> None:
    if _current_child:
        os.kill(_current_child, signal.SIGKILL)


def child_env() -> dict:
    """This process's environment with ``src`` first on PYTHONPATH.

    ``*_NUM_THREADS`` variables are passed on as found, never set.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path, timeout: float):
    """Run one child to completion; return (exit code, wall seconds, rusage).

    The child is reaped with ``os.wait4`` so its rusage is its own.  It is
    killed if it outlives ``timeout``.
    """
    global _current_child
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    env = child_env()
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        t0 = time.perf_counter()
        _current_child = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        _, status, usage = os.wait4(_current_child, 0)
        wall = time.perf_counter() - t0
    except BaseException:
        if _current_child:
            os.kill(_current_child, signal.SIGKILL)
            os.waitpid(_current_child, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        _current_child = 0
    return os.waitstatus_to_exitcode(status), wall, usage


# -------------------------------------------------------------- correctness

def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [[float(x) for x in line.split(",")] for line in lines[1:]]


def sig9_unit(ref: float) -> float:
    """One unit in the 9th significant digit of ``ref`` (1e-9 at zero)."""
    if ref == 0.0:
        return 1e-9
    return 10.0 ** (math.floor(math.log10(abs(ref))) - 8)


def check_csv(command: str, path: Path, config_name: str, exact_mc: bool) -> list[str]:
    """Compare a runner's CSV with the reference made at the default seed.

    Seed-independent columns must match to one unit in the 9th significant
    digit.  Monte Carlo columns match the same way when ``exact_mc`` (same
    seed as the reference); otherwise each mean must lie within
    5*sqrt(se^2 + se_ref^2) of the reference mean and each stderr within a
    factor 2 of the reference stderr.
    """
    ref_header, ref_rows = read_csv(REFERENCE / config_name / f"{command}.csv")
    try:
        header, rows = read_csv(path)
    except (OSError, ValueError, IndexError) as exc:
        return [f"{command}: unreadable CSV {path}: {exc}"]
    if header != ref_header:
        return [f"{command}: header {header} != {ref_header}"]
    if len(rows) != len(ref_rows) or any(len(r) != len(header) for r in rows):
        return [f"{command}: {len(rows)} rows, expected {len(ref_rows)} of {len(header)} values"]
    col = {name: i for i, name in enumerate(header)}
    mc_pairs = [] if exact_mc else [(col[m], col[s]) for m, s in MC_COLUMNS[command]]
    statistical = {i for pair in mc_pairs for i in pair}
    errors = []
    for r, (row, ref) in enumerate(zip(rows, ref_rows)):
        for i, (x, x_ref) in enumerate(zip(row, ref)):
            if i not in statistical and not abs(x - x_ref) <= sig9_unit(x_ref) * (1 + 1e-6):
                errors.append(f"{command} row {r} {header[i]}: {x!r} != reference {x_ref!r}")
        for m, s in mc_pairs:
            se, se_ref = row[s], ref[s]
            if not 0.5 * se_ref <= se <= 2.0 * se_ref:
                errors.append(f"{command} row {r} {header[s]}: {se!r} vs reference {se_ref!r}")
            elif not abs(row[m] - ref[m]) <= 5.0 * math.hypot(se, se_ref):
                errors.append(
                    f"{command} row {r} {header[m]}: {row[m]!r} vs reference {ref[m]!r} "
                    f"beyond 5 combined standard errors"
                )
    return errors


def check_check_output(rc: int, stdout: str) -> list[str]:
    """`check` must exit 1 with criteria 1-8 and 10 passing and 9 failing."""
    vector = {
        int(m.group(2)): m.group(1)
        for m in re.finditer(r"^\[(PASS|FAIL)\] criterion\s+(\d+) ", stdout, re.M)
    }
    errors = []
    if rc != 1:
        errors.append(f"check: exit code {rc}, expected 1")
    if vector != EXPECTED_CHECK:
        errors.append(f"check: pass vector {vector} != expected {EXPECTED_CHECK}")
    return errors


def verify_job(command: str, rc: int, stdout: str, csv_path: Path,
               config_name: str, seed: int) -> list[str]:
    """Every reason the job's result is wrong; empty when it is right."""
    if command == "check":
        return check_check_output(rc, stdout)
    if rc != 0:
        return [f"{command}: exit code {rc}"]
    return check_csv(command, csv_path, config_name, exact_mc=seed == DEFAULT_SEED)


def sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


# --------------------------------------------------------------- measuring

def python_argv(*args: str) -> list[str]:
    return [sys.executable, *args]


def time_import(out_dir: Path) -> float:
    """Cold wall time of one ``python -c "import cvteleport.cli"``."""
    err = out_dir / "setup.err"
    rc, wall, _ = spawn(python_argv("-c", "import cvteleport.cli"), out_dir / "setup.out", err, 60)
    if rc != 0:
        raise RuntimeError(f"cannot import cvteleport.cli from {SRC}:\n" + err.read_text())
    return wall


def measure_importtime(out_dir: Path, repeats: int) -> dict:
    """numpy and package import times from ``python -X importtime``.

    ``cvteleport_import_s`` is the cumulative time of the top-level
    ``cvteleport*`` imports minus the numpy import nested inside them.
    """
    argv = python_argv("-X", "importtime", "-c", "import cvteleport.cli")
    numpy_s, package_s = [], []
    for _ in range(repeats):
        err = out_dir / "importtime.err"
        rc, _, _ = spawn(argv, out_dir / "importtime.out", err, 60)
        if rc != 0:
            raise RuntimeError("python -X importtime failed:\n" + err.read_text())
        numpy_us, package_us = None, 0
        for line in err.read_text().splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            cumulative, name = int(parts[1]), parts[2].rstrip()
            if name.strip() == "numpy" and numpy_us is None:
                numpy_us = cumulative
            if re.match(r"^ cvteleport(\.|$)", name):  # top level: one leading space
                package_us += cumulative
        numpy_s.append((numpy_us or 0) / 1e6)
        package_s.append((package_us - (numpy_us or 0)) / 1e6)
    return {
        "setup.numpy_import_s": statistics.median(numpy_s),
        "setup.cvteleport_import_s": statistics.median(package_s),
    }


def run_pass(jobs, config, config_name, seed, out_dir, timeout) -> dict:
    """Run the job list once, one cold process per job, then check outputs."""
    results = []
    t0 = time.perf_counter()
    for command, extra in jobs:
        (out_dir / f"{command}.csv").unlink(missing_ok=True)  # no stale output
        argv = python_argv("-m", "cvteleport", *job_argv(command, extra, config, seed, out_dir))
        rc, wall, usage = spawn(argv, out_dir / f"{command}.out", out_dir / f"{command}.err", timeout)
        results.append((command, rc, wall, usage))
    wall = time.perf_counter() - t0

    errors = []
    hashes = {}
    for command, rc, _, _ in results:
        csv_path = out_dir / f"{command}.csv"
        stdout = (out_dir / f"{command}.out").read_text()
        job_errors = verify_job(command, rc, stdout, csv_path, config_name, seed)
        if job_errors and rc != (1 if command == "check" else 0):
            job_errors.append((out_dir / f"{command}.err").read_text()[-2000:])
        errors.append(job_errors)
        if command != "check":
            hashes[command] = sha256(csv_path)
    usages = [u for _, _, _, u in results]
    return {
        "wall_s": wall,
        "job_wall_s": {c: w for c, _, w, _ in results},
        "cpu_s": sum(u.ru_utime + u.ru_stime for u in usages),
        "peak_rss_mb": max(u.ru_maxrss for u in usages) / 1024.0,
        "user_s": sum(u.ru_utime for u in usages),
        "sys_s": sum(u.ru_stime for u in usages),
        "minor_faults": sum(u.ru_minflt for u in usages),
        "vol_ctx_switches": sum(u.ru_nvcsw for u in usages),
        "invol_ctx_switches": sum(u.ru_nivcsw for u in usages),
        "errors": errors,
        "csv_sha256": hashes,
    }


def run_passes(jobs, config, config_name, seed, out_dir, seconds, min_passes,
               reference, import_times=None):
    """Closed loop of passes until ``seconds`` have elapsed.

    ``reference`` maps a command to the CSV bytes its threads-1 run wrote;
    each pass's CSV must equal them byte for byte (the determinism contract).
    With ``import_times``, one cold import is timed before each pass and
    appended to it, so set-up time samples the whole run, as the passes do.
    """
    passes = []
    deadline = time.perf_counter() + seconds
    last = 0.0  # a pass starts only if it is likely to end by the deadline
    while len(passes) < min_passes or time.perf_counter() + last / 2 < deadline:
        started = time.perf_counter()
        if import_times is not None:
            import_times.append(time_import(out_dir))
        p = run_pass(jobs, config, config_name, seed, out_dir, timeout=150)
        last = time.perf_counter() - started
        for k, (command, _) in enumerate(jobs):
            if command in reference and not p["errors"][k]:
                if (out_dir / f"{command}.csv").read_bytes() != reference[command]:
                    p["errors"][k].append(f"{command}: CSV differs from the threads-1 output")
        passes.append(p)
    return passes


def median_of(passes, key) -> float:
    return statistics.median(p[key] for p in passes)


# ------------------------------------------------------------- environment

def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    """Machine facts as found; nothing here is set by the benchmark."""
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "mc_threads": _threads(),
    }


# -------------------------------------------------------------------- main

def as_metrics(values: dict[str, float], trace: int) -> dict:
    """Result metrics with the units BENCHMARK.json declares, in its order.

    The computed names must be exactly the declared end-to-end metrics
    (``trace`` 0) or per-layer metrics (``trace`` 1).
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(values) != set(declared):
        raise RuntimeError(
            f"computed metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(declared) - set(values))}, undeclared {sorted(set(values) - set(declared))}"
        )
    return {n: {"value": values[n], "unit": unit} for n, unit in declared.items()}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed passed to the Monte Carlo jobs (default: the CLI default)")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="how long the passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grid (3 points) and 1000 samples, for the self-test")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cvteleport" / "__init__.py").is_file():
        print(f"error: no cvteleport package under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _kill_child)
    config_name = "smoke" if args.smoke else "full"
    config = CONFIGS[config_name]
    jobs = workload_jobs(args.workload)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = OUT / f"run-{tag}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            record = traced(args, jobs, config, config_name, out_dir, tag)
        else:
            record = untraced(args, jobs, config, config_name, out_dir)
        record["metrics"] = as_metrics(record["metrics"], args.trace)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    record["environment"] = environment()
    record["args"] = vars(args)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    for message in record["errors"]:
        print(f"FAILED {message}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(f"passes {record['passes']} seconds {args.seconds} workload {args.workload}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


def _count(passes) -> tuple[int, int, list[str]]:
    """(jobs attempted, jobs failed, one message per failed job)."""
    jobs = [job for p in passes for job in p["errors"]]
    failed = ["; ".join(job) for job in jobs if job]
    return len(jobs), len(failed), failed


def untraced(args, jobs, config, config_name, out_dir) -> dict:
    time_import(out_dir)  # compiles the bytecode cache of a fresh checkout; not timed
    checked = []
    reference = {}
    threaded = [(c, ["--threads", "1"]) for c, e in jobs if "--threads" in e]
    if threaded:  # the threads-1 CSVs every threaded pass must reproduce
        baseline = run_pass(threaded, config, config_name, args.seed, out_dir, timeout=150)
        checked.append(baseline)
        reference = {c: (out_dir / f"{c}.csv").read_bytes()
                     for (c, _), errs in zip(threaded, baseline["errors"]) if not errs}
    setup: list[float] = []
    passes = run_passes(jobs, config, config_name, args.seed, out_dir,
                        args.seconds, 1, reference, setup)
    while len(setup) < MIN_IMPORTS:
        setup.append(time_import(out_dir))
    attempted, failed, errors = _count(checked + passes)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": median_of(passes, "wall_s"),
        "cpu_s": median_of(passes, "cpu_s"),
        "samples_per_s": statistics.median(
            samples_per_pass(args.workload, config) / p["wall_s"] for p in passes
        ),
        "peak_rss_mb": median_of(passes, "peak_rss_mb"),
    }
    return {
        "metrics": values,
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "setup_runs_s": setup,
        "pass_records": passes,
    }


def traced(args, jobs, config, config_name, out_dir, tag) -> dict:
    """Per-layer metrics: rusage and import times from cold processes, the
    rest from an in-process traced run of the same jobs."""
    time_import(out_dir)  # compiles the bytecode cache of a fresh checkout; not timed
    layer = measure_importtime(out_dir, repeats=3 if args.smoke else 5)
    passes = run_passes(jobs, config, config_name, args.seed, out_dir,
                        args.seconds / 2, 2, {})
    for key in ("user_s", "sys_s", "minor_faults", "vol_ctx_switches", "invol_ctx_switches"):
        layer[f"proc.{key}"] = median_of(passes, key)
    attempted, failed, errors = _count(passes)

    spec = {
        "src": str(SRC),
        "seconds": args.seconds / 2,
        "spans": str(OUT / f"spans-{tag}.jsonl"),
        "jobs": [
            {"argv": job_argv(c, e, config, args.seed, out_dir), "command": c}
            for c, e in jobs
        ],
    }
    spec_path = out_dir / "trace-spec.json"
    result_path = out_dir / "trace-result.json"
    spec_path.write_text(json.dumps(spec))
    argv = python_argv(str(HERE / "tracer.py"), str(spec_path), str(result_path))
    rc, _, _ = spawn(argv, out_dir / "tracer.out", out_dir / "tracer.err", timeout=170)
    if rc != 0:
        raise RuntimeError("traced run failed:\n" + (out_dir / "tracer.err").read_text()[-4000:])
    trace = json.loads(result_path.read_text())

    # In-process jobs: every pass's exit code and stdout, and the CSVs of
    # the last pass (every pass must have written the same bytes).
    for k, job in enumerate(spec["jobs"]):
        command = job["command"]
        csv_path = out_dir / f"{command}.csv"
        final_sha = sha256(csv_path)
        for run in trace["runs"]:
            rc, stdout, sha = run["jobs"][k]
            attempted += 1
            job_errors = verify_job(command, rc, stdout, csv_path, config_name, args.seed)
            if command != "check" and sha != final_sha:
                job_errors.append(f"{command}: in-process CSV differs between passes")
            if job_errors:
                failed += 1
                errors.append("; ".join(job_errors))
    layer.update(trace["layer"])
    return {
        "metrics": layer,
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "pass_records": passes,
        "trace": {k: v for k, v in trace.items() if k != "runs"},
    }


if __name__ == "__main__":
    sys.exit(main())
