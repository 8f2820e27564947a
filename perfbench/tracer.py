#!/usr/bin/env python3
"""In-process traced run of one workload's jobs, for ``perfbench/run.py``.

    python3 perfbench/tracer.py SPEC.json RESULT.json

SPEC names the package source directory, the jobs (CLI argument lists),
a time budget and the spans file to write.  The jobs run through
``cvteleport.cli.main(argv)`` in this process: one untimed warm-up pass,
then pairs of an untraced and a traced pass (alternating which goes
first) until the budget is spent, at least one pair.

Tracing wraps module-level bindings and touches no source file.  Every
public function that one package module imports from another
(``experiments.mc_average_fidelity``, ``optimize.variances_tailored``, ...)
is replaced in the importing module by a wrapper that records a span
named ``<defining module>.<function>``.  The layer's own entry points are
wrapped too: the runners in ``cli._RUNNERS``, ``experiments.write_csv``,
``acceptance.run_all`` and each criterion in ``acceptance.ALL_CRITERIA``.
Each job is one ``cli.main`` span.  Spans (id, parent, name, start, end,
job) stay in memory; those of the last traced pass are written out at the
end.  Calls made from worker threads take the span open on the main thread
(the runner) as their parent.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import itertools
import json
import os
import pkgutil
import statistics
import sys
import threading
import time
import traceback
import types
from pathlib import Path

PACKAGE = "cvteleport"


class Tracer:
    """Span recorder installed over the package's module bindings."""

    def __init__(self, modules: dict[str, types.ModuleType]):
        self.modules = modules
        self.spans: list[tuple] = []
        self.job = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func, name: str, info=None):
        """``func`` recording a span ``name``; ``info(args, result)`` adds detail."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:  # a worker thread: the span open on the main thread caused it
                parent = tracer._main_stack[-1] if tracer._main_stack else 0
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1, tracer.job, None))
                raise
            t1 = clock()
            stack.pop()
            detail = info(args, kwargs, result) if info else None
            tracer.spans.append((sid, parent, name, t0, t1, tracer.job, detail))
            return result

        return traced

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._saved.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._saved.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self) -> None:
        mods = self.modules
        for mod_name, module in mods.items():
            for attr, obj in list(vars(module).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__.startswith(PACKAGE + ".")
                    and obj.__module__ != module.__name__
                ):
                    layer = obj.__module__.rsplit(".", 1)[1]
                    name = f"{layer}.{obj.__name__}"
                    self._set(module, attr, self.wrap(obj, name, INFO.get(name)))
        experiments, acceptance, cli = mods["experiments"], mods["acceptance"], mods["cli"]
        self._set(experiments, "write_csv",
                  self.wrap(experiments.write_csv, "experiments.write_csv", _csv_bytes))
        for command, runner in list(cli._RUNNERS.items()):
            self._set(cli._RUNNERS, command,
                      self.wrap(runner, f"experiments.runner.{command}", _rows))
        self._set(acceptance, "run_all", self.wrap(acceptance.run_all, "acceptance.run_all"))
        self._set(acceptance, "ALL_CRITERIA", tuple(
            self.wrap(c, "acceptance.criterion", _criterion) for c in acceptance.ALL_CRITERIA
        ))

    def uninstall(self) -> None:
        while self._saved:
            owner, key, value = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _mc_info(args, kwargs, result):
    strategy = type(_arg(args, kwargs, 0, "strategy")).__name__
    return [strategy.replace("Tailored", "").lower(), _arg(args, kwargs, 3, "n")]


def _rows(args, kwargs, result):
    return len(result.rows)


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _criterion(args, kwargs, result):
    return [result.number, bool(result.passed)]


INFO = {
    "measurement.mc_average_fidelity": _mc_info,
    "fidelity.transfer_exponent": lambda a, k, r: int(getattr(_arg(a, k, 0, "ux"), "size", 1)),
    "optimize.optimize_eta_g2": lambda a, k, r: [r.evaluations, _arg(a, k, 0, "sq").lam],
    "optimize.optimize_gain": lambda a, k, r: r.evaluations,
}


# ------------------------------------------------------------------ metrics

def _union_length(intervals, lo, hi) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _quantile(values, q) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, jobs, mc_chunk) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    busy_s: time inside a layer's outermost spans (thread-seconds);
    self_s: span time not covered by child spans.  A layer a workload does
    not use reports 0.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[3], s[4]))

    def layer(s):
        return s[2].split(".", 1)[0]

    def outermost(s):
        own = layer(s)
        parent = by_id.get(s[1])
        while parent is not None:
            if layer(parent) == own:
                return False
            parent = by_id.get(parent[1])
        return True

    busy: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        lay, dur = layer(s), s[4] - s[3]
        calls[lay] = calls.get(lay, 0) + 1
        self_time[lay] = self_time.get(lay, 0.0) + dur - _union_length(
            children.get(s[0], ()), s[3], s[4]
        )
        if outermost(s):
            busy[lay] = busy.get(lay, 0.0) + dur

    def named(name):
        return [s for s in spans if s[2] == name]

    def detailed(name):  # completed calls; a call that raised has no detail
        return [s for s in spans if s[2] == name and s[6] is not None]

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}

    # measurement: one span per Monte Carlo average
    mc = detailed("measurement.mc_average_fidelity")
    samples = sum(s[6][1] for s in mc)
    durations_ms = [1e3 * (s[4] - s[3]) for s in mc]
    m["measurement.calls"] = len(mc)
    m["measurement.samples"] = samples
    m["measurement.chunks"] = sum(-(-s[6][1] // mc_chunk) for s in mc)
    m["measurement.busy_s"] = busy.get("measurement", 0.0)
    m["measurement.self_s"] = self_time.get("measurement", 0.0)
    m["measurement.ns_per_sample"] = 1e9 * ratio(m["measurement.busy_s"], samples)
    for kind in ("line", "circle", "standard"):
        sel = [s for s in mc if s[6][0] == kind]
        m[f"measurement.ns_per_sample.{kind}"] = 1e9 * ratio(
            sum(s[4] - s[3] for s in sel), sum(s[6][1] for s in sel)
        )
    m["measurement.call_ms_p50"] = _quantile(durations_ms, 50)
    m["measurement.call_ms_p90"] = _quantile(durations_ms, 90)

    # fidelity: the Monte Carlo kernel's calls (one per chunk) and the
    # closed-form average fidelity
    mc_ids = {s[0] for s in mc}
    te = [s for s in detailed("fidelity.transfer_exponent") if s[1] in mc_ids]
    m["fidelity.transfer_exponent.calls"] = len(te)
    m["fidelity.transfer_exponent.ns_per_sample"] = 1e9 * ratio(
        sum(s[4] - s[3] for s in te), sum(s[6] for s in te)
    )
    m["fidelity.avg_fidelity_unit_gain.calls"] = len(named("fidelity.avg_fidelity_unit_gain"))
    m["fidelity.busy_s"] = busy.get("fidelity", 0.0)

    # optimize
    eta = detailed("optimize.optimize_eta_g2")
    gain = detailed("optimize.optimize_gain")
    eta_evals = sum(s[6][0] for s in eta)
    gain_evals = sum(s[6] for s in gain)
    eta_busy = sum(s[4] - s[3] for s in eta)
    m["optimize.calls.eta_g2"] = len(eta)
    m["optimize.calls.gain"] = len(gain)
    m["optimize.evaluations"] = eta_evals + gain_evals
    m["optimize.evals_per_call.eta_g2"] = ratio(eta_evals, len(eta))
    m["optimize.evals_per_call.gain"] = ratio(gain_evals, len(gain))
    m["optimize.busy_s"] = busy.get("optimize", 0.0)
    m["optimize.self_s"] = self_time.get("optimize", 0.0)
    m["optimize.ms_per_call.eta_g2"] = 1e3 * ratio(eta_busy, len(eta))
    m["optimize.us_per_eval"] = 1e6 * ratio(m["optimize.busy_s"], m["optimize.evaluations"])

    # protocol and alphabet
    m["protocol.calls"] = calls.get("protocol", 0)
    m["protocol.busy_s"] = busy.get("protocol", 0.0)
    m["protocol.us_per_call"] = 1e6 * ratio(m["protocol.busy_s"], m["protocol.calls"])
    m["alphabet.calls"] = calls.get("alphabet", 0)
    m["alphabet.busy_s"] = busy.get("alphabet", 0.0)

    # experiments: runners, CSV writing, thread efficiency
    runners = [s for s in spans if s[2].startswith("experiments.runner.") and s[6] is not None]
    for command in ("fig1", "fig3", "gaussian", "circle-vs-line"):
        m[f"experiments.runner_s.{command}"] = sum(
            s[4] - s[3] for s in runners if s[2] == f"experiments.runner.{command}"
        )
    m["experiments.points"] = sum(s[6] for s in runners)
    csv = detailed("experiments.write_csv")
    m["experiments.csv_write_s"] = sum(s[4] - s[3] for s in csv)
    m["experiments.csv_bytes"] = sum(s[6] for s in csv)
    m["experiments.self_s"] = self_time.get("experiments", 0.0)
    point_busy = thread_wall = 0.0
    for r in runners:
        point_busy += sum(
            s[4] - s[3] for s in spans if s[1] == r[0] and s[2] != "experiments.write_csv"
        )
        thread_wall += jobs[r[5]]["threads"] * (r[4] - r[3])
    m["experiments.thread_efficiency"] = ratio(point_busy, thread_wall)

    # acceptance
    criteria = detailed("acceptance.criterion")
    for number in range(1, 11):
        m[f"acceptance.criterion_s.{number}"] = sum(
            s[4] - s[3] for s in criteria if s[6][0] == number
        )
    m["acceptance.passed"] = sum(1 for s in criteria if s[6][1])
    check_eta = [s for s in eta if jobs[s[5]]["command"] == "check"]
    m["acceptance.fig3_useful_ratio"] = ratio(len({s[6][1] for s in check_eta}), len(check_eta))

    m["cli.self_s"] = self_time.get("cli", 0.0)
    return m


# ---------------------------------------------------------------------- run

def run_job(main, argv):
    """(exit code, stdout) of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = 1
            print(traceback.format_exc())
    return rc, buf.getvalue()


def run_pass(main, jobs, tracer=None):
    """Run every job once; return (compute seconds, per-job results)."""
    results = []
    t0 = time.perf_counter()
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = k
        if "--out" in job["argv"]:  # no stale output
            Path(job["argv"][job["argv"].index("--out") + 1]).unlink(missing_ok=True)
        results.append(run_job(main, job["argv"]))
    elapsed = time.perf_counter() - t0
    return elapsed, [
        [rc, stdout, _digest(job["argv"]) if rc == 0 else None]
        for (rc, stdout), job in zip(results, jobs)
    ]


def _digest(argv):
    """SHA-256 of the CSV a runner job wrote (None for ``check``)."""
    if "--out" not in argv:
        return None
    try:
        return hashlib.sha256(Path(argv[argv.index("--out") + 1]).read_bytes()).hexdigest()
    except OSError:  # reported as a failed job by run.py
        return None


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    package = importlib.import_module(PACKAGE)
    modules = {
        info.name: importlib.import_module(f"{PACKAGE}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
        if info.name != "__main__"
    }
    cli_main = modules["cli"].main
    mc_chunk = getattr(modules["measurement"], "MC_CHUNK", 1 << 16)
    jobs = spec["jobs"]
    for job in jobs:
        argv = job["argv"]
        job["threads"] = int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 1

    run_pass(cli_main, jobs)  # warm-up: lazy set-up and caches, not timed
    untraced_s, traced_s, runs, per_pass = [], [], [], []
    spans = []
    deadline = time.perf_counter() + spec["seconds"]
    pair = 0
    last = 0.0  # a pair starts only if it is likely to end by the deadline
    while pair == 0 or time.perf_counter() + last / 2 < deadline:
        started = time.perf_counter()
        for traced_now in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced_now:
                tracer = Tracer(modules)
                tracer.install()
                root = tracer.wrap(cli_main, "cli.main")
                try:
                    elapsed, results = run_pass(root, jobs, tracer)
                finally:
                    tracer.uninstall()
                traced_s.append(elapsed)
                per_pass.append(layer_metrics(tracer.spans, jobs, mc_chunk))
                spans = tracer.spans
            else:
                elapsed, results = run_pass(cli_main, jobs)
                untraced_s.append(elapsed)
            runs.append({"traced": traced_now, "jobs": results})
        pair += 1
        last = time.perf_counter() - started

    layer = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    untraced, traced = statistics.median(untraced_s), statistics.median(traced_s)
    layer["trace.overhead_s"] = traced - untraced
    layer["trace.overhead_ratio"] = (traced - untraced) / untraced

    t_base = min((s[3] for s in spans), default=0.0)
    with open(spec["spans"], "w") as fh:
        for sid, parent, name, t0, t1, job, _ in spans:
            fh.write(json.dumps([sid, parent, name, t0 - t_base, t1 - t_base, job]) + "\n")
    with open(result_path, "w") as fh:
        json.dump({
            "layer": layer,
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "pairs": pair,
            "runs": runs,
            "spans_file": spec["spans"],
            "span_count": len(spans),
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
