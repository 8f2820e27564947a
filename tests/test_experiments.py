"""Experiment runners, CSV reproducibility, config handling and the CLI."""

import inspect
import io
import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import cvteleport
from cvteleport import cli, experiments
from cvteleport.cli import load_config_file
from cvteleport.experiments import (
    ExperimentConfig,
    default_lambda_grid,
    run_circle_vs_line,
    run_fig1,
    run_fig3,
    run_gaussian_alphabet,
    write_csv,
)
from oracles import exact_line_circle, optimal_gain, optimal_tailoring
from test_package import child_env

def small_config(**overrides):
    # 11 grid points incl. 0 and 0.999
    settings = dict(lambda_points=10, samples=20_000, seed=8711)
    settings.update(overrides)
    return ExperimentConfig(**settings)


def csv_bytes(result, path):
    """The bytes ``write_csv`` writes for ``result``."""
    write_csv(path, result.header, result.rows)
    return path.read_bytes()


class TestLambdaGrid:
    def test_default_grid(self):
        grid = default_lambda_grid()
        assert len(grid) == 51
        assert grid[0] == 0.0
        assert grid[-2] == 0.98
        assert grid[-1] == 0.999
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_minimum_points(self):
        with pytest.raises(ValueError):
            default_lambda_grid(1)

    @pytest.mark.parametrize("points", [2.5, "3", None])
    def test_rejects_non_integer_points(self, points):
        # each used to raise TypeError, from range or from <=
        with pytest.raises(ValueError, match="^points must be an integer"):
            default_lambda_grid(points)

    def test_maximum_points(self):
        assert len(default_lambda_grid(experiments.MAX_LAMBDA_POINTS)) == (
            experiments.MAX_LAMBDA_POINTS + 1
        )
        with pytest.raises(ValueError, match="grid points"):
            default_lambda_grid(experiments.MAX_LAMBDA_POINTS + 1)


class TestConfigValidation:
    def test_defaults_valid(self):
        config = ExperimentConfig()
        assert config.samples == 100_000
        assert config.alpha == 5.0
        assert config.lambda_grid == default_lambda_grid()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"lambda_points": 1},
            {"lambda_points": experiments.MAX_LAMBDA_POINTS + 1},
            {"samples": 999},
            {"seed": -1},
            {"seed": 2 ** 64},
            {"alpha": 0.0},
            {"s": -0.2},
            {"tol": 0.0},
            {"threads": 0},
            {"alpha": math.inf},
            {"s": math.inf},
            {"tol": math.inf},
            {"alpha": 2e150},
            {"samples": 10 ** 14},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ValueError):
            ExperimentConfig(**overrides)

    @pytest.mark.parametrize(
        "key, value",
        [("samples", 1e4), ("threads", 1.5), ("seed", 1.5), ("lambda_points", 4.0)],
    )
    def test_rejects_non_integer_counts_and_seed(self, key, value):
        # each used to fail later, inside a runner, with a TypeError
        with pytest.raises(ValueError, match=f"^{key} must be an integer"):
            ExperimentConfig(**{key: value})

    def test_point_seed_is_xor(self):
        config = ExperimentConfig(seed=0b1100)
        assert config.point_seed(0) == 0b1100
        assert config.point_seed(5) == 0b1100 ^ 5
        # the largest seed and index stay below 2^64 with no reduction
        top = ExperimentConfig(seed=2 ** 64 - 1).point_seed(experiments.MAX_LAMBDA_POINTS)
        assert top == (2 ** 64 - 1) ^ experiments.MAX_LAMBDA_POINTS
        assert top < 2 ** 64


class TestReproducibility:
    def test_identical_config_identical_bytes(self, tmp_path):
        config = small_config(lambda_points=4, samples=2000)
        first = csv_bytes(run_fig1(config), tmp_path / "first.csv")
        assert csv_bytes(run_fig1(config), tmp_path / "second.csv") == first

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        # map_points caps the pool at the CPU count; lift the cap so three
        # threads run on any host
        monkeypatch.setattr(experiments, "available_cpus", lambda: 3)
        base = small_config(lambda_points=4, samples=2000)
        serial = csv_bytes(run_circle_vs_line(base), tmp_path / "serial.csv")
        threaded = small_config(lambda_points=4, samples=2000, threads=3)
        assert csv_bytes(run_circle_vs_line(threaded), tmp_path / "threaded.csv") == serial

    @pytest.mark.parametrize(
        "runner", [run_fig1, run_fig3, run_gaussian_alphabet, run_circle_vs_line]
    )
    def test_runner_writes_no_file(self, tmp_path, monkeypatch, runner):
        monkeypatch.chdir(tmp_path)
        result = runner(small_config(lambda_points=2, samples=2000))
        assert len(result.rows) == 3
        assert list(tmp_path.iterdir()) == []


class TestMapPoints:
    def test_pool_capped_at_cpu_count(self, monkeypatch):
        # each thread's estimate allocates a Monte Carlo workspace; threads
        # beyond the CPU count add memory and no speed
        monkeypatch.setattr(experiments, "available_cpus", lambda: 2)

        def worker(i):
            time.sleep(0.01)
            return i, threading.get_ident()

        results = experiments.map_points(worker, 16, 16)
        assert [i for i, _ in results] == list(range(16))
        assert len({ident for _, ident in results}) <= 2

    def test_calling_thread_runs_points(self, monkeypatch):
        # the caller takes points beside its one helper, so two threads
        # start one thread and use one malloc arena besides the caller's
        monkeypatch.setattr(experiments, "available_cpus", lambda: 2)

        def worker(i):
            time.sleep(0.01)
            return threading.get_ident()

        assert threading.get_ident() in experiments.map_points(worker, 8, 2)

    def test_shared_counter_hands_out_each_point_once(self, monkeypatch):
        # more threads than CPUs and a short switch interval: a lost update of
        # the point counter would run a point twice or skip one
        monkeypatch.setattr(experiments, "available_cpus", lambda: 8)
        ran = []

        def worker(i):
            ran.append(i)
            return i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = experiments.map_points(worker, 2000, 8)
        finally:
            sys.setswitchinterval(interval)
        assert results == list(range(2000))
        assert sorted(ran) == list(range(2000))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "failing, raised", [({1}, 1), ({0, 1}, 0)], ids=["one-fails", "both-fail"]
    )
    def test_failure_stops_points_and_raises_the_lowest(
        self, monkeypatch, threads, failing, raised
    ):
        # point 0 takes longer than point 1: no point starts after a
        # failure, and when both fail, point 0's error is raised although
        # point 1 failed first, as [worker(i) for i in ...] would
        monkeypatch.setattr(experiments, "available_cpus", lambda: 2)
        ran = []

        def worker(i):
            ran.append(i)
            if i == 0:
                time.sleep(0.05)
            if i in failing:
                raise ValueError(f"point {i}")
            return i

        with pytest.raises(ValueError, match=f"point {raised}"):
            experiments.map_points(worker, 16, threads)
        assert max(ran) <= 1

    @pytest.mark.parametrize("threads, count", [(1, 16), (2, 1)])
    def test_one_thread_starts_no_thread(self, monkeypatch, threads, count):
        monkeypatch.setattr(experiments, "available_cpus", lambda: 2)

        def start(thread):
            raise AssertionError("map_points started a thread")

        monkeypatch.setattr(threading.Thread, "start", start)
        assert experiments.map_points(lambda i: i, count, threads) == list(range(count))


class TestFig1:
    def test_rows_and_summary(self):
        config = small_config(samples=50_000)
        result = run_fig1(config)
        assert result.header == (
            "lambda", "f_standard", "f_tailored_disp_mc", "f_tailored_disp_mc_stderr",
        )
        first, last = result.rows[0], result.rows[-1]
        assert first[1] == 0.5
        assert first[2] == pytest.approx(1.0 / math.sqrt(2.0), abs=0.01)
        assert last[1] >= 0.99 and last[2] >= 0.99
        # tailored displacement never drops below the standard curve
        assert all(r[2] >= r[1] - 3.0 * r[3] for r in result.rows)
        assert result.summary["f_standard_lambda0"] == 0.5
        assert result.summary["min_tailored_margin_3se"] >= 0.0

    def test_csv_format(self, tmp_path):
        config = small_config(lambda_points=2, samples=2000)
        lines = csv_bytes(run_fig1(config), tmp_path / "out.csv").decode().splitlines()
        assert lines[0] == "lambda,f_standard,f_tailored_disp_mc,f_tailored_disp_mc_stderr"
        assert len(lines) == 4
        for line in lines[1:]:
            for fieldtext in line.split(","):
                # 9-significant-digit round trip is idempotent
                assert format(float(fieldtext), ".9g") == fieldtext
        assert lines[1].split(",")[0] == "0"
        assert lines[1].split(",")[1] == "0.5"


class TestFig3:
    def test_rows(self):
        result = run_fig3(small_config())
        first, last = result.rows[0], result.rows[-1]
        assert first[1] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-9)
        assert first[2] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert first[3] == 0.5
        assert first[4] == 0.0 and first[5] == 0.0
        assert abs(last[4] - math.pi / 4) <= 0.01
        assert abs(last[5] - 1.0 / math.sqrt(2.0)) <= 0.01
        assert all(r[1] >= r[2] >= r[3] for r in result.rows)
        assert result.summary["ordering_violations"] == 0.0


class TestGaussianAlphabet:
    def test_wide_alphabet(self):
        result = run_gaussian_alphabet(small_config(s=100.0))
        first = result.rows[0]
        assert first[1] == pytest.approx(0.5, abs=1e-3)
        assert first[2] == pytest.approx(1.0, abs=1e-3)

    def test_narrow_alphabet(self):
        result = run_gaussian_alphabet(small_config(s=0.2))
        first, last = result.rows[0], result.rows[-1]
        assert 0.928 <= first[1] <= 0.936
        assert last[1] >= 0.99


class TestCircleVsLine:
    def test_rows(self):
        config = small_config(lambda_points=3, samples=10_000)  # lambda 0, 0.49, 0.98, 0.999
        result = run_circle_vs_line(config)
        first = result.rows[0]
        assert first[1] == pytest.approx(1.0 / math.sqrt(2.0), abs=0.01)
        assert first[3] == pytest.approx(1.0 / math.sqrt(2.0), abs=0.01)
        row_098 = result.rows[2]
        assert row_098[0] == 0.98
        assert row_098[1] >= 0.9 and row_098[3] >= 0.9
        # statistical agreement where MC noise dominates the systematic
        # finite-amplitude offset between the two estimators (lam <= 0.5);
        # the full-grid check against the exact offset is
        # test_acceptance::test_criterion_09_circle_line_equivalence
        for row in result.rows[:2]:
            assert abs(row[1] - row[3]) <= 3.0 * (row[2] + row[4])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_line_columns_are_fig1s(self, monkeypatch, threads):
        # one line estimate per grid point feeds both runners
        monkeypatch.setattr(experiments, "available_cpus", lambda: threads)
        config = small_config(
            lambda_points=2, samples=2000, seed=7, threads=threads
        )
        fig1 = [(r[2], r[3]) for r in run_fig1(config).rows]
        assert fig1 == [(r[1], r[2]) for r in run_circle_vs_line(config).rows]


# Each runner at the corners of ExperimentConfig's accepted box, every row
# held to its exact value or its limit.  circle-vs-line is split by column so
# that only the circle cases that ROADMAP item 2 fixes are expected failures.
CIRCLE_ROUNDS_W_AWAY = pytest.mark.xfail(
    strict=True,
    reason="the circle kernel forms beta = alpha + w, so at |alpha| >= 1e16 w rounds "
    "away: 0.187 +- 0.006 at lam = 0 for 1e16, 0 +- 0 for 1e150 (ROADMAP item 2)",
)
CORNERS = (
    [("fig1", "alpha", a, "line") for a in (1e-300, 5.0, 1e16, 1e150)]
    + [("circle-vs-line", "alpha", a, "line") for a in (1e-300, 5.0, 1e16, 1e150)]
    + [("circle-vs-line", "alpha", a, "circle") for a in (1e-300, 5.0)]
    + [pytest.param("circle-vs-line", "alpha", a, "circle", marks=CIRCLE_ROUNDS_W_AWAY)
       for a in (1e16, 1e150)]
    + [("gaussian", "s", s, "optimum") for s in (1e-200, 0.2, 1e200)]
    + [("fig3", "tol", tol, "optimum") for tol in (1e-300, 1e-8)]
)


def _tailored_mc_limit(rule, alpha, lam):
    """The line or circle mean: exact at alpha = 5, else its limit."""
    if alpha == 5.0:
        return exact_line_circle(alpha, lam)[rule == "circle"]
    if alpha < 1.0:  # alpha -> 0: the circle's radius, hence its guess, is 0
        return 1.0 if rule == "circle" else (1.0 + lam) / 2.0
    return math.sqrt((1.0 + lam) / 2.0)


def _corner_checks(command, value, rule, cell, lam):
    """(column, exact, bound) for each cell of the row at ``lam``."""
    if command in ("fig1", "circle-vs-line"):
        column = "f_tailored_disp_mc" if command == "fig1" else f"f_{rule}"
        se = cell[f"{column}_stderr"]
        checks = [(column, _tailored_mc_limit(rule, value, lam), 5.0 * se if se else 1e-12)]
        if command == "fig1":
            checks.append(("f_standard", (1.0 + lam) / 2.0, 1e-12))
        return checks
    if command == "gaussian":
        if value < 1e-100:
            return [("f_opt", 1.0, 1e-12)]
        if value > 1e100:
            return [("f_opt", (1.0 + lam) / 2.0, 1e-12), ("g_opt", 1.0, 1e-12)]
        f, g = optimal_gain(lam, value)
        return [("f_opt", f, 1e-10), ("g_opt", g, 1e-7)]
    f, eta, g2 = optimal_tailoring(lam)  # 1e-7: the flat maximum's resolution
    return [("f_full", f, 1e-10), ("eta_star", eta, 1e-7), ("g2_star", g2, 1e-7),
            ("f_disp_only", math.sqrt((1.0 + lam) / 2.0), 1e-12),
            ("f_standard", (1.0 + lam) / 2.0, 1e-12)]


@pytest.mark.parametrize(
    "command, key, value, rule", CORNERS,
    ids=lambda v: format(v, "g") if isinstance(v, float) else v,
)
def test_runner_at_corner(command, key, value, rule):
    config = ExperimentConfig(lambda_points=2, samples=1000, **{key: value})
    result = cli._RUNNERS[command](config)
    off = []
    for row in result.rows:
        cell = dict(zip(result.header, row))
        for column, exact, bound in _corner_checks(command, value, rule, cell, row[0]):
            if not abs(cell[column] - exact) <= bound:
                off.append(f"{column} at lam={row[0]}: {cell[column]!r} != {exact!r}")
    assert off == []


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "samples = 2000\n"
            "alpha = 3.5  # trailing comment\n"
            "\n"
            "seed = 99\n"
        )
        assert load_config_file(path) == {"samples": "2000", "alpha": "3.5", "seed": "99"}

    def test_byte_order_mark_and_utf8_comment(self, tmp_path):
        # editors that save "UTF-8 with BOM" put U+FEFF before the first key
        path = tmp_path / "run.cfg"
        path.write_bytes("\ufefflambda_points = 4  # λ grid\n# α = 5 ±\nseed = 7\n".encode())
        assert load_config_file(path) == {"lambda_points": "4", "seed": "7"}

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("samples = 10\nbogus = 1\n")
        with pytest.raises(ValueError, match="bogus"):
            load_config_file(path)

    def test_bad_syntax(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("samples 2000\n")
        with pytest.raises(ValueError):
            load_config_file(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("samples = 2000\n# second value below\nsamples = 3000\n")
        with pytest.raises(ValueError, match=r"run\.cfg:3: duplicate key 'samples'"):
            load_config_file(path)


# a value other than the default for every key of the CLI settings table
SETTING_VALUES = {
    "lambda_points": "4",
    "samples": "2000",
    "seed": "7",
    "alpha": "3.5",
    "s": "0.3",
    "out": "elsewhere.csv",
    "tol": "1e-6",
    "threads": "2",
}


class TestSettingsTable:
    @pytest.mark.parametrize("setting", cli.SETTINGS, ids=lambda s: s.key)
    def test_config_file_and_flag_agree(self, tmp_path, setting):
        value = SETTING_VALUES[setting.key]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{setting.key} = {value}\n")
        parser = cli._build_parser()
        defaults = cli._merge_settings(parser.parse_args(["gaussian"]))
        from_file = cli._merge_settings(parser.parse_args(["gaussian", "--config", str(cfg)]))
        from_flag = cli._merge_settings(parser.parse_args(["gaussian", setting.flag, value]))
        assert from_file == from_flag
        assert from_file[setting.key] != defaults.get(setting.key)
        out = from_file.pop("out")
        config = ExperimentConfig(**from_file)
        assert out == (Path(value) if setting.key == "out" else Path("gaussian.csv"))
        if setting.key != "out":  # that one setting is set, the rest keep the field defaults
            expected = ExperimentConfig(**{setting.key: setting.type(value)})
            assert config == expected != ExperimentConfig()

    def test_settings_are_the_config_fields(self):
        # every setting but ``out`` is an ExperimentConfig keyword of the
        # same name, and that keyword holds the default
        keys = {s.key for s in cli.SETTINGS} - {"out"}
        assert keys == set(inspect.signature(ExperimentConfig).parameters)
        defaults = cli._merge_settings(cli._build_parser().parse_args(["gaussian"]))
        assert defaults == {"out": Path("gaussian.csv")}

    def test_readme_names_every_flag(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = readme[readme.index("Shared flags:"):].split("\n\n", 1)[0]
        named = re.findall(r"`(--[a-z-]+) ([A-Z0-9]+)`", paragraph)
        expected = {(s.flag, s.metavar) for s in cli.SETTINGS} | {("--config", "PATH")}
        assert sorted(named) == sorted(expected)

    @pytest.mark.parametrize(
        "key, bound",
        [
            ("lambda_points", experiments.MAX_LAMBDA_POINTS),
            ("samples", experiments.MIN_SAMPLES),
            ("samples", experiments.MAX_SAMPLES),
            ("alpha", experiments.MAX_AMPLITUDE),
        ],
    )
    def test_help_states_the_checked_bound(self, key, bound):
        # the help is formatted from the constant the range check uses
        assert format(bound, "g") in cli._BY_KEY[key].help


def test_readme_package_layout_names_every_module():
    # one row of README's "Package layout" per module, and no row for a module
    # that is gone
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme[readme.index("## Package layout"):].split("\n\n")[1]
    rows = re.findall(r"^\| `cvteleport\.(\w+)` ", table, flags=re.M)
    modules = {path.stem for path in Path(cvteleport.__file__).parent.glob("*.py")}
    assert sorted(rows) == sorted(modules - {"__init__", "__main__"})


def run_cli(*args, cwd=None, timeout=300, preexec_fn=None, stdout=subprocess.PIPE, env=None):
    # the child imports the same package as the tests, installed or not
    return subprocess.run(
        [sys.executable, "-m", "cvteleport.cli", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        cwd=cwd,
        env=child_env(env),
        timeout=timeout,
        preexec_fn=preexec_fn,
    )


class TestCli:
    def test_fig3_end_to_end(self, tmp_path):
        out = tmp_path / "fig3.csv"
        proc = run_cli("fig3", "--lambda-points", "5", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        assert "f_full_lambda0=0.816496581" in proc.stdout

    def test_config_file_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda_points = 4\nsamples = 2000\nseed = 7\n")
        out = tmp_path / "fig1.csv"
        proc = run_cli("fig1", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 1 + 5  # header + 4 + cap point

    def test_config_file_with_byte_order_mark(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbflambda_points = 4\ns = 0.5\n")
        out = tmp_path / "gaussian.csv"
        proc = run_cli("gaussian", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 1 + 5  # header + 4 + cap point

    def test_merge_precedence(self, tmp_path):
        from cvteleport.cli import _build_parser, _merge_settings

        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 3.5\nsamples = 2000\n")
        args = _build_parser().parse_args(
            ["fig1", "--config", str(cfg), "--alpha", "4.0"]
        )
        settings = _merge_settings(args)
        assert settings.pop("out") == Path("fig1.csv")
        config = ExperimentConfig(**settings)
        assert config.alpha == 4.0  # CLI beats config file
        assert config.samples == 2000  # config file beats default
        assert config.seed == 123456789  # default

    def test_usage_error_exit_2(self):
        proc = run_cli("fig1", "--samples", "not-a-number")
        assert proc.returncode == 2
        proc = run_cli("no-such-command")
        assert proc.returncode == 2

    def test_validation_error_exit_2(self):
        proc = run_cli("fig1", "--samples", "10")
        assert proc.returncode == 2
        assert "samples" in proc.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("fig3", "--s", "0.2"),  # abbreviates no single flag: --samples or --seed
            ("fig1", "--sam", "1000"),  # abbreviates --samples only
        ],
    )
    def test_abbreviated_flag_exit_2(self, tmp_path, args):
        # a flag is taken only as spelled in full, as a config key is
        proc = run_cli(*args, "--lambda-points", "2", "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2, proc.stderr
        assert f"unrecognized arguments: {' '.join(args[1:])}" in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ("fig1", "--alpha", "inf"),
            ("gaussian", "--s", "inf"),
            ("fig3", "--tol", "inf"),
        ],
    )
    def test_non_finite_value_exit_2(self, tmp_path, args):
        proc = run_cli(*args, "--lambda-points", "2", "--samples", "2000",
                       "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2, proc.stderr
        assert "finite" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["fig1", "circle-vs-line"])
    def test_amplitude_beyond_bound_exit_2(self, tmp_path, command):
        # beyond MAX_AMPLITUDE the outcome components overflow when squared
        proc = run_cli(command, "--alpha", "1e160", "--lambda-points", "2",
                       "--samples", "20000", "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2, proc.stderr
        assert "at most 1e+150" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    def test_grid_beyond_bound_exit_2(self, tmp_path):
        # the grid is rejected before it is built; the address-space cap turns
        # building 2e8 points into a MemoryError instead of several GiB
        def cap_address_space():
            import resource

            resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

        proc = run_cli("gaussian", "--lambda-points", "200000000",
                       "--out", str(tmp_path / "x.csv"), timeout=10,
                       preexec_fn=cap_address_space)
        assert proc.returncode == 2, proc.stderr
        assert "grid points" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_samples_beyond_bound_exit_2(self, tmp_path):
        proc = run_cli("fig1", "--lambda-points", "2", "--samples", "100000000000000",
                       "--out", str(tmp_path / "x.csv"), timeout=10)
        assert proc.returncode == 2, proc.stderr
        assert "samples" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    def test_nul_in_output_path_exit_2(self, tmp_path, monkeypatch, capsys):
        # open() raises ValueError, not OSError, on a NUL character, and an
        # empty path names the working directory, which open() fails on only
        # after the run: both are bad input, from a flag or a config file
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        for text, reason in (("a\0b.csv", "contains a NUL character"), ("", "is empty")):
            cfg.write_text(f"out = {text}\n")
            assert cli.main(["fig3", "--lambda-points", "2", "--config", str(cfg)]) == 2
            assert f"config key 'out': output path {reason}" in capsys.readouterr().err
            with pytest.raises(SystemExit) as exit_:
                cli.main(["fig3", "--lambda-points", "2", "--out", text])
            assert exit_.value.code == 2
            assert f"argument --out: output path {reason}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run.cfg"]

    def test_duplicate_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 3.5\nalpha = 4.5\n")
        proc = run_cli("fig1", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert f"{cfg}:2: duplicate key 'alpha'" in proc.stderr

    def test_fig1_large_amplitude(self, tmp_path):
        # the line-tailored curve at |alpha| = 1e16 starts at 1/sqrt(2)
        out = tmp_path / "fig1.csv"
        proc = run_cli("fig1", "--alpha", "1e16", "--lambda-points", "2",
                       "--samples", "20000", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lam, _, mean, stderr = map(float, out.read_text().splitlines()[1].split(","))
        assert lam == 0.0
        assert abs(mean - 1.0 / math.sqrt(2.0)) <= 5 * stderr

    def test_io_error_exit_3(self, tmp_path):
        proc = run_cli(
            "fig1", "--lambda-points", "3", "--samples", "2000",
            "--out", str(tmp_path / "missing-dir" / "x.csv"),
        )
        assert proc.returncode == 3

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("sink", ["dev-full", "closed-pipe"])
    @pytest.mark.parametrize("command", ["gaussian", "check", "help", "fig3-help"])
    def test_stdout_failure_exit_3(self, tmp_path, command, sink, unbuffered):
        # the summary or the help cannot be written: one error line and
        # exit 3, and the interpreter's flush at exit adds no second error
        args = {
            "gaussian": ["gaussian", "--lambda-points", "2", "--out", str(tmp_path / "x.csv")],
            "check": ["check"],
            "help": ["--help"],
            "fig3-help": ["fig3", "--help"],
        }[command]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        if sink == "dev-full":
            if not os.path.exists("/dev/full"):
                pytest.skip("needs /dev/full")
            with open("/dev/full", "w") as full:
                proc = run_cli(*args, stdout=full, env=env)
        else:
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = run_cli(*args, stdout=write_end, env=env)
            finally:
                os.close(write_end)
        assert proc.returncode == 3, proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error: [Errno ")

    def test_help_unchanged_and_failing_stderr_exit_2(self, capsys, monkeypatch):
        # help reaches a working stdout as argparse formats it; a failing
        # stderr leaves argparse's exit 2 for bad input
        with pytest.raises(SystemExit) as exit_:
            cli.main(["--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out == cli._build_parser().format_help()

        class FullStream(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(sys, "stderr", FullStream())
        with pytest.raises(SystemExit) as exit_:
            cli.main(["fig1", "--samples", "many"])
        assert exit_.value.code == 2

    def test_missing_config_exit_3(self, tmp_path):
        proc = run_cli("fig1", "--config", str(tmp_path / "absent.cfg"))
        assert proc.returncode == 3

    def test_unreadable_config_exit_3(self, tmp_path):
        proc = run_cli("fig1", "--config", str(tmp_path))  # a directory
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "args",
        [("fig3", "--lambda-points", "2", "--tol", "1e-300"), ("gaussian", "--tol", "1e-17")],
    )
    def test_tol_below_float_spacing_returns(self, tmp_path, args):
        proc = run_cli(*args, "--out", str(tmp_path / "x.csv"), timeout=60)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("error, code", [(ValueError, 4), (OSError, 3)])
    def test_crashing_criterion_exit_code(self, monkeypatch, capsys, error, code):
        # a criterion that raises is not a failed check: exit 4 with its
        # traceback and one error line, nothing on stdout; an OSError is exit 3
        from cvteleport import acceptance

        def passing():
            return acceptance.CriterionResult(1, "passing", True, "ok")

        def crashing():
            raise error("boom")

        monkeypatch.setattr(acceptance, "ALL_CRITERIA", (passing, crashing))
        assert cli.main(["check"]) == code
        out, err = capsys.readouterr()
        assert out == ""
        if code == 4:
            assert "Traceback" in err
            assert err.splitlines()[-1] == "error: acceptance check crashed: ValueError: boom"
        else:
            assert err == "error: boom\n"

    def test_check_prints_criterion_lines(self):
        proc = run_cli("check")
        lines = [l for l in proc.stdout.splitlines() if l.startswith("[")]
        assert len(lines) == 10
        assert all(l.startswith(("[PASS]", "[FAIL]")) for l in lines)
        assert proc.returncode in (0, 1)
        assert ("criteria passed" in proc.stdout)
        # the whole text is pinned, digits included.  Like the reference
        # CSVs it assumes numpy 2.4.6, whose Generator streams the Monte
        # Carlo criteria draw; a change that moves a line updates the file
        golden = (Path(__file__).parent / "check_stdout.txt").read_text()
        assert proc.stdout == golden

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs sched_setaffinity and at least two CPUs",
    )
    def test_check_output_independent_of_affinity(self):
        # check runs its Monte Carlo points on every CPU in its affinity set;
        # pinned to one CPU it must print the same bytes
        one_cpu = min(os.sched_getaffinity(0))
        unpinned = run_cli("check")
        pinned = run_cli("check", preexec_fn=lambda: os.sched_setaffinity(0, {one_cpu}))
        assert (unpinned.returncode, pinned.returncode) == (1, 1), pinned.stderr
        assert pinned.stdout == unpinned.stdout
