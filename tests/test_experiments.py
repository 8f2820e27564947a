"""Experiment runners, CSV reproducibility, config handling and the CLI."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvteleport
from cvteleport.experiments import (
    ExperimentConfig,
    config_with_output,
    default_lambda_grid,
    load_config_file,
    run_circle_vs_line,
    run_fig1,
    run_fig3,
    run_gaussian_alphabet,
)

SMALL_GRID = default_lambda_grid(10)  # 11 points incl. 0 and 0.999


def small_config(tmp_path, **overrides):
    settings = dict(
        lambda_grid=SMALL_GRID,
        n_samples=20_000,
        seed=8711,
        output_path=tmp_path / "out.csv",
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


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


class TestConfigValidation:
    def test_defaults_valid(self):
        config = ExperimentConfig()
        assert config.n_samples == 100_000
        assert config.alpha_line == 5.0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"lambda_grid": ()},
            {"lambda_grid": (0.2, 0.1)},
            {"lambda_grid": (0.0, 0.9995)},
            {"lambda_grid": (-0.1, 0.5)},
            {"n_samples": 999},
            {"seed": -1},
            {"seed": 2 ** 64},
            {"alpha_line": 0.0},
            {"s": -0.2},
            {"tol": 0.0},
            {"threads": 0},
            {"alpha_line": math.inf},
            {"s": math.inf},
            {"tol": math.inf},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ValueError):
            ExperimentConfig(**overrides)

    def test_point_seed_is_xor(self):
        config = ExperimentConfig(seed=0b1100)
        assert config.point_seed(0) == 0b1100
        assert config.point_seed(5) == 0b1100 ^ 5


class TestReproducibility:
    def test_identical_config_identical_bytes(self, tmp_path):
        config = small_config(tmp_path, lambda_grid=default_lambda_grid(4), n_samples=2000)
        run_fig1(config)
        first = config.output_path.read_bytes()
        run_fig1(config)
        assert config.output_path.read_bytes() == first

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        base = small_config(tmp_path, lambda_grid=default_lambda_grid(4), n_samples=2000)
        run_circle_vs_line(base)
        serial = base.output_path.read_bytes()
        threaded = small_config(
            tmp_path,
            lambda_grid=default_lambda_grid(4),
            n_samples=2000,
            threads=3,
            output_path=tmp_path / "threaded.csv",
        )
        run_circle_vs_line(threaded)
        assert threaded.output_path.read_bytes() == serial


class TestFig1:
    def test_rows_and_summary(self, tmp_path):
        config = small_config(tmp_path, n_samples=50_000)
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
        config = small_config(tmp_path, lambda_grid=(0.0, 0.5), n_samples=2000)
        run_fig1(config)
        lines = config.output_path.read_text().splitlines()
        assert lines[0] == "lambda,f_standard,f_tailored_disp_mc,f_tailored_disp_mc_stderr"
        assert len(lines) == 3
        for line in lines[1:]:
            for fieldtext in line.split(","):
                # 9-significant-digit round trip is idempotent
                assert format(float(fieldtext), ".9g") == fieldtext
        assert lines[1].split(",")[0] == "0"
        assert lines[1].split(",")[1] == "0.5"


class TestFig3:
    def test_rows(self, tmp_path):
        result = run_fig3(small_config(tmp_path))
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
    def test_wide_alphabet(self, tmp_path):
        result = run_gaussian_alphabet(small_config(tmp_path, s=100.0))
        first = result.rows[0]
        assert first[1] == pytest.approx(0.5, abs=1e-3)
        assert first[2] == pytest.approx(1.0, abs=1e-3)

    def test_narrow_alphabet(self, tmp_path):
        result = run_gaussian_alphabet(small_config(tmp_path, s=0.2))
        first, last = result.rows[0], result.rows[-1]
        assert 0.928 <= first[1] <= 0.936
        assert last[1] >= 0.99


class TestCircleVsLine:
    def test_rows(self, tmp_path):
        config = small_config(
            tmp_path, lambda_grid=(0.0, 0.45, 0.9), n_samples=10_000
        )
        result = run_circle_vs_line(config)
        first = result.rows[0]
        assert first[1] == pytest.approx(1.0 / math.sqrt(2.0), abs=0.01)
        assert first[3] == pytest.approx(1.0 / math.sqrt(2.0), abs=0.01)
        row_09 = result.rows[2]
        assert row_09[1] >= 0.9 and row_09[3] >= 0.9
        # statistical agreement where MC noise dominates the systematic
        # finite-amplitude offset between the two estimators (lam <= 0.5);
        # the full-grid check against the exact offset is
        # test_acceptance::test_criterion_09_circle_line_equivalence
        for row in result.rows[:2]:
            assert abs(row[1] - row[3]) <= 3.0 * (row[2] + row[4])


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

    def test_config_with_output(self, tmp_path):
        config = ExperimentConfig()
        moved = config_with_output(config, tmp_path / "x.csv")
        assert moved.output_path == tmp_path / "x.csv"
        assert moved.seed == config.seed

    def test_runner_raises_on_unwritable_path(self, tmp_path):
        config = small_config(
            tmp_path,
            lambda_grid=(0.0, 0.5),
            n_samples=2000,
            output_path=tmp_path / "no-such-dir" / "out.csv",
        )
        with pytest.raises(OSError):
            run_fig1(config)


def run_cli(*args, cwd=None):
    # the child imports the same package as the tests, installed or not
    src = str(Path(cvteleport.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    return subprocess.run(
        [sys.executable, "-m", "cvteleport.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=300,
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

    def test_merge_precedence(self, tmp_path):
        from cvteleport.cli import _build_parser, _merge_settings

        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 3.5\nsamples = 2000\n")
        args = _build_parser().parse_args(
            ["fig1", "--config", str(cfg), "--alpha", "4.0"]
        )
        settings = _merge_settings(args)
        assert settings["alpha"] == 4.0  # CLI beats config file
        assert settings["samples"] == 2000  # config file beats default
        assert settings["seed"] == 123456789  # default

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

    def test_missing_config_exit_3(self, tmp_path):
        proc = run_cli("fig1", "--config", str(tmp_path / "absent.cfg"))
        assert proc.returncode == 3

    def test_check_prints_criterion_lines(self):
        proc = run_cli("check")
        lines = [l for l in proc.stdout.splitlines() if l.startswith("[")]
        assert len(lines) == 10
        assert all(l.startswith(("[PASS]", "[FAIL]")) for l in lines)
        assert proc.returncode in (0, 1)
        assert ("criteria passed" in proc.stdout)
