"""Figure-style experiment runners producing plot-ready datasets.

Each runner evaluates one fidelity-versus-squeezing curve family over a
lambda grid and returns the rows together with a key=value summary of the
headline numbers for automated checking; it opens no file.
:func:`write_csv` is the one CSV format (header line, comma-separated,
reals with 9 significant digits, no locale formatting).

Reproducibility contract: a given :class:`ExperimentConfig` (seed
included) always produces the same rows, hence byte-identical CSV output.
Grid points are independent; the per-point Monte Carlo seed is
``seed XOR point_index``, so :func:`map_points` runs the Monte Carlo
runners' points on up to ``threads`` threads without changing the result.
The fig3 and gaussian points are pure-Python optimiser calls that hold the
GIL, so those runners evaluate them in a loop and ignore ``threads``.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from .measurement import (
    MAX_AMPLITUDE, MAX_SAMPLES, MIN_SAMPLES, CircleTailored, LineTailored, McEstimate,
    mc_average_fidelity,
)
from .optimize import DEFAULT_TOL, optimize_eta_g2, optimize_gain, tailored_fidelity
from .protocol import LAMBDA_MAX, SqueezeLevel

DEFAULT_LAMBDA_POINTS = 50
MAX_LAMBDA_POINTS = 100_000  # 2,000 times the benchmark's 50-point grid

_U64 = 2 ** 64

T = TypeVar("T")

# Mixes the per-point seed into an independent stream for the second
# Monte Carlo run of a grid point (circle curve vs line curve).
_SECOND_STREAM_SALT = 0x9E3779B97F4A7C15


def default_lambda_grid(points: int = DEFAULT_LAMBDA_POINTS) -> tuple[float, ...]:
    """Uniform grid of ``points`` values on [0, 0.98] plus the 0.999 cap.

    The cap is explicit: lambda = 1 would take infinite energy and the
    outcome distribution degenerates there.
    """
    if not 2 <= points <= MAX_LAMBDA_POINTS:
        raise ValueError(f"need 2 to {MAX_LAMBDA_POINTS} grid points, got {points}")
    grid = [0.98 * (i / (points - 1)) for i in range(points)]
    grid.append(LAMBDA_MAX)
    return tuple(grid)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated settings of one run; the field defaults are the run defaults.

    The init fields are the CLI's setting keys other than ``out``, and
    ``lambda_grid`` is derived once: ``default_lambda_grid(lambda_points)``.
    """

    lambda_points: int = DEFAULT_LAMBDA_POINTS
    samples: int = 100_000
    seed: int = 123456789
    alpha: float = 5.0
    s: float = 0.2
    tol: float = DEFAULT_TOL
    threads: int = 1
    lambda_grid: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambda_grid", default_lambda_grid(self.lambda_points))
        if not MIN_SAMPLES <= self.samples <= MAX_SAMPLES:
            raise ValueError(
                f"need {MIN_SAMPLES} to {MAX_SAMPLES} samples per point, got {self.samples}"
            )
        if not (0 <= self.seed < _U64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if not (0.0 < self.alpha <= MAX_AMPLITUDE):
            raise ValueError(
                f"line amplitude must be positive, finite and at most "
                f"{MAX_AMPLITUDE:g}, got {self.alpha}"
            )
        if not (0.0 < self.s < math.inf):
            raise ValueError(
                f"alphabet standard deviation must be positive and finite, got {self.s}"
            )
        if not (0.0 < self.tol < math.inf):
            raise ValueError(f"tolerance must be positive and finite, got {self.tol}")
        if self.threads < 1:
            raise ValueError(f"thread count must be at least 1, got {self.threads}")

    def point_seed(self, index: int) -> int:
        return self.seed ^ index


@dataclass(frozen=True)
class ExperimentResult:
    """Column names, rows and the summary block of headline numbers."""

    header: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    summary: dict[str, float]


def _format_real(x: float) -> str:
    return format(float(x), ".9g")


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[float]]) -> None:
    """Write rows with 9-significant-digit reals and a header line."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_real(x) for x in row) + "\n")


def available_cpus() -> int:
    """CPUs the process may run on: its affinity set, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def map_points(worker: Callable[[int], T], count: int, threads: int) -> list[T]:
    """``[worker(i) for i in range(count)]`` on up to ``threads`` threads.

    The package's one parallel path.  The pool never exceeds the point
    count or :func:`available_cpus`: each running estimate holds a Monte
    Carlo workspace, so a thread beyond the CPU count adds memory, not speed.
    Results come back in point order, so when every point seeds its own
    streams the list does not depend on ``threads``.
    """
    threads = min(threads, count, available_cpus())
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(worker, range(count)))
    return [worker(i) for i in range(count)]


def _line_estimate(config: ExperimentConfig, i: int) -> McEstimate:
    """fig1's Monte Carlo column and circle-vs-line's ``f_line`` at grid point ``i``."""
    sq = SqueezeLevel(config.lambda_grid[i])
    seed = config.point_seed(i)
    return mc_average_fidelity(LineTailored(), config.alpha, sq, config.samples, seed)


def circle_estimate(sq: SqueezeLevel, amp: float, theta: float, n: int, seed: int) -> McEstimate:
    """Circle-tailored Monte Carlo estimate for the target ``amp`` at angle ``theta``."""
    return mc_average_fidelity(CircleTailored(radius=amp), cmath.rect(amp, theta), sq, n, seed)


def run_fig1(config: ExperimentConfig) -> ExperimentResult:
    """Line-tailored displacement curve versus the standard scheme.

    Columns: lambda, f_standard, f_tailored_disp_mc, f_tailored_disp_mc_stderr.
    The standard column is the closed form (1 + lambda)/2; the tailored
    column is the Monte Carlo outcome average at fixed target amplitude
    ``alpha`` on the real axis.
    """

    def point(i: int) -> tuple[float, ...]:
        lam = config.lambda_grid[i]
        est = _line_estimate(config, i)
        return (lam, (1.0 + lam) / 2.0, est.mean, est.std_error)

    rows = map_points(point, len(config.lambda_grid), config.threads)
    header = ("lambda", "f_standard", "f_tailored_disp_mc", "f_tailored_disp_mc_stderr")
    summary = {
        "f_standard_lambda0": rows[0][1],
        "f_tailored_mc_lambda0": rows[0][2],
        "f_tailored_mc_lambda_end": rows[-1][2],
        "min_tailored_margin_3se": min(r[2] - r[1] + 3.0 * r[3] for r in rows),
    }
    return ExperimentResult(header, tuple(rows), summary)


def run_fig3(config: ExperimentConfig) -> ExperimentResult:
    """The three protocol curves and the tuned parameters, all closed form.

    Columns: lambda, f_full, f_disp_only, f_standard, eta_star, g2_star.
    ``f_full`` maximises over the beam splitter and the phase gain;
    ``f_disp_only`` fixes a 50:50 splitter and optimises the phase gain
    only; ``f_standard`` is the unit-gain baseline (1 + lambda)/2.
    """

    def point(lam: float) -> tuple[float, ...]:
        sq = SqueezeLevel(lam)
        res = optimize_eta_g2(sq, tol=config.tol)
        eta_star, g2_star = res.argmax
        disp_only = tailored_fidelity(sq, math.pi / 4)
        return (lam, res.value, disp_only, (1.0 + lam) / 2.0, eta_star, g2_star)

    rows = [point(lam) for lam in config.lambda_grid]
    header = ("lambda", "f_full", "f_disp_only", "f_standard", "eta_star", "g2_star")
    ordering_violations = sum(
        1 for r in rows if not (r[1] >= r[2] >= r[3])
    )
    summary = {
        "f_full_lambda0": rows[0][1],
        "f_disp_only_lambda0": rows[0][2],
        "f_standard_lambda0": rows[0][3],
        "eta_star_lambda_end": rows[-1][4],
        "g2_star_lambda_end": rows[-1][5],
        "ordering_violations": float(ordering_violations),
    }
    return ExperimentResult(header, tuple(rows), summary)


def run_gaussian_alphabet(config: ExperimentConfig) -> ExperimentResult:
    """Gain-optimised alphabet-weighted fidelity for a Gaussian alphabet.

    Columns: lambda, f_opt, g_opt, for the configured standard deviation.
    """

    def point(lam: float) -> tuple[float, ...]:
        res = optimize_gain(SqueezeLevel(lam), config.s, tol=config.tol)
        return (lam, res.value, res.argmax[0])

    rows = [point(lam) for lam in config.lambda_grid]
    header = ("lambda", "f_opt", "g_opt")
    summary = {
        "s": config.s,
        "f_opt_lambda0": rows[0][1],
        "g_opt_lambda0": rows[0][2],
        "f_opt_lambda_end": rows[-1][1],
    }
    return ExperimentResult(header, tuple(rows), summary)


def circle_line_allowance(se_line: float, se_circle: float) -> float:
    """Allowance on |f_line - f_circle| at one grid point: 3 (se_line + se_circle)."""
    return 3.0 * (se_line + se_circle)


def run_circle_vs_line(config: ExperimentConfig) -> ExperimentResult:
    """Monte Carlo comparison of the line and circle tailored strategies.

    Columns: lambda, f_line, f_line_stderr, f_circle, f_circle_stderr,
    both at target amplitude ``alpha``.  The circle target sits at a
    seeded random angle (the outcome statistics are angle-invariant); the
    two curves use independent derived streams.
    """
    from .kernel import stream  # the kernel loads here, as on the first estimate

    amp = config.alpha

    def point(i: int) -> tuple[float, ...]:
        lam = config.lambda_grid[i]
        sq = SqueezeLevel(lam)
        circle_seed = config.point_seed(i) ^ _SECOND_STREAM_SALT
        line = _line_estimate(config, i)
        theta = stream(circle_seed, 0xA11CE).uniform(0.0, 2.0 * math.pi)
        circle = circle_estimate(sq, amp, theta, config.samples, circle_seed)
        return (lam, line.mean, line.std_error, circle.mean, circle.std_error)

    rows = map_points(point, len(config.lambda_grid), config.threads)
    header = ("lambda", "f_line", "f_line_stderr", "f_circle", "f_circle_stderr")
    diffs = [abs(r[1] - r[3]) for r in rows]
    allowances = [circle_line_allowance(r[2], r[4]) for r in rows]
    summary = {
        "f_line_lambda0": rows[0][1],
        "f_circle_lambda0": rows[0][3],
        "max_abs_diff": max(diffs),
        "max_excess_over_allowance": max(
            d - a for d, a in zip(diffs, allowances)
        ),
    }
    return ExperimentResult(header, tuple(rows), summary)
