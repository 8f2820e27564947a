"""Executable acceptance checks for the package's headline numbers.

Each criterion is a deterministic function returning a
:class:`CriterionResult`; the CLI ``check`` subcommand runs all of them
and exits nonzero if any fail, and the test suite asserts them one by
one.  All tolerances are pinned here, next to the checks, and every
Monte Carlo run uses a fixed seed so the outcome never flickers.  A
criterion on a curve the CLI writes reads that runner's rows at the
default config: criteria 3-5 share one ``run_fig3`` run, criterion 6 reads
``run_fig1`` and criterion 7 ``run_gaussian_alphabet``.

The criteria run one after another.  Within criteria 1, 6 and 9 the Monte
Carlo grid points run on every CPU the process may use (its affinity
set); each point has its own seeds, so the results do not depend on the
CPU count.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .alphabet import gaussian_weighted_fidelity, gaussian_weighted_fidelity_quadrature
from .experiments import (
    ExperimentConfig,
    available_cpus,
    circle_line_allowance,
    circle_line_point,
    default_lambda_grid,
    map_points,
    run_fig1,
    run_fig3,
    run_gaussian_alphabet,
)
from .fidelity import (
    avg_fidelity_unit_gain,
    bfk_classical_limit,
    one_shot_fidelity,
    optimal_displacement,
    transfer_exponent,
)
from .measurement import LineTailored, McEstimate, Standard, mc_average_fidelity
from .optimize import optimize_gain
from .protocol import (
    SqueezeLevel,
    output_coefficients_tailored,
    squeeze_from_G,
    tailored_variances,
    variance_standard_gain,
)

BASE_SEED = 987654321


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str


def format_line(res: CriterionResult) -> str:
    status = "PASS" if res.passed else "FAIL"
    return f"[{status}] criterion {res.number:2d} {res.name}: {res.detail}"


def _seed(k: int) -> int:
    return BASE_SEED ^ (k * 0x9E3779B9)


def criterion_standard_baseline() -> CriterionResult:
    """Analytic standard curve (1+lam)/2 and its Monte Carlo reproduction."""
    v = variance_standard_gain(squeeze_from_G(1.0), 1.0)
    f0 = avg_fidelity_unit_gain(v, v)
    if f0 != 0.5:
        detail = f"analytic F(0)={f0!r} != 0.5"
        return CriterionResult(1, "standard baseline", False, detail)
    lams = (0.0, 0.25, 0.5, 0.75, 0.9)

    def pull(i: int) -> float:
        lam = lams[i]
        est = mc_average_fidelity(
            Standard(1.0), 5.0, SqueezeLevel(lam), 100_000, _seed(100 + i)
        )
        return abs(est.mean - (1.0 + lam) / 2.0) / est.std_error

    worst = max(map_points(pull, len(lams), available_cpus()))
    return CriterionResult(
        1,
        "standard baseline",
        worst <= 3.0,
        f"analytic F(0)=0.5 exact; worst MC deviation {worst:.2f} std errors (limit 3)",
    )


def criterion_line_limit() -> CriterionResult:
    """Line-tailored MC at lam=0, amplitude 5: 1/sqrt(2) within 0.005."""
    est = mc_average_fidelity(
        LineTailored(), 5.0, SqueezeLevel(0.0), 1_000_000, _seed(2)
    )
    err = abs(est.mean - 1.0 / math.sqrt(2.0))
    return CriterionResult(
        2,
        "displacement-only limit",
        err <= 0.005,
        f"MC mean {est.mean:.6f} vs 0.707107, |diff| {err:.2e} (limit 5e-3)",
    )


@functools.cache
def _fig3_rows() -> tuple[tuple[float, ...], ...]:
    """``run_fig3`` rows at the default config, shared by criteria 3, 4 and 5.

    Columns: lambda, f_full, f_disp_only, f_standard, eta_star, g2_star.
    """
    return run_fig3(ExperimentConfig()).rows


def criterion_full_tailoring_limit() -> CriterionResult:
    """No-squeezing optimum, fig3's lam=0 row: eta*=0, g2*=0, F=sqrt(2/3), within 1e-9."""
    _, f_full, _, _, eta_star, g2_star = _fig3_rows()[0]
    target = math.sqrt(2.0 / 3.0)
    errs = (abs(eta_star), abs(g2_star), abs(f_full - target))
    return CriterionResult(
        3,
        "full tailoring limit",
        max(errs) <= 1e-9,
        f"eta*={eta_star:.2e}, g2*={g2_star:.2e}, |F-sqrt(2/3)|={errs[2]:.2e} (limit 1e-9)",
    )


def criterion_fig3_asymptotes() -> CriterionResult:
    """eta*(lam) runs 0 -> pi/4 and g2*(lam) runs 0 -> 1/sqrt(2), both monotone."""
    *_, eta_stars, g2_stars = zip(*_fig3_rows())
    mono_eta = all(b >= a for a, b in zip(eta_stars, eta_stars[1:]))
    mono_g2 = all(b >= a for a, b in zip(g2_stars, g2_stars[1:]))
    start_ok = eta_stars[0] == 0.0 and g2_stars[0] == 0.0
    end_eta = abs(eta_stars[-1] - math.pi / 4)
    end_g2 = abs(g2_stars[-1] - 1.0 / math.sqrt(2.0))
    passed = mono_eta and mono_g2 and start_ok and end_eta <= 0.01 and end_g2 <= 0.01
    return CriterionResult(
        4,
        "tuned-parameter asymptotes",
        passed,
        f"monotone eta*:{mono_eta} g2*:{mono_g2}; start ({eta_stars[0]:.1e},{g2_stars[0]:.1e}); "
        f"end gaps eta*:{end_eta:.2e} g2*:{end_g2:.2e} (limit 0.01)",
    )


def criterion_curve_ordering() -> CriterionResult:
    """f_full >= f_disp_only >= f_standard everywhere, strict for lam <= 0.98."""
    rows = _fig3_rows()
    interior = [r for r in rows if r[0] <= 0.98]
    weak_ok = all(full >= disp >= std for _, full, disp, std, _, _ in rows)
    strict_ok = all(full > disp > std for _, full, disp, std, _, _ in interior)
    min_gap = min(full - disp for _, full, disp, _, _, _ in interior)
    return CriterionResult(
        5,
        "curve ordering",
        weak_ok and strict_ok,
        f"weak ordering everywhere: {weak_ok}; strict for lam<=0.98: {strict_ok} "
        f"(min full-vs-disp gap {min_gap:.2e})",
    )


def criterion_cross_picture() -> CriterionResult:
    """fig1's outcome-sampling line curve equals the closed-form curve within 0.01."""
    rows = run_fig1(ExperimentConfig(threads=available_cpus())).rows
    worst = max(abs(mc - math.sqrt((1.0 + lam) / 2.0)) for lam, _, mc, _ in rows)
    return CriterionResult(
        6,
        "cross-picture consistency",
        worst <= 0.01,
        f"max |MC - closed form| over grid {worst:.2e} (limit 0.01)",
    )


def criterion_wide_alphabet() -> CriterionResult:
    """s=100 alphabet: optimum at g=1, F=1/2, and the whole curve is standard."""
    rows = run_gaussian_alphabet(ExperimentConfig(s=100.0)).rows
    _, f0, g0 = rows[0]  # lam = 0
    f_err = abs(f0 - 0.5)
    g_err = abs(g0 - 1.0)
    worst_curve = max(abs(f - (1.0 + lam) / 2.0) for lam, f, _ in rows)
    passed = f_err <= 1e-3 and g_err <= 1e-3 and worst_curve <= 0.01
    return CriterionResult(
        7,
        "wide alphabet",
        passed,
        f"|F(0)-0.5|={f_err:.2e}, |g*-1|={g_err:.2e} (limits 1e-3); "
        f"max curve gap vs (1+lam)/2 {worst_curve:.2e} (limit 0.01)",
    )


def criterion_narrow_alphabet() -> CriterionResult:
    """s=0.2 alphabet at lam=0 brackets the Gaussian classical limit."""
    s = 0.2
    res = optimize_gain(SqueezeLevel(0.0), s)
    in_bracket = 0.928 <= res.value <= 0.936
    bfk = bfk_classical_limit(s)
    bfk_exact = abs(bfk - 27.0 / 29.0) <= 1e-12
    g_identity = abs(res.argmax[0] - 2.0 * s * s / (1.0 + 2.0 * s * s)) <= 1e-6
    passed = in_bracket and bfk_exact and g_identity
    return CriterionResult(
        8,
        "narrow alphabet classical limit",
        passed,
        f"F(0)={res.value:.6f} in [0.928, 0.936]: {in_bracket}; "
        f"classical limit {bfk:.7f} exact: {bfk_exact}; "
        f"g* identity within 1e-6: {g_identity}",
    )


def circle_line_estimates() -> list[tuple[float, McEstimate, McEstimate]]:
    """Criterion 9's (lam, line, circle) Monte Carlo estimates over the default grid.

    Grid point ``i`` is ``circle_line_point`` at amplitude 5 with 100,000
    samples per run, the line from ``_seed(900 + i)`` and the circle from
    ``_seed(975 + i)`` at the angle ``default_rng(_seed(950 + i))`` draws on [0, 2 pi).
    """
    grid = default_lambda_grid()

    def point(i: int) -> tuple[float, McEstimate, McEstimate]:
        theta = np.random.default_rng(_seed(950 + i)).uniform(0.0, 2.0 * math.pi)
        line, circle = circle_line_point(SqueezeLevel(grid[i]), 5.0, 100_000, _seed(900 + i),
                                         theta, _seed(975 + i))
        return grid[i], line, circle

    return map_points(point, len(grid), available_cpus())


def criterion_circle_line_equivalence() -> CriterionResult:
    """Circle and line MC curves agree within 3 combined standard errors."""
    gaps = [
        (lam, abs(line.mean - circ.mean), circle_line_allowance(line.std_error, circ.std_error))
        for lam, line, circ in circle_line_estimates()
    ]
    failures = sum(diff > allowance for _, diff, allowance in gaps)
    lam, diff, allowance = max(gaps, key=lambda t: t[1] - t[2])  # worst failure or least slack
    if failures:
        detail = (
            f"{failures}/{len(gaps)} grid points exceed 3(se_line+se_circle); "
            f"worst at lam={lam:.3f}: |diff|={diff:.2e} vs allowance {allowance:.2e} "
            f"(systematic finite-amplitude offset, see docs)"
        )
    else:
        detail = f"all grid points within allowance (worst slack {-(diff - allowance):.2e})"
    return CriterionResult(9, "circle/line equivalence", not failures, detail)


def _property_oracle() -> tuple[bool, str]:
    rng = np.random.default_rng(_seed(10))
    draws = rng.uniform(0.0, (0.95, math.pi / 4, 2.0, 2.0), size=(1000, 4))
    worst = 0.0
    for lam, eta, g2, g in map(np.ndarray.tolist, draws):
        sq = SqueezeLevel(lam)
        plus, minus = output_coefficients_tailored(sq, eta, g2)
        v_plus, v_minus = tailored_variances(sq, eta, g2)
        # the common-gain scheme is the 50:50 phase quadrature at g2 = g/sqrt(2)
        _, phase = output_coefficients_tailored(sq, math.pi / 4, g / math.sqrt(2.0))
        v = variance_standard_gain(sq, g)
        for v_closed, c in ((v_plus, plus), (v_minus, minus), (v, phase)):
            worst = max(worst, abs(v_closed - (c[0] ** 2 + c[1] ** 2 + c[2] ** 2)))
    return worst <= 1e-12, f"oracle worst |closed-form - sum-of-squares| {worst:.2e}"


# Criterion 10 scores its 201x201 displacement grid this many rows at a
# time: three strips, whose temporaries fit in the memory the Monte Carlo
# phase has already paged in, where a whole-grid temporary raised check's
# peak.  Fewer strips mean fewer numpy calls per case.
_GRID_STRIP_ROWS = 67


def _displacement_grid_argmax(
    alpha: complex, beta: complex, eps: complex, lam: float
) -> tuple[tuple[int, int], int]:
    """First maximum of F over the displacements eps + dx + i dy, and its ties.

    dx (rows) and dy (columns) each take the 201 values of
    ``linspace(-1, 1, 201)``.  Returns the (row, column) of the first
    maximum in C order and the number of grid points whose F equals it.
    The grid is scored in strips of rows; each F comes from the same
    elementwise operations as in a whole-grid evaluation, so the values,
    the argmax and the count are those of the whole grid.
    """
    offsets = np.linspace(-1.0, 1.0, 201)
    uy = alpha.imag - (eps.imag + offsets[None, :])
    w = alpha - beta
    best, top, ties = 0, -math.inf, 0
    for start in range(0, offsets.size, _GRID_STRIP_ROWS):
        ux = alpha.real - (eps.real + offsets[start : start + _GRID_STRIP_ROWS, None])
        f = np.exp(transfer_exponent(ux, uy, w.real, w.imag, lam))
        k = int(np.argmax(f))
        if f.flat[k] > top:
            best, top, ties = start * offsets.size + k, f.flat[k], 0
        if f.flat[k] == top:
            ties += int(np.count_nonzero(f == top))
    return divmod(best, offsets.size), ties


def _seeded_cases(k: int, count: int) -> Iterator[tuple[SqueezeLevel, complex, complex, complex]]:
    """``count`` (squeezing, alpha, beta, optimal displacement) cases drawn from ``_seed(k)``."""
    rng = np.random.default_rng(_seed(k))
    draws = rng.uniform((0.0, -5, -5, -5, -5), (0.999, 5, 5, 5, 5), size=(count, 5))
    for lam, ax, ay, bx, by in map(np.ndarray.tolist, draws):
        sq, alpha, beta = SqueezeLevel(lam), complex(ax, ay), complex(bx, by)
        yield sq, alpha, beta, optimal_displacement(alpha, beta, sq)


def _property_displacement_argmax() -> tuple[bool, str]:
    for sq, alpha, beta, eps in _seeded_cases(11, 100):
        best, ties = _displacement_grid_argmax(alpha, beta, eps, sq.lam)
        if best != (100, 100):
            return False, f"grid beat the analytic optimum at lam={sq.lam:.3f}"
        # F at the centre is the maximum, so its ties are the F >= F(centre)
        if ties != 1:
            return False, f"ties away from the optimum at lam={sq.lam:.3f}"
    return True, "analytic displacement dominates all 201x201 grid perturbations (100 cases)"


def _property_perfect_knowledge() -> tuple[bool, str]:
    worst = 0.0
    for sq, alpha, beta, eps in _seeded_cases(12, 1000):
        worst = max(worst, abs(one_shot_fidelity(alpha, beta, eps, sq) - 1.0))
    return worst <= 1e-12, f"perfect-knowledge worst |F - 1| {worst:.2e}"


def _property_closed_form_vs_quadrature() -> tuple[bool, str]:
    worst = 0.0
    for lam in (0.0, 0.3, 0.6, 0.9, 0.99):
        sq = SqueezeLevel(lam)
        for g in (0.0, 0.5, 1.0, 1.5, 2.0):
            for s in (0.1, 0.2, 0.5, 1.0, 2.0):
                closed = gaussian_weighted_fidelity(sq, g, s)
                quad = gaussian_weighted_fidelity_quadrature(sq, g, s, s)
                worst = max(worst, abs(closed - quad))
    return worst <= 1e-6, f"closed form vs quadrature worst gap {worst:.2e} on 125-point grid"


def criterion_property_suites() -> CriterionResult:
    """Oracle equality, displacement argmax, perfect knowledge, quadrature."""
    checks = [
        _property_oracle(),
        _property_displacement_argmax(),
        _property_perfect_knowledge(),
        _property_closed_form_vs_quadrature(),
    ]
    passed = all(ok for ok, _ in checks)
    detail = "; ".join(msg for _, msg in checks)
    return CriterionResult(10, "property suites", passed, detail)


ALL_CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    criterion_standard_baseline,
    criterion_line_limit,
    criterion_full_tailoring_limit,
    criterion_fig3_asymptotes,
    criterion_curve_ordering,
    criterion_cross_picture,
    criterion_wide_alphabet,
    criterion_narrow_alphabet,
    criterion_circle_line_equivalence,
    criterion_property_suites,
)


def run_all() -> list[CriterionResult]:
    """Run every acceptance criterion in order.

    Criteria 3, 4 and 5 share one fig3 run per call; criterion 6 reads a fig1 run.
    """
    _fig3_rows.cache_clear()
    return [criterion() for criterion in ALL_CRITERIA]
