"""Acceptance gate: every headline criterion at its pinned tolerance.

Each test prints its one-line pass/fail verdict (visible with ``pytest -s``
or via the ``cvteleport check`` subcommand, which runs the same checks).

Criterion 9 is the exception.  ``cvteleport check`` reports it red by its
definition: it asks the line and circle Monte Carlo curves at amplitude 5
to agree within 3 (se_line + se_circle), but the two tailored strategies
differ by a real finite-amplitude offset (up to 3.70e-3) that the shrinking
allowance resolves.  Its test here checks the same estimates against that
offset, computed exactly by a deterministic polar quadrature, with the same
allowance at every grid point (README, "Known acceptance result").
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from cvteleport import acceptance, experiments, fidelity
from cvteleport.experiments import circle_line_allowance, default_lambda_grid
from cvteleport.measurement import MIN_SAMPLES, McEstimate
from cvteleport.optimize import OptimizationResult
from cvteleport.protocol import SqueezeLevel
from oracles import exact_line_circle


def _assert_criterion(result):
    print(acceptance.format_line(result))
    assert result.passed, acceptance.format_line(result)


def test_criterion_01_standard_baseline():
    _assert_criterion(acceptance.criterion_standard_baseline())


def test_criterion_02_displacement_only_limit():
    _assert_criterion(acceptance.criterion_line_limit())


def test_criterion_03_full_tailoring_limit():
    _assert_criterion(acceptance.criterion_full_tailoring_limit())


def test_criterion_04_tuned_parameter_asymptotes():
    _assert_criterion(acceptance.criterion_fig3_asymptotes())


def test_criterion_05_curve_ordering():
    _assert_criterion(acceptance.criterion_curve_ordering())


def test_criterion_06_cross_picture_consistency():
    _assert_criterion(acceptance.criterion_cross_picture())


def test_criterion_07_wide_alphabet():
    _assert_criterion(acceptance.criterion_wide_alphabet())


def test_criterion_08_narrow_alphabet_classical_limit():
    _assert_criterion(acceptance.criterion_narrow_alphabet())


@pytest.fixture(scope="module")
def circle_line():
    """Criterion 9's estimates with the exact line - circle offset at each point."""
    estimates = acceptance.circle_line_estimates()
    offsets = []
    for lam, _, _ in estimates:
        line, circle = exact_line_circle(5.0, lam)
        offsets.append(line - circle)
    return estimates, offsets


def _points_outside(estimates, offsets):
    """Grid points where the MC line - circle difference misses ``offsets``."""
    return [
        lam
        for (lam, line, circle), offset in zip(estimates, offsets)
        if abs((line.mean - circle.mean) - offset)
        > circle_line_allowance(line.std_error, circle.std_error)
    ]


# scipy.integrate.quad options of the 1-D cross-checks below
_QUAD = dict(epsabs=1e-15, epsrel=1e-13, limit=200)


def _rice_line(quad, amp, lam):
    """Line average over the Rice law of r = |beta|, with I0 scaled by e^{-z}."""
    var = 1.0 / (2.0 * (1.0 - lam * lam))
    sigma = math.sqrt(var)
    k = (1.0 - lam) ** 2

    def integrand(r):
        z = r * amp / var
        i0e = float(np.i0(z)) * math.exp(-z)
        rice = r / var * math.exp(-((r - amp) ** 2) / (2.0 * var)) * i0e
        return math.exp(-k * (r - amp) ** 2) * rice

    lo, hi = max(0.0, amp - 12.0 * sigma), amp + 12.0 * sigma
    return quad(integrand, lo, hi, points=[amp], **_QUAD)[0]


def _angle_law_circle(quad, amp, lam):
    """Circle average over the offset-normal law of phi = arg beta, target at angle 0.

    With s = sigma, t = amp cos(phi) / s and Phi the normal CDF, the density is
    [e^{-amp^2 / 2 s^2} + t sqrt(2 pi) Phi(t) e^{-amp^2 sin^2(phi) / 2 s^2}] / (2 pi).
    """
    var = 1.0 / (2.0 * (1.0 - lam * lam))
    sigma = math.sqrt(var)
    k = (1.0 - lam) ** 2

    def integrand(phi):
        t = amp * math.cos(phi) / sigma
        cdf = 0.5 * math.erfc(-t / math.sqrt(2.0))
        off_axis = math.exp(-((amp * math.sin(phi)) ** 2) / (2.0 * var))
        law = math.exp(-amp * amp / (2.0 * var)) + t * math.sqrt(2.0 * math.pi) * cdf * off_axis
        return math.exp(-4.0 * k * amp * amp * math.sin(0.5 * phi) ** 2) * law / (2.0 * math.pi)

    return quad(integrand, -math.pi, math.pi, points=[0.0], **_QUAD)[0]


class TestExactLineCircle:
    # convergence in the node counts: test_reference's
    # test_moments_converged_and_positive, by the same rule at the same nodes
    def test_agrees_with_one_dimensional_laws(self):
        # independent 1-D references: the line fidelity depends on beta only
        # through |beta|, and the circle fidelity only through arg beta
        quad = pytest.importorskip("scipy.integrate").quad
        for lam in default_lambda_grid():
            line, circle = exact_line_circle(5.0, lam)
            assert abs(line - _rice_line(quad, 5.0, lam)) <= 1e-12
            assert abs(circle - _angle_law_circle(quad, 5.0, lam)) <= 1e-12


def test_criterion_09_circle_line_equivalence(circle_line):
    # Criterion 9 itself stays red by definition: it compares the line and
    # circle Monte Carlo means against zero, but at amplitude 5 the exact
    # line - circle offset is +2.25e-3 at lam = 0, +3.70e-3 at lam = 0.94 and
    # -3.07e-4 at the 0.999 cap, which its 3 (se_line + se_circle) allowance
    # resolves at 21 of 51 points (the 3.79e-3 it reports near lam = 0.94 is
    # the Monte Carlo difference at its seeds).  The curves are one
    # relationship when the same estimates, under the same allowance, match
    # the exact offset at every grid point, and that offset stays within
    # plot resolution (4e-3) across the grid.
    estimates, offsets = circle_line
    assert _points_outside(estimates, offsets) == []
    assert max(abs(offset) for offset in offsets) <= 4e-3


def test_criterion_09_red_from_the_offset_alone(circle_line):
    # without the exact offset the comparison above reproduces criterion 9's
    # verdict: the same number of failing points, the same worst point
    estimates, offsets = circle_line
    outside = _points_outside(estimates, [0.0] * len(offsets))
    result = acceptance.criterion_circle_line_equivalence()
    assert not result.passed
    assert outside
    assert result.detail.startswith(f"{len(outside)}/{len(estimates)} grid points exceed")
    worst = max(
        estimates,
        key=lambda p: abs(p[1].mean - p[2].mean)
        - circle_line_allowance(p[1].std_error, p[2].std_error),
    )
    assert f"worst at lam={worst[0]:.3f}:" in result.detail


def _sci(x, spec):
    """``x`` as the README prints it: 2.25e-3, a leading minus as U+2212."""
    mantissa, exponent = format(x, spec).split("e")
    return f"{mantissa.replace('-', chr(0x2212))}e{int(exponent)}"


def test_readme_quotes_the_computed_numbers(circle_line):
    # README "Known acceptance result" quotes these numbers; recomputed here,
    # they cannot drift from the code
    estimates, offsets = circle_line
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = " ".join(readme[readme.index("## Known acceptance result"):].split())

    def offset_at(lam):
        return min(zip(estimates, offsets), key=lambda p: abs(p[0][0] - lam))[1]

    far = [line - circle for line, circle in (exact_line_circle(a, 0.0) for a in (10.0, 20.0))]
    outside = _points_outside(estimates, [0.0] * len(offsets))
    residual = max(
        abs((line.mean - circle.mean) - offset)
        / circle_line_allowance(line.std_error, circle.std_error)
        for (_, line, circle), offset in zip(estimates, offsets)
    )
    _, cap_line, cap_circle = estimates[-1]
    n = 100_000  # criterion 9's samples per estimate
    cap_sd = cap_line.std_error * math.sqrt(n)
    # standard errors grow as n^-1/2 down to the smallest permitted sample size
    cap_allowance = circle_line_allowance(cap_line.std_error, cap_circle.std_error) * math.sqrt(
        n / MIN_SAMPLES
    )
    quotes = [
        f"`{_sci(offset_at(0.0), '+.2e')}` at `lam = 0`",
        f"`{_sci(offset_at(0.94), '+.2e')}` at `lam = 0.94`",
        f"`{_sci(offset_at(0.999), '+.2e')}` at the `0.999` cap point",
        f"falls to `{_sci(far[0], '.1e')}` and `{_sci(far[1], '.1e')}` at amplitudes 10 and 20",
        f"at {len(outside)} of the {len(estimates)} grid points",
        f"standard deviation is `{_sci(cap_sd, '.0e')}`",
        f"allowance of at most `{_sci(cap_allowance, '.1e')}`",
        f"the worst residual is {residual:.2f} of it",
    ]
    assert [quote for quote in quotes if quote not in text] == []


def test_criterion_10_property_suites():
    _assert_criterion(acceptance.criterion_property_suites())


def test_criterion_10_grid_beats_a_displacement_one_step_off(monkeypatch):
    # the true optimum then sits one row (dx = -0.01) before the centre
    monkeypatch.setattr(
        acceptance,
        "optimal_displacement",
        lambda alpha, beta, sq: fidelity.optimal_displacement(alpha, beta, sq) + 0.01,
    )
    ok, detail = acceptance._property_displacement_argmax()
    assert not ok
    assert detail.startswith("grid beat the analytic optimum at lam=")


def test_criterion_10_ties_away_from_the_optimum(monkeypatch):
    # log F flat at its maximum over the rows after the centre's: the
    # centre stays the first maximum in C order and 100 points tie with it.
    # (A constant log F would put the first maximum at row 0, column 0.)
    def flat_after_centre(ux, uy, wx, wy, lam):
        dx, dy = ux - lam * wx, uy - lam * wy  # -(row, column offset)
        return -np.maximum(dx, 0.0) ** 2 - dy**2

    monkeypatch.setattr(acceptance, "transfer_exponent", flat_after_centre)
    ok, detail = acceptance._property_displacement_argmax()
    assert not ok
    assert detail.startswith("ties away from the optimum at lam=")


def test_criterion_10_two_ties_fail(monkeypatch):
    # log F reaches its maximum at the centre and at the row after it, and
    # nowhere else on the grid: one tie beside the optimum fails the check
    def flat_over_two_rows(ux, uy, wx, wy, lam):
        dx, dy = ux - lam * wx, uy - lam * wy  # -(row, column offset)
        return -dx * (dx + 0.01) - dy**2

    monkeypatch.setattr(acceptance, "transfer_exponent", flat_over_two_rows)
    alpha, beta = complex(1.0, 2.0), complex(-0.5, 0.25)
    eps = fidelity.optimal_displacement(alpha, beta, SqueezeLevel(0.5))
    assert acceptance._displacement_grid_argmax(alpha, beta, eps, 0.5) == ((100, 100), 2)
    ok, detail = acceptance._property_displacement_argmax()
    assert not ok
    assert detail.startswith("ties away from the optimum at lam=")


def _edge(gap, bound, x, away):
    """Floats ``(at, past)``, ``past`` one step from ``at`` toward ``away``,
    with gap(at) <= bound < gap(past); the search starts at ``x``.

    ``at`` is the input that puts a criterion's gap on its bound, or as
    close below it as the floats allow.
    """
    while gap(x) > bound:
        x = math.nextafter(x, -away)
    while gap(math.nextafter(x, away)) <= bound:
        x = math.nextafter(x, away)
    past = math.nextafter(x, away)
    assert gap(x) <= bound < gap(past)
    return x, past


# Each criterion below is fed the input at its bound, which must pass, and
# the input one float step past it, which must fail, so a bound moved either
# way fails one of the two.
EDGE = pytest.mark.parametrize("past", [False, True], ids=["at-bound", "one-step-past"])


@EDGE
def test_criterion_01_at_its_bound(monkeypatch, past):
    # one grid point (lam = 0) pulls 3 standard errors (of 1/8) from
    # (1+lam)/2; the others sit on it
    se = 0.125
    mean = _edge(lambda m: abs(m - 0.5) / se, 3.0, 0.125, -math.inf)[past]

    def estimate(strategy, alpha, sq, n, seed):
        return McEstimate(mean if sq.lam == 0.0 else (1.0 + sq.lam) / 2.0, se)

    monkeypatch.setattr(acceptance, "mc_average_fidelity", estimate)
    assert acceptance.criterion_standard_baseline().passed is not past


@EDGE
def test_criterion_02_at_its_bound(monkeypatch, past):
    target = 1.0 / math.sqrt(2.0)
    mean = _edge(lambda m: abs(m - target), 0.005, target + 0.005, math.inf)[past]
    monkeypatch.setattr(acceptance, "mc_average_fidelity", lambda *args: McEstimate(mean, 1e-3))
    assert acceptance.criterion_line_limit().passed is not past


@EDGE
@pytest.mark.parametrize("column", ["f_full", "eta_star", "g2_star"])
def test_criterion_03_at_its_bound(monkeypatch, column, past):
    # fig3's lam = 0 row with one of the three checked cells at its bound
    target = math.sqrt(2.0 / 3.0)
    row = {"f_full": target, "eta_star": 0.0, "g2_star": 0.0}
    if column == "f_full":
        row[column] = _edge(lambda f: abs(f - target), 1e-9, target - 1e-9, -math.inf)[past]
    else:
        row[column] = _edge(abs, 1e-9, 1e-9, math.inf)[past]
    rows = ((0.0, row["f_full"], 0.5, 0.5, row["eta_star"], row["g2_star"]),)
    monkeypatch.setattr(acceptance, "_fig3_rows", lambda: rows)
    assert acceptance.criterion_full_tailoring_limit().passed is not past


@EDGE
@pytest.mark.parametrize("column", ["eta_star", "g2_star"])
def test_criterion_04_at_its_bound(monkeypatch, column, past):
    # a two-row fig3 curve from 0 to its last point, one end gap at its
    # bound and the other end on its asymptote
    ends = {"eta_star": math.pi / 4, "g2_star": 1.0 / math.sqrt(2.0)}
    target = ends[column]
    ends[column] = _edge(lambda x: abs(x - target), 0.01, target - 0.01, -math.inf)[past]
    rows = ((0.0, 0.8, 0.7, 0.5, 0.0, 0.0),
            (0.999, 0.99, 0.98, 0.97, ends["eta_star"], ends["g2_star"]))
    monkeypatch.setattr(acceptance, "_fig3_rows", lambda: rows)
    assert acceptance.criterion_fig3_asymptotes().passed is not past


@EDGE
@pytest.mark.parametrize("lam", [0.98, 0.999], ids=["strict", "weak"])
@pytest.mark.parametrize("column", [1, 2], ids=["full-over-disp", "disp-over-std"])
def test_criterion_05_at_its_bound(monkeypatch, column, lam, past):
    # a column against the next in the row at lam: up to 0.98 it must exceed
    # it, so one float step above passes and equality fails; at the 0.999
    # cap it may equal it, and one float step below fails
    below = 0.7 if column == 2 else 0.8
    at = math.nextafter(below, math.inf) if lam == 0.98 else below
    rows = [[x, 0.9, 0.8, 0.7, 0.0, 0.0] for x in (0.0, 0.98, 0.999)]
    next(row for row in rows if row[0] == lam)[column] = (at, math.nextafter(at, -math.inf))[past]
    monkeypatch.setattr(acceptance, "_fig3_rows", lambda: tuple(map(tuple, rows)))
    assert acceptance.criterion_curve_ordering().passed is not past


@EDGE
def test_criterion_05_strict_up_to_0_98(monkeypatch, past):
    # equal f_full and f_disp_only pass one float step above 0.98 and fail at it
    lam = (math.nextafter(0.98, math.inf), 0.98)[past]
    rows = ((0.0, 0.9, 0.8, 0.7, 0.0, 0.0), (lam, 0.8, 0.8, 0.7, 0.0, 0.0),
            (0.999, 0.9, 0.8, 0.7, 0.0, 0.0))
    monkeypatch.setattr(acceptance, "_fig3_rows", lambda: rows)
    assert acceptance.criterion_curve_ordering().passed is not past


@EDGE
def test_criterion_06_at_its_bound(monkeypatch, past):
    # fig1's Monte Carlo column, one grid point off the closed form
    lam = 0.5
    closed = math.sqrt((1.0 + lam) / 2.0)
    mc = _edge(lambda m: abs(m - closed), 0.01, closed - 0.01, -math.inf)[past]
    rows = ((0.0, 0.5, math.sqrt(0.5), 1e-3), (lam, 0.75, mc, 1e-3))
    result = experiments.ExperimentResult(("lambda", "f_standard", "mc", "se"), rows, {})
    monkeypatch.setattr(acceptance, "run_fig1", lambda config: result)
    assert acceptance.criterion_cross_picture().passed is not past


@EDGE
@pytest.mark.parametrize("cell", ["f0", "g0", "curve"])
def test_criterion_07_at_its_bound(monkeypatch, cell, past):
    # the s = 100 gaussian rows: F and g* at lam = 0, and the curve at
    # lam = 0.5, with one of the three at its bound
    f0, g0, f_half = 0.5, 1.0, 0.75
    if cell == "f0":
        f0 = _edge(lambda f: abs(f - 0.5), 1e-3, 0.5 + 1e-3, math.inf)[past]
    elif cell == "g0":
        g0 = _edge(lambda g: abs(g - 1.0), 1e-3, 1.0 - 1e-3, -math.inf)[past]
    else:
        f_half = _edge(lambda f: abs(f - 0.75), 0.01, 0.75 - 0.01, -math.inf)[past]
    rows = ((0.0, f0, g0), (0.5, f_half, 1.0))
    result = experiments.ExperimentResult(("lambda", "f", "g"), rows, {})
    monkeypatch.setattr(acceptance, "run_gaussian_alphabet", lambda config: result)
    assert acceptance.criterion_wide_alphabet().passed is not past


@EDGE
@pytest.mark.parametrize("cell", ["bracket-low", "bracket-high", "g-identity", "bfk-low",
                                  "bfk-high"])
def test_criterion_08_at_its_bound(monkeypatch, cell, past):
    # the s = 0.2 optimum and classical limit, one checked cell at its bound
    g_star = 2.0 * 0.2 * 0.2 / (1.0 + 2.0 * 0.2 * 0.2)  # 2s^2 / (1 + 2s^2)
    value, g, bfk = 0.932, g_star, 27.0 / 29.0
    if cell == "bracket-low":
        value = _edge(lambda f: 0.928 - f, 0.0, 0.928, -math.inf)[past]
    elif cell == "bracket-high":
        value = _edge(lambda f: f - 0.936, 0.0, 0.936, math.inf)[past]
    elif cell == "g-identity":
        g = _edge(lambda x: abs(x - g_star), 1e-6, g_star + 1e-6, math.inf)[past]
    else:
        away = -math.inf if cell == "bfk-low" else math.inf
        bfk = _edge(lambda x: abs(x - 27.0 / 29.0), 1e-12, 27.0 / 29.0, away)[past]
    monkeypatch.setattr(acceptance, "optimize_gain",
                        lambda sq, s: OptimizationResult((g,), value, 0))
    monkeypatch.setattr(acceptance, "bfk_classical_limit", lambda s: bfk)
    assert acceptance.criterion_narrow_alphabet().passed is not past


@EDGE
def test_criterion_09_at_its_bound(monkeypatch, past):
    # criterion 9 stays as defined, and red at its own seeds.  Fed a grid
    # point whose |line - circle| is exactly its allowance 3 (se_line +
    # se_circle), written out here, it passes; one float step further it fails
    se_line, se_circle = 1.0 / 64.0, 1.0 / 32.0
    allowance = 3.0 * (se_line + se_circle)
    line = _edge(lambda m: abs(m - 0.5), allowance, 0.5 + allowance, math.inf)[past]
    assert past or abs(line - 0.5) == allowance
    estimates = [(0.0, McEstimate(0.5, se_line), McEstimate(0.5, se_circle)),
                 (0.5, McEstimate(line, se_line), McEstimate(0.5, se_circle))]
    monkeypatch.setattr(acceptance, "circle_line_estimates", lambda: estimates)
    assert acceptance.criterion_circle_line_equivalence().passed is not past


@EDGE
def test_criterion_10_oracle_at_its_bound(monkeypatch, past):
    # every closed-form variance against a coefficient sum of squares of 1
    v = _edge(lambda x: abs(x - 1.0), 1e-12, 1.0 + 1e-12, math.inf)[past]
    monkeypatch.setattr(acceptance, "output_coefficients_tailored",
                        lambda sq, eta, g2: ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)))
    monkeypatch.setattr(acceptance, "tailored_variances", lambda sq, eta, g2: (v, v))
    monkeypatch.setattr(acceptance, "variance_standard_gain", lambda sq, g: v)
    assert acceptance._property_oracle()[0] is not past


@EDGE
def test_criterion_10_perfect_knowledge_at_its_bound(monkeypatch, past):
    f = _edge(lambda x: abs(x - 1.0), 1e-12, 1.0 - 1e-12, -math.inf)[past]
    monkeypatch.setattr(acceptance, "one_shot_fidelity", lambda alpha, beta, eps, sq: f)
    assert acceptance._property_perfect_knowledge()[0] is not past


@EDGE
def test_criterion_10_quadrature_at_its_bound(monkeypatch, past):
    quad = _edge(lambda q: abs(0.5 - q), 1e-6, 0.5 - 1e-6, -math.inf)[past]
    monkeypatch.setattr(acceptance, "gaussian_weighted_fidelity", lambda sq, g, s: 0.5)
    monkeypatch.setattr(acceptance, "gaussian_weighted_fidelity_quadrature",
                        lambda sq, g, s_x, s_y: quad)
    assert acceptance._property_closed_form_vs_quadrature()[0] is not past


def test_criterion_10_strips_match_the_whole_grid():
    # the seeded cases of the criterion, drawn one scalar at a time: the
    # suite's one array draw must yield the same cases in the same order,
    # and each is scored on the whole 201x201 grid
    rng = np.random.default_rng(acceptance._seed(11))
    offsets = np.linspace(-1.0, 1.0, 201)
    cases = acceptance._seeded_cases(11, 100)
    for _ in range(100):
        lam = rng.uniform(0.0, 0.999)
        alpha = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        beta = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        eps = fidelity.optimal_displacement(alpha, beta, SqueezeLevel(lam))
        assert next(cases) == (SqueezeLevel(lam), alpha, beta, eps)
        ux = alpha.real - (eps.real + offsets[:, None])
        uy = alpha.imag - (eps.imag + offsets[None, :])
        w = alpha - beta
        f = np.exp(fidelity.transfer_exponent(ux, uy, w.real, w.imag, lam))
        best = np.unravel_index(int(np.argmax(f)), f.shape)
        ties = int(np.count_nonzero(f >= f[best]))
        assert acceptance._displacement_grid_argmax(alpha, beta, eps, lam) == (best, ties)
    assert next(cases, None) is None


def test_criterion_10_oracle_and_perfect_knowledge_draw_in_the_scalar_order(monkeypatch):
    # seeds 10 and 12, drawn one scalar at a time: the oracle must pass each
    # (lam, eta, g2, g) and the perfect-knowledge suite each (lam, alpha,
    # beta) to the functions it checks, in this order
    rng = np.random.default_rng(acceptance._seed(10))
    expected = [(rng.uniform(0.0, 0.95), rng.uniform(0.0, math.pi / 4), rng.uniform(0.0, 2.0),
                 rng.uniform(0.0, 2.0)) for _ in range(1000)]
    coefficients, gains = [], []

    def recorded(calls, real):
        def record(sq, *args):
            calls.append((sq.lam, *args))
            return real(sq, *args)

        return record

    monkeypatch.setattr(acceptance, "output_coefficients_tailored",
                        recorded(coefficients, acceptance.output_coefficients_tailored))
    monkeypatch.setattr(acceptance, "variance_standard_gain",
                        recorded(gains, acceptance.variance_standard_gain))
    assert acceptance._property_oracle()[0]
    # per case: the tailored coefficients at (eta, g2), then the phase
    # quadrature's at (pi/4, g/sqrt(2)), then the common-gain variance at g
    assert len(coefficients) == 2 * len(gains)
    assert [(*c, g) for c, (_, g) in zip(coefficients[::2], gains)] == expected

    rng = np.random.default_rng(acceptance._seed(12))
    expected = [(rng.uniform(0.0, 0.999), complex(rng.uniform(-5, 5), rng.uniform(-5, 5)),
                 complex(rng.uniform(-5, 5), rng.uniform(-5, 5))) for _ in range(1000)]
    cases = []

    def perfect(alpha, beta, eps, sq):
        cases.append((sq.lam, alpha, beta))
        return fidelity.one_shot_fidelity(alpha, beta, eps, sq)

    monkeypatch.setattr(acceptance, "one_shot_fidelity", perfect)
    assert acceptance._property_perfect_knowledge()[0]
    assert cases == expected


def test_run_all_covers_every_criterion(monkeypatch):
    # criteria 3, 4 and 5 share one fig3 run: one full-tailoring optimisation
    # per grid point and none of their own; criterion 7 reads the gaussian
    # runner's rows (its lam = 0 row included), plus criterion 8's single point
    calls = {"optimize_eta_g2": 0, "optimize_gain": 0}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    # every module that imports an optimiser is a call site to count
    for module in (acceptance, experiments):
        for name in calls:
            if hasattr(module, name):
                count(module, name)
    results = acceptance.run_all()
    assert [r.number for r in results] == list(range(1, 11))
    assert len({r.name for r in results}) == 10
    assert calls == {"optimize_eta_g2": 51, "optimize_gain": 52}


def test_criterion_06_reads_the_fig1_rows():
    # criterion 6 certifies the Monte Carlo column that `cvteleport fig1` writes
    rows = experiments.run_fig1(experiments.ExperimentConfig()).rows
    worst = max(abs(mc - math.sqrt((1.0 + lam) / 2.0)) for lam, _, mc, _ in rows)
    result = acceptance.criterion_cross_picture()
    assert f"over grid {worst:.2e} (limit 0.01)" in result.detail


def test_run_all_independent_of_cpu_count(monkeypatch):
    # the Monte Carlo points of criteria 1, 6 and 9 run on one thread per
    # available CPU; the verdicts and their details must not depend on it
    runs = []
    for cpus in (1, 3):
        for module in (acceptance, experiments):
            monkeypatch.setattr(module, "available_cpus", lambda: cpus)
        runs.append(acceptance.run_all())
    assert runs[0] == runs[1]


def test_available_cpus_is_the_affinity_set():
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no sched_getaffinity on this platform")
    assert experiments.available_cpus() == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("count, cpus", [(6, 6), (None, 1)])
def test_available_cpus_falls_back_to_the_cpu_count(monkeypatch, count, cpus):
    # macOS and Windows have no sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert experiments.available_cpus() == cpus
