"""Scalar search and the protocol-tuning optimizers."""

import math
import operator
import signal

import numpy as np
import pytest

from cvteleport import experiments, optimize
from cvteleport.alphabet import gaussian_weighted_fidelity
from cvteleport.experiments import ExperimentConfig, default_lambda_grid, run_fig3
from cvteleport.fidelity import avg_fidelity_unit_gain
from cvteleport.optimize import (
    GRID_SLACK,
    NonFiniteObjectiveError,
    OptimizationResult,
    maximize_scalar,
    optimize_eta_g2,
    optimize_gain,
)
from cvteleport.protocol import (
    g2_optimal,
    squeeze_from_G,
    squeeze_from_lambda,
    variances_tailored,
)


GRID = 1024


def _grid(lo, hi):
    """The grid stage's abscissae, as the same Python floats."""
    return [lo + (hi - lo) * i / (GRID - 1) for i in range(GRID)]


def scalar_scan_maximize(f, lo, hi, tol):
    """A scalar 1024-point scan, then golden-section: the oracle of the grid stage."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    evaluations = 0

    def eval_f(x):
        nonlocal evaluations
        evaluations += 1
        v = f(x)
        if not math.isfinite(v):
            raise NonFiniteObjectiveError(x, v)
        return v

    xs = _grid(lo, hi)
    vals = [eval_f(x) for x in xs]
    i = max(range(GRID), key=vals.__getitem__)
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, GRID - 1)]
    x1, x2 = b - golden * (b - a), a + golden * (b - a)
    f1, f2 = eval_f(x1), eval_f(x2)
    width = math.inf
    while tol < b - a < width:
        width = b - a
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + golden * (b - a)
            f2 = eval_f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - golden * (b - a)
            f1 = eval_f(x1)
    candidates = [(x, eval_f(x)) for x in (lo, hi, 0.5 * (lo + hi))]
    best_x, best_f = max(candidates + [(x1, f1), (x2, f2)], key=lambda p: p[1])
    return OptimizationResult((best_x,), best_f, evaluations)


def scalar_scan_eta_g2(sq, tol=optimize.DEFAULT_TOL):
    """``optimize_eta_g2`` with the grid stage run on the scalar objective."""

    def objective(eta):
        return avg_fidelity_unit_gain(variances_tailored(sq, eta, g2_optimal(sq, eta)))

    res = scalar_scan_maximize(objective, 0.0, math.pi / 4, tol)
    eta_star = res.argmax[0]
    return OptimizationResult((eta_star, g2_optimal(sq, eta_star)), res.value, res.evaluations)


def _outcome(optimizer, sq, tol):
    try:
        return optimizer(sq, tol=tol)
    except ValueError as exc:
        return exc


# >= 200 squeezing levels over the whole range, plus large gains
SWEEP = [squeeze_from_lambda(float(lam)) for lam in np.linspace(0.0, 0.999, 201)] + [
    squeeze_from_G(G) for G in (1.0, 3.0, 40.0, 1e3, 1e6)
]


def parabola(x):
    return -((x - 0.3) ** 2)


@pytest.fixture
def eta_g2_objectives(monkeypatch):
    """The (scalar, grid) objectives of each ``optimize_eta_g2`` call, and
    how often the search called each scalar objective."""
    seen, counts = [], []
    real = optimize.maximize_scalar

    def spy(f, lo, hi, tol=optimize.DEFAULT_TOL, f_grid=None):
        seen.append((f, f_grid))
        counts.append(0)

        def counted(x):
            counts[-1] += 1
            return f(x)

        return real(counted, lo, hi, tol=tol, f_grid=f_grid)

    monkeypatch.setattr(optimize, "maximize_scalar", spy)
    return seen, counts


class TestMaximizeScalar:
    # scalar_only: golden-section alone; otherwise the objective, written
    # for numpy, is also the grid objective
    @pytest.mark.parametrize("scalar_only", [True, False])
    def test_parabola(self, scalar_only):
        res = maximize_scalar(
            parabola, 0.0, 1.0, tol=1e-8, f_grid=None if scalar_only else parabola
        )
        assert res.argmax[0] == pytest.approx(0.3, abs=1e-8)
        assert res.evaluations > 0

    @pytest.mark.parametrize("scalar_only", [True, False])
    def test_boundary_maximum_exact(self, scalar_only):
        res = maximize_scalar(
            operator.neg, 0.0, 1.0, tol=1e-8,
            f_grid=None if scalar_only else operator.neg,
        )
        assert res.argmax[0] == 0.0
        assert res.value == 0.0

    def test_gain_objective(self):
        sq = squeeze_from_lambda(0.0)
        res = maximize_scalar(
            lambda g: gaussian_weighted_fidelity(sq, g, 0.2), 0.0, 2.0, tol=1e-8
        )
        assert res.argmax[0] == pytest.approx(2.0 / 27.0, abs=1e-6)

    def test_negated_phase_variance(self):
        sq = squeeze_from_G(2.0)
        res = maximize_scalar(
            lambda g2: -variances_tailored(sq, math.pi / 4, g2).v_minus,
            0.0, 2.0, tol=1e-8,
        )
        assert res.argmax[0] == pytest.approx(0.5, abs=1e-6)

    def test_non_finite_objective_reports_abscissa(self):
        def bad(x):
            return math.nan if x > 0.5 else x

        with pytest.raises(NonFiniteObjectiveError) as exc_info:
            maximize_scalar(bad, 0.0, 1.0, tol=1e-6)
        assert exc_info.value.x > 0.5

    @pytest.mark.parametrize("scalar_only", [True, False])
    def test_tol_below_float_spacing_returns(self, scalar_only):
        # 1e-300 is far below the float spacing near 0.3 (5.6e-17): the
        # search must stop once its bracket no longer shrinks
        def timeout(signum, frame):
            raise TimeoutError("maximize_scalar did not return within 10 s")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(10)
        try:
            res = maximize_scalar(
                parabola, 0.0, 2.0, tol=1e-300, f_grid=None if scalar_only else parabola
            )
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert res.argmax[0] == pytest.approx(0.3, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            maximize_scalar(lambda x: x, 1.0, 0.0)
        with pytest.raises(ValueError):
            maximize_scalar(lambda x: x, 0.0, 1.0, tol=0.0)

    def test_grid_fallback_finds_global_max(self):
        # bimodal objective: plain golden-section can lock onto the wrong
        # mode, the grid stage may not
        def f(x):
            return np.exp(-200 * (x - 0.15) ** 2) + 2.0 * np.exp(-200 * (x - 0.8) ** 2)

        res = maximize_scalar(f, 0.0, 1.0, tol=1e-8, f_grid=f)
        assert res.argmax[0] == pytest.approx(0.8, abs=1e-6)

    def test_plateau_first_index_wins(self):
        # equal scalar maxima on [0.2, 0.3]; the grid objective rises across
        # the plateau by less than the slack, so its own argmax is the last
        # plateau index, but the scan brackets the first, as a scalar scan does
        def f(x):
            return 1.0 - max(0.2 - x, x - 0.3, 0.0)

        def f_grid(x):
            return 1.0 - np.maximum(np.maximum(0.2 - x, x - 0.3), 0.0) + 1e-12 * x

        first = next(x for x in _grid(0.0, 1.0) if x >= 0.2)
        assert np.argmax(f_grid(np.array(_grid(0.0, 1.0)))) > _grid(0.0, 1.0).index(first)
        res = maximize_scalar(f, 0.0, 1.0, tol=1e-8, f_grid=f_grid)
        ref = scalar_scan_maximize(f, 0.0, 1.0, 1e-8)
        assert res.argmax == ref.argmax and res.value == ref.value == 1.0
        assert abs(res.argmax[0] - first) <= 1.0 / (GRID - 1)

    def test_nan_grid_objective_reports_scalar_abscissa(self):
        def f(x):
            return math.nan if x > 0.5 else x

        def f_grid(x):
            return np.where(x > 0.5, np.nan, x)

        with pytest.raises(NonFiniteObjectiveError) as ref:
            scalar_scan_maximize(f, 0.0, 1.0, 1e-8)
        with pytest.raises(NonFiniteObjectiveError) as got:
            maximize_scalar(f, 0.0, 1.0, tol=1e-8, f_grid=f_grid)
        assert got.value.x == ref.value.x


class TestOptimizeGain:
    def test_narrow_alphabet(self):
        res = optimize_gain(squeeze_from_lambda(0.0), 0.2)
        assert res.argmax[0] == pytest.approx(1.0 / 13.5, abs=1e-6)
        assert res.value == pytest.approx(0.9310345, abs=5e-8)

    def test_wide_alphabet(self):
        res = optimize_gain(squeeze_from_lambda(0.0), 100.0)
        assert abs(res.argmax[0] - 1.0) <= 1e-3
        assert res.value == pytest.approx(0.5, abs=1e-3)

    def test_high_squeezing(self):
        res = optimize_gain(squeeze_from_lambda(0.999), 0.2)
        assert res.value >= 0.99

    def test_soundness_against_grid(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            sq = squeeze_from_lambda(rng.uniform(0.0, 0.99))
            s = rng.uniform(0.05, 10.0)
            res = optimize_gain(sq, s)
            grid_best = max(
                gaussian_weighted_fidelity(sq, float(g), s)
                for g in np.linspace(0.0, 2.0, 1024)
            )
            assert res.value >= grid_best - 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            optimize_gain(squeeze_from_lambda(0.5), -0.2)


class TestOptimizeEtaG2:
    def test_no_squeezing_exact(self):
        res = optimize_eta_g2(squeeze_from_G(1.0))
        assert res.argmax == (0.0, 0.0)
        assert res.value == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-9)

    def test_large_squeezing(self):
        res = optimize_eta_g2(squeeze_from_G(1e6))
        assert abs(res.argmax[0] - math.pi / 4) <= 0.01
        assert res.value >= 0.999

    def test_beats_restricted_protocols(self):
        sq = squeeze_from_G(2.0)
        res = optimize_eta_g2(sq)
        half = math.pi / 4
        disp_only = avg_fidelity_unit_gain(variances_tailored(sq, half, g2_optimal(sq, half)))
        assert res.value > disp_only
        assert res.value > (1.0 + sq.lam) / 2.0

    def test_soundness_against_grid(self):
        rng = np.random.default_rng(72)
        etas = np.linspace(0.0, math.pi / 4, 64)
        g2s = np.linspace(0.0, 2.0, 64)
        for _ in range(5):
            sq = squeeze_from_lambda(rng.uniform(0.0, 0.99))
            res = optimize_eta_g2(sq)
            grid_best = max(
                avg_fidelity_unit_gain(variances_tailored(sq, float(e), float(g)))
                for e in etas
                for g in g2s
            )
            assert res.value >= grid_best - 1e-9

    def test_result_dominates_box_corners_and_centre(self):
        for G in (1.0, 3.0, 40.0):
            sq = squeeze_from_G(G)
            res = optimize_eta_g2(sq)
            eta_star, g2_star = res.argmax
            assert 0.0 <= eta_star <= math.pi / 4
            assert 0.0 <= g2_star <= 2.0
            probes = [(e, g) for e in (0.0, math.pi / 4, math.pi / 8) for g in (0.0, 2.0, 1.0)]
            for eta, g2 in probes:
                probe = avg_fidelity_unit_gain(variances_tailored(sq, eta, g2))
                assert res.value >= probe - 1e-12

    def test_tuned_curves_shape(self):
        # eta*(lam) and g2*(lam) both rise monotonically from 0 to their
        # 50:50/unit-gain limits
        grid = list(np.linspace(0.0, 0.98, 50)) + [0.999]
        eta_stars, g2_stars = [], []
        for lam in grid:
            res = optimize_eta_g2(squeeze_from_lambda(float(lam)))
            eta_stars.append(res.argmax[0])
            g2_stars.append(res.argmax[1])
        assert eta_stars[0] == 0.0 and g2_stars[0] == 0.0
        assert all(b >= a for a, b in zip(eta_stars, eta_stars[1:]))
        assert all(b >= a for a, b in zip(g2_stars, g2_stars[1:]))
        assert abs(eta_stars[-1] - math.pi / 4) <= 0.01
        assert abs(g2_stars[-1] - 1.0 / math.sqrt(2.0)) <= 0.01

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_bit_identical_to_scalar_scan(self, tol):
        # including the levels where both raise the same error (at tol
        # 1e-12 some large gains reach a fidelity above 1 + 1e-12)
        for sq in SWEEP:
            res = _outcome(optimize_eta_g2, sq, tol)
            ref = _outcome(scalar_scan_eta_g2, sq, tol)
            if isinstance(ref, ValueError):
                assert repr(res) == repr(ref), sq
                continue
            assert res.argmax == ref.argmax and res.value == ref.value, sq
            assert 1 <= res.evaluations - ref.evaluations <= 3, sq

    def test_fig3_rows_bit_identical_to_scalar_scan(self, monkeypatch):
        rows = run_fig3(ExperimentConfig()).rows
        monkeypatch.setattr(experiments, "optimize_eta_g2", scalar_scan_eta_g2)
        assert run_fig3(ExperimentConfig()).rows == rows

    def test_grid_objective_within_slack_of_scalar(self, eta_g2_objectives):
        seen, _ = eta_g2_objectives
        xs = _grid(0.0, math.pi / 4)
        for sq in SWEEP:
            optimize_eta_g2(sq)
            f, f_grid = seen[-1]
            gap = np.abs(f_grid(np.array(xs)) - np.array([f(x) for x in xs]))
            assert gap.max() <= GRID_SLACK / 1000, sq

    def test_scalar_objective_calls_stay_few(self, eta_g2_objectives):
        _, counts = eta_g2_objectives
        for lam in default_lambda_grid():
            optimize_eta_g2(squeeze_from_lambda(lam), tol=1e-12)
        assert len(counts) == len(default_lambda_grid())
        assert max(counts) < 100

    @pytest.mark.parametrize("G", [1e8, 1e12])
    def test_rejected_gain_raises_as_before(self, G, eta_g2_objectives):
        # V- cancels to 0 near eta = 0; the grid objective is NaN exactly
        # where the scalar objective raises or clamps an overshoot above 1,
        # so those points are rescored
        sq = squeeze_from_G(G)
        with pytest.raises(ValueError, match="variances must be positive"):
            optimize_eta_g2(sq)
        f, f_grid = eta_g2_objectives[0][-1]
        xs = _grid(0.0, math.pi / 4)
        raises, clamps = [], []
        for i, x in enumerate(xs):
            try:
                f(x)
            except ValueError:
                raises.append(i)
                continue
            v = variances_tailored(sq, x, g2_optimal(sq, x))
            if 2.0 / math.sqrt((v.v_plus + 1.0) * (v.v_minus + 1.0)) > 1.0:
                clamps.append(i)
        nans = list(np.flatnonzero(np.isnan(f_grid(np.array(xs)))))
        assert raises and nans == sorted(raises + clamps)

    def test_dominance_over_lambda_grid(self):
        for lam in np.linspace(0.0, 0.98, 20):
            sq = squeeze_from_lambda(float(lam))
            full = optimize_eta_g2(sq).value
            half = math.pi / 4
            disp = avg_fidelity_unit_gain(variances_tailored(sq, half, g2_optimal(sq, half)))
            std = (1.0 + sq.lam) / 2.0
            assert full > disp > std
