"""Scalar search and the protocol-tuning optimizers."""

import math
import signal

import numpy as np
import pytest

from cvteleport.alphabet import gaussian_weighted_fidelity
from cvteleport.fidelity import avg_fidelity_unit_gain
from cvteleport.optimize import (
    NonFiniteObjectiveError,
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


class TestMaximizeScalar:
    @pytest.mark.parametrize("assume_unimodal", [True, False])
    def test_parabola(self, assume_unimodal):
        res = maximize_scalar(
            lambda x: -((x - 0.3) ** 2), 0.0, 1.0, tol=1e-8,
            assume_unimodal=assume_unimodal,
        )
        assert res.argmax[0] == pytest.approx(0.3, abs=1e-8)
        assert res.evaluations > 0
        assert res.tolerance == 1e-8

    @pytest.mark.parametrize("assume_unimodal", [True, False])
    def test_boundary_maximum_exact(self, assume_unimodal):
        res = maximize_scalar(
            lambda x: -x, 0.0, 1.0, tol=1e-8, assume_unimodal=assume_unimodal
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

    @pytest.mark.parametrize("assume_unimodal", [True, False])
    def test_tol_below_float_spacing_returns(self, assume_unimodal):
        # 1e-300 is far below the float spacing near 0.3 (5.6e-17): the
        # search must stop once its bracket no longer shrinks
        def timeout(signum, frame):
            raise TimeoutError("maximize_scalar did not return within 10 s")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(10)
        try:
            res = maximize_scalar(
                lambda x: -((x - 0.3) ** 2), 0.0, 2.0, tol=1e-300,
                assume_unimodal=assume_unimodal,
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
            return math.exp(-200 * (x - 0.15) ** 2) + 2.0 * math.exp(-200 * (x - 0.8) ** 2)

        res = maximize_scalar(f, 0.0, 1.0, tol=1e-8, assume_unimodal=False)
        assert res.argmax[0] == pytest.approx(0.8, abs=1e-6)


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
        disp_only = avg_fidelity_unit_gain(
            variances_tailored(sq, half, g2_optimal(sq, half))
        ).value
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
                avg_fidelity_unit_gain(variances_tailored(sq, float(e), float(g))).value
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
                probe = avg_fidelity_unit_gain(variances_tailored(sq, eta, g2)).value
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

    def test_dominance_over_lambda_grid(self):
        for lam in np.linspace(0.0, 0.98, 20):
            sq = squeeze_from_lambda(float(lam))
            full = optimize_eta_g2(sq).value
            half = math.pi / 4
            disp = avg_fidelity_unit_gain(
                variances_tailored(sq, half, g2_optimal(sq, half))
            ).value
            std = (1.0 + sq.lam) / 2.0
            assert full > disp > std
