"""The alphabet-weighted fidelity against its oracle."""

import math

import numpy as np
import pytest

from cvteleport.alphabet import gaussian_weighted_fidelity, gaussian_weighted_fidelity_quadrature
from cvteleport.fidelity import bfk_classical_limit
from cvteleport.optimize import optimize_gain
from cvteleport.protocol import SqueezeLevel, squeeze_from_G, variance_standard_gain


class TestClosedForm:
    def test_unit_gain_is_alphabet_independent(self):
        rng = np.random.default_rng(65)
        for _ in range(100):
            sq = SqueezeLevel(rng.uniform(0.0, 0.99))
            s = rng.uniform(0.05, 100.0)
            v = variance_standard_gain(sq, 1.0)
            assert gaussian_weighted_fidelity(sq, 1.0, s) == 2.0 / (v + 1.0)

    def test_narrow_alphabet_matches_classical_limit(self):
        res = optimize_gain(SqueezeLevel(0.0), 0.2)
        assert res.value == pytest.approx(bfk_classical_limit(0.2), abs=1e-9)
        assert res.value == pytest.approx(0.9310345, abs=5e-8)

    def test_wide_alphabet_unit_gain_optimum(self):
        res = optimize_gain(SqueezeLevel(0.0), 100.0)
        assert abs(res.value - 0.5) <= 1e-3
        s = 100.0
        assert abs(res.argmax[0] - 2 * s * s / (1 + 2 * s * s)) <= 1e-3

    def test_domain(self):
        sq = SqueezeLevel(0.1)
        with pytest.raises(ValueError):
            gaussian_weighted_fidelity(sq, 1.0, 0.0)
        with pytest.raises(ValueError, match="finite"):
            gaussian_weighted_fidelity(sq, 1.0, math.inf)  # was nan
        # both forms take their gain check from variance_standard_gain
        with pytest.raises(ValueError, match="gain must be non-negative and finite, got -0.5"):
            gaussian_weighted_fidelity_quadrature(sq, -0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="gain must be non-negative and finite, got -0.5"):
            gaussian_weighted_fidelity(sq, -0.5, 1.0)

    @pytest.mark.parametrize(
        "g, s_x, s_y",
        [(1.0, math.inf, math.inf), (0.5, math.inf, 1.0), (0.5, 1.0, math.inf),
         (1.0, math.nan, 1.0)],
        ids=["both-inf", "x-inf", "y-inf", "x-nan"],
    )
    def test_quadrature_widths_finite(self, g, s_x, s_y):
        # the oracle takes the closed form's domain: an infinite width gave
        # nan (0 * inf) at unit gain and 0.0 at g = 0.5
        with pytest.raises(ValueError, match="positive and finite"):
            gaussian_weighted_fidelity_quadrature(SqueezeLevel(0.1), g, s_x, s_y)


    @pytest.mark.parametrize("G", [1e4, 1e8, 1e10])
    def test_overshoot_above_one_raises(self, G):
        # V + 1 cancels at large G and the closed form rose above 1
        # (1 + 3.1e-12, 1 + 1.5e-8 and 1 + 1.9e-6 at these gains); like every
        # other fidelity it now passes checked_fidelity
        with pytest.raises(ValueError, match="fidelity exceeds 1"):
            optimize_gain(squeeze_from_G(G), 0.01)


class TestQuadratureOracle:
    def test_narrow_alphabet_optimal_gain(self):
        val = gaussian_weighted_fidelity_quadrature(SqueezeLevel(0.0), 1.0 / 13.5, 0.2, 0.2)
        assert val == pytest.approx(0.93103, abs=1e-5)

    def test_flat_alphabet_unit_gain(self):
        val = gaussian_weighted_fidelity_quadrature(SqueezeLevel(0.0), 1.0, 100.0, 100.0)
        assert val == pytest.approx(0.5, abs=1e-6)

    def test_asymmetric_unit_gain(self):
        # at g = 1 the integrand is constant in alpha, any widths integrate to it
        val = gaussian_weighted_fidelity_quadrature(SqueezeLevel(0.0), 1.0, 0.2, 100.0)
        assert val == pytest.approx(0.5, abs=1e-6)

    def test_closed_form_grid(self):
        worst = 0.0
        for lam in (0.0, 0.3, 0.6, 0.9, 0.99):
            sq = SqueezeLevel(lam)
            for g in (0.0, 0.5, 1.0, 1.5, 2.0):
                for s in (0.1, 0.2, 0.5, 1.0, 2.0):
                    closed = gaussian_weighted_fidelity(sq, g, s)
                    quad = gaussian_weighted_fidelity_quadrature(sq, g, s, s)
                    worst = max(worst, abs(closed - quad))
        assert worst <= 1e-15

    def test_asymmetric_against_analytic(self):
        # product of two 1-D Gaussian integrals: A / sqrt((1+2c sx^2)(1+2c sy^2))
        rng = np.random.default_rng(66)
        for _ in range(50):
            sq = SqueezeLevel(rng.uniform(0.0, 0.95))
            g = rng.uniform(0.0, 1.5)
            s_x = rng.uniform(0.1, 2.0)
            s_y = rng.uniform(0.1, 2.0)
            v = variance_standard_gain(sq, g)
            a = 2.0 / (v + 1.0)
            c = 2.0 * (1.0 - g) ** 2 / (v + 1.0)
            expected = a / math.sqrt((1 + 2 * c * s_x ** 2) * (1 + 2 * c * s_y ** 2))
            quad = gaussian_weighted_fidelity_quadrature(sq, g, s_x, s_y)
            assert abs(quad - expected) <= 1e-15

    @pytest.mark.parametrize("past", [False, True], ids=["at-bound", "one-step-past"])
    def test_widest_alphabet_at_its_bound(self, past):
        # at lam = 0 this gain (the float nearest 2 - sqrt(3)) makes c exactly
        # 1/2, so s = 4 puts 2 c s^2 on 16; a wider alphabet would alias on
        # the fixed grid, so one float wider, on either axis, raises
        sq, g = SqueezeLevel(0.0), 0.2679491924311227
        assert 2.0 * (1.0 - g) ** 2 / (variance_standard_gain(sq, g) + 1.0) == 0.5
        if not past:
            quad = gaussian_weighted_fidelity_quadrature(sq, g, 4.0, 4.0)
            assert abs(quad - gaussian_weighted_fidelity(sq, g, 4.0)) <= 1e-15
            return
        wide = math.nextafter(4.0, math.inf)
        for s_x, s_y in ((wide, 0.2), (0.2, wide)):
            with pytest.raises(ValueError, match=r"holds for 2 c s\^2 <= 16"):
                gaussian_weighted_fidelity_quadrature(sq, g, s_x, s_y)


class TestGaussHermiteRule:
    @pytest.mark.parametrize("order", range(16, 129))
    def test_agrees_with_hermgauss(self, order):
        # numpy's eigenvalue-based Gauss-Hermite rule of this order is a second,
        # independent quadrature of the same integral, A Q(s_x) Q(s_y) / pi.
        # It resolves the fidelity factor e^{-2 c s^2 y^2} to rounding up to
        # about 2 c s^2 = order / 20, so each order is held at the wider
        # 2 c s^2 = (order - 8) / 40 on x and a quarter of that on y
        nodes, weights = np.polynomial.hermite.hermgauss(order)
        width = (order - 8) / 40
        for lam, g in ((0.0, 0.0), (0.5, 0.8), (0.9, 1.4)):
            sq = SqueezeLevel(lam)
            v = variance_standard_gain(sq, g)
            a = 2.0 / (v + 1.0)
            c = 2.0 * (1.0 - g) ** 2 / (v + 1.0)
            s_x = math.sqrt(width / (2.0 * c))
            s_y = s_x / 2.0
            q_x, q_y = (
                math.fsum(weights * np.exp(-2.0 * c * s * s * nodes ** 2)) for s in (s_x, s_y)
            )
            quad = gaussian_weighted_fidelity_quadrature(sq, g, s_x, s_y)
            assert abs(quad - a * q_x * q_y / math.pi) <= 1e-15


class TestRecoveryProperties:
    @pytest.mark.parametrize("s", [0.1, 0.2, 0.5, 1.0, 10.0])
    def test_classical_limit_recovered(self, s):
        # maximising over the gain with no squeezing lands exactly on
        # (1 + chi)/(2 + chi), chi = 1/(2 s^2)
        res = optimize_gain(SqueezeLevel(0.0), s)
        assert res.value == pytest.approx(bfk_classical_limit(s), abs=1e-9)

    @pytest.mark.parametrize("s", [0.1, 0.2, 0.5, 1.0, 10.0])
    def test_analytic_optimal_gain(self, s):
        res = optimize_gain(SqueezeLevel(0.0), s)
        assert res.argmax[0] == pytest.approx(2 * s * s / (1 + 2 * s * s), abs=1e-6)

    @pytest.mark.parametrize("s", [0.2, 1.0])
    def test_optimized_fidelity_monotone_in_lambda(self, s):
        values = [
            optimize_gain(SqueezeLevel(float(lam)), s).value
            for lam in np.linspace(0.0, 0.999, 25)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
