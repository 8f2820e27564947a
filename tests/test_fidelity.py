"""One-shot and averaged fidelity formulas."""

import math

import numpy as np
import pytest

from cvteleport.fidelity import (
    ComplexAmplitude,
    Fidelity,
    avg_fidelity_unit_gain,
    bfk_classical_limit,
    one_shot_fidelity,
    transfer_exponent,
)
from cvteleport.protocol import QuadratureVariances, squeeze_from_lambda
from cvteleport.strategies import optimal_displacement


class TestComplexAmplitude:
    def test_basic(self):
        a = ComplexAmplitude(3.0, 4.0)
        assert (a.x, a.y) == (3.0, 4.0)
        assert a == ComplexAmplitude(3.0, 4.0)
        assert a != ComplexAmplitude(3.0, -4.0)

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_finite_required(self, x, y):
        with pytest.raises(ValueError):
            ComplexAmplitude(x, y)


class TestFidelityType:
    def test_clamp_overshoot(self):
        assert Fidelity(1.0 + 5e-13).value == 1.0

    def test_reject_large_overshoot(self):
        with pytest.raises(ValueError):
            Fidelity(1.0 + 1e-11)

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
    def test_reject_invalid(self, bad):
        with pytest.raises(ValueError):
            Fidelity(bad)


class TestOneShot:
    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.9])
    def test_identity_when_all_equal(self, lam):
        a = ComplexAmplitude(1.2, -0.4)
        sq = squeeze_from_lambda(lam)
        assert one_shot_fidelity(a, a, a, sq).value == 1.0

    def test_coherent_overlap_no_squeezing(self):
        # lam = 0 with epsilon = 0 reduces to exp(-|alpha|^2)
        f = one_shot_fidelity(
            ComplexAmplitude(1.0, 0.0),
            ComplexAmplitude(0.0, 0.0),
            ComplexAmplitude(0.0, 0.0),
            squeeze_from_lambda(0.0),
        )
        assert f.value == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_exact_cancellation_at_optimum(self):
        sq = squeeze_from_lambda(0.5)
        f = one_shot_fidelity(
            ComplexAmplitude(1.0, 0.0),
            ComplexAmplitude(0.5, 0.0),
            ComplexAmplitude(0.75, 0.0),
            sq,
        )
        assert f.value == pytest.approx(1.0, abs=1e-14)

    def test_range_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            sq = squeeze_from_lambda(rng.uniform(0.0, 0.999))
            args = rng.uniform(-5.0, 5.0, 6)
            f = one_shot_fidelity(
                ComplexAmplitude(args[0], args[1]),
                ComplexAmplitude(args[2], args[3]),
                ComplexAmplitude(args[4], args[5]),
                sq,
            )
            assert 0.0 <= f.value <= 1.0

    def test_perfect_knowledge_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            sq = squeeze_from_lambda(rng.uniform(0.0, 0.999))
            alpha = ComplexAmplitude(rng.uniform(-5, 5), rng.uniform(-5, 5))
            beta = ComplexAmplitude(rng.uniform(-5, 5), rng.uniform(-5, 5))
            eps = optimal_displacement(alpha, beta, sq)
            assert abs(one_shot_fidelity(alpha, beta, eps, sq).value - 1.0) <= 1e-12

    def test_optimum_dominates_grid(self):
        rng = np.random.default_rng(13)
        offsets = np.linspace(-1.0, 1.0, 201)
        dx, dy = offsets[:, None], offsets[None, :]
        for _ in range(25):
            lam = rng.uniform(0.0, 0.999)
            sq = squeeze_from_lambda(lam)
            alpha = ComplexAmplitude(rng.uniform(-5, 5), rng.uniform(-5, 5))
            beta = ComplexAmplitude(rng.uniform(-5, 5), rng.uniform(-5, 5))
            eps = optimal_displacement(alpha, beta, sq)
            f = np.exp(
                transfer_exponent(
                    alpha.x - (eps.x + dx),
                    alpha.y - (eps.y + dy),
                    alpha.x - beta.x,
                    alpha.y - beta.y,
                    lam,
                )
            )
            centre = (100, 100)
            assert np.unravel_index(np.argmax(f), f.shape) == centre
            assert np.count_nonzero(f >= f[centre]) == 1


class TestAveraged:
    def test_unit_gain_values(self):
        assert avg_fidelity_unit_gain(QuadratureVariances(2.0, 1.0)).value == pytest.approx(
            math.sqrt(2.0 / 3.0), abs=1e-15
        )
        assert avg_fidelity_unit_gain(QuadratureVariances(3.0, 1.0)).value == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-15
        )
        assert avg_fidelity_unit_gain(QuadratureVariances(1.0, 1.0)).value == 1.0

    def test_range_random(self):
        rng = np.random.default_rng(15)
        for _ in range(10_000):
            v = QuadratureVariances(rng.uniform(1.0, 40.0), rng.uniform(1.0, 40.0))
            assert 0.0 <= avg_fidelity_unit_gain(v).value <= 1.0


class TestClassicalLimit:
    def test_values(self):
        assert bfk_classical_limit(0.2).value == pytest.approx(13.5 / 14.5, abs=1e-15)
        assert bfk_classical_limit(0.2).value == pytest.approx(0.9310345, abs=5e-8)
        assert bfk_classical_limit(1e6).value == pytest.approx(0.5, abs=1e-9)
        assert bfk_classical_limit(1.0 / math.sqrt(2.0)).value == pytest.approx(
            2.0 / 3.0, abs=1e-12
        )

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            bfk_classical_limit(bad)

    def test_range_random(self):
        rng = np.random.default_rng(16)
        for _ in range(10_000):
            assert 0.0 <= bfk_classical_limit(rng.uniform(1e-3, 100.0)).value <= 1.0
