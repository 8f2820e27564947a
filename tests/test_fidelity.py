"""One-shot and averaged fidelity formulas."""

import math

import numpy as np
import pytest

from cvteleport.fidelity import (
    avg_fidelity_unit_gain,
    bfk_classical_limit,
    checked_fidelity,
    one_shot_fidelity,
    optimal_displacement,
    transfer_exponent,
)
from cvteleport.measurement import LineTailored, mc_average_fidelity
from cvteleport.protocol import SqueezeLevel

SQ = SqueezeLevel(0.5)


class TestPoints:
    @pytest.mark.parametrize(
        "call",
        [
            lambda p: one_shot_fidelity(p, 0j, 0j, SQ),
            lambda p: one_shot_fidelity(0j, p, 0j, SQ),
            lambda p: one_shot_fidelity(0j, 0j, p, SQ),
            lambda p: optimal_displacement(p, 0j, SQ),
            lambda p: optimal_displacement(0j, p, SQ),
            lambda p: mc_average_fidelity(LineTailored(), p, SQ, 2000, 1),
        ],
        ids=["one_shot-alpha", "one_shot-beta", "one_shot-epsilon",
             "displacement-guess", "displacement-beta", "mc_average"],
    )
    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_finite_required(self, x, y, call):
        with pytest.raises(ValueError):
            call(complex(x, y))


class TestFidelityType:
    def test_clamp_overshoot(self):
        assert checked_fidelity(1.0 + 5e-13) == 1.0

    def test_reject_large_overshoot(self):
        with pytest.raises(ValueError):
            checked_fidelity(1.0 + 1e-11)

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
    def test_reject_invalid(self, bad):
        with pytest.raises(ValueError):
            checked_fidelity(bad)


class TestOneShot:
    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.9])
    def test_identity_when_all_equal(self, lam):
        a = complex(1.2, -0.4)
        sq = SqueezeLevel(lam)
        assert one_shot_fidelity(a, a, a, sq) == 1.0

    def test_coherent_overlap_no_squeezing(self):
        # lam = 0 with epsilon = 0 reduces to exp(-|alpha|^2)
        f = one_shot_fidelity(1 + 0j, 0j, 0j, SqueezeLevel(0.0))
        assert f == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_exact_cancellation_at_optimum(self):
        sq = SqueezeLevel(0.5)
        f = one_shot_fidelity(1 + 0j, 0.5 + 0j, 0.75 + 0j, sq)
        assert f == pytest.approx(1.0, abs=1e-14)

    def test_range_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            sq = SqueezeLevel(rng.uniform(0.0, 0.999))
            args = rng.uniform(-5.0, 5.0, 6)
            alpha, beta, epsilon = (complex(x, y) for x, y in args.reshape(3, 2))
            assert 0.0 <= one_shot_fidelity(alpha, beta, epsilon, sq) <= 1.0

    def test_perfect_knowledge_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            sq = SqueezeLevel(rng.uniform(0.0, 0.999))
            alpha = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            beta = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            eps = optimal_displacement(alpha, beta, sq)
            assert abs(one_shot_fidelity(alpha, beta, eps, sq) - 1.0) <= 1e-12

    def test_optimum_dominates_grid(self):
        rng = np.random.default_rng(13)
        offsets = np.linspace(-1.0, 1.0, 201)
        dx, dy = offsets[:, None], offsets[None, :]
        for _ in range(25):
            lam = rng.uniform(0.0, 0.999)
            sq = SqueezeLevel(lam)
            alpha = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            beta = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            eps = optimal_displacement(alpha, beta, sq)
            w = alpha - beta
            f = np.exp(
                transfer_exponent(
                    alpha.real - (eps.real + dx), alpha.imag - (eps.imag + dy), w.real, w.imag, lam
                )
            )
            centre = (100, 100)
            assert np.unravel_index(np.argmax(f), f.shape) == centre
            assert np.count_nonzero(f >= f[centre]) == 1


class TestAveraged:
    def test_unit_gain_values(self):
        assert avg_fidelity_unit_gain(2.0, 1.0) == pytest.approx(
            math.sqrt(2.0 / 3.0), abs=1e-15
        )
        assert avg_fidelity_unit_gain(3.0, 1.0) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-15
        )
        assert avg_fidelity_unit_gain(1.0, 1.0) == 1.0

    def test_range_random(self):
        rng = np.random.default_rng(15)
        for _ in range(10_000):
            v_plus, v_minus = rng.uniform(1.0, 40.0), rng.uniform(1.0, 40.0)
            assert 0.0 <= avg_fidelity_unit_gain(v_plus, v_minus) <= 1.0


class TestClassicalLimit:
    def test_values(self):
        assert bfk_classical_limit(0.2) == pytest.approx(13.5 / 14.5, abs=1e-15)
        assert bfk_classical_limit(0.2) == pytest.approx(0.9310345, abs=5e-8)
        assert bfk_classical_limit(1e6) == pytest.approx(0.5, abs=1e-9)
        assert bfk_classical_limit(1.0 / math.sqrt(2.0)) == pytest.approx(
            2.0 / 3.0, abs=1e-12
        )

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            bfk_classical_limit(bad)

    def test_range_random(self):
        rng = np.random.default_rng(16)
        for _ in range(10_000):
            assert 0.0 <= bfk_classical_limit(rng.uniform(1e-3, 100.0)) <= 1.0
