"""Squeeze-level encodings and the variance algebra against the coefficient oracle."""

import dataclasses
import math

import numpy as np
import pytest

from cvteleport.protocol import (
    ProtocolSettings,
    QuadratureVariances,
    SqueezeLevel,
    g1_of_eta,
    g2_optimal,
    output_coefficients_tailored,
    squeeze_from_G,
    squeeze_from_lambda,
    standard_gain_coefficients,
    variance_standard_gain,
    variances_tailored,
)
from oracles import covariance_variances


class TestSqueezeLevel:
    @pytest.mark.parametrize(
        "G, lam",
        [(1.0, 0.0), (2.0, math.sqrt(0.5)), (10.0, math.sqrt(0.9))],
    )
    def test_from_G(self, G, lam):
        # lam is held; G is derived from it, so it returns G only up to
        # the conditioning bound 2 G eps of test_round_trip
        sq = squeeze_from_G(G)
        assert sq.lam == math.sqrt((G - 1.0) / G)
        assert sq.lam == pytest.approx(lam, abs=1e-12)
        assert sq.G == pytest.approx(G, rel=2.0 * G * 2.0 ** -52)

    def test_no_squeezing_is_exact(self):
        # criterion 1 needs the standard baseline F(0) = 1/2 exactly
        assert squeeze_from_G(1.0).G == 1.0
        assert squeeze_from_lambda(0.0).G == 1.0

    def test_lambda_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(SqueezeLevel) if f.init] == ["lam"]

    @pytest.mark.parametrize(
        "lam, G",
        [(0.0, 1.0), (0.5, 4.0 / 3.0), (0.9, 1.0 / 0.19)],
    )
    def test_from_lambda(self, lam, G):
        sq = squeeze_from_lambda(lam)
        assert sq.lam == lam
        assert sq.G == pytest.approx(G, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.5, 0.999, -1.0, math.inf, math.nan])
    def test_from_G_domain(self, bad):
        with pytest.raises(ValueError):
            squeeze_from_G(bad)

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.nan])
    def test_from_lambda_domain(self, bad):
        with pytest.raises(ValueError):
            squeeze_from_lambda(bad)

    def test_round_trip(self):
        # the composed map has condition number ~2G in float64, so the
        # 1e-10 relative bound is only meaningful below G ~ 1e5; above
        # that the conditioning bound 2 G eps (~4.4e-10 at G = 1e6) applies
        for G in np.geomspace(1.0, 1e5, 300):
            back = squeeze_from_lambda(squeeze_from_G(float(G)).lam).G
            assert back == pytest.approx(G, rel=1e-10)
        for G in np.geomspace(1e5, 1e6, 100):
            back = squeeze_from_lambda(squeeze_from_G(float(G)).lam).G
            assert back == pytest.approx(G, rel=2.0 * G * 2.0 ** -52)

    def test_lambda_invariant_after_inverse_map(self):
        for lam in np.linspace(0.0, 0.9999, 500):
            sq = squeeze_from_lambda(float(lam))
            assert abs(sq.lam - math.sqrt((sq.G - 1.0) / sq.G)) <= 1e-12


class TestSettingsAndVariancesTypes:
    def test_eta_range(self):
        with pytest.raises(ValueError):
            ProtocolSettings(eta=math.pi / 3, g1=0.5, g2=0.5)
        with pytest.raises(ValueError):
            ProtocolSettings(eta=-0.01, g1=0.5, g2=0.5)

    def test_negative_gains(self):
        with pytest.raises(ValueError):
            ProtocolSettings(eta=0.1, g1=-0.1, g2=0.5)
        with pytest.raises(ValueError):
            ProtocolSettings(eta=0.1, g1=0.5, g2=-0.1)

    def test_variances_positive(self):
        with pytest.raises(ValueError):
            QuadratureVariances(v_plus=0.0, v_minus=1.0)
        with pytest.raises(ValueError):
            QuadratureVariances(v_plus=1.0, v_minus=-0.5)


class TestOutputCoefficients:
    def test_no_squeezing_transmissive(self):
        # fully transmissive splitter, g1 = 1/2: plus quadrature is v2 + a_in
        sq = squeeze_from_G(1.0)
        plus, _ = output_coefficients_tailored(
            sq, ProtocolSettings(eta=0.0, g1=0.5, g2=0.0)
        )
        assert (plus.c_v2, plus.c_v1, plus.c_in) == (1.0, 0.0, 1.0)
        assert plus.variance() == pytest.approx(2.0, abs=1e-14)

    def test_no_squeezing_5050(self):
        sq = squeeze_from_G(1.0)
        g1 = 1.0 / (2.0 * math.cos(math.pi / 4))
        plus, _ = output_coefficients_tailored(
            sq, ProtocolSettings(eta=math.pi / 4, g1=g1, g2=0.0)
        )
        assert plus.variance() == pytest.approx(3.0, abs=1e-12)

    def test_unit_gain_5050_matches_standard(self):
        # eta = pi/4 with g1 = g2 = 1/sqrt(2) is the common-gain scheme at g = 1
        sq = squeeze_from_G(4.0 / 3.0)
        g = 1.0 / math.sqrt(2.0)
        plus, minus = output_coefficients_tailored(
            sq, ProtocolSettings(eta=math.pi / 4, g1=g, g2=g)
        )
        ref = variance_standard_gain(sq, 1.0)
        assert plus.variance() == pytest.approx(ref.v_plus, abs=1e-12)
        assert minus.variance() == pytest.approx(ref.v_minus, abs=1e-12)


class TestVariancesTailored:
    def test_limit_cases(self):
        sq = squeeze_from_G(1.0)
        v = variances_tailored(sq, 0.0, 0.0)
        assert (v.v_plus, v.v_minus) == (2.0, 1.0)
        v = variances_tailored(sq, math.pi / 4, 0.0)
        assert v.v_plus == pytest.approx(3.0, abs=1e-12)
        assert v.v_minus == pytest.approx(1.0, abs=1e-12)

    def test_large_squeezing_5050(self):
        sq = squeeze_from_G(100.0)
        v = variances_tailored(sq, math.pi / 4, g2_optimal(sq, math.pi / 4))
        assert abs(v.v_plus - 1.0) < 0.02
        assert abs(v.v_minus - 1.0) < 0.02

    def test_domain(self):
        sq = squeeze_from_G(2.0)
        with pytest.raises(ValueError):
            variances_tailored(sq, 1.0, 0.1)
        with pytest.raises(ValueError):
            variances_tailored(sq, 0.1, -1.0)


class TestGains:
    @pytest.mark.parametrize(
        "eta, expected",
        [(0.0, 0.5), (math.pi / 4, 1.0 / math.sqrt(2.0)), (math.pi / 6, 1.0 / math.sqrt(3.0))],
    )
    def test_g1_of_eta(self, eta, expected):
        assert g1_of_eta(eta) == pytest.approx(expected, abs=1e-12)

    def test_g1_unit_gain_on_target(self):
        # the target coefficient of the plus quadrature must be exactly 1
        for eta in np.linspace(0.0, math.pi / 4, 20):
            plus, _ = output_coefficients_tailored(
                squeeze_from_G(3.0),
                ProtocolSettings(eta=float(eta), g1=g1_of_eta(float(eta)), g2=0.3),
            )
            assert plus.c_in == pytest.approx(1.0, abs=1e-15)

    def test_g1_domain(self):
        with pytest.raises(ValueError):
            g1_of_eta(1.0)

    @pytest.mark.parametrize("eta", [0.0, 0.3, math.pi / 4])
    def test_g2_zero_without_squeezing(self, eta):
        assert g2_optimal(squeeze_from_G(1.0), eta) == 0.0

    def test_g2_infinite_squeezing_limit(self):
        g2 = g2_optimal(squeeze_from_G(1e6), math.pi / 4)
        assert abs(g2 - 1.0 / math.sqrt(2.0)) < 1e-3

    def test_g2_quadratic_minimum(self):
        sq = squeeze_from_G(2.0)
        g2 = g2_optimal(sq, math.pi / 4)
        assert g2 == pytest.approx(0.5, abs=1e-12)
        assert variances_tailored(sq, math.pi / 4, g2).v_minus == pytest.approx(1.0, abs=1e-12)
        grid = np.linspace(0.0, 2.0, 10_001)
        v_grid = [variances_tailored(sq, math.pi / 4, float(g)).v_minus for g in grid]
        assert min(v_grid) >= variances_tailored(sq, math.pi / 4, g2).v_minus - 1e-12


class TestStandardGain:
    def test_examples(self):
        assert variance_standard_gain(squeeze_from_G(1.0), 1.0).v_plus == 3.0
        assert variance_standard_gain(squeeze_from_G(1.0), 0.0).v_plus == 1.0
        # value fixed by the coefficient oracle: 1/3 + 1/3 + 1 = 5/3
        sq = squeeze_from_G(4.0 / 3.0)
        oracle = standard_gain_coefficients(sq, 1.0).variance()
        assert oracle == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert variance_standard_gain(sq, 1.0).v_plus == pytest.approx(oracle, abs=1e-12)

    def test_both_quadratures_equal(self):
        v = variance_standard_gain(squeeze_from_G(7.0), 0.8)
        assert v.v_plus == v.v_minus

    def test_monotone_limit(self):
        # V(G, 1) decreases strictly in G and tends to 1
        values = [
            variance_standard_gain(squeeze_from_G(float(G)), 1.0).v_plus
            for G in np.geomspace(1.0, 1e6, 200)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            variance_standard_gain(squeeze_from_G(2.0), -0.5)


class TestCoefficientOracle:
    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(321)
        for _ in range(1000):
            sq = squeeze_from_lambda(rng.uniform(0.0, 0.95))
            eta = rng.uniform(0.0, math.pi / 4)
            g2 = rng.uniform(0.0, 2.0)
            plus, minus = output_coefficients_tailored(
                sq, ProtocolSettings(eta=eta, g1=g1_of_eta(eta), g2=g2)
            )
            v = variances_tailored(sq, eta, g2)
            assert abs(v.v_plus - plus.variance()) <= 1e-12
            assert abs(v.v_minus - minus.variance()) <= 1e-12
            g = rng.uniform(0.0, 2.0)
            assert abs(
                variance_standard_gain(sq, g).v_plus
                - standard_gain_coefficients(sq, g).variance()
            ) <= 1e-12

    def test_covariance_oracle_random(self):
        # V+- as c^T Sigma c over the resource covariance, an algebra
        # independent of the coefficient sums; the bound is 1e-12 of the
        # magnitude |c|^T |Sigma| |c| of the summed terms
        rng = np.random.default_rng(2718)
        for _ in range(5000):
            lam = rng.uniform(0.0, 0.999)
            eta = rng.uniform(0.0, math.pi / 4)
            g2 = rng.uniform(0.0, 2.0)
            (v_plus, v_minus), (s_plus, s_minus) = covariance_variances(lam, eta, g2)
            v = variances_tailored(squeeze_from_lambda(lam), eta, g2)
            assert abs(v.v_plus - v_plus) <= 1e-12 * s_plus
            assert abs(v.v_minus - v_minus) <= 1e-12 * s_minus

    def test_oracle_equivalence_high_squeezing(self):
        # relative agreement continues through the top of the lam range
        for lam in (0.99, 0.999):
            sq = squeeze_from_lambda(lam)
            for eta in (0.0, 0.4, math.pi / 4):
                plus, minus = output_coefficients_tailored(
                    sq, ProtocolSettings(eta=eta, g1=g1_of_eta(eta), g2=1.3)
                )
                v = variances_tailored(sq, eta, 1.3)
                assert v.v_plus == pytest.approx(plus.variance(), rel=1e-12)
                assert v.v_minus == pytest.approx(minus.variance(), rel=1e-12)

    def test_g2_optimal_dominates_grid(self):
        rng = np.random.default_rng(654)
        grid = np.linspace(0.0, 4.0, 10_000)
        for _ in range(100):
            sq = squeeze_from_lambda(rng.uniform(0.0, 0.99))
            eta = rng.uniform(0.0, math.pi / 4)
            best = variances_tailored(sq, eta, g2_optimal(sq, eta)).v_minus
            v_grid = [variances_tailored(sq, eta, float(g)).v_minus for g in grid]
            assert best <= min(v_grid) + 1e-12
