"""Squeeze-level encodings and the variance algebra against the coefficient oracle."""

import copy
import inspect
import math
import pickle

import numpy as np
import pytest

from cvteleport.alphabet import gaussian_weighted_fidelity
from cvteleport.experiments import ExperimentConfig
from cvteleport.fidelity import avg_fidelity_unit_gain
from cvteleport.measurement import CircleTailored, LineTailored, McEstimate, Standard
from cvteleport.protocol import (
    SqueezeLevel,
    output_coefficients_tailored,
    squeeze_from_G,
    tailored_g2,
    tailored_variances,
    variance_standard_gain,
)
from oracles import covariance_variances


def sum_sq(c):
    """Variance of a (c_v1, c_v2, c_in) expansion over unit-variance inputs."""
    return c[0] ** 2 + c[1] ** 2 + c[2] ** 2


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
        assert SqueezeLevel(0.0).G == 1.0

    def test_lambda_is_the_only_field(self):
        assert list(inspect.signature(SqueezeLevel).parameters) == ["lam"]

    @pytest.mark.parametrize(
        "lam, G",
        [(0.0, 1.0), (0.5, 4.0 / 3.0), (0.9, 1.0 / 0.19)],
    )
    def test_from_lambda(self, lam, G):
        sq = SqueezeLevel(lam)
        assert sq.lam == lam
        assert sq.G == pytest.approx(G, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.5, 0.999, -1.0, math.inf, math.nan])
    def test_from_G_domain(self, bad):
        with pytest.raises(ValueError):
            squeeze_from_G(bad)

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.nan])
    def test_from_lambda_domain(self, bad):
        with pytest.raises(ValueError):
            SqueezeLevel(bad)

    def test_round_trip(self):
        # the composed map has condition number ~2G in float64, so the
        # 1e-10 relative bound is only meaningful below G ~ 1e5; above
        # that the conditioning bound 2 G eps (~4.4e-10 at G = 1e6) applies
        for G in np.geomspace(1.0, 1e5, 300):
            back = SqueezeLevel(squeeze_from_G(float(G)).lam).G
            assert back == pytest.approx(G, rel=1e-10)
        for G in np.geomspace(1e5, 1e6, 100):
            back = SqueezeLevel(squeeze_from_G(float(G)).lam).G
            assert back == pytest.approx(G, rel=2.0 * G * 2.0 ** -52)

    def test_lambda_invariant_after_inverse_map(self):
        for lam in np.linspace(0.0, 0.9999, 500):
            sq = SqueezeLevel(float(lam))
            assert abs(sq.lam - math.sqrt((sq.G - 1.0) / sq.G)) <= 1e-12


# builds one instance of each validated value type
VALUE_TYPES = {
    "SqueezeLevel": lambda: SqueezeLevel(0.5),
    "Standard": lambda: Standard(0.7),
    "LineTailored": LineTailored,
    "CircleTailored": lambda: CircleTailored(2.0),
    "McEstimate": lambda: McEstimate(0.5, 0.01),
    "ExperimentConfig": lambda: ExperimentConfig(lambda_points=4, seed=7),
}


@pytest.mark.parametrize("make", VALUE_TYPES.values(), ids=VALUE_TYPES.keys())
def test_value_types_are_read_only_values(make):
    value, twin = make(), make()
    assert value is not twin and value == twin and hash(value) == hash(twin)
    assert repr(value) == repr(twin) and not hasattr(value, "__dict__")
    for name in type(value).__slots__ + ("other",):
        with pytest.raises(AttributeError, match="is read-only"):
            setattr(value, name, 0.25)
        with pytest.raises(AttributeError, match="is read-only"):
            delattr(value, name)
    assert value == twin
    # copies and pickles are equal values, so the read-only guard must let
    # them restore their attributes
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and clone == value and hash(clone) == hash(value)


def test_value_types_compare_by_type_and_value():
    assert SqueezeLevel(0.5) != SqueezeLevel(0.25)
    assert ExperimentConfig(seed=1) != ExperimentConfig(seed=2)
    assert Standard(2.0) != CircleTailored(2.0) and LineTailored() != ()
    assert repr(SqueezeLevel(0.5)) == "SqueezeLevel(lam=0.5, G=1.3333333333333333)"
    assert repr(LineTailored()) == "LineTailored()"


class TestSettingsAndVariancesTypes:
    def test_eta_range(self):
        sq = squeeze_from_G(2.0)
        with pytest.raises(ValueError, match="beam-splitter"):
            output_coefficients_tailored(sq, math.pi / 3, 0.5)
        with pytest.raises(ValueError, match="beam-splitter"):
            output_coefficients_tailored(sq, -0.01, 0.5)

    def test_negative_gains(self):
        with pytest.raises(ValueError, match="phase gain"):
            output_coefficients_tailored(squeeze_from_G(2.0), 0.1, -0.1)

    @pytest.mark.parametrize("g2", [math.nan, math.inf])
    def test_non_finite_phase_gain(self, g2):
        # a plain g2 < 0 check would let NaN and +inf through
        with pytest.raises(ValueError, match="phase gain must be non-negative"):
            output_coefficients_tailored(SqueezeLevel(0.5), 0.3, g2)

    def test_variances_positive(self):
        # the fidelity that consumes the variances checks them
        for v_plus, v_minus in ((math.nan, 1.0), (0.0, 1.0), (1.0, -0.5)):
            message = rf"variances must be positive, got \({v_plus}, {v_minus}\)"
            with pytest.raises(ValueError, match=message):
                avg_fidelity_unit_gain(v_plus, v_minus)


class TestOutputCoefficients:
    def test_no_squeezing_transmissive(self):
        # fully transmissive splitter, g1 = 1/2: plus quadrature is v2 + a_in
        plus, _ = output_coefficients_tailored(squeeze_from_G(1.0), 0.0, 0.0)
        assert plus == (0.0, 1.0, 1.0)
        assert sum_sq(plus) == pytest.approx(2.0, abs=1e-14)

    def test_no_squeezing_5050(self):
        plus, _ = output_coefficients_tailored(squeeze_from_G(1.0), math.pi / 4, 0.0)
        assert sum_sq(plus) == pytest.approx(3.0, abs=1e-12)

    def test_unit_gain_5050_matches_standard(self):
        # eta = pi/4 with g1 = g2 = 1/sqrt(2) is the common-gain scheme at g = 1
        sq = squeeze_from_G(4.0 / 3.0)
        plus, minus = output_coefficients_tailored(sq, math.pi / 4, 1.0 / math.sqrt(2.0))
        ref = variance_standard_gain(sq, 1.0)
        assert sum_sq(plus) == pytest.approx(ref, abs=1e-12)
        assert sum_sq(minus) == pytest.approx(ref, abs=1e-12)


class TestVariancesTailored:
    def test_limit_cases(self):
        sq = squeeze_from_G(1.0)
        assert tailored_variances(sq, 0.0, 0.0) == (2.0, 1.0)
        v_plus, v_minus = tailored_variances(sq, math.pi / 4, 0.0)
        assert v_plus == pytest.approx(3.0, abs=1e-12)
        assert v_minus == pytest.approx(1.0, abs=1e-12)

    def test_large_squeezing_5050(self):
        sq = squeeze_from_G(100.0)
        g2 = tailored_g2(sq, math.pi / 4)
        v_plus, v_minus = tailored_variances(sq, math.pi / 4, g2)
        assert abs(v_plus - 1.0) < 0.02
        assert abs(v_minus - 1.0) < 0.02

    @pytest.mark.parametrize("G", [1.0, 2.0, 500.0, 1e6])
    def test_numpy_evaluation_matches_the_scalar_one(self, G):
        # a numpy float64 eta is a float, so it is evaluated with math, bit
        # for bit
        sq = squeeze_from_G(G)
        eta = np.linspace(0.0, math.pi / 4, 257)
        for i, x in enumerate(eta.tolist()):
            g2_x = tailored_g2(sq, x)
            assert tailored_g2(sq, eta[i]) == g2_x
            assert tailored_variances(sq, eta[i], g2_x) == tailored_variances(sq, x, g2_x)


class TestGains:
    def test_g1_unit_gain_on_target(self):
        # g1 = 1/(2 cos(eta)): the target coefficient of the plus quadrature is 1
        for eta in np.linspace(0.0, math.pi / 4, 20):
            (_, _, c_in), _ = output_coefficients_tailored(squeeze_from_G(3.0), float(eta), 0.3)
            assert c_in == pytest.approx(1.0, abs=1e-15)

    def test_g1_domain(self):
        # g1 is defined up to the 50:50 splitter, the last eta above, and
        # not one ulp beyond it
        with pytest.raises(ValueError, match="beam-splitter"):
            output_coefficients_tailored(squeeze_from_G(3.0), math.nextafter(math.pi / 4, 1.0), 0.3)

    @pytest.mark.parametrize("eta", [0.0, 0.3, math.pi / 4])
    def test_g2_zero_without_squeezing(self, eta):
        assert tailored_g2(squeeze_from_G(1.0), eta) == 0.0

    def test_g2_infinite_squeezing_limit(self):
        g2 = tailored_g2(squeeze_from_G(1e6), math.pi / 4)
        assert abs(g2 - 1.0 / math.sqrt(2.0)) < 1e-3

    def test_g2_quadratic_minimum(self):
        sq = squeeze_from_G(2.0)
        g2 = tailored_g2(sq, math.pi / 4)
        assert g2 == pytest.approx(0.5, abs=1e-12)
        best = tailored_variances(sq, math.pi / 4, g2)[1]
        assert best == pytest.approx(1.0, abs=1e-12)
        grid = np.linspace(0.0, 2.0, 10_001)
        _, v_grid = tailored_variances(sq, math.pi / 4, grid)
        assert v_grid.min() >= best - 1e-12


class TestStandardGain:
    def test_examples(self):
        assert variance_standard_gain(squeeze_from_G(1.0), 1.0) == 3.0
        assert variance_standard_gain(squeeze_from_G(1.0), 0.0) == 1.0
        # value fixed by the coefficient oracle: 1/3 + 1/3 + 1 = 5/3; the
        # common-gain scheme is the 50:50 phase quadrature at g2 = g/sqrt(2)
        sq = squeeze_from_G(4.0 / 3.0)
        _, phase = output_coefficients_tailored(sq, math.pi / 4, 1.0 / math.sqrt(2.0))
        oracle = sum_sq(phase)
        assert oracle == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert variance_standard_gain(sq, 1.0) == pytest.approx(oracle, abs=1e-12)

    def test_monotone_limit(self):
        # V(G, 1) decreases strictly in G and tends to 1
        values = [
            variance_standard_gain(squeeze_from_G(float(G)), 1.0)
            for G in np.geomspace(1.0, 1e6, 200)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            variance_standard_gain(squeeze_from_G(2.0), -0.5)

    @pytest.mark.parametrize("g", [math.nan, math.inf])
    def test_non_finite_gain_rejected(self, g):
        # the gain check names the gain, as Standard's does
        sq = SqueezeLevel(0.5)
        message = rf"gain must be non-negative and finite, got {g}"
        with pytest.raises(ValueError, match=message):
            variance_standard_gain(sq, g)
        with pytest.raises(ValueError, match=message):
            gaussian_weighted_fidelity(sq, g, 0.2)


class TestCoefficientOracle:
    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(321)
        for _ in range(1000):
            sq = SqueezeLevel(rng.uniform(0.0, 0.95))
            eta = rng.uniform(0.0, math.pi / 4)
            g2 = rng.uniform(0.0, 2.0)
            plus, minus = output_coefficients_tailored(sq, eta, g2)
            v_plus, v_minus = tailored_variances(sq, eta, g2)
            assert abs(v_plus - sum_sq(plus)) <= 1e-12
            assert abs(v_minus - sum_sq(minus)) <= 1e-12
            g = rng.uniform(0.0, 2.0)
            _, phase = output_coefficients_tailored(sq, math.pi / 4, g / math.sqrt(2.0))
            assert abs(variance_standard_gain(sq, g) - sum_sq(phase)) <= 1e-12

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
            got_plus, got_minus = tailored_variances(SqueezeLevel(lam), eta, g2)
            assert abs(got_plus - v_plus) <= 1e-12 * s_plus
            assert abs(got_minus - v_minus) <= 1e-12 * s_minus

    def test_oracle_equivalence_high_squeezing(self):
        # relative agreement continues through the top of the lam range
        for lam in (0.99, 0.999):
            sq = SqueezeLevel(lam)
            for eta in (0.0, 0.4, math.pi / 4):
                plus, minus = output_coefficients_tailored(sq, eta, 1.3)
                v_plus, v_minus = tailored_variances(sq, eta, 1.3)
                assert v_plus == pytest.approx(sum_sq(plus), rel=1e-12)
                assert v_minus == pytest.approx(sum_sq(minus), rel=1e-12)

    def test_g2_optimal_dominates_grid(self):
        rng = np.random.default_rng(654)
        grid = np.linspace(0.0, 4.0, 10_000)
        for _ in range(100):
            sq = SqueezeLevel(rng.uniform(0.0, 0.99))
            eta = rng.uniform(0.0, math.pi / 4)
            best = tailored_variances(sq, eta, tailored_g2(sq, eta))[1]
            _, v_grid = tailored_variances(sq, eta, grid)
            assert best <= v_grid.min() + 1e-12
