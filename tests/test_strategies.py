"""Displacement rules of the three strategies.

The standard, line and circle rules live only in the Monte Carlo kernel,
which returns one-shot fidelities.  A rule displaces by epsilon at outcome
beta when its fidelity equals ``one_shot_fidelity(alpha, beta, epsilon)``
for three targets alpha that are not collinear: the fidelity is
exp(-|(1 - lam) alpha + lam beta - epsilon|^2), and three such distances
fix epsilon.
"""

import math

import numpy as np
import pytest

from cvteleport.fidelity import one_shot_fidelity
from cvteleport.kernel import _one_shot_into
from cvteleport.protocol import squeeze_from_lambda
from cvteleport.strategies import (
    CircleTailored,
    LineTailored,
    Standard,
    optimal_displacement,
)

TARGETS = (complex(1.0, 0.0), complex(-0.5, 2.0), complex(0.0, -1.5))


def kernel_fidelity(strategy, alpha, beta, sq):
    """The kernel's one-shot fidelity for target ``alpha`` at outcome ``beta``."""
    work = np.empty((6, 1))
    work[0], work[1] = beta.real - alpha.real, beta.imag - alpha.imag
    _one_shot_into(strategy, (alpha.real, alpha.imag), sq.lam, work)
    return float(work[0, 0])


def assert_displaces_to(strategy, beta, sq, eps):
    for alpha in TARGETS:
        expected = one_shot_fidelity(alpha, beta, eps, sq)
        assert kernel_fidelity(strategy, alpha, beta, sq) == pytest.approx(expected, rel=1e-12)


class TestOptimalDisplacement:
    def test_no_squeezing_uses_guess(self):
        guess = complex(1.5, -2.0)
        eps = optimal_displacement(guess, complex(9.0, 9.0), squeeze_from_lambda(0.0))
        assert eps == guess

    def test_large_squeezing_uses_outcome(self):
        beta = complex(0.5, 0.25)
        eps = optimal_displacement(
            complex(1.0, 0.0), beta, squeeze_from_lambda(1.0 - 1e-9)
        )
        assert eps.real == pytest.approx(beta.real, abs=1e-8)
        assert eps.imag == pytest.approx(beta.imag, abs=1e-8)

    def test_arithmetic(self):
        eps = optimal_displacement(
            complex(1.0, 0.0), complex(0.5, 0.0), squeeze_from_lambda(0.5)
        )
        assert (eps.real, eps.imag) == (0.75, 0.0)


class TestLineDisplacement:
    def test_arithmetic(self):
        beta = complex(3.0, 4.0)
        assert_displaces_to(
            LineTailored(), beta, squeeze_from_lambda(0.5), complex(4.0, 2.0)
        )

    def test_pure_guess_limit(self):
        beta = complex(-1.0, 2.0)
        guess = complex(math.hypot(beta.real, beta.imag), 0.0)
        assert_displaces_to(LineTailored(), beta, squeeze_from_lambda(0.0), guess)

    def test_outcome_on_line(self):
        beta = complex(2.0, 0.0)
        assert_displaces_to(LineTailored(), beta, squeeze_from_lambda(0.3), beta)


class TestCircleDisplacement:
    def test_projects_onto_circle(self):
        assert_displaces_to(
            CircleTailored(2.0), complex(0.0, 5.0), squeeze_from_lambda(0.0),
            complex(0.0, 2.0),
        )

    def test_large_squeezing_limit(self):
        # every fidelity here is within 1e-17 of 1, so this pins epsilon to
        # beta only within 1e-6; test_interpolation pins the rule exactly
        r = 3.0
        beta = complex(r * math.cos(1.1), r * math.sin(1.1))
        assert_displaces_to(CircleTailored(r), beta, squeeze_from_lambda(1.0 - 1e-9), beta)

    def test_outcome_on_circle(self):
        # |beta| equal to the radius makes the displacement exactly beta
        beta = complex(3.0, 4.0)
        assert_displaces_to(CircleTailored(5.0), beta, squeeze_from_lambda(0.5), beta)

    def test_origin_outcome_takes_arg_zero(self):
        # arg(0) resolved as 0: the guess sits on the positive real axis
        assert_displaces_to(
            CircleTailored(2.0), complex(0.0, 0.0), squeeze_from_lambda(0.4),
            complex((1.0 - 0.4) * 2.0, 0.0),
        )

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            CircleTailored(radius=-2.0)


class TestStandardDisplacement:
    @pytest.mark.parametrize(
        "g, beta, expected",
        [
            (1.0, (1.0, 1.0), (1.0, 1.0)),
            (0.0, (3.0, -2.0), (0.0, 0.0)),
            (0.5, (2.0, -2.0), (1.0, -1.0)),
        ],
    )
    def test_scaling(self, g, beta, expected):
        assert_displaces_to(
            Standard(g), complex(*beta), squeeze_from_lambda(0.6),
            complex(*expected),
        )

    def test_negative_gain(self):
        with pytest.raises(ValueError):
            Standard(gain=-1.0)


class TestProperties:
    def test_interpolation(self):
        # every tailored displacement is the (1-lam, lam) convex mix of its
        # guess and the outcome
        rng = np.random.default_rng(21)
        for _ in range(500):
            lam = rng.uniform(0.0, 0.999)
            sq = squeeze_from_lambda(lam)
            beta = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            guess = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            eps = optimal_displacement(guess, beta, sq)
            assert eps.real == pytest.approx((1 - lam) * guess.real + lam * beta.real, abs=1e-12)
            assert eps.imag == pytest.approx((1 - lam) * guess.imag + lam * beta.imag, abs=1e-12)

            line_guess = complex(math.hypot(beta.real, beta.imag), 0.0)
            assert_displaces_to(
                LineTailored(), beta, sq, optimal_displacement(line_guess, beta, sq)
            )

            r = rng.uniform(0.0, 5.0)
            phi = math.atan2(beta.imag, beta.real)
            circle_guess = complex(r * math.cos(phi), r * math.sin(phi))
            assert_displaces_to(
                CircleTailored(r), beta, sq, optimal_displacement(circle_guess, beta, sq)
            )

    def test_line_circle_agree_on_positive_axis(self):
        for lam in (0.0, 0.4, 0.97):
            sq = squeeze_from_lambda(lam)
            for x in (0.5, 2.0, 7.5):
                beta = complex(x, 0.0)
                for alpha in TARGETS:
                    line = kernel_fidelity(LineTailored(), alpha, beta, sq)
                    circle = kernel_fidelity(CircleTailored(x), alpha, beta, sq)
                    assert circle == pytest.approx(line, rel=1e-12)

    def test_optimal_displacement_is_argmax(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            lam = rng.uniform(0.0, 0.999)
            sq = squeeze_from_lambda(lam)
            alpha = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            beta = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            eps = optimal_displacement(alpha, beta, sq)
            best = one_shot_fidelity(alpha, beta, eps, sq)
            for dx in (-0.5, -0.01, 0.01, 0.5):
                for dy in (-0.5, -0.01, 0.01, 0.5):
                    shifted = complex(eps.real + dx, eps.imag + dy)
                    assert one_shot_fidelity(alpha, beta, shifted, sq) < best
