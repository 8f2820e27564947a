"""The alphabet-weighted average fidelity of a Gaussian target alphabet.

The alphabet-weighted figure of merit is the integral of the general-gain
average fidelity F(alpha) against the probability density of the verifier
preparing target alpha.  For a two-dimensional Gaussian alphabet both
sides are Gaussian in alpha, so the integral has the closed form
implemented in :func:`gaussian_weighted_fidelity`;
:func:`gaussian_weighted_fidelity_quadrature` evaluates the same integral
numerically and serves as the independent oracle (it also covers
asymmetric alphabets, which the closed form does not).  The oracle is the
trapezoidal rule on one fixed uniform grid, summed in plain floats; this
module imports no numpy.
"""

from __future__ import annotations

import math

from .fidelity import checked_fidelity
from .protocol import SqueezeLevel, variance_standard_gain

# The oracle's trapezoidal nodes y_k = k h, |y_k| <= 6.5: 105 per axis.
_STEP = 0.125
_NODES = tuple(k * _STEP for k in range(-52, 53))


def gaussian_weighted_fidelity(sq: SqueezeLevel, g: float, s: float) -> float:
    """Closed-form alphabet-weighted fidelity for a symmetric Gaussian alphabet.

    With the 50:50 common-gain variances V+ = V- = V, the general-gain
    average fidelity is A exp(-c |alpha|^2) with A = 2/(V+1) and
    c = 2 (1-g)^2 / (V+1); integrating against the symmetric Gaussian of
    standard deviation s gives

        A / (1 + 2 c s^2),

    an exact Gaussian integral (see README for the two-line derivation).
    """
    if not (0.0 < s < math.inf):
        raise ValueError(f"alphabet standard deviation must be positive and finite, got {s}")
    v = variance_standard_gain(sq, g)
    a = 2.0 / (v + 1.0)
    c = 2.0 * (1.0 - g) ** 2 / (v + 1.0)
    return checked_fidelity(a / (1.0 + 2.0 * c * s * s))


def gaussian_weighted_fidelity_quadrature(
    sq: SqueezeLevel, g: float, s_x: float, s_y: float
) -> float:
    """Trapezoidal-rule evaluation of the alphabet-weighted fidelity integral.

    Reference implementation for :func:`gaussian_weighted_fidelity`;
    also supports asymmetric alphabets (s_x != s_y).  The density times
    A e^{-c |alpha|^2} factorises over the two axes; substituting
    x = sqrt(2) s y on each, the integral is A Q(s_x) Q(s_y) / pi, where
    Q(s) = h sum_k e^{-y_k^2} e^{-2 c s^2 y_k^2} sums density factor times
    fidelity factor over the fixed nodes y_k = k h, h = 1/8, |y_k| <= 6.5.
    The rule holds for 2 c s^2 <= 16 only: on a Gaussian of exponent
    a = 1 + 2 c s^2 its aliasing error is about 2 e^{-pi^2 / (a h^2)}
    relative, below 2e-16 up to a = 17, and a narrower integrand aliases on
    any fixed grid, so a wider alphabet raises ``ValueError`` (unit gain,
    c = 0, has no limit).
    """
    if not (0.0 < s_x < math.inf and 0.0 < s_y < math.inf):
        raise ValueError(
            f"standard deviations must be positive and finite, got ({s_x}, {s_y})"
        )
    v = variance_standard_gain(sq, g)
    a = 2.0 / (v + 1.0)
    c = 2.0 * (1.0 - g) ** 2 / (v + 1.0)

    def q(s: float) -> float:
        k = 2.0 * c * s * s  # e^{-c x^2} = e^{-k y^2} at x = sqrt(2) s y
        if k > 16.0:
            raise ValueError(f"the oracle holds for 2 c s^2 <= 16, got {k} at {s=}")
        return _STEP * math.fsum(math.exp(-y * y) * math.exp(-k * y * y) for y in _NODES)

    return checked_fidelity(a * q(s_x) * q(s_y) / math.pi)
