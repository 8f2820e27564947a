"""The alphabet-weighted average fidelity of a Gaussian target alphabet.

The alphabet-weighted figure of merit is the integral of the general-gain
average fidelity F(alpha) against the probability density of the verifier
preparing target alpha.  For a two-dimensional Gaussian alphabet both
sides are Gaussian in alpha, so the integral has the closed form
implemented in :func:`gaussian_weighted_fidelity`;
:func:`gaussian_weighted_fidelity_quadrature` evaluates the same integral
numerically and serves as the independent oracle (it also covers
asymmetric alphabets, which the closed form does not).
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

from .fidelity import checked_fidelity
from .protocol import SqueezeLevel, variance_standard_gain

if TYPE_CHECKING:
    import numpy as np


@functools.cache
def gauss_hermite(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Hermite nodes and weights of ``order``, computed once."""
    import numpy as np

    nodes, weights = np.polynomial.hermite.hermgauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


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
    sq: SqueezeLevel, g: float, s_x: float, s_y: float, order: int
) -> float:
    """Gauss-Hermite evaluation of the alphabet-weighted fidelity integral.

    Reference implementation for :func:`gaussian_weighted_fidelity`;
    also supports asymmetric alphabets (s_x != s_y).
    """
    if order < 16:
        raise ValueError(f"quadrature order must be at least 16, got {order}")
    if not (0.0 < s_x < math.inf and 0.0 < s_y < math.inf):
        raise ValueError(
            f"standard deviations must be positive and finite, got ({s_x}, {s_y})"
        )
    v = variance_standard_gain(sq, g)
    a = 2.0 / (v + 1.0)
    c = 2.0 * (1.0 - g) ** 2 / (v + 1.0)
    import numpy as np

    nodes, weights = gauss_hermite(order)
    ax = math.sqrt(2.0) * s_x * nodes[:, None]
    ay = math.sqrt(2.0) * s_y * nodes[None, :]
    f = a * np.exp(-c * (ax * ax + ay * ay))
    return checked_fidelity(float((weights[:, None] * weights[None, :] * f).sum() / math.pi))
