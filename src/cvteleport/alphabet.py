"""The alphabet-weighted average fidelity of a Gaussian target alphabet.

The alphabet-weighted figure of merit is the integral of the general-gain
average fidelity F(alpha) against the probability density of the verifier
preparing target alpha.  For a two-dimensional Gaussian alphabet both
sides are Gaussian in alpha, so the integral has the closed form
implemented in :func:`gaussian_weighted_fidelity`;
:func:`gaussian_weighted_fidelity_quadrature` evaluates the same integral
numerically and serves as the independent oracle (it also covers
asymmetric alphabets, which the closed form does not).  Its one
Gauss-Hermite rule, :func:`gauss_hermite`, has ``ORDER`` nodes and is
computed here by Newton's method in plain floats; this module imports no
numpy.
"""

from __future__ import annotations

import functools
import math

from .fidelity import checked_fidelity
from .protocol import SqueezeLevel, variance_standard_gain

# Nodes per axis of the oracle's Gauss-Hermite rule.
ORDER = 64


@functools.cache
def gauss_hermite() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Hermite nodes (ascending) and weights of order ``ORDER``, computed once."""
    return _gauss_hermite_rule(ORDER)


def _gauss_hermite_rule(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Hermite nodes (ascending) and weights of order ``n``.

    The rule integrates against e^{-x^2}.  Each positive root of H_n is
    found by Newton's method from Numerical Recipes' starting guesses
    (routine ``gauher``), with the orthonormal recurrence evaluated on the
    Hermite functions psi_j = p_j e^{-x^2/2}, so nothing overflows.  The
    weight of root x is proportional to e^{-x^2} / psi_{n-1}(x)^2; the
    weights are scaled to sum to sqrt(pi).  The negative roots mirror the
    positive ones and an odd order has 0 as its middle node, so the rule
    is exactly symmetric.  Plain float arithmetic: no LAPACK call and no
    numpy.  The package uses order ``ORDER`` only; the tests hold the
    method to numpy's hermgauss at every order from 16 to 128 (the
    starting guesses lead Newton's method to every root through order
    176 and fail at 177).
    """
    up = [math.sqrt(2.0 / j) for j in range(1, n + 1)]
    down = [math.sqrt((j - 1) / j) for j in range(1, n + 1)]

    def psi(x: float, degree: int) -> tuple[float, float]:
        """(psi_degree(x), psi_{degree-1}(x))."""
        p, prev = math.pi ** -0.25 * math.exp(-0.5 * x * x), 0.0
        for j in range(degree):
            p, prev = x * up[j] * p - down[j] * prev, p
        return p, prev

    roots: list[float] = []  # the positive roots, largest first
    for i in range(n // 2):
        if i == 0:
            x = math.sqrt(2 * n + 1) - 1.85575 * (2 * n + 1) ** -0.16667
        elif i == 1:
            x -= 1.14 * n**0.426 / x
        elif i == 2:
            x = 1.86 * x - 0.86 * roots[0]
        elif i == 3:
            x = 1.91 * x - 0.91 * roots[1]
        else:
            x = 2.0 * x - roots[i - 2]
        for _ in range(10):
            p_n, p_prev = psi(x, n)
            step = p_n / (math.sqrt(2.0 * n) * p_prev)
            x -= step
            if abs(step) <= 3e-14:
                break
        else:
            raise ArithmeticError(f"Newton's method found no root {i} of order {n}")
        roots.append(x)
    if n % 2:
        roots.append(0.0)
    raw = [math.exp(-x * x) / psi(x, n - 1)[0] ** 2 for x in roots]
    scale = math.sqrt(math.pi) / math.fsum(raw + raw[: n // 2])
    per_root = [w * scale for w in raw]
    nodes = tuple([-x for x in roots[: n // 2]] + roots[::-1])
    weights = tuple(per_root[: n // 2] + per_root[::-1])
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
    sq: SqueezeLevel, g: float, s_x: float, s_y: float
) -> float:
    """Gauss-Hermite evaluation of the alphabet-weighted fidelity integral.

    Reference implementation for :func:`gaussian_weighted_fidelity`;
    also supports asymmetric alphabets (s_x != s_y).  The integrand
    A e^{-c (x^2 + y^2)} factorises, so the 2-D rule's sum is
    A Q(s_x) Q(s_y) / pi with Q(s) = sum_i w_i e^{-2 c s^2 x_i^2}, each Q
    a 1-D sum over the ``ORDER`` nodes of :func:`gauss_hermite`.
    """
    if not (0.0 < s_x < math.inf and 0.0 < s_y < math.inf):
        raise ValueError(
            f"standard deviations must be positive and finite, got ({s_x}, {s_y})"
        )
    v = variance_standard_gain(sq, g)
    a = 2.0 / (v + 1.0)
    c = 2.0 * (1.0 - g) ** 2 / (v + 1.0)
    nodes, weights = gauss_hermite()

    def q(s: float) -> float:
        scaled = [math.sqrt(2.0) * s * x for x in nodes]
        return math.fsum(w * math.exp(-c * u * u) for w, u in zip(weights, scaled))

    return checked_fidelity(a * q(s_x) * q(s_y) / math.pi)
