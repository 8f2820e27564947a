"""Fidelity formulas: one-shot, averaged, and the Gaussian classical limit.

Phase-space points (targets, measurement outcomes, displacements) are
Python ``complex`` numbers and fidelities plain ``float``s.  Every
fidelity passes :func:`checked_fidelity`, which tolerates floating-point
overshoot above 1 only at the 1e-12 level and rejects anything larger as
a formula bug.
"""

from __future__ import annotations

import cmath
import math

from .protocol import QuadratureVariances, SqueezeLevel

# Overshoot above 1 tolerated (and clamped) by checked_fidelity.
OVERSHOOT_TOL = 1e-12


def checked_fidelity(value: float) -> float:
    """A state overlap in [0, 1].

    Values in (1, 1 + 1e-12] are clamped to 1 (floating-point overshoot);
    anything above that, or below 0, raises.
    """
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"fidelity must lie in [0, 1], got {value}")
    if value > 1.0:
        if value > 1.0 + OVERSHOOT_TOL:
            raise ValueError(f"fidelity exceeds 1 beyond float tolerance: {value}")
        return 1.0
    return value


def transfer_exponent(ux, uy, wx, wy, lam):
    """log-fidelity -|u|^2 - lam^2 |w|^2 + 2 lam Re(u* w) of one run.

    ``u`` is target minus displacement, ``w`` is target minus measurement
    outcome, componentwise.  Written with plain arithmetic so it applies
    elementwise to numpy arrays as well as floats.  Algebraically equal to
    -|u - lam w|^2, hence never positive; |exp(z)|^2 terms are folded in
    as 2 Re(z) so nothing here can overflow.
    """
    return (
        -(ux * ux + uy * uy)
        - lam * lam * (wx * wx + wy * wy)
        + 2.0 * lam * (ux * wx + uy * wy)
    )


def one_shot_fidelity(alpha: complex, beta: complex, epsilon: complex, sq: SqueezeLevel) -> float:
    """Fidelity of a single run conditioned on the measurement outcome beta.

    For a coherent target alpha, joint-measurement outcome beta and
    receiver displacement epsilon,

        F = exp(-|alpha - epsilon|^2) * exp(-lam^2 |alpha - beta|^2)
            * |exp(lam (alpha* - epsilon*)(alpha - beta))|^2.

    The three factors are combined in log space.  Every point must be finite.
    """
    if not all(map(cmath.isfinite, (alpha, beta, epsilon))):
        raise ValueError(f"points must be finite, got {alpha}, {beta}, {epsilon}")
    u, w = alpha - epsilon, alpha - beta
    return checked_fidelity(math.exp(transfer_exponent(u.real, u.imag, w.real, w.imag, sq.lam)))


def avg_fidelity_unit_gain(v: QuadratureVariances) -> float:
    """Average fidelity at unit gain: 2 / sqrt((V+ + 1)(V- + 1))."""
    return checked_fidelity(2.0 / math.sqrt((v.v_plus + 1.0) * (v.v_minus + 1.0)))


def bfk_classical_limit(s: float) -> float:
    """Best average fidelity with no entanglement for a Gaussian alphabet.

    For a symmetric two-dimensional Gaussian alphabet of standard
    deviation s, the classical limit is (1 + chi)/(2 + chi) with
    chi = 1/(2 s^2).  A flat alphabet (s -> inf) recovers 1/2.
    """
    if not (s > 0.0) or not math.isfinite(s):
        raise ValueError(f"alphabet standard deviation must be positive, got {s}")
    chi = 1.0 / (2.0 * s * s)
    return checked_fidelity((1.0 + chi) / (2.0 + chi))
