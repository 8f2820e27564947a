"""Fidelity formulas: one-shot, averaged, and the Gaussian classical limit.

Phase-space points (targets, measurement outcomes, displacements) are
handled as :class:`ComplexAmplitude` pairs; fidelities are wrapped in
:class:`Fidelity`, whose constructor tolerates floating-point overshoot
above 1 only at the 1e-12 level and rejects anything larger as a formula
bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .protocol import QuadratureVariances, SqueezeLevel

# Overshoot above 1 tolerated (and clamped) by the Fidelity constructor.
OVERSHOOT_TOL = 1e-12


@dataclass(frozen=True)
class ComplexAmplitude:
    """A point in phase space: x + i y with finite real components."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"amplitude components must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class Fidelity:
    """A state overlap in [0, 1].

    Values in (1, 1 + 1e-12] are clamped to 1 (floating-point overshoot);
    anything above that, or below 0, raises.
    """

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or self.value < 0.0:
            raise ValueError(f"fidelity must lie in [0, 1], got {self.value}")
        if self.value > 1.0:
            if self.value > 1.0 + OVERSHOOT_TOL:
                raise ValueError(f"fidelity exceeds 1 beyond float tolerance: {self.value}")
            object.__setattr__(self, "value", 1.0)


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


def one_shot_fidelity(
    alpha: ComplexAmplitude,
    beta: ComplexAmplitude,
    epsilon: ComplexAmplitude,
    sq: SqueezeLevel,
) -> Fidelity:
    """Fidelity of a single run conditioned on the measurement outcome beta.

    For a coherent target alpha, joint-measurement outcome beta and
    receiver displacement epsilon,

        F = exp(-|alpha - epsilon|^2) * exp(-lam^2 |alpha - beta|^2)
            * |exp(lam (alpha* - epsilon*)(alpha - beta))|^2.

    The three factors are combined in log space.
    """
    expo = transfer_exponent(
        alpha.x - epsilon.x,
        alpha.y - epsilon.y,
        alpha.x - beta.x,
        alpha.y - beta.y,
        sq.lam,
    )
    return Fidelity(math.exp(expo))


def avg_fidelity_unit_gain(v: QuadratureVariances) -> Fidelity:
    """Average fidelity at unit gain: 2 / sqrt((V+ + 1)(V- + 1))."""
    return Fidelity(2.0 / math.sqrt((v.v_plus + 1.0) * (v.v_minus + 1.0)))


def bfk_classical_limit(s: float) -> Fidelity:
    """Best average fidelity with no entanglement for a Gaussian alphabet.

    For a symmetric two-dimensional Gaussian alphabet of standard
    deviation s, the classical limit is (1 + chi)/(2 + chi) with
    chi = 1/(2 s^2).  A flat alphabet (s -> inf) recovers 1/2.
    """
    if not (s > 0.0) or not math.isfinite(s):
        raise ValueError(f"alphabet standard deviation must be positive, got {s}")
    chi = 1.0 / (2.0 * s * s)
    return Fidelity((1.0 + chi) / (2.0 + chi))
