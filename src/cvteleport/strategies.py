"""Receiver strategies of each protocol variant.

Every tailored rule is the convex combination

    epsilon = (1 - lam) * guess + lam * beta

of a best guess for the target and the measurement outcome beta; the
variants differ only in how the guess is formed from prior knowledge.
The Monte Carlo kernel in :mod:`cvteleport.kernel` evaluates each
rule; :func:`optimal_displacement` is the rule for one guess and one
outcome, with the points as Python ``complex`` numbers.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Union

from .protocol import SqueezeLevel


@dataclass(frozen=True)
class Standard:
    """Plain scaled displacement epsilon = gain * beta."""

    gain: float = 1.0

    def __post_init__(self) -> None:
        if self.gain < 0.0:
            raise ValueError(f"gain must be non-negative, got {self.gain}")


@dataclass(frozen=True)
class LineTailored:
    """Targets on the positive real axis: phase known, amplitude guessed as |beta|."""


@dataclass(frozen=True)
class CircleTailored:
    """Targets of known amplitude (the radius), phase guessed as arg(beta)."""

    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0.0:
            raise ValueError(f"radius must be non-negative, got {self.radius}")


Strategy = Union[Standard, LineTailored, CircleTailored]


def optimal_displacement(alpha_guess: complex, beta: complex, sq: SqueezeLevel) -> complex:
    """Fidelity-maximising displacement epsilon = (1-lam) alpha_guess + lam beta.

    With no squeezing it is best to displace straight to the guess; as
    squeezing grows the measurement outcome takes over and the rule tends
    to the standard unit-gain displacement.  Both points must be finite.
    """
    if not (cmath.isfinite(alpha_guess) and cmath.isfinite(beta)):
        raise ValueError(f"points must be finite, got {alpha_guess}, {beta}")
    lam = sq.lam
    return (1.0 - lam) * alpha_guess + lam * beta
