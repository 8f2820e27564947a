"""Receiver strategies of each protocol variant.

Every tailored rule is the convex combination

    epsilon = (1 - lam) * guess + lam * beta

of a best guess for the target and the measurement outcome beta; the
variants differ only in how the guess is formed from prior knowledge.
The Monte Carlo kernel in :mod:`cvteleport.measurement` evaluates each
rule; :func:`optimal_displacement` is the known-target rule for one outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .fidelity import ComplexAmplitude
from .protocol import SqueezeLevel


@dataclass(frozen=True)
class Standard:
    """Plain scaled displacement epsilon = gain * beta."""

    gain: float = 1.0

    def __post_init__(self) -> None:
        if self.gain < 0.0:
            raise ValueError(f"gain must be non-negative, got {self.gain}")


@dataclass(frozen=True)
class OptimalKnownTarget:
    """Perfect prior knowledge: the guess is the true target amplitude."""


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


Strategy = Union[Standard, OptimalKnownTarget, LineTailored, CircleTailored]


def optimal_displacement(
    alpha_guess: ComplexAmplitude, beta: ComplexAmplitude, sq: SqueezeLevel
) -> ComplexAmplitude:
    """Fidelity-maximising displacement epsilon = (1-lam) alpha_guess + lam beta.

    With no squeezing it is best to displace straight to the guess; as
    squeezing grows the measurement outcome takes over and the rule tends
    to the standard unit-gain displacement.
    """
    lam = sq.lam
    return ComplexAmplitude(
        (1.0 - lam) * alpha_guess.x + lam * beta.x,
        (1.0 - lam) * alpha_guess.y + lam * beta.y,
    )

