"""Measurement-outcome sampling and average-fidelity estimation.

The joint measurement on the target and the sender's half of the resource
yields an outcome beta whose conditional density given a coherent target
alpha is the symmetric complex Gaussian

    P(beta | alpha) = ((1 - lam^2)/pi) exp(-(1 - lam^2) |beta - alpha|^2),

i.e. each component is normal with mean the matching component of alpha
and variance 1/(2 (1 - lam^2)).  This density is not an independent
assumption: the test suite derives it, and the one-shot rule, from the
two-mode squeezed vacuum in the Fock basis, and averaging the one-shot
fidelity under the standard strategy against it reproduces the closed
Heisenberg-picture curve (1 + lam)/2 exactly, which the suite checks end
to end (see README for the derivation).

The estimator takes one of three receiver strategies: :class:`Standard`,
:class:`LineTailored` or :class:`CircleTailored`; the kernel's docstring
derives the displacement each one applies.

The Monte Carlo average runs in :mod:`cvteleport.kernel`, the numpy chunk
kernel, which this module imports on the first estimate (after the inputs
are checked), so importing it loads no numpy.  The kernel's docstring
states the chunking, the per-estimate workspace and the one-shot forms;
chunk k of a run with seed s draws its own derived stream, so an estimate
depends only on (seed, n).

Known limitation: the standard error comes from sum(f^2) - n mean^2,
which cancels when every sample is close to 1 (lam -> 1), so at the
0.999 cap its 8th significant digit depends on last-bit rounding of the
samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .protocol import LAMBDA_MAX, SqueezeLevel

# Fixed chunk size of the Monte Carlo reduction; part of the determinism
# contract, so changing it changes the streams.
MC_CHUNK = 1 << 16

MIN_SAMPLES = 1_000
# Most samples per estimate: a minute or so at 50-75 ns/sample (2-vCPU Xeon).
MAX_SAMPLES = 1_000_000_000

# Largest target amplitude the kernels accept: they square outcome
# components, and |beta|^2 overflows above |beta| ~ 1e154.
MAX_AMPLITUDE = 1e150


@dataclass(frozen=True)
class Standard:
    """Plain scaled displacement epsilon = gain * beta."""

    gain: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.gain < math.inf):
            raise ValueError(f"gain must be non-negative and finite, got {self.gain}")


@dataclass(frozen=True)
class LineTailored:
    """Targets on the positive real axis: phase known, amplitude guessed as |beta|."""


@dataclass(frozen=True)
class CircleTailored:
    """Targets of known amplitude (the radius), phase guessed as arg(beta)."""

    radius: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.radius < math.inf):
            raise ValueError(f"radius must be non-negative and finite, got {self.radius}")


Strategy = Union[Standard, LineTailored, CircleTailored]


def component_sigma(sq: SqueezeLevel) -> float:
    """Standard deviation 1/sqrt(2 (1 - lam^2)) of each beta component."""
    if sq.lam > LAMBDA_MAX:
        raise ValueError(
            f"squeezing parameter capped at {LAMBDA_MAX} for outcome sampling, "
            f"got {sq.lam}"
        )
    return 1.0 / math.sqrt(2.0 * (1.0 - sq.lam * sq.lam))


@dataclass(frozen=True)
class McEstimate:
    """A seeded Monte Carlo mean with its standard error."""

    mean: float
    std_error: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and self.std_error >= 0.0):
            raise ValueError(
                f"bad estimate: mean={self.mean}, std_error={self.std_error}"
            )


def mc_average_fidelity(
    strategy: Strategy,
    alpha: complex,
    sq: SqueezeLevel,
    n: int,
    seed: int,
) -> McEstimate:
    """Monte Carlo average of the one-shot fidelity over measurement outcomes.

    Draws n outcomes beta conditioned on the target alpha, a ``complex``
    (a ``float`` is a target on the real axis) of modulus at most
    MAX_AMPLITUDE, applies the strategy's displacement to each outcome and
    averages the one-shot fidelity.  Chunk k
    uses its own derived generator and the partial sums are added in
    chunk order, so the result depends only on (seed, n).
    """
    if not MIN_SAMPLES <= n <= MAX_SAMPLES:
        raise ValueError(f"need {MIN_SAMPLES} to {MAX_SAMPLES} samples, got {n}")
    # hypot, not abs(): abs raises OverflowError once |alpha| passes the float range
    if not math.hypot(alpha.real, alpha.imag) <= MAX_AMPLITUDE:
        raise ValueError(f"target amplitude must be at most {MAX_AMPLITUDE:g}, got {alpha}")
    sigma = component_sigma(sq)  # validates the lam cap
    from .kernel import chunk_sums  # numpy loads here, on the first estimate

    total, total_sq = chunk_sums(strategy, (alpha.real, alpha.imag), sq.lam, sigma, n, seed)
    mean = total / n
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
    return McEstimate(mean=mean, std_error=math.sqrt(var / n))
