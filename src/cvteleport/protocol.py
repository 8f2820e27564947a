"""Physical parameters and Heisenberg-picture variance algebra of the teleporter.

Conventions used throughout the package:

* Quadratures are X+ = a + a^dag and X- = (a - a^dag)/i, so a vacuum or
  coherent mode has unit variance in both quadratures.  All variance
  formulas below are written in this convention (e.g. standard unit-gain
  teleportation with no squeezing gives V = 3, not 2 or 3/2).
* The entanglement resource is held as the squeezing parameter
  lam = tanh(r) in [0, 1); the parametric gain G = 1/(1 - lam^2) >= 1 of
  the two-mode squeezer is derived from it.
* Normalisation factors are absorbed into the classical gains, so unit
  gain on a measured quadrature corresponds to a gain value of 1/sqrt(2).

Every closed-form variance here can be cross-checked against the
coefficient-sum oracle: an output quadrature is a real linear combination
of the independent input-mode quadratures (the two pre-squeezer vacua and
the target), each of which contributes unit variance, so its variance is
the sum of squared coefficients.  ``QuadratureCoefficients.variance()``
implements that oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# Hard cap on the squeezing parameter for anything that samples or scans
# over lam: the measurement-outcome distribution degenerates as lam -> 1.
LAMBDA_MAX = 0.999


@dataclass(frozen=True)
class SqueezeLevel:
    """Entanglement strength of the two-mode squeezed vacuum resource.

    Held as the squeezing parameter ``lam`` in [0, 1); the parametric gain
    ``G`` = 1/(1 - lam^2) >= 1 is derived once at construction, because the
    optimisers read it on every objective evaluation.
    """

    lam: float
    G: float = field(init=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.lam < 1.0):
            raise ValueError(f"squeezing parameter must lie in [0, 1), got {self.lam}")
        # (1 - lam) is exact for lam >= 0.5 (Sterbenz), which keeps the
        # map as well conditioned as float64 allows near lam -> 1.
        object.__setattr__(self, "G", 1.0 / ((1.0 - self.lam) * (1.0 + self.lam)))


def squeeze_from_G(G: float) -> SqueezeLevel:
    """Build a squeeze level from the parametric gain G >= 1 (``.G`` is G up to rounding)."""
    if not (isinstance(G, (int, float)) and math.isfinite(G)) or G < 1.0:
        raise ValueError(f"parametric gain must be finite and >= 1, got {G!r}")
    G = float(G)
    return SqueezeLevel(lam=math.sqrt((G - 1.0) / G))


def squeeze_from_lambda(lam: float) -> SqueezeLevel:
    """Build a squeeze level from the squeezing parameter lam in [0, 1)."""
    if not (isinstance(lam, (int, float)) and math.isfinite(lam)):
        raise ValueError(f"squeezing parameter must lie in [0, 1), got {lam!r}")
    return SqueezeLevel(lam=float(lam))


@dataclass(frozen=True)
class ProtocolSettings:
    """Beam-splitter parameter and classical gains of the tailored scheme.

    ``eta`` is the beam-splitter mixing angle in radians (reflectivity
    sin^2(eta)); only [0, pi/4] — reflectivities up to 50:50 — is allowed.
    ``g1`` and ``g2`` scale the two measured quadratures before they are
    sent to the receiver; g1 = g2 = 1/sqrt(2) is unit gain.
    """

    eta: float
    g1: float
    g2: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.eta <= math.pi / 4):
            raise ValueError(f"beam-splitter parameter must lie in [0, pi/4], got {self.eta}")
        if self.g1 < 0.0 or self.g2 < 0.0:
            raise ValueError(f"gains must be non-negative, got g1={self.g1}, g2={self.g2}")


@dataclass(frozen=True)
class QuadratureVariances:
    """Amplitude (v_plus) and phase (v_minus) variances of the output mode.

    Strictly positive.  Conditional phase variances below the vacuum level
    do occur for G > 1 at partially transmissive settings (the receiver's
    displacement cancels part of his mode's noise through the EPR
    correlations), so only positivity is enforced here.
    """

    v_plus: float
    v_minus: float

    def __post_init__(self) -> None:
        if not (self.v_plus > 0.0 and self.v_minus > 0.0):
            raise ValueError(
                f"variances must be positive, got ({self.v_plus}, {self.v_minus})"
            )


@dataclass(frozen=True)
class QuadratureCoefficients:
    """Linear expansion of an output quadrature over the independent inputs.

    ``c_v1`` and ``c_v2`` multiply the two pre-squeezer vacuum modes,
    ``c_in`` multiplies the coherent target mode.  Each underlying mode
    carries unit quadrature variance, so the variance of the combination
    is the plain sum of squares — the oracle used to validate every
    closed-form variance in this module.
    """

    c_v1: float
    c_v2: float
    c_in: float

    def variance(self) -> float:
        """Sum-of-squares variance of the expanded quadrature."""
        return self.c_v1 ** 2 + self.c_v2 ** 2 + self.c_in ** 2


def output_coefficients_tailored(
    sq: SqueezeLevel, settings: ProtocolSettings
) -> tuple[QuadratureCoefficients, QuadratureCoefficients]:
    """Output-quadrature expansions of the tailored scheme.

    The amplitude quadrature of the output mode is

        (sqrt(G) - 2 g1 sin(eta) sqrt(G-1)) X+_v2
      + (sqrt(G-1) - 2 g1 sin(eta) sqrt(G)) X+_v1
      + 2 g1 cos(eta) X+_in

    and the phase quadrature is

        (sqrt(G) - 2 g2 cos(eta) sqrt(G-1)) X-_v2
      - (sqrt(G-1) - 2 g2 cos(eta) sqrt(G)) X-_v1
      + 2 g2 sin(eta) X-_in.

    Returns the (plus, minus) coefficient sets.
    """
    rg = math.sqrt(sq.G)
    rg1 = math.sqrt(sq.G - 1.0)
    sin_eta = math.sin(settings.eta)
    cos_eta = math.cos(settings.eta)
    plus = QuadratureCoefficients(
        c_v1=rg1 - 2.0 * settings.g1 * sin_eta * rg,
        c_v2=rg - 2.0 * settings.g1 * sin_eta * rg1,
        c_in=2.0 * settings.g1 * cos_eta,
    )
    minus = QuadratureCoefficients(
        c_v1=-(rg1 - 2.0 * settings.g2 * cos_eta * rg),
        c_v2=rg - 2.0 * settings.g2 * cos_eta * rg1,
        c_in=2.0 * settings.g2 * sin_eta,
    )
    return plus, minus


def g1_of_eta(eta: float) -> float:
    """Amplitude gain g1 = 1/(2 cos(eta)) that puts unit gain on the target.

    With this choice the target-mode coefficient in the output amplitude
    quadrature is exactly 1.
    """
    if not (0.0 <= eta <= math.pi / 4):
        raise ValueError(f"beam-splitter parameter must lie in [0, pi/4], got {eta}")
    return 1.0 / (2.0 * math.cos(eta))


def variances_tailored(sq: SqueezeLevel, eta: float, g2: float) -> QuadratureVariances:
    """Closed-form output variances of the tailored scheme, g1 fixed by eta.

    V+ = 2G - 4 tan(eta) sqrt(G(G-1)) + tan^2(eta) (2G - 1)
    V- = 2G - 1 - 8 g2 cos(eta) sqrt(G(G-1))
         + 4 g2^2 (cos^2(eta) (2G - 1) + sin^2(eta))

    Both agree with the coefficient-sum oracle of
    :func:`output_coefficients_tailored` to better than 1e-12.
    """
    if not (0.0 <= eta <= math.pi / 4):
        raise ValueError(f"beam-splitter parameter must lie in [0, pi/4], got {eta}")
    if g2 < 0.0:
        raise ValueError(f"phase gain must be non-negative, got {g2}")
    G = sq.G
    root = math.sqrt(G * (G - 1.0))
    tan_eta = math.tan(eta)
    cos_eta = math.cos(eta)
    sin_eta = math.sin(eta)
    v_plus = 2.0 * G - 4.0 * tan_eta * root + tan_eta ** 2 * (2.0 * G - 1.0)
    v_minus = (
        2.0 * G
        - 1.0
        - 8.0 * g2 * cos_eta * root
        + 4.0 * g2 ** 2 * (cos_eta ** 2 * (2.0 * G - 1.0) + sin_eta ** 2)
    )
    return QuadratureVariances(v_plus=v_plus, v_minus=v_minus)


def g2_optimal(sq: SqueezeLevel, eta: float) -> float:
    """Phase gain minimising the output phase variance at fixed eta.

    V- is an upward parabola in g2 (leading coefficient
    4 (cos^2(eta)(2G-1) + sin^2(eta)) > 0), so its minimiser is

        g2* = cos(eta) sqrt(G(G-1)) / (cos^2(eta) (2G - 1) + sin^2(eta)).

    Note the + sign in front of sin^2(eta): with a - sign the expression
    would be singular at G = 1, eta = pi/4 and would not minimise V-.
    The denominator as written is strictly positive everywhere in the
    domain, and the coefficient-sum oracle confirms the minimum (see the
    optimality tests).  g2* is 0 at G = 1 and tends to 1/sqrt(2) at
    eta = pi/4 as G grows.
    """
    if not (0.0 <= eta <= math.pi / 4):
        raise ValueError(f"beam-splitter parameter must lie in [0, pi/4], got {eta}")
    G = sq.G
    cos_eta = math.cos(eta)
    sin_eta = math.sin(eta)
    denom = cos_eta ** 2 * (2.0 * G - 1.0) + sin_eta ** 2
    return cos_eta * math.sqrt(G * (G - 1.0)) / denom


def variance_standard_gain(sq: SqueezeLevel, g: float) -> QuadratureVariances:
    """Output variances of the 50:50 scheme with a common scalar gain g.

    Both quadratures carry the same variance

        V = 2G - 4 g sqrt(G(G-1)) + 2 g^2 G - 1,

    the sum-of-squares of the coefficients
    (sqrt(G) - g sqrt(G-1), sqrt(G-1) - g sqrt(G), -g).
    """
    if g < 0.0:
        raise ValueError(f"gain must be non-negative, got {g}")
    G = sq.G
    v = 2.0 * G - 4.0 * g * math.sqrt(G * (G - 1.0)) + 2.0 * g ** 2 * G - 1.0
    return QuadratureVariances(v_plus=v, v_minus=v)


def standard_gain_coefficients(sq: SqueezeLevel, g: float) -> QuadratureCoefficients:
    """Coefficient expansion behind :func:`variance_standard_gain` (oracle)."""
    if g < 0.0:
        raise ValueError(f"gain must be non-negative, got {g}")
    rg = math.sqrt(sq.G)
    rg1 = math.sqrt(sq.G - 1.0)
    return QuadratureCoefficients(c_v1=rg1 - g * rg, c_v2=rg - g * rg1, c_in=-g)
