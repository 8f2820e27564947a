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
* The tailored scheme tunes the splitter angle eta and the phase gain g2;
  its amplitude gain is g1 = 1/(2 cos(eta)), unit gain on the target.

Every closed-form variance here can be cross-checked against the
coefficient-sum oracle: an output quadrature is a real linear combination
of the independent input-mode quadratures (the two pre-squeezer vacua and
the target), each of which contributes unit variance, so its variance is
the sum of squared coefficients.  :func:`output_coefficients_tailored`
gives those coefficients; the common-gain scheme at gain g is its 50:50
phase quadrature (eta = pi/4) at g2 = g/sqrt(2).
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


def output_coefficients_tailored(
    sq: SqueezeLevel, eta: float, g2: float
) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Output-quadrature expansions of the tailored scheme, g1 = 1/(2 cos(eta)).

    The amplitude quadrature of the output mode is

        (sqrt(G) - 2 g1 sin(eta) sqrt(G-1)) X+_v2
      + (sqrt(G-1) - 2 g1 sin(eta) sqrt(G)) X+_v1
      + 2 g1 cos(eta) X+_in

    and the phase quadrature is

        (sqrt(G) - 2 g2 cos(eta) sqrt(G-1)) X-_v2
      - (sqrt(G-1) - 2 g2 cos(eta) sqrt(G)) X-_v1
      + 2 g2 sin(eta) X-_in.

    Returns the (plus, minus) expansions as (c_v1, c_v2, c_in) triples:
    c_v1 and c_v2 multiply the two pre-squeezer vacuum modes, c_in the
    coherent target.  The inputs are independent and each has unit
    variance, so each quadrature's variance is V = c_v1^2 + c_v2^2 + c_in^2.
    """
    if not (0.0 <= eta <= math.pi / 4):
        raise ValueError(f"beam-splitter parameter must lie in [0, pi/4], got {eta}")
    if not (0.0 <= g2 < math.inf):
        raise ValueError(f"phase gain must be non-negative and finite, got {g2}")
    g1 = 1.0 / (2.0 * math.cos(eta))
    rg = math.sqrt(sq.G)
    rg1 = math.sqrt(sq.G - 1.0)
    sin_eta = math.sin(eta)
    cos_eta = math.cos(eta)
    plus = (rg1 - 2.0 * g1 * sin_eta * rg, rg - 2.0 * g1 * sin_eta * rg1, 2.0 * g1 * cos_eta)
    minus = (-(rg1 - 2.0 * g2 * cos_eta * rg), rg - 2.0 * g2 * cos_eta * rg1, 2.0 * g2 * sin_eta)
    return plus, minus


def tailored_variances(sq: SqueezeLevel, eta, g2) -> tuple:
    """Unchecked (V+, V-) of the tailored scheme, g1 fixed by eta.

    V+ = 2G - 4 tan(eta) sqrt(G(G-1)) + tan^2(eta) (2G - 1)
    V- = 2G - 1 - 8 g2 cos(eta) sqrt(G(G-1))
         + 4 g2^2 (cos^2(eta) (2G - 1) + sin^2(eta))

    A float eta is evaluated with ``math`` and a numpy array eta with
    numpy, so the optimiser's grid stage evaluates this same expression;
    g2 may be an array either way.  V+ and V- agree with the
    coefficient-sum oracle of :func:`output_coefficients_tailored` to
    better than 1e-12.
    """
    # a float eta (numpy's float64 included) stays on math, bit for bit
    xp = math if isinstance(eta, (int, float)) else eta.__array_namespace__()
    G = sq.G
    root = math.sqrt(G * (G - 1.0))
    tan_eta, cos_eta = xp.tan(eta), xp.cos(eta)
    v_plus = 2.0 * G - 4.0 * tan_eta * root + tan_eta ** 2 * (2.0 * G - 1.0)
    v_minus = (
        2.0 * G
        - 1.0
        - 8.0 * g2 * cos_eta * root
        + 4.0 * g2 ** 2 * (cos_eta ** 2 * (2.0 * G - 1.0) + xp.sin(eta) ** 2)
    )
    return v_plus, v_minus


def tailored_g2(sq: SqueezeLevel, eta):
    """Unchecked g2* = cos(eta) sqrt(G(G-1)) / (cos^2(eta) (2G - 1) + sin^2(eta)).

    The phase gain minimising V- at fixed eta: V- is an upward parabola in
    g2 (leading coefficient 4 (cos^2(eta)(2G-1) + sin^2(eta)) > 0).  Note
    the + sign in front of sin^2(eta): with a - sign the expression would
    be singular at G = 1, eta = pi/4 and would not minimise V-.  The
    denominator as written is strictly positive everywhere in the domain,
    and the coefficient-sum oracle confirms the minimum (see the optimality
    tests).  g2* is 0 at G = 1 and tends to 1/sqrt(2) at eta = pi/4 as G
    grows.  eta is a float or a numpy array, as for
    :func:`tailored_variances`.
    """
    xp = math if isinstance(eta, (int, float)) else eta.__array_namespace__()
    G = sq.G
    cos_eta = xp.cos(eta)
    denom = cos_eta ** 2 * (2.0 * G - 1.0) + xp.sin(eta) ** 2
    return cos_eta * math.sqrt(G * (G - 1.0)) / denom


def variance_standard_gain(sq: SqueezeLevel, g: float) -> float:
    """Output variance of the 50:50 scheme with a common scalar gain g.

    Both quadratures carry the same variance

        V = 2G - 4 g sqrt(G(G-1)) + 2 g^2 G - 1,

    the sum-of-squares of the phase triple of
    :func:`output_coefficients_tailored` at eta = pi/4, g2 = g/sqrt(2),
    (g sqrt(G) - sqrt(G-1), sqrt(G) - g sqrt(G-1), g).  In exact
    arithmetic V >= 1 for every finite g >= 0.
    """
    if not (0.0 <= g < math.inf):
        raise ValueError(f"gain must be non-negative and finite, got {g}")
    G = sq.G
    v = 2.0 * G - 4.0 * g * math.sqrt(G * (G - 1.0)) + 2.0 * g ** 2 * G - 1.0
    if not v > 0.0:
        raise ValueError(f"variances must be positive, got ({v}, {v})")
    return v
