"""Exact outcome-averaged fidelities, the references for the Monte Carlo engine.

Each function integrates a strategy's one-shot fidelity against the outcome
law P(beta | alpha), whose components are normal about those of the target
with variance 1/(2 (1 - lam^2)), by a route that shares no code with the
package's sampling kernel: a closed form for the standard rule and the known
target, and a deterministic polar quadrature for the line and circle rules.
:func:`decimal_log_fidelity` is the one-shot reference for the sampling
kernel itself, outcome by outcome in 60-digit decimal arithmetic.
"""

import decimal
import math

import numpy as np

from cvteleport.strategies import CircleTailored, LineTailored, OptimalKnownTarget, Standard


def exact_standard(gain, lam, amp):
    """Exact standard-rule average fidelity with gain ``gain`` at amplitude ``amp``.

    The one-shot exponent is -|(1 - g) alpha - (g - lam) w|^2 with w the
    centred outcome, so each component is a 1-D Gaussian integral:
    F = exp(-(1 - g)^2 amp^2 / D) / D with D = 1 + 2 (g - lam)^2 sigma^2.
    At g = 1 this is (1 + lam)/2.
    """
    var = 1.0 / (2.0 * (1.0 - lam * lam))
    d = 1.0 + 2.0 * (gain - lam) ** 2 * var
    return math.exp(-((1.0 - gain) ** 2) * amp * amp / d) / d


def exact_line_circle(amp, lam, n_r=200, n_phi=512):
    """Exact line- and circle-tailored average fidelities at amplitude ``amp``.

    Both one-shot fidelities are smooth in polar coordinates beta = r e^{i phi}
    about the origin: the line rule gives exp(-(1-lam)^2 (amp - r)^2) and the
    circle rule exp(-2 (1-lam)^2 amp^2 (1 - cos phi)) for a target at angle 0
    (the circle average does not depend on the target's angle).  The outcome
    density is a Gaussian of per-component variance 1/(2 (1 - lam^2)) about the
    target, which decays by exp(-72) outside r in [amp - 12 sigma, amp + 12 sigma].
    Gauss-Legendre in r on that interval times the trapezoid rule in phi, which
    is spectrally accurate for a smooth periodic integrand.  Returns (line, circle).
    """
    var = 1.0 / (2.0 * (1.0 - lam * lam))
    sigma = math.sqrt(var)
    lo, hi = max(0.0, amp - 12.0 * sigma), amp + 12.0 * sigma
    x, w = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    radial = 0.5 * (hi - lo) * w * r / (var * n_phi)  # includes the 2 pi / n_phi step
    one_minus_cos = 1.0 - np.cos(2.0 * math.pi * np.arange(n_phi) / n_phi)
    # |beta - alpha|^2 = (r - amp)^2 + 2 amp r (1 - cos phi), without cancellation
    density = np.exp(
        -((r[:, None] - amp) ** 2 + 2.0 * amp * r[:, None] * one_minus_cos) / (2.0 * var)
    )
    k = (1.0 - lam) ** 2
    line = radial @ (np.exp(-k * (r - amp) ** 2) * density.sum(axis=1))
    circle = radial @ (density @ np.exp(-2.0 * k * amp * amp * one_minus_cos))
    return float(line), float(circle)


def exact_average_fidelity(strategy, alpha, lam):
    """Exact average fidelity of ``strategy`` for the target ``alpha`` at ``lam``.

    The line reference needs a target on the positive real axis and the
    circle reference a circle through the target; other cases raise.
    """
    amp = math.hypot(alpha.x, alpha.y)
    if isinstance(strategy, OptimalKnownTarget):
        return 1.0
    if isinstance(strategy, Standard):
        return exact_standard(strategy.gain, lam, amp)
    if isinstance(strategy, LineTailored) and alpha.y == 0.0 and alpha.x > 0.0:
        return exact_line_circle(amp, lam)[0]
    if isinstance(strategy, CircleTailored) and strategy.radius == amp:
        return exact_line_circle(amp, lam)[1]
    raise ValueError(f"no exact reference for {strategy!r} at {alpha!r}")


def decimal_log_fidelity(strategy, ax, ay, lam, wx, wy):
    """log F of each outcome beta = alpha + w in 60-digit decimal arithmetic.

    Built from the displacement rule and the expanded transfer exponent
    -|u|^2 - lam^2 |v|^2 + 2 lam Re(u* v), u = alpha - epsilon,
    v = alpha - beta, so it shares no algebra with the kernel's guess form.
    At |alpha| = 1e16 those terms reach 1e32 and cancel to O(1), which at
    40 digits would leave an absolute error of 1e-8; 60 digits leave 1e-28.
    """
    out = np.empty(len(wx))
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        D = decimal.Decimal
        lam_d = D(lam)
        for i, (x, y, px, py) in enumerate(np.broadcast(ax, ay, wx, wy)):
            x, y = D(float(x)), D(float(y))
            bx, by = x + D(float(px)), y + D(float(py))
            if isinstance(strategy, Standard):
                g = D(strategy.gain)
                ex, ey = g * bx, g * by
            elif isinstance(strategy, OptimalKnownTarget):
                ex, ey = (1 - lam_d) * x + lam_d * bx, (1 - lam_d) * y + lam_d * by
            else:
                r = (bx * bx + by * by).sqrt()
                ex, ey = (1 - lam_d) * r + lam_d * bx, lam_d * by
            ux, uy, vx, vy = x - ex, y - ey, x - bx, y - by
            out[i] = float(
                -(ux * ux + uy * uy)
                - lam_d * lam_d * (vx * vx + vy * vy)
                + 2 * lam_d * (ux * vx + uy * vy)
            )
    return out


# |log f - log f_ref| <= ORACLE_BOUND * max(1, |log f_ref|)
ORACLE_BOUND = 1e-13


def oracle_excess(f, log_ref):
    """Largest scaled log error of f against the decimal oracle.

    Where the oracle's f is below the normal doubles (log f < -700) the
    kernel's f must be negligible too.
    """
    normal = log_ref > -700.0
    assert np.all(f[~normal] < 1e-300)
    with np.errstate(divide="ignore"):
        err = np.abs(np.log(f[normal]) - log_ref[normal])
    return float(np.max(err / np.maximum(1.0, np.abs(log_ref[normal])), initial=0.0))


ORACLE_STRATEGIES = [Standard(1.0), Standard(0.7), OptimalKnownTarget(), LineTailored()]
