"""Exact outcome-averaged fidelities, the references for the Monte Carlo engine.

Each function integrates a strategy's one-shot fidelity against the outcome
law P(beta | alpha), whose components are normal about those of the target
with variance 1/(2 (1 - lam^2)), by a route that shares no code with the
package's sampling kernel: a closed form for the standard rule, and a
deterministic polar quadrature for the line and circle rules.
:func:`decimal_log_fidelity` is the one-shot reference for the sampling
kernel itself, outcome by outcome in 60-digit decimal arithmetic.
:func:`covariance_variances` is the reference for the closed-form output
variances, as a quadratic form over the resource's covariance matrix.
:func:`fock_conditional` is the reference for the outcome law and the
one-shot rule themselves, from the resource state in the Fock basis.
:func:`optimal_tailoring` and :func:`optimal_gain` are the closed-form
optima behind the optimiser columns, and :func:`golden_section_max` their
numerical second witness.
"""

import decimal
import math

import numpy as np

from cvteleport.measurement import CircleTailored, LineTailored, Standard


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


def covariance_variances(lam, eta, g2):
    """Tailored-scheme output variances (V+, V-) as c^T Sigma c, with their scales.

    Over the modes (in, b1, b2), the coherent target and the two halves of the
    two-mode squeezed vacuum, each quadrature has the covariance matrix
    [[1, 0, 0], [0, 2G - 1, +-2 lam G], [0, +-2 lam G, 2G - 1]] with
    G = 1/(1 - lam^2): cosh 2r and sinh 2r for lam = tanh r, + for the
    amplitude and - for the phase quadrature.  The output quadratures have the
    coefficients c+ = (2 g1 cos eta, -2 g1 sin eta, 1), g1 = 1/(2 cos eta), and
    c- = (2 g2 sin eta, 2 g2 cos eta, 1).  This shares no hand expansion with
    the package's coefficient sums.  Each scale is |c|^T |Sigma| |c|, the size
    of the terms the form adds up; it sets the rounding bound of a comparison.
    Returns ((V+, V-), (scale+, scale-)).
    """
    G = 1.0 / ((1.0 - lam) * (1.0 + lam))
    g1 = 1.0 / (2.0 * math.cos(eta))
    values, scales = [], []
    for sign, c in (
        (1.0, [2.0 * g1 * math.cos(eta), -2.0 * g1 * math.sin(eta), 1.0]),
        (-1.0, [2.0 * g2 * math.sin(eta), 2.0 * g2 * math.cos(eta), 1.0]),
    ):
        cov = np.array([[1.0, 0.0, 0.0],
                        [0.0, 2.0 * G - 1.0, sign * 2.0 * lam * G],
                        [0.0, sign * 2.0 * lam * G, 2.0 * G - 1.0]])
        c = np.array(c)
        values.append(float(c @ cov @ c))
        scales.append(float(np.abs(c) @ np.abs(cov) @ np.abs(c)))
    return tuple(values), tuple(scales)


def optimal_tailoring(lam):
    """The tailored scheme's optimum (F, eta*, g2*) at squeezing ``lam``, in closed form.

    With t = tan(eta), g1 = 1/(2 cos eta) and the phase gain at the vertex of
    its parabola, (V+ + 1)(V- + 1) = 2G h(t) with
    h(t) = (1 + t^2)(2G (t - lam)^2 + 3 - t^2)/(t^2 + 2G - 1), written with
    2G (1 - lam^2) = 2 so that no O(G) terms cancel.  The minimiser of h on
    [0, 1] is an endpoint or a real root of the quintic numerator of h'; each
    root is polished by one Newton step.  Then F = 2/sqrt(2G h(t*)) and
    g2* = lam G sqrt(1 + t*^2)/(t*^2 + 2G - 1).
    """
    G = 1.0 / ((1.0 - lam) * (1.0 + lam))
    t = np.polynomial.Polynomial([0.0, 1.0])
    numerator = (1.0 + t**2) * (2.0 * G * (t - lam) ** 2 + 3.0 - t**2)
    denominator = t**2 + 2.0 * G - 1.0
    slope = numerator.deriv() * denominator - numerator * denominator.deriv()

    def h(x):
        return (1.0 + x * x) * (2.0 * G * (x - lam) ** 2 + 3.0 - x * x) / (x * x + 2.0 * G - 1.0)

    # every root's real part is a candidate: a spurious one in [0, 1] cannot
    # beat the true minimum, which is an endpoint or a real root
    candidates = [0.0, 1.0]
    dslope = slope.deriv()
    for x in slope.roots().real:
        x = float(x - slope(x) / dslope(x))
        if 0.0 <= x <= 1.0:
            candidates.append(x)
    t_star = min(candidates, key=h)
    g2 = lam * G * math.sqrt(1.0 + t_star * t_star) / (t_star * t_star + 2.0 * G - 1.0)
    return 2.0 / math.sqrt(2.0 * G * h(t_star)), math.atan(t_star), g2


def optimal_gain(lam, s):
    """The gain-optimised alphabet-weighted fidelity (F, g*) for a Gaussian
    alphabet of standard deviation ``s``, in closed form.

    The objective is 2 / (2G (g - lam)^2 + 2 + 4 s^2 (1 - g)^2), the
    common-gain V + 1 = 2G (g - lam)^2 + 2 written without cancelling O(G)
    terms; its denominator is a parabola in g with vertex
    g* = (lam G + 2 s^2)/(G + 2 s^2), clipped to the search box [0, 2].
    """
    G = 1.0 / ((1.0 - lam) * (1.0 + lam))
    g = min(max((lam * G + 2.0 * s * s) / (G + 2.0 * s * s), 0.0), 2.0)
    return 2.0 / (2.0 * G * (g - lam) ** 2 + 2.0 + 4.0 * s * s * (1.0 - g) ** 2), g


def golden_section_max(f, lo, hi, tol):
    """(argmax, max) of a unimodal ``f`` on [lo, hi], bracketed to width ``tol``
    by golden-section search; the endpoints are candidates too."""
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1, x2 = b - shrink * (b - a), a + shrink * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + shrink * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - shrink * (b - a)
            f1 = f(x1)
    return max([(lo, f(lo)), (hi, f(hi)), (x1, f1), (x2, f2)], key=lambda p: p[1])


def _displacement(z, dim):
    """D(z) = exp(z a^dag - z* a) on the Fock states 0 .. dim - 1, as
    exp(-i H) of the Hermitian generator H = i (z a^dag - z* a), by eigh."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)  # annihilation
    e, v = np.linalg.eigh(1j * (z * a.T - np.conj(z) * a))
    return (v * np.exp(-1j * e)) @ v.conj().T


def fock_conditional(alpha, beta, lam, n_max):
    """Outcome density and one-shot fidelity of one run, from first principles.

    The resource is the two-mode squeezed vacuum sqrt(1 - lam^2) sum_n lam^n
    |n>|n>, truncated at n_max photons.  The joint measurement projects the
    coherent target |alpha> and the sender's mode onto (D(beta) x 1) sum_m
    |m>|m> with measure d^2 beta / pi, which leaves the receiver's mode in
    the unnormalised state phi_n = sqrt(1 - lam^2) lam^n <n|D(beta)^dag|alpha>.
    The outcome density is |phi|^2 / pi, and the receiver, displacing by
    epsilon, reaches F = |<alpha|D(epsilon)|phi / |phi|>|^2.  Every
    displacement is the matrix exponential of :func:`_displacement`, so
    nothing here uses the closed forms of ``measurement`` or ``fidelity``
    (Braunstein & Kimble, PRL 80, 869 (1998)).  Returns (density,
    fidelity), ``fidelity`` a function of epsilon.
    """
    dim = n_max + 1
    target = _displacement(alpha, dim)[:, 0]  # D(alpha)|0>
    phi = math.sqrt(1.0 - lam * lam) * lam ** np.arange(dim)
    phi = phi * (_displacement(beta, dim).conj().T @ target)
    norm2 = float(np.vdot(phi, phi).real)
    state = phi / math.sqrt(norm2)

    def fidelity(epsilon):
        return abs(np.vdot(target, _displacement(epsilon, dim) @ state)) ** 2

    return norm2 / math.pi, fidelity


def _polar_rule(amp, lam, n_r, n_phi):
    """The line and circle one-shot fidelities on the polar nodes, with their weights.

    Both one-shot fidelities are smooth in polar coordinates beta = r e^{i phi}
    about the origin: the line rule gives exp(-(1-lam)^2 (amp - r)^2) and the
    circle rule exp(-2 (1-lam)^2 amp^2 (1 - cos phi)) for a target at angle 0
    (the circle average does not depend on the target's angle).  The outcome
    density is a Gaussian of per-component variance 1/(2 (1 - lam^2)) about the
    target, which decays by exp(-72) outside r in [amp - 12 sigma, amp + 12 sigma].
    Gauss-Legendre in r on that interval times the trapezoid rule in phi, which
    is spectrally accurate for a smooth periodic integrand.  The line fidelity
    depends on r only and the circle fidelity on phi only, so each comes with
    the outcome law's marginal weights on its own nodes.  Returns
    ((line weights, line fidelities), (circle weights, circle fidelities)).
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
    line = (radial * density.sum(axis=1), np.exp(-k * (r - amp) ** 2))
    circle = (radial @ density, np.exp(-2.0 * k * amp * amp * one_minus_cos))
    return line, circle


def exact_line_circle(amp, lam, n_r=200, n_phi=512):
    """Exact line- and circle-tailored average fidelities at amplitude ``amp``,
    by the polar rule of :func:`_polar_rule`.  Returns (line, circle)."""
    return tuple(float(w @ f) for w, f in _polar_rule(amp, lam, n_r, n_phi))


def line_circle_central_moments(amp, lam, n_r=200, n_phi=512):
    """Mean and second and fourth central moments of the line- and
    circle-tailored one-shot fidelities, by the same polar rule.

    Each moment integrates (f - mu)^k itself: the raw moments E[f^k] of
    fidelities near 1 cancel.  Returns ((mu, mu2, mu4) line, (mu, mu2, mu4) circle).
    """
    moments = []
    for w, f in _polar_rule(amp, lam, n_r, n_phi):
        mu = float(w @ f)
        dev = f - mu
        moments.append((mu, float(w @ dev**2), float(w @ dev**4)))
    return tuple(moments)


def exact_average_fidelity(strategy, alpha, lam):
    """Exact average fidelity of ``strategy`` for the target ``alpha`` at ``lam``.

    The line reference needs a target on the positive real axis and the
    circle reference a circle through the target; other cases raise.
    """
    amp = math.hypot(alpha.real, alpha.imag)
    if isinstance(strategy, Standard):
        return exact_standard(strategy.gain, lam, amp)
    if isinstance(strategy, LineTailored) and alpha.imag == 0.0 and alpha.real > 0.0:
        return exact_line_circle(amp, lam)[0]
    if isinstance(strategy, CircleTailored) and strategy.radius == amp:
        return exact_line_circle(amp, lam)[1]
    raise ValueError(f"no exact reference for {strategy!r} at {alpha!r}")


def decimal_log_fidelity(strategy, ax, ay, lam, wx, wy):
    """log F of each outcome beta = alpha + w in 60-digit decimal arithmetic.

    The guess is g beta for the standard rule, |beta| for the line rule and
    radius * beta / |beta| for the circle rule, whose beta = 0 takes arg 0.
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
            r = (bx * bx + by * by).sqrt()
            if isinstance(strategy, Standard):
                g = D(strategy.gain)
                ex, ey = g * bx, g * by
            elif isinstance(strategy, CircleTailored):
                # guess radius * beta / |beta|; beta = 0 takes arg 0
                rad = D(strategy.radius)
                gx, gy = (rad * bx / r, rad * by / r) if r else (rad, D(0))
                ex, ey = (1 - lam_d) * gx + lam_d * bx, (1 - lam_d) * gy + lam_d * by
            else:
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


# Standard(1.5): a gain above 1, so the standard rule's 1 - g is negative
ORACLE_STRATEGIES = [Standard(1.0), Standard(0.7), Standard(1.5), LineTailored()]
