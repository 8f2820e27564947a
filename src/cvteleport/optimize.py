"""Derivative-free maximisation used to tune the protocol parameters.

Golden-section search on a bracketed scalar objective, with an optional
coarse-grid stage for objectives whose unimodality is not guaranteed.
Returned solutions always dominate the search-box endpoints and centre
(those points are evaluated explicitly), so boundary optima such as
eta* = 0 at no squeezing come out exact rather than tol-close.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .alphabet import gaussian_weighted_fidelity
from .fidelity import avg_fidelity_unit_gain
from .protocol import SqueezeLevel, g2_optimal, variances_tailored

DEFAULT_TOL = 1e-8

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_FALLBACK_GRID = 1024


class NonFiniteObjectiveError(ValueError):
    """Objective returned a non-finite value; ``x`` is the offending abscissa."""

    def __init__(self, x: float, value: float):
        super().__init__(f"objective is not finite at x={x!r}: {value!r}")
        self.x = x
        self.value = value


@dataclass(frozen=True)
class OptimizationResult:
    """Argmax (1 or 2 coordinates), objective value and search metadata."""

    argmax: tuple[float, ...]
    value: float
    evaluations: int
    tolerance: float


def maximize_scalar(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = DEFAULT_TOL,
    assume_unimodal: bool = True,
) -> OptimizationResult:
    """Maximise f on [lo, hi] to abscissa tolerance tol.

    For a unimodal objective, golden-section search brackets the maximiser
    to within tol.  With ``assume_unimodal=False`` a 1024-point grid scan
    localises the global maximum first and golden-section then refines the
    bracketing sub-interval.  The endpoints and midpoint are always
    candidates, so boundary maxima are returned exactly.
    """
    if not (lo < hi):
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not (tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol}")

    evaluations = 0

    def eval_f(x: float) -> float:
        nonlocal evaluations
        evaluations += 1
        v = f(x)
        if not math.isfinite(v):
            raise NonFiniteObjectiveError(x, v)
        return v

    if assume_unimodal:
        a, b = lo, hi
    else:
        xs = [lo + (hi - lo) * i / (_FALLBACK_GRID - 1) for i in range(_FALLBACK_GRID)]
        vals = [eval_f(x) for x in xs]
        i = max(range(_FALLBACK_GRID), key=vals.__getitem__)
        a = xs[max(i - 1, 0)]
        b = xs[min(i + 1, _FALLBACK_GRID - 1)]

    # golden-section on [a, b], until it is tol wide or, with tol below
    # the float spacing there, stops shrinking
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = eval_f(x1), eval_f(x2)
    width = math.inf
    while tol < b - a < width:
        width = b - a
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = eval_f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = eval_f(x1)

    # Endpoints and midpoint come first so that float-level ties resolve
    # toward them; boundary optima are then returned exactly.
    candidates = [(x, eval_f(x)) for x in (lo, hi, 0.5 * (lo + hi))]
    candidates += [(x1, f1), (x2, f2)]
    best_x, best_f = max(candidates, key=lambda p: p[1])
    return OptimizationResult(
        argmax=(best_x,), value=best_f, evaluations=evaluations, tolerance=tol
    )


def optimize_gain(
    sq: SqueezeLevel, s: float, tol: float = DEFAULT_TOL
) -> OptimizationResult:
    """Maximise the alphabet-weighted fidelity over the gain g in [0, 2].

    The objective 2 / ((V(g) + 1) + 4 s^2 (1 - g)^2) has a convex-quadratic
    denominator in g, hence is unimodal and safe for golden-section.
    """
    if not (s > 0.0):
        raise ValueError(f"alphabet standard deviation must be positive, got {s}")
    return maximize_scalar(
        lambda g: gaussian_weighted_fidelity(sq, g, s), 0.0, 2.0, tol=tol
    )


def optimize_eta_g2(sq: SqueezeLevel, tol: float = DEFAULT_TOL) -> OptimizationResult:
    """Jointly maximise the tailored-scheme fidelity over (eta, g2).

    The inner g2 problem is the exact quadratic minimiser
    :func:`cvteleport.protocol.g2_optimal`, leaving a scalar search over
    eta in [0, pi/4].  Unimodality of the reduced objective is not taken
    for granted, so the grid-backed search mode is used.  Returns
    argmax = (eta*, g2*).
    """

    def objective(eta: float) -> float:
        g2 = g2_optimal(sq, eta)
        return avg_fidelity_unit_gain(variances_tailored(sq, eta, g2)).value

    res = maximize_scalar(
        objective, 0.0, math.pi / 4, tol=tol, assume_unimodal=False
    )
    eta_star = res.argmax[0]
    return OptimizationResult(
        argmax=(eta_star, g2_optimal(sq, eta_star)),
        value=res.value,
        evaluations=res.evaluations,
        tolerance=res.tolerance,
    )
