"""Derivative-free maximisation used to tune the protocol parameters.

Golden-section search on a bracketed scalar objective, with an optional
1024-point grid stage for objectives whose unimodality is not guaranteed.
Returned solutions always dominate the search-box endpoints and centre
(those points are evaluated explicitly), so boundary optima such as
eta* = 0 at no squeezing come out exact rather than tol-close.

The grid stage scores all grid points in one call of a numpy mirror of
the objective and takes from it only the bracketing grid index.  Every
returned value comes from the scalar objective, so the results are
bit-identical to a scalar scan of the grid whenever the mirror is within
GRID_SLACK / 2 of the scalar objective at every grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .alphabet import gaussian_weighted_fidelity
from .fidelity import avg_fidelity_unit_gain
from .protocol import SqueezeLevel, g2_optimal, variances_tailored

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOL = 1e-8

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_FALLBACK_GRID = 1024

# Grid indices whose vectorised value is this close to the grid maximum are
# rescored by the scalar objective; must exceed twice the largest gap
# between the two objectives on the grid (2.7e-13 for optimize_eta_g2).
GRID_SLACK = 1e-9


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


def maximize_scalar(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = DEFAULT_TOL,
    f_grid: Callable[[np.ndarray], np.ndarray] | None = None,
) -> OptimizationResult:
    """Maximise f on [lo, hi] to abscissa tolerance tol.

    Without ``f_grid``, golden-section search brackets the maximiser of a
    unimodal f to within tol.  With ``f_grid``, f's numpy version (NaN
    wherever f would raise), a 1024-point grid scan localises the global
    maximum and golden-section refines the bracketing sub-interval.  f
    rescores, in index order, the grid points where ``f_grid`` is not
    finite or within GRID_SLACK of its maximum; the first scalar maximum
    wins, as in a scalar scan.  The endpoints and midpoint are always
    candidates, so boundary maxima are returned exactly.  ``evaluations``
    counts the grid points and every scalar evaluation.
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

    if f_grid is None:
        a, b = lo, hi
    else:
        import numpy as np

        xs = [lo + (hi - lo) * i / (_FALLBACK_GRID - 1) for i in range(_FALLBACK_GRID)]
        approx = f_grid(np.array(xs))
        evaluations += _FALLBACK_GRID
        finite = np.isfinite(approx)
        rescore = ~finite
        if finite.any():
            rescore |= approx >= approx[finite].max() - GRID_SLACK
        vals = {int(i): eval_f(xs[i]) for i in np.flatnonzero(rescore)}
        i = max(vals, key=vals.__getitem__)
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
    return OptimizationResult(argmax=(best_x,), value=best_f, evaluations=evaluations)


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


def tailored_fidelity(sq: SqueezeLevel, eta: float) -> float:
    """Unit-gain fidelity of the tailored scheme at splitter angle eta and phase gain g2*(eta)."""
    return avg_fidelity_unit_gain(variances_tailored(sq, eta, g2_optimal(sq, eta)))


def optimize_eta_g2(sq: SqueezeLevel, tol: float = DEFAULT_TOL) -> OptimizationResult:
    """Jointly maximise the tailored-scheme fidelity over (eta, g2).

    The inner g2 problem is the exact quadratic minimiser
    :func:`cvteleport.protocol.g2_optimal`, leaving the reduced objective
    :func:`tailored_fidelity` to maximise over eta in [0, pi/4].  Its
    unimodality is not taken for granted, so the grid stage runs on
    ``objective_grid``, its numpy mirror: the same formulas in the same
    operation order, NaN where the scalar objective would raise or clamp.
    Returns argmax = (eta*, g2*).
    """
    G = sq.G
    root = math.sqrt(G * (G - 1.0))

    def objective_grid(eta: np.ndarray) -> np.ndarray:
        import numpy as np

        cos_eta, sin_eta, tan_eta = np.cos(eta), np.sin(eta), np.tan(eta)
        g2 = cos_eta * root / (cos_eta ** 2 * (2.0 * G - 1.0) + sin_eta ** 2)
        v_plus = 2.0 * G - 4.0 * tan_eta * root + tan_eta ** 2 * (2.0 * G - 1.0)
        v_minus = (
            2.0 * G
            - 1.0
            - 8.0 * g2 * cos_eta * root
            + 4.0 * g2 ** 2 * (cos_eta ** 2 * (2.0 * G - 1.0) + sin_eta ** 2)
        )
        with np.errstate(all="ignore"):
            fid = 2.0 / np.sqrt((v_plus + 1.0) * (v_minus + 1.0))
        ok = (v_plus > 0.0) & (v_minus > 0.0) & (fid > 0.0) & (fid <= 1.0)
        return np.where(ok, fid, np.nan)

    res = maximize_scalar(lambda eta: tailored_fidelity(sq, eta), 0.0, math.pi / 4,
                          tol=tol, f_grid=objective_grid)
    eta_star = res.argmax[0]
    return OptimizationResult(
        argmax=(eta_star, g2_optimal(sq, eta_star)),
        value=res.value,
        evaluations=res.evaluations,
    )
