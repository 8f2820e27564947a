"""Derivative-free maximisation used to tune the protocol parameters.

Golden-section search on a bracketed scalar objective, with an optional
1024-point grid stage that brackets the grid maximum first.  Returned
solutions always dominate the search-box endpoints and centre (those
points are evaluated explicitly), so boundary optima such as eta* = 0 at
no squeezing come out exact rather than tol-close.

The grid stage bisects on the slope of the objective over the grid: it
finds the first grid index i with f(x_i) >= f(x_{i+1}) from 20 scalar
evaluations.  That i is the first maximiser a full scan of the grid would
take whenever the grid values rise and then never rise again, so the
results are bit-identical to a scalar scan under that precondition.
``tests/test_optimize.py::TestOptimizeEtaG2::test_grid_values_rise_then_fall``
checks it for ``optimize_eta_g2`` over the whole squeezing range.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .fidelity import avg_fidelity_unit_gain
from .protocol import SqueezeLevel, tailored_g2, tailored_variances

DEFAULT_TOL = 1e-8

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GRID = 1024


class OptimizationResult(NamedTuple):
    """Argmax (1 or 2 coordinates), objective value and search metadata."""

    argmax: tuple[float, ...]
    value: float
    evaluations: int


def maximize_scalar(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = DEFAULT_TOL,
    grid: bool = False,
) -> OptimizationResult:
    """Maximise f on [lo, hi] to abscissa tolerance tol.

    Golden-section search brackets the maximiser of a unimodal f to within
    tol.  With ``grid``, it searches only the two grid steps around the
    first grid point x_i = lo + (hi - lo) i / 1023 whose right neighbour
    is no higher, found by bisection on i; if the 1024 grid values rise
    and then never rise, that is the first maximum of the grid.  The
    endpoints and midpoint are always candidates, so boundary maxima are
    returned exactly.  ``evaluations`` counts every evaluation of f.  A
    non-finite value of f raises ValueError naming its abscissa.
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
            raise ValueError(f"objective is not finite at x={x!r}: {v!r}")
        return v

    if grid:

        def x_at(i: int) -> float:
            return lo + (hi - lo) * i / (_GRID - 1)

        # the first i with f(x_i) >= f(x_{i+1}) lies in [i_lo, i_hi];
        # i_hi = _GRID - 1 stands for "the grid values rise throughout"
        i_lo, i_hi = 0, _GRID - 1
        while i_lo < i_hi:
            m = (i_lo + i_hi) // 2
            if eval_f(x_at(m)) >= eval_f(x_at(m + 1)):
                i_hi = m
            else:
                i_lo = m + 1
        a, b = x_at(max(i_lo - 1, 0)), x_at(min(i_lo + 1, _GRID - 1))
    else:
        a, b = lo, hi

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
    from .alphabet import gaussian_weighted_fidelity  # not at load: fig1 and fig3 need none

    return maximize_scalar(
        lambda g: gaussian_weighted_fidelity(sq, g, s), 0.0, 2.0, tol=tol
    )


def tailored_fidelity(sq: SqueezeLevel, eta: float) -> float:
    """Unit-gain fidelity of the tailored scheme at splitter angle eta and phase gain g2*(eta)."""
    if not (0.0 <= eta <= math.pi / 4):
        raise ValueError(f"beam-splitter parameter must lie in [0, pi/4], got {eta}")
    return avg_fidelity_unit_gain(*tailored_variances(sq, eta, tailored_g2(sq, eta)))


def optimize_eta_g2(sq: SqueezeLevel, tol: float = DEFAULT_TOL) -> OptimizationResult:
    """Jointly maximise the tailored-scheme fidelity over (eta, g2).

    The inner g2 problem is the exact quadratic minimiser
    :func:`cvteleport.protocol.tailored_g2`, leaving the reduced objective
    :func:`tailored_fidelity` to maximise over eta in [0, pi/4], with the
    grid stage of :func:`maximize_scalar`.  Returns argmax = (eta*, g2*).
    """
    res = maximize_scalar(lambda eta: tailored_fidelity(sq, eta), 0.0, math.pi / 4,
                          tol=tol, grid=True)
    eta_star = res.argmax[0]
    return OptimizationResult(
        argmax=(eta_star, tailored_g2(sq, eta_star)),
        value=res.value,
        evaluations=res.evaluations,
    )
