"""Scalar search and the protocol-tuning optimizers."""

import math
import operator
import re
import signal

import numpy as np
import pytest

from cvteleport import experiments, optimize
from cvteleport.alphabet import gaussian_weighted_fidelity
from cvteleport.experiments import ExperimentConfig, default_lambda_grid, run_fig3
from cvteleport.fidelity import avg_fidelity_unit_gain
from cvteleport.optimize import (
    OptimizationResult,
    maximize_scalar,
    optimize_eta_g2,
    optimize_gain,
    tailored_fidelity,
)
from cvteleport.protocol import (
    SqueezeLevel,
    squeeze_from_G,
    tailored_g2,
    tailored_variances,
)
from oracles import optimal_tailoring


GRID = 1024


def _grid(lo, hi):
    """The grid stage's abscissae, as the same Python floats."""
    return [lo + (hi - lo) * i / (GRID - 1) for i in range(GRID)]


def scalar_scan_maximize(f, lo, hi, tol):
    """A scalar 1024-point scan, then golden-section: the oracle of the grid stage."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    evaluations = 0

    def eval_f(x):
        nonlocal evaluations
        evaluations += 1
        v = f(x)
        if not math.isfinite(v):
            raise ValueError(f"objective is not finite at x={x!r}: {v!r}")
        return v

    xs = _grid(lo, hi)
    vals = [eval_f(x) for x in xs]
    i = max(range(GRID), key=vals.__getitem__)
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, GRID - 1)]
    x1, x2 = b - golden * (b - a), a + golden * (b - a)
    f1, f2 = eval_f(x1), eval_f(x2)
    width = math.inf
    while tol < b - a < width:
        width = b - a
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + golden * (b - a)
            f2 = eval_f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - golden * (b - a)
            f1 = eval_f(x1)
    candidates = [(x, eval_f(x)) for x in (lo, hi, 0.5 * (lo + hi))]
    best_x, best_f = max(candidates + [(x1, f1), (x2, f2)], key=lambda p: p[1])
    return OptimizationResult((best_x,), best_f, evaluations)


def fidelity_at(sq, eta, g2):
    """Unit-gain fidelity of the tailored scheme at (eta, g2), positive variances checked."""
    return avg_fidelity_unit_gain(*tailored_variances(sq, eta, g2))


def scalar_scan_eta_g2(sq, tol=optimize.DEFAULT_TOL):
    """``optimize_eta_g2`` with the grid stage run on the scalar objective."""

    def objective(eta):
        return fidelity_at(sq, eta, tailored_g2(sq, eta))

    res = scalar_scan_maximize(objective, 0.0, math.pi / 4, tol)
    eta_star = res.argmax[0]
    return OptimizationResult(
        (eta_star, tailored_g2(sq, eta_star)), res.value, res.evaluations
    )


def _outcome(optimizer, sq, tol):
    try:
        return optimizer(sq, tol=tol)
    except ValueError as exc:
        return exc


# >= 200 squeezing levels over the whole range, plus large gains
SWEEP = [SqueezeLevel(float(lam)) for lam in np.linspace(0.0, 0.999, 201)] + [
    squeeze_from_G(G) for G in (1.0, 3.0, 40.0, 1e3, 1e6)
]


def parabola(x):
    return -((x - 0.3) ** 2)


@pytest.fixture
def eta_g2_objectives(monkeypatch):
    """The objective of each ``optimize_eta_g2`` call, and how often the
    search called each."""
    seen, counts = [], []
    real = optimize.maximize_scalar

    def spy(f, lo, hi, tol=optimize.DEFAULT_TOL, grid=False):
        seen.append(f)
        counts.append(0)

        def counted(x):
            counts[-1] += 1
            return f(x)

        return real(counted, lo, hi, tol=tol, grid=grid)

    monkeypatch.setattr(optimize, "maximize_scalar", spy)
    return seen, counts


class TestMaximizeScalar:
    # scalar_only: golden-section alone; otherwise the grid stage first
    @pytest.mark.parametrize("scalar_only", [True, False])
    def test_parabola(self, scalar_only):
        res = maximize_scalar(parabola, 0.0, 1.0, tol=1e-8, grid=not scalar_only)
        assert res.argmax[0] == pytest.approx(0.3, abs=1e-8)
        assert res.evaluations > 0

    @pytest.mark.parametrize("scalar_only", [True, False])
    def test_boundary_maximum_exact(self, scalar_only):
        res = maximize_scalar(operator.neg, 0.0, 1.0, tol=1e-8, grid=not scalar_only)
        assert res.argmax[0] == 0.0
        assert res.value == 0.0

    def test_gain_objective(self):
        sq = SqueezeLevel(0.0)
        res = maximize_scalar(
            lambda g: gaussian_weighted_fidelity(sq, g, 0.2), 0.0, 2.0, tol=1e-8
        )
        assert res.argmax[0] == pytest.approx(2.0 / 27.0, abs=1e-6)

    def test_negated_phase_variance(self):
        sq = squeeze_from_G(2.0)
        res = maximize_scalar(
            lambda g2: -tailored_variances(sq, math.pi / 4, g2)[1],
            0.0, 2.0, tol=1e-8,
        )
        assert res.argmax[0] == pytest.approx(0.5, abs=1e-6)

    def test_non_finite_objective_reports_abscissa(self):
        def bad(x):
            return math.nan if x > 0.5 else x

        with pytest.raises(ValueError, match=r"objective is not finite at x=\S+: nan") as exc:
            maximize_scalar(bad, 0.0, 1.0, tol=1e-6)
        assert float(re.search(r"x=(\S+):", str(exc.value))[1]) > 0.5

    @pytest.mark.parametrize("scalar_only", [True, False])
    def test_tol_below_float_spacing_returns(self, scalar_only):
        # 1e-300 is far below the float spacing near 0.3 (5.6e-17): the
        # search must stop once its bracket no longer shrinks
        def timeout(signum, frame):
            raise TimeoutError("maximize_scalar did not return within 10 s")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(10)
        try:
            res = maximize_scalar(parabola, 0.0, 2.0, tol=1e-300, grid=not scalar_only)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert res.argmax[0] == pytest.approx(0.3, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            maximize_scalar(lambda x: x, 1.0, 0.0)
        with pytest.raises(ValueError):
            maximize_scalar(lambda x: x, 0.0, 1.0, tol=0.0)

    def test_grid_is_the_scalar_scan_grid(self):
        # the grid stage evaluates only the Python floats of _grid, bit for
        # bit, in pairs of neighbours: 10 bisection steps of 2 evaluations
        seen = []

        def f(x):
            seen.append(x)
            return -x

        maximize_scalar(f, 0.0, math.pi / 4, tol=1e-8, grid=True)
        xs = _grid(0.0, math.pi / 4)
        grid_stage = seen[:20]
        assert set(grid_stage) <= set(xs)
        assert all(xs.index(b) == xs.index(a) + 1
                   for a, b in zip(grid_stage[::2], grid_stage[1::2]))

    def test_plateau_first_index_wins(self):
        # equal maxima on [0.2, 0.3]: the bisection brackets the first
        # plateau index, as a scalar scan does
        def f(x):
            return 1.0 - max(0.2 - x, x - 0.3, 0.0)

        first = next(x for x in _grid(0.0, 1.0) if x >= 0.2)
        res = maximize_scalar(f, 0.0, 1.0, tol=1e-8, grid=True)
        ref = scalar_scan_maximize(f, 0.0, 1.0, 1e-8)
        assert res.argmax == ref.argmax and res.value == ref.value == 1.0
        assert abs(res.argmax[0] - first) <= 1.0 / (GRID - 1)

    def test_nan_grid_objective_reports_scalar_abscissa(self):
        def f(x):
            return math.nan if x > 0.5 else x

        with pytest.raises(ValueError, match=r"objective is not finite at x=\S+: nan") as exc:
            maximize_scalar(f, 0.0, 1.0, tol=1e-8, grid=True)
        assert float(re.search(r"x=(\S+):", str(exc.value))[1]) > 0.5


class TestOptimizeGain:
    def test_narrow_alphabet(self):
        res = optimize_gain(SqueezeLevel(0.0), 0.2)
        assert res.argmax[0] == pytest.approx(1.0 / 13.5, abs=1e-6)
        assert res.value == pytest.approx(0.9310345, abs=5e-8)

    def test_wide_alphabet(self):
        res = optimize_gain(SqueezeLevel(0.0), 100.0)
        assert abs(res.argmax[0] - 1.0) <= 1e-3
        assert res.value == pytest.approx(0.5, abs=1e-3)

    def test_high_squeezing(self):
        res = optimize_gain(SqueezeLevel(0.999), 0.2)
        assert res.value >= 0.99

    def test_soundness_against_grid(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            sq = SqueezeLevel(rng.uniform(0.0, 0.99))
            s = rng.uniform(0.05, 10.0)
            res = optimize_gain(sq, s)
            grid_best = max(
                gaussian_weighted_fidelity(sq, float(g), s)
                for g in np.linspace(0.0, 2.0, 1024)
            )
            assert res.value >= grid_best - 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            optimize_gain(SqueezeLevel(0.5), -0.2)


class TestOptimizeEtaG2:
    def test_no_squeezing_exact(self):
        res = optimize_eta_g2(squeeze_from_G(1.0))
        assert res.argmax == (0.0, 0.0)
        assert res.value == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-9)

    def test_large_squeezing(self):
        res = optimize_eta_g2(squeeze_from_G(1e6))
        assert abs(res.argmax[0] - math.pi / 4) <= 0.01
        assert res.value >= 0.999

    def test_beats_restricted_protocols(self):
        sq = squeeze_from_G(2.0)
        res = optimize_eta_g2(sq)
        half = math.pi / 4
        disp_only = tailored_fidelity(sq, half)
        assert res.value > disp_only
        assert res.value > (1.0 + sq.lam) / 2.0

    def test_soundness_against_grid(self):
        rng = np.random.default_rng(72)
        etas = np.linspace(0.0, math.pi / 4, 64)
        g2s = np.linspace(0.0, 2.0, 64)
        for _ in range(5):
            sq = SqueezeLevel(rng.uniform(0.0, 0.99))
            res = optimize_eta_g2(sq)
            grid_best = max(
                fidelity_at(sq, float(e), float(g))
                for e in etas
                for g in g2s
            )
            assert res.value >= grid_best - 1e-9

    def test_result_dominates_box_corners_and_centre(self):
        for G in (1.0, 3.0, 40.0):
            sq = squeeze_from_G(G)
            res = optimize_eta_g2(sq)
            eta_star, g2_star = res.argmax
            assert 0.0 <= eta_star <= math.pi / 4
            assert 0.0 <= g2_star <= 2.0
            probes = [(e, g) for e in (0.0, math.pi / 4, math.pi / 8) for g in (0.0, 2.0, 1.0)]
            for eta, g2 in probes:
                probe = fidelity_at(sq, eta, g2)
                assert res.value >= probe - 1e-12

    def test_tuned_curves_shape(self):
        # eta*(lam) and g2*(lam) both rise monotonically from 0 to their
        # 50:50/unit-gain limits
        grid = list(np.linspace(0.0, 0.98, 50)) + [0.999]
        eta_stars, g2_stars = [], []
        for lam in grid:
            res = optimize_eta_g2(SqueezeLevel(float(lam)))
            eta_stars.append(res.argmax[0])
            g2_stars.append(res.argmax[1])
        assert eta_stars[0] == 0.0 and g2_stars[0] == 0.0
        assert all(b >= a for a, b in zip(eta_stars, eta_stars[1:]))
        assert all(b >= a for a, b in zip(g2_stars, g2_stars[1:]))
        assert abs(eta_stars[-1] - math.pi / 4) <= 0.01
        assert abs(g2_stars[-1] - 1.0 / math.sqrt(2.0)) <= 0.01

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_bit_identical_to_scalar_scan(self, tol):
        # including the levels where both raise the same error (at tol
        # 1e-12 some large gains reach a fidelity above 1 + 1e-12); the
        # count is 20 bisection evaluations, golden-section over two grid
        # steps (one at an end of the grid) and the three candidates
        evaluations = {1e-8: (49, 50), 1e-12: (68, 69)}[tol]
        for sq in SWEEP:
            res = _outcome(optimize_eta_g2, sq, tol)
            ref = _outcome(scalar_scan_eta_g2, sq, tol)
            if isinstance(ref, ValueError):
                assert repr(res) == repr(ref), sq
                continue
            assert res.argmax == ref.argmax and res.value == ref.value, sq
            assert res.evaluations in evaluations, sq

    def test_fig3_rows_bit_identical_to_scalar_scan(self, monkeypatch):
        rows = run_fig3(ExperimentConfig()).rows
        monkeypatch.setattr(experiments, "optimize_eta_g2", scalar_scan_eta_g2)
        assert run_fig3(ExperimentConfig()).rows == rows

    def test_grid_values_rise_then_fall(self, eta_g2_objectives):
        # the grid stage's precondition: over the 1024 grid points the
        # objective never rises again once it has fallen, so the first
        # non-rising step is the scalar scan's first argmax
        seen, _ = eta_g2_objectives
        xs = _grid(0.0, math.pi / 4)
        for sq in SWEEP:
            optimize_eta_g2(sq)
            vals = [seen[-1](x) for x in xs]
            fell = next((i for i in range(GRID - 1) if vals[i] >= vals[i + 1]), GRID - 1)
            rises = [i for i in range(fell, GRID - 1) if vals[i] < vals[i + 1]]
            assert not rises, (
                f"the eta objective at lam={sq.lam!r} rises again after falling at grid "
                f"index {fell} (first at {rises[0]}); the grid stage's bisection needs "
                "grid values that rise and then never rise"
            )

    def test_grid_stage_reads_the_protocol_helpers(self, monkeypatch):
        # the objective has no algebra of its own: a change to the protocol
        # helper reaches every evaluation, each with a Python float eta
        calls = []

        def recording(sq, eta, g2):
            calls.append(type(eta))
            return tailored_variances(sq, eta, g2)

        monkeypatch.setattr(optimize, "tailored_variances", recording)
        res = optimize_eta_g2(SqueezeLevel(0.5))
        assert calls == [float] * res.evaluations

    def test_scalar_objective_calls_stay_few(self, eta_g2_objectives):
        _, counts = eta_g2_objectives
        for lam in default_lambda_grid():
            optimize_eta_g2(SqueezeLevel(lam), tol=1e-12)
        assert len(counts) == len(default_lambda_grid())
        assert max(counts) < 100

    @pytest.mark.parametrize("G", [1e8, 1e12])
    def test_rejected_gain_raises_as_before(self, G):
        # V- cancels to 0 near eta = 0, where the scalar objective raises
        with pytest.raises(ValueError, match="variances must be positive"):
            optimize_eta_g2(squeeze_from_G(G))

    @pytest.mark.xfail(
        strict=True,
        raises=ValueError,
        reason="ROADMAP item 8: the O(G) terms of V+- cancel, and at G = 1e6 the "
        "fidelity overshoots 1 by 5.8e-11",
    )
    def test_large_gain_at_fine_tol_returns(self):
        sq = squeeze_from_G(1e6)
        res = optimize_eta_g2(sq, tol=1e-12)
        f_exact, eta_exact, _ = optimal_tailoring(sq.lam)
        assert abs(res.value - f_exact) <= 1e-10
        assert abs(res.argmax[0] - eta_exact) <= 1e-7

    def test_tailored_fidelity_domain(self):
        # the protocol helpers are unchecked; the objective keeps the eta range
        sq = squeeze_from_G(2.0)
        message = r"beam-splitter parameter must lie in \[0, pi/4\]"
        for eta in (-0.01, 1.0, math.nextafter(math.pi / 4, 1.0)):
            with pytest.raises(ValueError, match=message):
                tailored_fidelity(sq, eta)

    def test_dominance_over_lambda_grid(self):
        for lam in np.linspace(0.0, 0.98, 20):
            sq = SqueezeLevel(float(lam))
            full = optimize_eta_g2(sq).value
            half = math.pi / 4
            disp = tailored_fidelity(sq, half)
            std = (1.0 + sq.lam) / 2.0
            assert full > disp > std
