"""Outcome sampling, the Monte Carlo engine and its quadrature oracle."""

import decimal
import math
import tracemalloc

import numpy as np
import pytest

from cvteleport.fidelity import ComplexAmplitude, transfer_exponent
from cvteleport.measurement import (
    MC_CHUNK,
    McEstimate,
    OutcomeModel,
    _one_shot_into,
    _scaled_normal_into,
    mc_average_fidelity,
    mc_average_fidelity_line_segment,
    quadrature_average_fidelity,
    sample_measurement,
)
from cvteleport.protocol import squeeze_from_lambda
from cvteleport.strategies import (
    CircleTailored,
    LineTailored,
    OptimalKnownTarget,
    Standard,
)

ALPHA5 = ComplexAmplitude(5.0, 0.0)


class TestOutcomeModel:
    @pytest.mark.parametrize(
        "lam, var",
        [(0.0, 0.5), (0.8, 1.0 / (2.0 * (1.0 - 0.64)))],
    )
    def test_component_variance(self, lam, var):
        model = OutcomeModel(squeeze_from_lambda(lam))
        assert model.component_sigma ** 2 == pytest.approx(var, rel=1e-12)

    def test_lambda_cap(self):
        with pytest.raises(ValueError):
            OutcomeModel(squeeze_from_lambda(0.9995))

    @pytest.mark.parametrize("lam", [0.0, 0.5, 0.8])
    def test_density_moments(self, lam):
        # 1e6 draws from the stated density: mean alpha, per-component
        # variance 1/(2(1-lam^2)), each within 3 standard errors
        model = OutcomeModel(squeeze_from_lambda(lam))
        sigma = model.component_sigma
        alpha = ComplexAmplitude(1.3, -0.7)
        n = 1_000_000
        rng = np.random.default_rng(31)
        bx = rng.normal(alpha.x, sigma, n)
        by = rng.normal(alpha.y, sigma, n)
        se_mean = sigma / math.sqrt(n)
        se_var = sigma ** 2 * math.sqrt(2.0 / (n - 1))
        assert abs(bx.mean() - alpha.x) <= 3 * se_mean
        assert abs(by.mean() - alpha.y) <= 3 * se_mean
        assert abs(bx.var(ddof=1) - sigma ** 2) <= 3 * se_var
        assert abs(by.var(ddof=1) - sigma ** 2) <= 3 * se_var

    def test_sampler_matches_density(self):
        # the scalar op draws from the same distribution (loose 5 se check)
        model = OutcomeModel(squeeze_from_lambda(0.5))
        rng = np.random.default_rng(32)
        alpha = ComplexAmplitude(2.0, 1.0)
        n = 20_000
        draws = [sample_measurement(alpha, model, rng) for _ in range(n)]
        xs = np.array([d.x for d in draws])
        ys = np.array([d.y for d in draws])
        sigma = model.component_sigma
        assert abs(xs.mean() - 2.0) <= 5 * sigma / math.sqrt(n)
        assert abs(ys.mean() - 1.0) <= 5 * sigma / math.sqrt(n)
        assert abs(xs.var(ddof=1) - sigma ** 2) <= 5 * sigma ** 2 * math.sqrt(2.0 / n)


class TestMcEstimate:
    def test_validation(self):
        with pytest.raises(ValueError):
            McEstimate(mean=0.5, std_error=0.1, n_samples=1, seed=0)
        with pytest.raises(ValueError):
            McEstimate(mean=math.nan, std_error=0.1, n_samples=10, seed=0)
        with pytest.raises(ValueError):
            McEstimate(mean=0.5, std_error=-0.1, n_samples=10, seed=0)


class TestMcAverageFidelity:
    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            mc_average_fidelity(Standard(1.0), ALPHA5, squeeze_from_lambda(0.5), 999, 1)

    def test_standard_matches_closed_form(self):
        est = mc_average_fidelity(
            Standard(1.0), ALPHA5, squeeze_from_lambda(0.5), 200_000, 41
        )
        assert abs(est.mean - 0.75) <= 3 * est.std_error

    @pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 0.75, 0.9])
    def test_standard_curve_reproduced(self, lam):
        # end-to-end validation of the outcome density against (1+lam)/2
        est = mc_average_fidelity(
            Standard(1.0), ALPHA5, squeeze_from_lambda(lam), 100_000, 42
        )
        assert abs(est.mean - (1.0 + lam) / 2.0) <= 3 * est.std_error

    def test_line_tailored_limit(self):
        est = mc_average_fidelity(
            LineTailored(), ALPHA5, squeeze_from_lambda(0.0), 200_000, 43
        )
        assert abs(est.mean - 1.0 / math.sqrt(2.0)) <= 0.005

    @pytest.mark.parametrize("lam", [0.0, 0.6, 0.95])
    def test_perfect_knowledge(self, lam):
        est = mc_average_fidelity(
            OptimalKnownTarget(), ALPHA5, squeeze_from_lambda(lam), 10_000, 44
        )
        assert abs(est.mean - 1.0) <= 1e-12
        assert est.std_error <= 1e-12

    def test_deterministic_for_fixed_seed(self):
        args = (Standard(1.0), ALPHA5, squeeze_from_lambda(0.7), 150_000, 45)
        a = mc_average_fidelity(*args)
        b = mc_average_fidelity(*args)
        assert (a.mean, a.std_error) == (b.mean, b.std_error)

    def test_worker_count_invariance(self):
        # crosses a chunk boundary so several chunks are actually in play
        n = 3 * MC_CHUNK + 17
        args = (LineTailored(), ALPHA5, squeeze_from_lambda(0.4), n, 46)
        serial = mc_average_fidelity(*args, max_workers=1)
        threaded = mc_average_fidelity(*args, max_workers=4)
        assert (serial.mean, serial.std_error) == (threaded.mean, threaded.std_error)

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_large_amplitude(self, lam):
        # at |alpha| = 1e16 the line rule tends to sqrt((1 + lam)/2) and the
        # standard rule is (1 + lam)/2 at every amplitude; forming alpha - guess
        # from beta = alpha + w directly loses w to rounding there
        alpha, sq = ComplexAmplitude(1e16, 0.0), squeeze_from_lambda(lam)
        line = mc_average_fidelity(LineTailored(), alpha, sq, 100_000, 62)
        standard = mc_average_fidelity(Standard(1.0), alpha, sq, 100_000, 63)
        assert abs(line.mean - math.sqrt((1.0 + lam) / 2.0)) <= 5 * line.std_error
        assert abs(standard.mean - (1.0 + lam) / 2.0) <= 5 * standard.std_error

    def test_seed_changes_stream(self):
        a = mc_average_fidelity(Standard(1.0), ALPHA5, squeeze_from_lambda(0.5), 10_000, 1)
        b = mc_average_fidelity(Standard(1.0), ALPHA5, squeeze_from_lambda(0.5), 10_000, 2)
        assert a.mean != b.mean


def _reference_one_shot(strategy, ax, ay, lam, bx, by):
    """Out-of-place displacement rules and the expanded transfer exponent."""
    if isinstance(strategy, Standard):
        ex, ey = strategy.gain * bx, strategy.gain * by
    elif isinstance(strategy, OptimalKnownTarget):
        ex, ey = (1.0 - lam) * ax + lam * bx, (1.0 - lam) * ay + lam * by
    elif isinstance(strategy, LineTailored):
        ex, ey = (1.0 - lam) * np.hypot(bx, by) + lam * bx, lam * by
    else:
        phi = np.arctan2(by, bx)
        r = strategy.radius
        ex = (1.0 - lam) * r * np.cos(phi) + lam * bx
        ey = (1.0 - lam) * r * np.sin(phi) + lam * by
    return np.exp(transfer_exponent(ax - ex, ay - ey, ax - bx, ay - by, lam))


def _guess_form_one_shot(strategy, ax, ay, lam, wx, wy):
    """Out-of-place guess form of the non-circle rules on centred noise w."""
    if isinstance(strategy, OptimalKnownTarget):
        return np.ones_like(wx)
    if isinstance(strategy, Standard):
        g = strategy.gain
        dx = (1.0 - g) * ax - wx * (g - lam)
        dy = (1.0 - g) * ay - wy * (g - lam)
        return np.exp(-(dx * dx + dy * dy))
    bx, by = wx + ax, wy + ay
    by2 = by * by
    r = np.sqrt(bx * bx + by2)
    with np.errstate(invalid="ignore", divide="ignore"):
        d = np.where(np.greater(ax, 0.0), ((bx + ax) * wx + by2) / (r + ax), r - ax)
    d2 = d * d
    if ay != 0.0:
        d2 = d2 + ay * ay
    return np.exp(d2 * -(1.0 - lam) ** 2)


def _decimal_log_fidelity(strategy, ax, ay, lam, wx, wy):
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


def _oracle_excess(f, log_ref):
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


class TestChunkKernel:
    # 1003 samples: a tail length that is not a multiple of any SIMD width
    M = 1003

    def _noise(self, alpha, lam, seed):
        """Centred outcomes w = beta - alpha, with beta = 0 in the first three."""
        rng = np.random.default_rng(seed)
        sigma = OutcomeModel(squeeze_from_lambda(lam)).component_sigma
        wx = rng.normal(0.0, sigma, self.M)
        wy = rng.normal(0.0, sigma, self.M)
        wx[:3], wy[:3] = -alpha.x, -alpha.y  # where arg(beta) is undefined
        wx[3] = -alpha.x  # beta_x = 0
        wy[4] = -alpha.y  # beta_y = 0
        return wx, wy

    def _tail_view(self, wx, wy):
        work = np.empty((6, MC_CHUNK))[:, : self.M]
        work[0], work[1] = wx, wy
        return work

    def _segment_noise(self, lam):
        """Per-sample targets on [-1, 4] with zero and negative entries, and noise."""
        rng = np.random.default_rng(59)
        ax = rng.uniform(-1.0, 4.0, self.M)
        wx, wy = self._noise(ComplexAmplitude(0.0, 0.0), lam, 60)
        ax[:3] = 0.0  # beta = 0 at ax = 0
        ax[5:8] = -1.5
        wx[5:7], wy[5:7] = 1.5, 0.0  # beta = 0 at ax < 0
        ax[8:10] = 0.0  # ax = 0, beta != 0
        wx[10] = -ax[10]  # beta_x = 0 at ax > 0
        return ax, wx, wy

    @pytest.mark.parametrize(
        "strategy",
        [Standard(1.0), Standard(0.7), OptimalKnownTarget(), LineTailored(), CircleTailored(5.0)],
    )
    @pytest.mark.parametrize(
        "alpha",
        [ALPHA5, ComplexAmplitude(1.3, -0.7), ComplexAmplitude(6e7, -8e7)],
    )
    @pytest.mark.parametrize("lam", [0.0, 0.35, 0.999])
    def test_bit_identical_to_reference(self, strategy, alpha, lam):
        # the circle keeps the expanded expression on beta = alpha + w bit for
        # bit (it pins the circle-vs-line stderr at lam = 0.999); the other
        # rules match their out-of-place guess form bit for bit, and their
        # accuracy is checked against the decimal oracle below
        wx, wy = self._noise(alpha, lam, 58)
        if isinstance(strategy, CircleTailored):
            ref = _reference_one_shot(strategy, alpha.x, alpha.y, lam, alpha.x + wx, alpha.y + wy)
        else:
            ref = _guess_form_one_shot(strategy, alpha.x, alpha.y, lam, wx, wy)
        got = _one_shot_into(strategy, (alpha.x, alpha.y), lam, self._tail_view(wx, wy))
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("lam", [0.0, 0.35, 0.999])
    def test_bit_identical_with_per_sample_targets(self, lam):
        # the line-segment average hands the kernel an array of targets
        ax, wx, wy = self._segment_noise(lam)
        ref = _guess_form_one_shot(LineTailored(), ax, 0.0, lam, wx, wy)
        work = self._tail_view(wx, wy)
        work[5] = ax
        got = _one_shot_into(LineTailored(), (work[5], 0.0), lam, work)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("strategy", ORACLE_STRATEGIES)
    @pytest.mark.parametrize(
        "alpha",
        [
            ALPHA5,
            ComplexAmplitude(1.3, -0.7),
            ComplexAmplitude(6e7, -8e7),
            ComplexAmplitude(1e16, 0.0),
            ComplexAmplitude(-2.0, 0.5),
            ComplexAmplitude(0.0, -1.5),
        ],
    )
    @pytest.mark.parametrize("lam", [0.0, 0.35, 0.999])
    def test_matches_decimal_oracle(self, strategy, alpha, lam):
        wx, wy = self._noise(alpha, lam, 58)
        ref = _decimal_log_fidelity(strategy, alpha.x, alpha.y, lam, wx, wy)
        got = _one_shot_into(strategy, (alpha.x, alpha.y), lam, self._tail_view(wx, wy))
        assert _oracle_excess(got, ref) <= ORACLE_BOUND

    @pytest.mark.parametrize("lam", [0.0, 0.35, 0.999])
    def test_per_sample_targets_match_decimal_oracle(self, lam):
        ax, wx, wy = self._segment_noise(lam)
        ref = _decimal_log_fidelity(LineTailored(), ax, 0.0, lam, wx, wy)
        work = self._tail_view(wx, wy)
        work[5] = ax
        got = _one_shot_into(LineTailored(), (work[5], 0.0), lam, work)
        assert _oracle_excess(got, ref) <= ORACLE_BOUND

    @pytest.mark.parametrize(
        "alpha, lam", [(ALPHA5, 0.999), (ComplexAmplitude(1e16, 0.0), 0.0)]
    )
    def test_expanded_form_fails_the_oracle(self, alpha, lam):
        # the oracle's bound is tight enough to reject the expanded
        # expression the kernel replaced, near lam = 1 and at large |alpha|
        wx, wy = self._noise(alpha, lam, 58)
        ref = _decimal_log_fidelity(LineTailored(), alpha.x, alpha.y, lam, wx, wy)
        old = _reference_one_shot(
            LineTailored(), alpha.x, alpha.y, lam, alpha.x + wx, alpha.y + wy
        )
        assert _oracle_excess(old, ref) > ORACLE_BOUND

    @pytest.mark.parametrize("seed", range(20))
    def test_in_place_draws_match_generator(self, seed):
        # the circle's outcomes alpha + w rely on Generator.normal being
        # loc + sigma * z, and the segment's targets on Generator.uniform
        # being low + (high - low) * u, over the same streams; a numpy
        # release that changes either fails here
        loc, sigma, m = 5.0 - 0.37 * seed, 0.5 + 0.1 * seed, self.M
        ref_rng = np.random.default_rng(seed)
        ref_u = ref_rng.uniform(0.0, 4.0, m)
        ref_x = ref_rng.normal(loc, sigma, m)
        ref_a = ref_rng.normal(ref_u, sigma, m)
        rng = np.random.default_rng(seed)
        u, x, a = np.empty((3, m))
        rng.random(out=u)
        u *= 4.0
        _scaled_normal_into(rng, sigma, x)
        x += loc
        _scaled_normal_into(rng, sigma, a)
        a += u
        assert np.array_equal(u, ref_u)
        assert np.array_equal(x, ref_x)
        assert np.array_equal(a, ref_a)
        assert rng.random() == ref_rng.random()

    def test_chunks_allocate_no_sample_arrays(self):
        args = (LineTailored(), ALPHA5, squeeze_from_lambda(0.4), 1_000_000, 61)
        mc_average_fidelity(*args)  # allocates this thread's workspace
        tracemalloc.start()
        try:
            mc_average_fidelity(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestQuadratureOracle:
    def test_order_floor(self):
        with pytest.raises(ValueError):
            quadrature_average_fidelity(Standard(1.0), ALPHA5, squeeze_from_lambda(0.5), 4)

    def test_standard_closed_form(self):
        val = quadrature_average_fidelity(
            Standard(1.0), ALPHA5, squeeze_from_lambda(0.5), 64
        )
        assert val == pytest.approx(0.75, abs=1e-6)

    def test_line_limit(self):
        val = quadrature_average_fidelity(
            LineTailored(), ALPHA5, squeeze_from_lambda(0.0), 64
        )
        assert val == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-3)

    def test_perfect_knowledge(self):
        val = quadrature_average_fidelity(
            OptimalKnownTarget(), ALPHA5, squeeze_from_lambda(0.3), 64
        )
        assert val == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "strategy, lam",
        [
            (Standard(1.0), 0.5),
            (LineTailored(), 0.25),
            (CircleTailored(radius=5.0), 0.5),
            (Standard(0.7), 0.8),
        ],
    )
    def test_agrees_with_mc(self, strategy, lam):
        sq = squeeze_from_lambda(lam)
        est = mc_average_fidelity(strategy, ALPHA5, sq, 100_000, 47)
        val = quadrature_average_fidelity(strategy, ALPHA5, sq, 32)
        assert abs(est.mean - val) <= 3 * est.std_error


class TestCircleLineEquivalence:
    def test_statistical_agreement_low_squeezing(self):
        # where Monte Carlo noise dominates the small finite-amplitude
        # offset between the two estimators, the curves agree within
        # 3 (se_line + se_circle); the full-grid version, against the exact
        # offset, is test_acceptance::test_criterion_09_circle_line_equivalence
        rng = np.random.default_rng(48)
        for lam in (0.0, 0.25, 0.5):
            sq = squeeze_from_lambda(lam)
            line = mc_average_fidelity(LineTailored(), ALPHA5, sq, 10_000, 49)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            circle = mc_average_fidelity(
                CircleTailored(radius=5.0),
                ComplexAmplitude(5.0 * math.cos(theta), 5.0 * math.sin(theta)),
                sq,
                10_000,
                50,
            )
            assert abs(line.mean - circle.mean) <= 3 * (line.std_error + circle.std_error)

    def test_deterministic_offset_small_everywhere(self):
        # the exact (quadrature) line and circle curves at amplitude 5
        # agree to better than 4e-3 over the whole lam range: the same
        # fidelity-versus-squeezing relationship at plot resolution
        for lam in np.linspace(0.0, 0.98, 15):
            sq = squeeze_from_lambda(float(lam))
            line = quadrature_average_fidelity(LineTailored(), ALPHA5, sq, 128)
            circle = quadrature_average_fidelity(
                CircleTailored(radius=5.0), ALPHA5, sq, 128
            )
            assert abs(line - circle) <= 4e-3

    def test_circle_angle_invariance(self):
        sq = squeeze_from_lambda(0.5)
        vals = [
            quadrature_average_fidelity(
                CircleTailored(radius=5.0),
                ComplexAmplitude(5.0 * math.cos(t), 5.0 * math.sin(t)),
                sq,
                64,
            )
            for t in (0.0, 1.0, 2.5)
        ]
        assert max(vals) - min(vals) <= 1e-9


class TestLineSegmentAverage:
    def test_validation(self):
        with pytest.raises(ValueError):
            mc_average_fidelity_line_segment(0.0, squeeze_from_lambda(0.2), 10_000, 51)
        with pytest.raises(ValueError):
            mc_average_fidelity_line_segment(5.0, squeeze_from_lambda(0.2), 100, 51)

    def test_deterministic(self):
        a = mc_average_fidelity_line_segment(5.0, squeeze_from_lambda(0.3), 50_000, 52)
        b = mc_average_fidelity_line_segment(5.0, squeeze_from_lambda(0.3), 50_000, 52)
        assert (a.mean, a.std_error) == (b.mean, b.std_error)

    def test_small_amplitude_bias_is_visible(self):
        # averaging the target over [0, 5] includes near-origin states where
        # the |beta| guess misfires, nudging the average below the
        # fixed-amplitude value (a ~2e-3 effect at lam = 0)
        sq = squeeze_from_lambda(0.0)
        segment = mc_average_fidelity_line_segment(5.0, sq, 1_000_000, 53)
        fixed_exact = quadrature_average_fidelity(LineTailored(), ALPHA5, sq, 96)
        assert 0.0 <= segment.mean <= 1.0
        assert segment.mean < fixed_exact - 3 * segment.std_error

    def test_matches_direct_reimplementation(self):
        sq = squeeze_from_lambda(0.35)
        est = mc_average_fidelity_line_segment(4.0, sq, 500_000, 55)
        # independent numpy restatement of the same average
        rng = np.random.default_rng(56)
        n = 2_000_000
        lam = sq.lam
        sigma = OutcomeModel(sq).component_sigma
        ax = rng.uniform(0.0, 4.0, n)
        bx = ax + sigma * rng.standard_normal(n)
        by = sigma * rng.standard_normal(n)
        ex = (1.0 - lam) * np.hypot(bx, by) + lam * bx
        ey = lam * by
        f = np.exp(transfer_exponent(ax - ex, -ey, ax - bx, -by, lam))
        ref, ref_se = f.mean(), f.std(ddof=1) / math.sqrt(n)
        assert abs(est.mean - ref) <= 3 * (est.std_error + ref_se)
