"""Outcome sampling, the Monte Carlo engine and its quadrature oracle."""

import math
import tracemalloc

import numpy as np
import pytest

from cvteleport.fidelity import ComplexAmplitude, transfer_exponent
from cvteleport.measurement import (
    MC_CHUNK,
    McEstimate,
    OutcomeModel,
    _normal_into,
    _one_shot_into,
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

    def test_seed_changes_stream(self):
        a = mc_average_fidelity(Standard(1.0), ALPHA5, squeeze_from_lambda(0.5), 10_000, 1)
        b = mc_average_fidelity(Standard(1.0), ALPHA5, squeeze_from_lambda(0.5), 10_000, 2)
        assert a.mean != b.mean


def _reference_one_shot(strategy, ax, ay, lam, bx, by):
    """Out-of-place displacement rules and transfer exponent, one array each."""
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


class TestChunkKernel:
    # 1003 samples: a tail length that is not a multiple of any SIMD width
    M = 1003

    def _outcomes(self, alpha, lam, seed):
        rng = np.random.default_rng(seed)
        sigma = OutcomeModel(squeeze_from_lambda(lam)).component_sigma
        bx = rng.normal(alpha.x, sigma, self.M)
        by = rng.normal(alpha.y, sigma, self.M)
        bx[:3] = by[:3] = 0.0  # beta = 0, where arg(beta) is undefined
        bx[3] = 0.0
        by[4] = 0.0
        return bx, by

    def _tail_view(self, bx, by):
        work = np.empty((6, MC_CHUNK))[:, : self.M]
        work[0], work[1] = bx, by
        return work

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
        bx, by = self._outcomes(alpha, lam, 58)
        ref = _reference_one_shot(strategy, alpha.x, alpha.y, lam, bx, by)
        got = _one_shot_into(strategy, (alpha.x, alpha.y), lam, self._tail_view(bx, by))
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("lam", [0.0, 0.35, 0.999])
    def test_bit_identical_with_per_sample_targets(self, lam):
        # the line-segment average hands the kernel an array of targets
        rng = np.random.default_rng(59)
        ax = rng.uniform(0.0, 4.0, self.M)
        bx, by = self._outcomes(ComplexAmplitude(0.0, 0.0), lam, 60)
        bx += ax
        ref = _reference_one_shot(LineTailored(), ax, 0.0, lam, bx, by)
        work = self._tail_view(bx, by)
        work[5] = ax
        got = _one_shot_into(LineTailored(), (work[5], 0.0), lam, work)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("seed", range(20))
    def test_in_place_draws_match_generator(self, seed):
        # the kernel's draws rely on Generator.normal being loc + sigma * z
        # and Generator.uniform being low + (high - low) * u over the same
        # streams; a numpy release that changes either fails here
        loc, sigma, m = 5.0 - 0.37 * seed, 0.5 + 0.1 * seed, self.M
        ref_rng = np.random.default_rng(seed)
        ref_u = ref_rng.uniform(0.0, 4.0, m)
        ref_x = ref_rng.normal(loc, sigma, m)
        ref_a = ref_rng.normal(ref_u, sigma, m)
        rng = np.random.default_rng(seed)
        u, x, a = np.empty((3, m))
        rng.random(out=u)
        u *= 4.0
        _normal_into(rng, loc, sigma, x)
        _normal_into(rng, u, sigma, a)
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
        # 3 (se_line + se_circle); the full-grid version of this check is
        # acceptance criterion 9
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
