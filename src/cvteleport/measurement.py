"""Measurement-outcome sampling and average-fidelity estimation.

The joint measurement on the target and the sender's half of the resource
yields an outcome beta whose conditional density given a coherent target
alpha is the symmetric complex Gaussian

    P(beta | alpha) = ((1 - lam^2)/pi) exp(-(1 - lam^2) |beta - alpha|^2),

i.e. each component is normal with mean the matching component of alpha
and variance 1/(2 (1 - lam^2)).  This density is not an independent
assumption: averaging the one-shot fidelity under the standard strategy
against it reproduces the closed Heisenberg-picture curve (1 + lam)/2
exactly, which the test suite checks end to end (see README for the
derivation).

Monte Carlo runs are chunked: chunk k of a run with seed s draws from
``default_rng(SeedSequence(entropy=s, spawn_key=(k,)))``, and the final
reduction adds per-chunk partial sums in chunk order.  Results are
therefore bit-identical for a fixed (seed, n) regardless of how many
workers execute the chunks.

A chunk allocates no sample arrays: each thread draws into and evaluates
in place on its own float64 workspace of 6 x MC_CHUNK values (3 MiB),
allocated on the thread's first chunk and kept until the thread ends
(for the main thread, the life of the process).

Known limitation: the standard error comes from sum(f^2) - n mean^2,
which cancels when every sample is close to 1 (lam -> 1), so at the
0.999 cap its 8th significant digit depends on last-bit rounding of the
samples.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .fidelity import ComplexAmplitude
from .protocol import LAMBDA_MAX, SqueezeLevel
from .strategies import (
    CircleTailored,
    LineTailored,
    OptimalKnownTarget,
    Standard,
    Strategy,
)

# Fixed chunk size of the Monte Carlo reduction; part of the determinism
# contract, so changing it changes the streams.
MC_CHUNK = 1 << 16

MIN_SAMPLES = 1_000

# Per-thread workspace of the chunk kernel, allocated on a thread's first chunk.
_workspace = threading.local()


@dataclass(frozen=True)
class OutcomeModel:
    """Conditional distribution of the measurement outcome beta given alpha."""

    sq: SqueezeLevel

    def __post_init__(self) -> None:
        if self.sq.lam > LAMBDA_MAX:
            raise ValueError(
                f"squeezing parameter capped at {LAMBDA_MAX} for outcome sampling, "
                f"got {self.sq.lam}"
            )

    @property
    def component_sigma(self) -> float:
        """Standard deviation 1/sqrt(2 (1 - lam^2)) of each beta component."""
        lam = self.sq.lam
        return 1.0 / math.sqrt(2.0 * (1.0 - lam * lam))


@dataclass(frozen=True)
class McEstimate:
    """A seeded Monte Carlo mean with its standard error."""

    mean: float
    std_error: float
    n_samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise ValueError(f"need at least 2 samples, got {self.n_samples}")
        if not (math.isfinite(self.mean) and self.std_error >= 0.0):
            raise ValueError(
                f"bad estimate: mean={self.mean}, std_error={self.std_error}"
            )


def sample_measurement(
    alpha: ComplexAmplitude, model: OutcomeModel, rng: np.random.Generator
) -> ComplexAmplitude:
    """Draw one measurement outcome beta from P(beta | alpha)."""
    sigma = model.component_sigma
    return ComplexAmplitude(
        rng.normal(alpha.x, sigma), rng.normal(alpha.y, sigma)
    )


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    )


def _chunk_workspace(m: int) -> np.ndarray:
    """The calling thread's (6, m) view of its (6, MC_CHUNK) workspace."""
    work = getattr(_workspace, "rows", None)
    if work is None:
        work = _workspace.rows = np.empty((6, MC_CHUNK))
    return work[:, :m]


def _normal_into(rng: np.random.Generator, loc, sigma: float, out: np.ndarray) -> None:
    """Fill ``out`` with the draws of ``rng.normal(loc, sigma, out.size)``.

    ``Generator.normal`` computes loc + sigma * z from the same standard
    normal stream, so the values are bit-identical to it.
    """
    rng.standard_normal(out=out)
    out *= sigma
    out += loc


def _one_shot_into(strategy: Strategy, alpha, lam: float, work: np.ndarray) -> np.ndarray:
    """One-shot fidelities of the outcomes in ``work[0]``, ``work[1]``.

    ``alpha`` is the target as an (x, y) pair; x may be an array of
    per-sample targets, which must not live in rows 0 to 4.  The strategy's
    displacement and ``exp(transfer_exponent(...))`` are evaluated with
    ``out=`` ufuncs in the same operation order as the scalar
    :func:`~cvteleport.fidelity.transfer_exponent`, so every sample is
    bit-identical to the out-of-place expression.  Rows 0 to 5 are
    overwritten; the returned fidelities are a view of row 3.
    """
    ax, ay = alpha
    bx, by, t2, t3, t4, t5 = work
    # displacement: ex -> t3, ey -> t2
    if isinstance(strategy, Standard):
        np.multiply(bx, strategy.gain, out=t3)
        np.multiply(by, strategy.gain, out=t2)
    elif isinstance(strategy, OptimalKnownTarget):
        # the guess is the true target handed to the engine
        np.multiply(bx, lam, out=t3)
        np.add(t3, (1.0 - lam) * ax, out=t3)
        np.multiply(by, lam, out=t2)
        np.add(t2, (1.0 - lam) * ay, out=t2)
    elif isinstance(strategy, LineTailored):
        np.hypot(bx, by, out=t3)
        np.multiply(t3, 1.0 - lam, out=t3)
        np.multiply(bx, lam, out=t4)
        np.add(t3, t4, out=t3)
        np.multiply(by, lam, out=t2)
    elif isinstance(strategy, CircleTailored):
        scale = (1.0 - lam) * strategy.radius
        np.arctan2(by, bx, out=t2)
        np.cos(t2, out=t3)
        np.multiply(t3, scale, out=t3)
        np.sin(t2, out=t2)
        np.multiply(t2, scale, out=t2)
        np.multiply(bx, lam, out=t4)
        np.add(t3, t4, out=t3)
        np.multiply(by, lam, out=t4)
        np.add(t2, t4, out=t2)
    else:
        raise TypeError(f"unknown strategy: {strategy!r}")
    # u = alpha - epsilon -> (t3, t2); w = alpha - beta -> (bx, by)
    np.subtract(ax, t3, out=t3)
    np.subtract(ay, t2, out=t2)
    np.subtract(ax, bx, out=bx)
    np.subtract(ay, by, out=by)
    # Re(u* w) -> t4
    np.multiply(t3, bx, out=t4)
    np.multiply(t2, by, out=t5)
    np.add(t4, t5, out=t4)
    # |u|^2 -> t3, |w|^2 -> bx
    np.multiply(t3, t3, out=t3)
    np.multiply(t2, t2, out=t2)
    np.add(t3, t2, out=t3)
    np.multiply(bx, bx, out=bx)
    np.multiply(by, by, out=by)
    np.add(bx, by, out=bx)
    # (-|u|^2 - lam^2 |w|^2) + 2 lam Re(u* w), then exp
    np.negative(t3, out=t3)
    np.multiply(bx, lam * lam, out=bx)
    np.subtract(t3, bx, out=t3)
    np.multiply(t4, 2.0 * lam, out=t4)
    np.add(t3, t4, out=t3)
    return np.exp(t3, out=t3)


def _chunked_estimate(n, seed, max_workers, sample_chunk) -> McEstimate:
    """Chunked mean/stderr reduction common to the Monte Carlo entry points.

    ``sample_chunk(rng, work)`` fills the thread's (6, m) workspace view
    ``work`` and returns a row of it holding m one-shot fidelity samples.
    Chunk k uses its own derived generator and the partial sums are added
    in chunk order, so the estimate depends only on (seed, n).
    """

    def run_chunk(k: int) -> tuple[float, float]:
        m = min(n - k * MC_CHUNK, MC_CHUNK)
        f = sample_chunk(_chunk_rng(seed, k), _chunk_workspace(m))
        total = float(f.sum())
        np.multiply(f, f, out=f)
        return total, float(f.sum())

    n_chunks = (n + MC_CHUNK - 1) // MC_CHUNK
    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            partials = list(pool.map(run_chunk, range(n_chunks)))
    else:
        partials = [run_chunk(k) for k in range(n_chunks)]

    total = 0.0
    total_sq = 0.0
    for s1, s2 in partials:  # fixed chunk order: worker-count independent
        total += s1
        total_sq += s2
    mean = total / n
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
    return McEstimate(mean=mean, std_error=math.sqrt(var / n), n_samples=n, seed=seed)


def mc_average_fidelity(
    strategy: Strategy,
    alpha: ComplexAmplitude,
    sq: SqueezeLevel,
    n: int,
    seed: int,
    max_workers: int = 1,
) -> McEstimate:
    """Monte Carlo average of the one-shot fidelity over measurement outcomes.

    Draws n outcomes beta conditioned on alpha, applies the strategy's
    displacement to each and averages the one-shot fidelity.  The result
    depends only on (seed, n), not on ``max_workers``.
    """
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    model = OutcomeModel(sq)  # validates the lam cap
    sigma = model.component_sigma

    def sample_chunk(rng: np.random.Generator, work: np.ndarray) -> np.ndarray:
        _normal_into(rng, alpha.x, sigma, work[0])
        _normal_into(rng, alpha.y, sigma, work[1])
        return _one_shot_into(strategy, (alpha.x, alpha.y), sq.lam, work)

    return _chunked_estimate(n, seed, max_workers, sample_chunk)


def mc_average_fidelity_line_segment(
    alpha_max: float,
    sq: SqueezeLevel,
    n: int,
    seed: int,
    max_workers: int = 1,
) -> McEstimate:
    """Line-tailored MC average with the target drawn uniformly on [0, alpha_max].

    Companion to :func:`mc_average_fidelity` at fixed target amplitude;
    the gap between the two quantifies the small-amplitude bias of the
    |beta| guess near the origin.
    """
    if alpha_max <= 0.0:
        raise ValueError(f"alpha_max must be positive, got {alpha_max}")
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    model = OutcomeModel(sq)
    sigma = model.component_sigma

    def sample_chunk(rng: np.random.Generator, work: np.ndarray) -> np.ndarray:
        ax = work[5]
        rng.random(out=ax)  # rng.uniform(0, alpha_max) is 0 + alpha_max * u
        ax *= alpha_max
        _normal_into(rng, ax, sigma, work[0])
        _normal_into(rng, 0.0, sigma, work[1])
        return _one_shot_into(LineTailored(), (ax, 0.0), sq.lam, work)

    return _chunked_estimate(n, seed, max_workers, sample_chunk)


def quadrature_average_fidelity(
    strategy: Strategy, alpha: ComplexAmplitude, sq: SqueezeLevel, order: int
) -> float:
    """Deterministic Gauss-Hermite evaluation of the same outcome average.

    Tensor-product rule over the two beta components; an independent
    oracle for :func:`mc_average_fidelity` (they agree within Monte Carlo
    error already at order 32).
    """
    if order < 8:
        raise ValueError(f"quadrature order must be at least 8, got {order}")
    model = OutcomeModel(sq)
    scale = math.sqrt(2.0) * model.component_sigma
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    work = np.empty((6, order, order))
    work[0] = alpha.x + scale * nodes[:, None]
    work[1] = alpha.y + scale * nodes[None, :]
    f = _one_shot_into(strategy, (alpha.x, alpha.y), sq.lam, work)
    return float((weights[:, None] * weights[None, :] * f).sum() / math.pi)
