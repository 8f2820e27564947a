"""The numpy chunk kernel behind :func:`cvteleport.measurement.mc_average_fidelity`.

Monte Carlo runs are chunked: chunk k of a run with seed s draws from
``stream(s, k)``, and the final reduction adds per-chunk partial sums in
chunk order, so the estimate depends only on (seed, n).  One estimate
runs on one thread; callers parallelise across independent estimates
(grid points) instead.

A chunk allocates no sample arrays.  Each estimate allocates one float64
workspace, one row of MC_CHUNK values and five scratch rows of MC_BLOCK
values (832 KiB), and lets it go when it returns; the freed memory stays
in the malloc arena of the thread that ran the estimate.  A chunk's
stream gives all of w_x, then all of w_y.  w_x fills the row; w_y is
drawn MC_BLOCK values at a time into the scratch, where consecutive
``standard_normal(out=)`` calls continue the stream bit for bit; each
block's rule writes its fidelities over its w_x, and the chunk's sums
reduce the full row as one array.

One function, ``_one_shot_into``, states the three rules.  Each rule
leaves log F in scratch row 2, and one ``exp`` writes F over w_x.  The
standard and line rules work on the centred noise w = beta - alpha, drawn
as sigma * z, never on beta itself.  Every rule displaces by
epsilon = (1 - lam) guess + lam beta (the standard rule with gain g is
epsilon = g beta), so the one-shot exponent collapses to

    log F = -|(alpha - epsilon) - lam (alpha - beta)|^2
          = -(1 - lam)^2 |alpha - guess(beta)|^2,

evaluated as -|(1 - g) alpha - (g - lam) w|^2 for the standard rule and
-(1 - lam)^2 ((alpha_x - |beta|)^2 + alpha_y^2) for the line rule.  For
alpha_x > 0 the line rule forms |beta| - alpha_x as
(w_x (2 alpha_x + w_x) + beta_y^2) / (alpha_x + |beta|), so the difference
of two nearly equal amplitudes never cancels.  The estimates therefore
stay right at large amplitudes (|alpha| = 1e16 is tested), where
subtracting beta = alpha + w from alpha would round w away; |beta|^2
overflows only above |beta| ~ 1e154, so targets beyond MAX_AMPLITUDE
are rejected.  The circle rule keeps the expanded exponent on
beta = alpha + w; the comment on its branch says why.

This is the one module besides ``acceptance`` that imports numpy at load
time; ``measurement`` imports it on the first estimate, so the CLI starts
without numpy and the closed-form runners (``fig3``, ``gaussian``) never
load it.
"""

from __future__ import annotations

import numpy as np

from .measurement import MC_CHUNK, CircleTailored, LineTailored, Standard, Strategy

# Samples the chunk kernel evaluates at a time; changing it changes no value.
MC_BLOCK = 1 << 13


def stream(seed: int, key: int) -> np.random.Generator:
    """The generator of ``seed``'s derived stream ``key``; chunk k draws stream k."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


def _new_workspace() -> tuple[np.ndarray, np.ndarray]:
    """One estimate's (MC_CHUNK,) sample row and (5, MC_BLOCK) scratch rows."""
    return np.empty(MC_CHUNK), np.empty((5, MC_BLOCK))


def _scaled_normal_into(rng: np.random.Generator, sigma: float, out: np.ndarray) -> None:
    """Fill ``out`` with the centred draws sigma * z of ``rng.standard_normal``.

    ``Generator.normal(loc, sigma)`` computes loc + sigma * z from the same
    stream, so adding loc afterwards gives bit-identical values to it.
    """
    rng.standard_normal(out=out)
    out *= sigma


def _one_shot_into(strategy: Strategy, alpha, lam: float, work) -> None:
    """Overwrite ``work[0]`` with the one-shot fidelities of the outcomes alpha + w.

    ``alpha`` is the target as an (x, y) pair of floats and ``work`` six
    equal-shape float64 rows, w_x in row 0 and w_y in row 1.  Every rule
    may overwrite all six rows and leaves log F in row 2; one ``exp`` then
    writes F over row 0.
    """
    ax, ay = alpha
    wx, wy, t2, t3, t4, t5 = work
    if isinstance(strategy, Standard):
        # -log F = |(1 - g) alpha - (g - lam) w|^2
        g = strategy.gain
        np.multiply(wx, g - lam, out=t2)
        np.subtract((1.0 - g) * ax, t2, out=t2)
        np.multiply(t2, t2, out=t2)
        np.multiply(wy, g - lam, out=t3)
        np.subtract((1.0 - g) * ay, t3, out=t3)
        np.multiply(t3, t3, out=t3)
        np.add(t2, t3, out=t2)
        np.negative(t2, out=t2)
    elif isinstance(strategy, LineTailored):
        # -log F = (1 - lam)^2 ((ax - |beta|)^2 + ay^2), beta = alpha + w.
        # For ax > 0, |beta| - ax = (wx (2 ax + wx) + by^2) / (ax + |beta|),
        # which does not cancel however large ax is; otherwise the plain
        # difference |beta| - ax has no cancellation to lose.
        np.add(wx, ax, out=t2)  # bx
        np.add(wy, ay, out=t3)  # by
        np.multiply(t3, t3, out=t3)
        np.add(t2, ax, out=t4)  # bx + ax = 2 ax + wx
        np.multiply(t2, t2, out=t2)
        np.add(t2, t3, out=t2)
        np.sqrt(t2, out=t2)  # |beta|
        np.multiply(t4, wx, out=t4)
        np.add(t4, t3, out=t4)  # |beta|^2 - ax^2
        if ax > 0.0:
            np.add(t2, ax, out=t3)
            np.divide(t4, t3, out=t4)
        else:
            np.subtract(t2, ax, out=t4)
        np.multiply(t4, t4, out=t4)
        if ay != 0.0:
            np.add(t4, ay * ay, out=t4)
        np.multiply(t4, -(1.0 - lam) ** 2, out=t2)
    elif isinstance(strategy, CircleTailored):
        # Not the guess form: beta = alpha + w, rounded as
        # Generator.normal(alpha, sigma) rounds it, and the expanded exponent
        # -|u|^2 - lam^2 |v|^2 + 2 lam Re(u* v) (u = alpha - epsilon,
        # v = alpha - beta) in the operation order of the scalar
        # transfer_exponent, bit for bit.  At lam = 0.999 the 8th digit of
        # the standard error follows the samples' last bits, and the
        # benchmark's reference CSVs pin the circle's standard error.
        bx, by = wx, wy
        np.add(bx, ax, out=bx)
        np.add(by, ay, out=by)
        # displacement: ex -> t3, ey -> t2
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
        # u = alpha - epsilon -> (t3, t2); v = alpha - beta -> (bx, by)
        np.subtract(ax, t3, out=t3)
        np.subtract(ay, t2, out=t2)
        np.subtract(ax, bx, out=bx)
        np.subtract(ay, by, out=by)
        # Re(u* v) -> t4
        np.multiply(t3, bx, out=t4)
        np.multiply(t2, by, out=t5)
        np.add(t4, t5, out=t4)
        # |u|^2 -> t3, |v|^2 -> bx
        np.multiply(t3, t3, out=t3)
        np.multiply(t2, t2, out=t2)
        np.add(t3, t2, out=t3)
        np.multiply(bx, bx, out=bx)
        np.multiply(by, by, out=by)
        np.add(bx, by, out=bx)
        # (-|u|^2 - lam^2 |v|^2) + 2 lam Re(u* v)
        np.negative(t3, out=t3)
        np.multiply(bx, lam * lam, out=bx)
        np.subtract(t3, bx, out=t3)
        np.multiply(t4, 2.0 * lam, out=t4)
        np.add(t3, t4, out=t2)
    else:
        raise TypeError(f"unknown strategy: {strategy!r}")
    np.exp(t2, out=wx)


def _fidelities_into(strategy, alpha, lam, sigma, rng, row, scratch) -> None:
    """Overwrite ``row`` with the one-shot fidelities of len(row) outcomes.

    Draws w_x into ``row``, then w_y block by block into ``scratch[0]``;
    each block's rule runs with scratch rows 1 to 4 as temporaries and
    writes its fidelities over its w_x.  ``scratch`` has five rows; its
    width is the block size, which changes no value.
    """
    _scaled_normal_into(rng, sigma, row)
    width = scratch.shape[1]
    for lo in range(0, len(row), width):
        wx = row[lo : lo + width]
        block = scratch[:, : len(wx)]
        _scaled_normal_into(rng, sigma, block[0])  # continues the w_y stream
        _one_shot_into(strategy, alpha, lam, (wx, *block))


def chunk_sums(strategy: Strategy, alpha, lam: float, sigma: float, n: int, seed: int
               ) -> tuple[float, float]:
    """Sums of the one-shot fidelities f and of f^2 over n seeded outcomes.

    ``alpha`` is the target as an (x, y) pair and ``sigma`` the outcome
    components' standard deviation.  Chunk k draws from its own derived
    generator, and the per-chunk sums are added in chunk order.  The
    workspace is allocated here, once, and freed when the sums return.
    """
    row, scratch = _new_workspace()
    total = 0.0
    total_sq = 0.0
    for k in range((n + MC_CHUNK - 1) // MC_CHUNK):
        f = row[: min(n - k * MC_CHUNK, MC_CHUNK)]
        _fidelities_into(strategy, alpha, lam, sigma, stream(seed, k), f, scratch)
        total += float(f.sum())
        np.multiply(f, f, out=f)
        total_sq += float(f.sum())
    return total, total_sq
