"""Centralized reference iterations the distributed run must match or beat.

``centralized_sag`` keeps one averaged-gradient table over all m samples and
reuses the single-node selector stream, so an n=1 distributed run reproduces
it bit-for-bit. ``centralized_gd`` is deterministic full-gradient
descent-ascent in the scaled analysis coordinates, recording the per-step
Euclidean distance ratios to the saddle point. Those ratios are not bounded
by 1 - alpha*eta at every step (the one-step map is not normal); the per-step
bound holds in the eigenbasis norm ||Q^{-1}(w - w*)|| of the scaled operator
M = Q diag(lambda) Q^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mspbe import (
    ProblemSpec,
    saddle_gradient,
    scaled_affine,
    solve_problem,
    to_scaled,
)
from .protocol import SampleSelector, selector_rng


@dataclass(frozen=True)
class CentralTrace:
    """Iterates of a centralized run (``z_hist[k]`` is the k-th iterate)."""

    z_hist: np.ndarray            # (iters+1, 2d)
    samples: tuple[int, ...]      # chosen sample index per step (empty for GD)
    err: np.ndarray               # (iters+1,) distance to the saddle point
    ratios: np.ndarray            # (iters,) per-step err[k+1]/err[k]


def _central_trace(z_hist: np.ndarray, z_star: np.ndarray,
                   samples: tuple[int, ...]) -> CentralTrace:
    """The trace of the iterates ``z_hist``, measured against ``z_star``."""
    err = np.linalg.norm(z_hist - z_star, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(err[:-1] > 0, err[1:] / np.maximum(err[:-1], 1e-300), 0.0)
    return CentralTrace(z_hist=z_hist, samples=samples, err=err, ratios=ratios)


def centralized_sag(problem: ProblemSpec, eta1: float, eta2: float, iters: int,
                    seed: int, z0: np.ndarray | None = None,
                    full_refresh: bool = False) -> CentralTrace:
    """Single-table averaged-gradient iteration over all m samples.

    Matches the n=1 distributed run exactly: same selector stream (node 0's),
    same arithmetic order (gradient at the current z, table correction, block
    step). With ``full_refresh`` every table entry is refreshed each step,
    which degenerates to deterministic full-gradient iteration.
    """
    stats = list(problem.all_stats())
    m = len(stats)
    d = problem.d
    z = np.zeros(2 * d) if z0 is None else np.asarray(z0, dtype=float).copy()
    z_star = solve_problem(problem)
    selector = SampleSelector(m, selector_rng(seed, 0))

    table = np.stack([saddle_gradient(z, st, problem.rho) for st in stats])
    y = table.sum(axis=0) / m

    z_hist = np.empty((iters + 1, 2 * d))
    z_hist[0] = z
    picks: list[int] = []
    for k in range(1, iters + 1):
        if full_refresh:
            for p in range(m):
                fresh = saddle_gradient(z, stats[p], problem.rho)
                y += (fresh - table[p]) / m
                table[p] = fresh
            p = -1
        else:
            p = selector.next()
            fresh = saddle_gradient(z, stats[p], problem.rho)
            y += (fresh - table[p]) / m
            table[p] = fresh
        picks.append(p)
        z = z.copy()
        z[:d] -= eta1 * y[:d]
        z[d:] -= eta2 * y[d:]
        z_hist[k] = z
    return _central_trace(z_hist, z_star, tuple(picks))


def centralized_gd(problem: ProblemSpec, eta: float, zeta: float, iters: int,
                   z0: np.ndarray | None = None) -> CentralTrace:
    """Deterministic scaled descent-ascent w <- w - eta * (M w + const).

    ``z0`` is an unscaled saddle vector; the trace (iterates, errors, ratios)
    lives in the scaled coordinates where the contraction analysis applies.
    ``err`` and ``ratios`` are Euclidean, so a single ratio may exceed
    1 - alpha*eta; the per-step contraction holds for ||Q^{-1}(w_k - w*)||,
    with Q the eigenvector matrix of ``scaled_affine``'s M, when M has a real
    spectrum and eta <= 1/lmax(M).
    """
    d = problem.d
    m_op, const = scaled_affine(problem, zeta)
    w_star = to_scaled(solve_problem(problem), zeta)
    w = (
        to_scaled(np.zeros(2 * d), zeta) if z0 is None
        else to_scaled(np.asarray(z0, dtype=float), zeta)
    )
    z_hist = np.empty((iters + 1, 2 * d))
    z_hist[0] = w
    for k in range(1, iters + 1):
        w = w - eta * (m_op @ w + const)
        z_hist[k] = w
    return _central_trace(z_hist, w_star, ())
