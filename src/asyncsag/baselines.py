"""Centralized reference iterations the distributed run must match or beat.

``centralized_sag`` keeps one averaged-gradient table over all m samples and
reuses the single-node selector stream, so an n=1 distributed run reproduces
it bit-for-bit. ``centralized_gd`` is deterministic full-gradient
descent-ascent in the scaled analysis coordinates, recording each iterate's
Euclidean distance to the saddle point. The ratio of successive distances
is not bounded by 1 - alpha*eta at every step (the one-step map is not
normal); the per-step bound holds in the eigenbasis norm ||Q^{-1}(w - w*)||
of the scaled operator M = Q diag(lambda) Q^{-1}.
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
    err: np.ndarray               # (iters+1,) distance to the saddle point


def centralized_sag(problem: ProblemSpec, eta1: float, eta2: float, iters: int,
                    seed: int) -> CentralTrace:
    """Single-table averaged-gradient iteration over all m samples, from
    z = 0.

    Matches the n=1 distributed run exactly: same selector stream (node 0's),
    same arithmetic order (gradient at the current z, table correction, block
    step).
    """
    stats = list(problem.all_stats())
    m = len(stats)
    d = problem.d
    z = np.zeros(2 * d)
    z_star = solve_problem(problem)
    picks = SampleSelector(m, selector_rng(seed, 0)).take(iters).tolist()

    table = np.stack([saddle_gradient(z, st, problem.rho) for st in stats])
    y = table.sum(axis=0) / m

    z_hist = np.empty((iters + 1, 2 * d))
    z_hist[0] = z
    for k, p in enumerate(picks, start=1):
        fresh = saddle_gradient(z, stats[p], problem.rho)
        y += (fresh - table[p]) / m
        table[p] = fresh
        z = z.copy()
        z[:d] -= eta1 * y[:d]
        z[d:] -= eta2 * y[d:]
        z_hist[k] = z
    return CentralTrace(z_hist, np.linalg.norm(z_hist - z_star, axis=1))


def centralized_gd(problem: ProblemSpec, eta: float, zeta: float, iters: int,
                   z0: np.ndarray) -> CentralTrace:
    """Deterministic scaled descent-ascent w <- w - eta * (M w + const).

    ``z0`` is an unscaled saddle vector; the trace (iterates and errors)
    lives in the scaled coordinates where the contraction analysis applies.
    ``err`` is Euclidean, so a single ratio err[k+1]/err[k] may exceed
    1 - alpha*eta; the per-step contraction holds for ||Q^{-1}(w_k - w*)||,
    with Q the eigenvector matrix of ``scaled_affine``'s M, when M has a real
    spectrum and eta <= 1/lmax(M).
    """
    d = problem.d
    m_op, const = scaled_affine(problem, zeta)
    w_star = to_scaled(solve_problem(problem), zeta)
    w = to_scaled(np.asarray(z0, dtype=float), zeta)
    z_hist = np.empty((iters + 1, 2 * d))
    z_hist[0] = w
    for k in range(1, iters + 1):
        w = w - eta * (m_op @ w + const)
        z_hist[k] = w
    return CentralTrace(z_hist, np.linalg.norm(z_hist - w_star, axis=1))
