"""Shared test helpers."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from asyncsag.graph import DirectedGraph
from asyncsag.mspbe import SampleStats


def dump_edge_list(g: DirectedGraph, path: str | Path) -> None:
    """Write ``g`` in the format ``graph.load_edge_list`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, j in sorted(g.edges):
            fh.write(f"{i} {j}\n")


def sample_objective(z: np.ndarray, stats: SampleStats, rho: float) -> float:
    """Value of the per-sample saddle term, whose gradient (dual block
    negated) ``mspbe.saddle_gradient`` returns; the derivative checks
    difference it."""
    d = stats.phi.shape[0]
    theta, omega = z[:d], z[d:]
    u = stats.phi @ omega
    return float(u * (stats.psi @ theta - stats.reward) - 0.5 * u * u
                 + 0.5 * rho * theta @ theta)


def tracker_bounds(trace) -> list[float]:
    """After each event, a little above the largest latest tracker norm of
    the nodes: the smallest of the first k is an epsilon that stops the run
    by event k."""
    latest = [float(np.linalg.norm(y)) for y in trace.y0]
    bounds = []
    for v, y in zip(trace.node.tolist(), trace.y_new):
        latest[v] = float(np.linalg.norm(y))
        bounds.append(max(latest) * 1.000001)
    return bounds
