"""Shared test helpers."""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from asyncsag.graph import DirectedGraph, diameter
from asyncsag.mspbe import SampleStats
from asyncsag.simulator import EventTrace, verify_assumption1b


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


def initial_z(trace: EventTrace) -> np.ndarray:
    """Every node's saddle vector before the first event: a run starts at
    zero."""
    return np.zeros((trace.n, 2 * trace.d))


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


def graph_constants(trace: EventTrace) -> tuple[int, int]:
    """(certified b, diameter) of a trace's run."""
    return verify_assumption1b(trace), diameter(trace.graph)


def assert_traces_equal(got: EventTrace, want: EventTrace) -> None:
    """Every field of ``EventTrace`` equal: arrays in dtype, shape and bytes,
    the message log and the rest by ==."""
    for field in dataclasses.fields(EventTrace):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), field.name
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name
