"""Shared test helpers."""

from __future__ import annotations

import contextlib
import dataclasses
import unittest.mock
from pathlib import Path

import numpy as np

from asyncsag import mdp, simulator
from asyncsag.graph import DirectedGraph, diameter
from asyncsag.mspbe import ProblemSpec, SampleStats
from asyncsag.simulator import EventTrace, verify_assumption1b


def dump_edge_list(g: DirectedGraph, path: str | Path) -> None:
    """Write ``g`` in the format ``graph.load_edge_list`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, j in sorted(g.edges):
            fh.write(f"{i} {j}\n")


def build_problem(seed: int = 0, n: int = 3, d: int = 3, length: int = 31,
                  num_states: int = 10, rho: float = 0.1, gamma: float = 0.9,
                  mode: str = "parallel") -> ProblemSpec:
    """The problem of a seeded two-action MDP: a rollout of ``length``
    states, d features, split over n nodes as ``mode`` lays it out."""
    streams = n if mode == "marl" else 1
    chain = mdp.build_random_mdp(num_states, 2, streams, seed)
    policy = mdp.random_policy(num_states, 2, seed)
    traj = mdp.sample_trajectory(chain, policy, length, seed)
    feats = mdp.make_feature_map(num_states, d, seed)
    return ProblemSpec(mdp.partition_samples(traj, feats, mode, n, gamma), rho)


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


@dataclasses.dataclass
class NodeStates:
    """What the nodes of a run computed: each node's initial tracker, and
    each event's broadcast and the activator's corrected tracker, one row
    per event in event order."""

    y0: np.ndarray        # (n, 2d)
    z_tilde: np.ndarray   # (T, 2d)
    y_new: np.ndarray     # (T, 2d)


@contextlib.contextmanager
def recorded_states():
    """Record the states of the ``simulator.run_async`` calls made inside
    the block, through wrappers of ``simulator.init_node`` and
    ``simulator.activate`` (of whatever they are bound to on entry). The
    ``NodeStates`` yielded holds lists while the block runs, and arrays of
    the last run's rows after it, also when the run raised."""
    states = NodeStates([], [], [])
    init, act = simulator.init_node, simulator.activate

    def init_node(node_id, *args, **kwargs):
        if node_id == 0:   # a new run
            for rows in (states.y0, states.z_tilde, states.y_new):
                rows.clear()
        node = init(node_id, *args, **kwargs)
        states.y0.append(node.y.copy())
        return node

    def activate(node, payloads, row, *args, **kwargs):
        z_hat = act(node, payloads, row, *args, **kwargs)
        states.z_tilde.append(payloads.z[row].copy())
        states.y_new.append(node.y.copy())
        return z_hat

    try:
        with unittest.mock.patch.object(simulator, "init_node", init_node), \
                unittest.mock.patch.object(simulator, "activate", activate):
            yield states
    finally:
        width = states.y0[0].shape[0] if states.y0 else 0
        states.y0, states.z_tilde, states.y_new = (
            np.array(rows).reshape(len(rows), width)
            for rows in (states.y0, states.z_tilde, states.y_new))


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
