"""Shared test helpers, and the reference computations that the tests and
gates compare the package with: the scaled coordinates and affine map, the
centralized loops and the synchronous run."""

from __future__ import annotations

import contextlib
import dataclasses
import unittest.mock
from pathlib import Path

import numpy as np

from asyncsag import mdp, simulator
from asyncsag.augmented import SparseMatrix
from asyncsag.graph import DirectedGraph, diameter
from asyncsag.mspbe import (ProblemSpec, SampleStats, _scaled_block,
                            aggregate, saddle_gradient, solve_problem)
from asyncsag.protocol import SampleSelector, selector_rng
from asyncsag.simulator import ActivationSchedule, DelayModel, EventTrace


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
    ``simulator.activate`` (of whatever they are bound to on entry), which
    read each broadcast's row of the payload table. The ``NodeStates``
    yielded holds lists while the block runs, and arrays of the last run's
    rows after it, also when the run raised."""
    states = NodeStates([], [], [])
    init, act = simulator.init_node, simulator.activate

    def init_node(node_id, samples, out_degree, m_global, rho, payloads, row):
        if node_id == 0:   # a new run
            for rows in (states.y0, states.z_tilde, states.y_new):
                rows.clear()
        node = init(node_id, samples, out_degree, m_global, rho, payloads,
                    row)
        states.y0.append(payloads.y[row].copy())
        return node

    def activate(node, payloads, row, *args, **kwargs):
        z_hat = act(node, payloads, row, *args, **kwargs)
        states.z_tilde.append(payloads.z[row].copy())
        states.y_new.append(payloads.y[row].copy())
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
    return trace.window, diameter(trace.graph)


def from_entries(rows, cols, weights, size: int) -> SparseMatrix:
    """The ``SparseMatrix`` of (row, col, weight) entries, sorted by row
    and then column; repeated positions sum in input order, starting at
    zero as a dense ``+=`` over the same entries would, and the positions
    whose sum is exactly zero are dropped."""
    rows = np.asarray(rows, dtype=np.int32)
    cols = np.asarray(cols, dtype=np.int32)
    key = rows.astype(np.int64) * size + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    weights = np.asarray(weights, dtype=float)[order]
    fresh = np.ones(key.size, dtype=bool)
    fresh[1:] = key[1:] != key[:-1]
    if not fresh.all():
        weights = np.bincount(np.cumsum(fresh) - 1, weights=weights)
    order = order[fresh]
    nonzero = weights != 0.0
    if not nonzero.all():
        order, weights = order[nonzero], weights[nonzero]
    return SparseMatrix(rows[order], cols[order], weights, size)


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


# ---------------------------------------------------------------------------
# reference computations
# ---------------------------------------------------------------------------

def to_scaled(z: np.ndarray, zeta: float) -> np.ndarray:
    """Map z = [theta; omega] to analysis coordinates [theta; omega/sqrt(zeta)],
    each row of a stack of saddle vectors alike; ``mspbe.from_scaled``
    inverts it."""
    d = z.shape[-1] // 2
    w = z.copy()
    w[..., d:] /= np.sqrt(zeta)
    return w


def scaled_affine(problem: ProblemSpec, zeta: float) -> tuple[np.ndarray, np.ndarray]:
    """The mean gradient map in scaled coordinates, M @ w + const, as
    (M, const); at zeta = 1 it is the unscaled mean stacked gradient.

    One step w <- w - eta * (M @ w + const) reproduces the unscaled block
    step (eta1 = eta on theta, eta2 = eta*zeta on omega) up to the
    coordinate change.
    """
    a, b, c = aggregate(problem)
    const = np.concatenate([np.zeros(problem.d), np.sqrt(zeta) * b])
    return _scaled_block(a, c, problem.rho, zeta), const


@dataclasses.dataclass(frozen=True)
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


def run_sync(problem: ProblemSpec, graph: DirectedGraph, rounds: int,
             eta1: float, eta2: float, seed: int,
             z_star: np.ndarray | None) -> EventTrace:
    """Synchronous push-pull baseline: per round, every node activates on the
    previous round's broadcasts.

    This is ``run_async`` with round-robin activation (a round is n events,
    node i acting at event i + 1 of it) and round-barrier delivery, which
    holds each broadcast to the end of its round. Given ``z_star``, the
    trace keeps the streamed error series, as ``run_async``'s does.
    """
    n = graph.n
    return simulator.run_async(
        problem, graph, ActivationSchedule("round_robin", n),
        DelayModel("round_barrier", d_max=n - 1), eta1, eta2, seed,
        max_events=rounds * n, z_star=z_star)
