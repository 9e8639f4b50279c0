"""Shared test helpers, and the reference computations that the tests and
gates compare the package with: the scaled coordinates and affine map, the
centralized loops and the synchronous run."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import unittest.mock
from collections import deque
from pathlib import Path

import numpy as np

from asyncsag import mdp, simulator
from asyncsag.augmented import SparseMatrix
from asyncsag.graph import DirectedGraph, diameter
from asyncsag.mspbe import (ProblemSpec, SampleStats, _scaled_block,
                            aggregate, saddle_gradient, solve_problem)
from asyncsag.protocol import sample_picks, selector_rng
from asyncsag.simulator import ActivationSchedule, DelayModel, EventTrace


def edges(g: DirectedGraph) -> set[tuple[int, int]]:
    """The edges of ``g``: its adjacency's true entries off the diagonal."""
    return {(i, j) for i, j in np.argwhere(g.adj).tolist() if i != j}


def dump_edge_list(g: DirectedGraph, path: str | Path) -> None:
    """Write ``g`` in the format ``graph.load_edge_list`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, j in sorted(edges(g)):
            fh.write(f"{i} {j}\n")


def bfs_distances(g: DirectedGraph, start: int,
                  reverse: bool = False) -> dict[int, int]:
    """Hop counts from ``start`` to every node it reaches (to every node
    that reaches it, with ``reverse``), by breadth-first search: the
    reference for the level sweep ``graph.hop_counts``."""
    adj = g.adj.T if reverse else g.adj
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in np.flatnonzero(adj[v]).tolist():
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


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


def sample_map(stats: SampleStats, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """One sample's gradient map (G_s, g_s), as ``ProblemSpec.maps`` builds
    it."""
    linear, offset = ProblemSpec(((stats,),), rho).maps
    return linear[0], offset[0]


def rank_one_gradient(z: np.ndarray, stats: SampleStats, rho: float) -> np.ndarray:
    """The per-sample gradient from the rank-one factors: [A^T omega +
    rho theta; -(A theta - C omega - b)] is [psi (phi.omega) + rho theta;
    phi (phi.omega + r - psi.theta)], O(d) work; the reference that the
    gradient map ``mspbe.saddle_gradient`` evaluates is checked against."""
    d = stats.phi.shape[0]
    theta, omega = z[:d], z[d:]
    u = stats.phi @ omega
    return np.concatenate([stats.psi * u + rho * theta,
                           stats.phi * (u + stats.reward - stats.psi @ theta)])


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
    read each broadcast's row of the payload table and divide its tracker
    by the global sample count m, as the run's metrics do. The
    ``NodeStates`` yielded holds lists while the block runs, and arrays of
    the last run's rows after it, also when the run raised."""
    states = NodeStates([], [], [])
    init, act = simulator.init_node, simulator.activate
    m = [1]

    def init_node(node_id, linear, offset, out_degree, m_global, eta1, eta2,
                  payloads, row):
        if node_id == 0:   # a new run
            for rows in (states.y0, states.z_tilde, states.y_new):
                rows.clear()
            m[0] = m_global
        node = init(node_id, linear, offset, out_degree, m_global, eta1,
                    eta2, payloads, row)
        states.y0.append(payloads.y[row] / m[0])
        return node

    def activate(node, payloads, row, *args, **kwargs):
        z_hat = act(node, payloads, row, *args, **kwargs)
        states.z_tilde.append(payloads.rows[row, :payloads.y.shape[1]].copy())
        states.y_new.append(payloads.y[row] / m[0])
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


@dataclasses.dataclass
class PaperNode:
    """A node's state in the paper's form: the table holds each sample's
    full gradient G_s z + g_s at its last evaluation, and the tracker y is
    the table's contribution divided by m."""

    node_id: int
    table: np.ndarray       # (m_i, 2d)
    linear: np.ndarray      # (m_i, 2d, 2d)
    offset: np.ndarray      # (m_i, 2d)
    out_degree: int
    m_global: int
    steps: np.ndarray       # (2d,) [eta1 ... eta1 | eta2 ... eta2]
    buffer: list[int]


def paper_init_node(node_id, linear, offset, out_degree, m_global, eta1,
                    eta2, payloads, row) -> PaperNode:
    """``protocol.init_node`` in the paper's arithmetic: at z = 0 every
    gradient is its offset, and y is their sum over m; payload rows hold
    [z | y / out_degree] and ``payloads.y`` holds y."""
    table = offset.copy()
    y = table.sum(axis=0) / m_global
    payloads.rows[row] = np.concatenate([np.zeros_like(y), y / out_degree])
    payloads.y[row] = y
    d = offset.shape[1] // 2
    return PaperNode(node_id, table, linear, offset, out_degree, m_global,
                     np.repeat([eta1, eta2], d), [row])


def paper_activate(node: PaperNode, payloads, row: int,
                   pick: int) -> np.ndarray:
    """``protocol.activate`` in the paper's arithmetic: the mean of the
    buffered z and the sum of the buffered shares, each added in buffer
    order, the gradient ``G_s @ z + g_s``, y corrected by (new - stored) /
    m, a block step per half, and the share ``y / out_degree``."""
    if not node.buffer:
        raise RuntimeError("empty buffer")
    width = payloads.y.shape[1]
    stacked = [payloads.rows[r] for r in node.buffer]
    total = functools.reduce(np.add, stacked[1:], stacked[0].copy())
    z_hat = total[:width] / len(node.buffer)
    y_new = total[width:]
    fresh = node.linear[pick] @ z_hat + node.offset[pick]
    y_new += (fresh - node.table[pick]) / node.m_global
    node.table[pick] = fresh
    z_tilde = z_hat - node.steps * y_new
    payloads.rows[row] = np.concatenate([z_tilde, y_new / node.out_degree])
    payloads.y[row] = y_new
    node.buffer = [row]
    return z_hat


@contextlib.contextmanager
def paper_arithmetic():
    """Run ``simulator.run_async`` on the paper's arithmetic inside the
    block: the same plan, with ``paper_init_node`` and ``paper_activate``
    in place of the protocol's. For full traces only: a run given z_star
    would divide the y that these write by m once more."""
    with unittest.mock.patch.object(simulator, "init_node", paper_init_node), \
            unittest.mock.patch.object(simulator, "activate", paper_activate):
        yield


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

    Matches the n=1 distributed run to rounding: same selector stream (node
    0's), same steps (gradient at the current z, table correction, block
    step), in the paper's arithmetic, where the run's table leaves out the
    offsets and its tracker is m y.
    """
    linear, offset = problem.maps
    m, d = problem.m, problem.d
    z = np.zeros(2 * d)
    z_star = solve_problem(problem)
    picks = sample_picks(m, selector_rng(seed, 0), iters).tolist()

    # at z = 0 every sample's gradient map is its offset
    table = offset.copy()
    y = table.sum(axis=0) / m

    z_hist = np.empty((iters + 1, 2 * d))
    z_hist[0] = z
    for k, p in enumerate(picks, start=1):
        fresh = saddle_gradient(z, linear[p], offset[p])
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
