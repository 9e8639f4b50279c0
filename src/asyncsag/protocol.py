"""Per-node state machine of the asynchronous push-pull averaged-gradient run.

Each node keeps a per-sample table of stored gradients and its samples' rows
of the problem's gradient maps (``ProblemSpec.maps``), as lists of rows, and
one receive buffer of payload rows; its saddle vector z and its gradient
tracker y are its latest broadcast's payload row. An activation, in order:

  1-2. pulls z as the mean of the buffered z and pushes y as the sum of the
     buffered tracker shares: it adds the buffered rows [z | share] in
     buffer order and divides the sum once by [k ... k | 1 ... 1],
  3. refreshes the gradient table at the picked sample (its map G_s z + g_s)
     and corrects y by (new - stored) / m with the *global* sample count m,
  4. writes [z | y] / [1 ... 1 | out_degree ...] (self-inclusive out-degree)
     into its row of the payload table, and takes the diag(eta1, eta2) block
     step along y from that row's z half, which gives z_tilde (z / 1 is z),
  5. empties the buffer and re-buffers that row as its own copy.

A payload is a row of a ``PayloadTable``, which holds each broadcast of a
run once, for as long as a buffer or a delivery can still read it; a
buffered entry is the index of its row, which the simulator maps to its
provenance (origin node, origin event index). The sign convention: y's
omega block carries the negated dual gradient, so the single subtraction in
step 4 descends on theta and ascends on omega.

Nodes never share state; all interaction flows through payload rows that the
caller (the simulator) delivers, and the caller picks each activation's
sample (the simulator draws a node's picks with ``sample_picks``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mspbe import saddle_gradient

# Stream tags for deriving independent per-purpose generators from one seed.
STREAM_SCHEDULE = 1
STREAM_DELAY = 2
STREAM_SELECTOR = 3


def derived_rng(seed: int, stream: int, member: int = 0) -> np.random.Generator:
    """Deterministic, stream-separated generator derivation from a run seed."""
    return np.random.default_rng(np.random.SeedSequence([seed, stream, member]))


def selector_rng(seed: int, node_id: int) -> np.random.Generator:
    """Node ``node_id``'s sample-selector stream."""
    return derived_rng(seed, STREAM_SELECTOR, node_id)


def sample_picks(m_local: int, rng: np.random.Generator,
                 count: int) -> np.ndarray:
    """The first ``count`` random-reshuffle selections over ``m_local``
    samples: successive uniform permutations from ``rng``, at least one,
    so every index appears at least once in any window of 2*m_local - 1
    consecutive selections."""
    if m_local < 1:
        raise ValueError("selector needs at least one sample")
    epochs = max(1, -(-count // m_local))
    return np.concatenate([rng.permutation(m_local)
                           for _ in range(epochs)])[:count]


@dataclass(slots=True)
class Message:
    """Delivery record of one network message: which broadcast went from
    where to where, when it became visible and which activation consumed
    it."""

    origin: int
    dest: int
    sent_at: int      # event index of the originating update (0 = init)
    deliver_at: int   # event slot after which the payload is visible
    consumed_at: int | None = None

    def __post_init__(self):
        if self.deliver_at < self.sent_at:
            raise ValueError("message cannot be delivered before it is sent")


@dataclass(slots=True)
class PayloadTable:
    """Broadcasts of a run, one row each, written once by its sender.

    Row r of ``rows`` is what every copy of broadcast r carries: the saddle
    vector z_tilde and the tracker share y_new / out_degree, side by side.
    ``y`` holds the sender's y_new, which the metrics read.
    """

    rows: np.ndarray     # (rows, 4d) [z_tilde | y_new / out_degree]
    y: np.ndarray        # (rows, 2d) the sender's y_new
    views: list[np.ndarray] = field(init=False)   # rows[r], made once

    def __post_init__(self):
        self.views = list(self.rows)

    @classmethod
    def empty(cls, rows: int, width: int) -> "PayloadTable":
        return cls(np.empty((rows, 2 * width)), np.empty((rows, width)))


@dataclass(slots=True)
class NodeState:
    """One node's full protocol state. Owned by exactly one executor. The
    per-sample entries are lists of rows, so that a pick is a list lookup."""

    node_id: int
    table: list[np.ndarray]     # (2d,) stored gradient of each local sample
    linear: list[np.ndarray]    # (2d, 2d) the local samples' G_s
    offset: list[np.ndarray]    # (2d,) their g_s
    m_global: np.ndarray        # (2d,) m in each entry, a faster divisor
    buffer: list[int]           # payload rows
    divisor: np.ndarray         # (4d,) [1 ... 1 | out_degree ... out_degree]
    # means[k] is [k ... k | 1 ... 1], the divisor of a pull of k rows, and
    # steps diag(eta1 I_d, eta2 I_d) at the last activation's etas
    means: list[np.ndarray] = field(default_factory=list)
    etas: tuple[float, float] = (np.nan, np.nan)
    steps: np.ndarray | None = None


def init_node(node_id: int, linear: np.ndarray, offset: np.ndarray,
              out_degree: int, m_global: int, payloads: PayloadTable,
              row: int) -> NodeState:
    """Fill the gradient table at z = 0, where each sample's map
    G_s z + g_s is its offset g_s, and stage the initial broadcast.

    The broadcast (z = 0 and the tracker) is written to ``row`` of the
    payload table, which the node's out-neighbors must receive; the node's
    own copy is already buffered.
    """
    table = offset.copy()
    y = table.sum(axis=0) / m_global
    payloads.rows[row] = np.concatenate([np.zeros_like(y), y / out_degree])
    payloads.y[row] = y
    return NodeState(
        node_id=node_id, table=list(table), linear=list(linear),
        offset=list(offset), m_global=np.full(y.shape[0], float(m_global)),
        buffer=[row], divisor=np.repeat([1.0, out_degree], y.shape[0]),
    )


def on_receive(node: NodeState, dest: int, row: int) -> None:
    """Append a delivered payload row to the node's buffer (arrival order
    kept).

    Duplicates from the same sender are kept as separate entries; each gets
    its own averaging weight at the next activation.
    """
    if dest != node.node_id:
        raise ValueError(
            f"message for node {dest} delivered to node {node.node_id}"
        )
    node.buffer.append(row)


def activate(node: NodeState, payloads: PayloadTable, row: int,
             pick: int, eta1: float, eta2: float) -> np.ndarray:
    """Run one full activation (pull, push, refresh the picked sample,
    step, broadcast into ``row``). Returns the pull average z_hat."""
    buffer, rows, means = node.buffer, payloads.views, node.means
    # The pull mean and the push sum add the buffered rows [z | share] in
    # buffer order, and one division by [k ... k | 1 ... 1] (exact on the
    # shares) takes the mean; only ``row`` is written.
    k = len(buffer)
    if k > 1:
        pulled = rows[buffer[0]] + rows[buffer[1]]
        for r in buffer[2:]:
            pulled += rows[r]
        while len(means) <= k:
            means.append(np.repeat([len(means), 1.0], pulled.shape[0] // 2))
        pulled /= means[k]
    elif k:
        pulled = rows[buffer[0]].copy()
    else:
        raise RuntimeError(
            f"node {node.node_id} activated with an empty buffer; the "
            f"self-copy invariant was broken"
        )
    width = pulled.shape[0] // 2
    z_hat, y_new = pulled[:width], pulled[width:]

    fresh = saddle_gradient(z_hat, node.linear[pick], node.offset[pick])
    y_new += (fresh - node.table[pick]) / node.m_global
    node.table[pick] = fresh

    # [z_hat | share], then z_tilde = z_hat - steps * y_new (z_hat / 1 = z_hat)
    if (eta1, eta2) != node.etas:
        node.etas = eta1, eta2
        node.steps = np.repeat(node.etas, width // 2)
    out = rows[row]
    np.divide(pulled, node.divisor, out=out)
    z_tilde = out[:width]
    z_tilde -= node.steps * y_new
    payloads.y[row] = y_new
    node.buffer = [row]
    return z_hat
