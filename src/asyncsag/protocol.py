"""Per-node state machine of the asynchronous push-pull averaged-gradient run.

Each node keeps a per-sample table and its samples' rows of the problem's
gradient maps (``ProblemSpec.maps``), as lists of rows, and one receive
buffer of payload rows; its saddle vector z and its gradient tracker, held
as Y = m y with the *global* sample count m, are its latest broadcast's
payload row. The table holds G_s z at each sample's last evaluation: the
offsets g_s cancel in every change of Y, so they enter once, in Y's start.
An activation, in order:

  1-2. pulls z as the mean of the buffered z and pushes Y as the sum of the
     buffered tracker shares: it adds the buffered rows [z | share] in
     buffer order and divides the sum once by [k ... k | 1 ... 1],
  3. refreshes the picked sample's entry to f = G_s z: Y += f, then Y -=
     the stored entry,
  4. writes M_i [z | Y] into its row of the payload table, with M_i =
     [[I, -diag(eta1 I_d, eta2 I_d) / m], [0, I / out_degree]] fixed per
     run (self-inclusive out-degree): z_tilde and the share,
  5. empties the buffer and re-buffers that row as its own copy.

A payload is a row of a ``PayloadTable``, which holds each broadcast of a
run once, for as long as a buffer or a delivery can still read it; a
buffered entry is the index of its row, which the simulator maps to its
provenance (origin node, origin event index). The sign convention: Y's
omega block carries the negated dual gradient, so the single step of M_i
descends on theta and ascends on omega.

Nodes never share state; all interaction flows through payload rows that the
caller (the simulator) delivers, and the caller picks each activation's
sample (the simulator draws a node's picks with ``sample_picks``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# not called here: the run evaluates G_s z itself, but the benchmark's
# tracer wraps this binding and its self-test needs it
from .mspbe import saddle_gradient  # noqa: F401

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
    vector z_tilde and the tracker share Y / out_degree, side by side.
    ``y[r]`` holds the sender's tracker Y = m y, for the metrics of the
    planned block that writes it, which divide it by m in place.
    """

    rows: np.ndarray     # (rows, 4d) [z_tilde | Y / out_degree]
    y: np.ndarray        # (rows, 2d) the sender's Y
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
    table: list[np.ndarray]     # (2d,) G_s z at each local sample's last z
    linear: list[np.ndarray]    # (2d, 2d) the local samples' G_s
    buffer: list[int]           # payload rows
    push: np.ndarray            # (4d, 4d) M_i, the broadcast of a pulled row
    # means[k] is [k ... k | 1 ... 1], the divisor of a pull of k rows
    means: list[np.ndarray] = field(default_factory=list)


def init_node(node_id: int, linear: np.ndarray, offset: np.ndarray,
              out_degree: int, m_global: int, eta1: float, eta2: float,
              payloads: PayloadTable, row: int) -> NodeState:
    """Start the node at z = 0, where every table entry G_s z is zero and
    the tracker Y is the sum of its samples' offsets g_s, fix the steps of
    its broadcast map M_i, and stage the initial broadcast.

    The broadcast (z = 0 and the tracker) is written to ``row`` of the
    payload table, which the node's out-neighbors must receive; the node's
    own copy is already buffered.
    """
    width = offset.shape[1]
    y = offset.sum(axis=0)
    payloads.rows[row] = np.concatenate([np.zeros(width), y / out_degree])
    payloads.y[row] = y
    # M_i = [[I, -diag(eta1 I_d, eta2 I_d) / m], [0, I / out_degree]]
    push = np.eye(2 * width)
    push[:width, width:] = np.diag(np.repeat([-eta1, -eta2], width // 2)
                                   / m_global)
    push[width:] /= out_degree
    return NodeState(node_id=node_id, table=list(np.zeros_like(offset)),
                     linear=list(linear), buffer=[row], push=push)


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
             pick: int) -> np.ndarray:
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
    z_hat, y = pulled[:width], pulled[width:]

    # Y moves by the new G_s z_hat, then by the stored one, which it replaces
    fresh = node.linear[pick].dot(z_hat)
    y += fresh
    y -= node.table[pick]
    node.table[pick] = fresh
    node.push.dot(pulled, out=rows[row])   # [z_tilde | share]
    payloads.y[row] = y
    node.buffer = [row]
    return z_hat
