"""Per-node state machine of the asynchronous push-pull averaged-gradient run.

Each node keeps a per-sample table of stored gradients and one receive
buffer of payload rows; its saddle vector z and its gradient tracker y are
its latest broadcast's payload row. An activation, in order:

  1. pulls z as the elementwise mean of buffered z payloads,
  2. pushes y as the elementwise sum of buffered y payloads,
  3. refreshes the gradient table at the picked sample and corrects y by
     (new - stored) / m with the *global* sample count m,
  4. forms the outgoing pair: z_tilde = z - diag(eta1, eta2) block step along
     y, y_tilde = y / out_degree (self-inclusive out-degree),
  5. writes it as its row of the payload table, empties the buffer and
     immediately re-buffers that row as its own copy.

A payload is a row of a ``PayloadTable``, which holds each broadcast of a
run once, for as long as a buffer or a delivery can still read it; a
buffered entry is the index of its row, which the simulator maps to its
provenance (origin node, origin event index). The sign convention: y's
omega block carries the negated dual gradient, so the single subtraction in
step 4 descends on theta and ascends on omega.

Nodes never share state; all interaction flows through payload rows that the
caller (the simulator) delivers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mspbe import SampleStats, saddle_gradient

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


class SampleSelector:
    """Random-reshuffle sample selection over a local index set.

    Draws a fresh uniform permutation per epoch, so every index appears at
    least once in any window of 2*m_local - 1 consecutive selections.
    """

    def __init__(self, m_local: int, rng: np.random.Generator) -> None:
        if m_local < 1:
            raise ValueError("selector needs at least one sample")
        self.m_local = m_local
        self._rng = rng
        self._perm = rng.permutation(m_local)
        self._pos = 0

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` selections. A new permutation is drawn only
        when the current one is used up, so the picks do not depend on how
        a run of draws is split into calls."""
        parts = [np.empty(0, dtype=np.int64)]
        while count > 0:
            if self._pos == self.m_local:
                self._perm = self._rng.permutation(self.m_local)
                self._pos = 0
            part = self._perm[self._pos:self._pos + count]
            self._pos += part.shape[0]
            count -= part.shape[0]
            parts.append(part)
        return np.concatenate(parts)


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

    A copy of row r carries the saddle vector ``z[r]`` and the tracker share
    ``y[r] / degree[r]``: ``y`` holds the sender's corrected tracker y_new
    and ``degree`` its out-degree. The share is recomputed wherever it is
    read, which gives the bits a stored share would have.
    """

    z: np.ndarray        # (rows, 2d) broadcast z_tilde
    y: np.ndarray        # (rows, 2d) the sender's y_new
    degree: np.ndarray   # (rows,) the sender's out-degree, as a float

    @classmethod
    def empty(cls, rows: int, width: int) -> "PayloadTable":
        return cls(np.empty((rows, width)), np.empty((rows, width)),
                   np.empty(rows))


@dataclass
class NodeState:
    """One node's full protocol state. Owned by exactly one executor."""

    node_id: int
    table: np.ndarray                # (m_local, 2d) stored per-sample gradients
    stats: tuple[SampleStats, ...]   # local sample statistics
    rho: float
    m_global: int
    out_degree: int
    selector: SampleSelector
    buffer: list[int]                # payload rows


def init_node(node_id: int, samples: list[SampleStats] | tuple[SampleStats, ...],
              out_degree: int, m_global: int, rho: float,
              selector: SampleSelector, payloads: PayloadTable,
              row: int) -> NodeState:
    """Fill the gradient table at z = 0 and stage the initial broadcast.

    The broadcast (z = 0 and the tracker) is written to ``row`` of the
    payload table, which the node's out-neighbors must receive; the node's
    own copy is already buffered.
    """
    stats = tuple(samples)
    if len(stats) != selector.m_local:
        raise ValueError("selector size does not match the sample count")
    z0 = np.zeros(payloads.z.shape[1])
    table = np.stack([saddle_gradient(z0, st, rho) for st in stats])
    payloads.z[row] = z0
    payloads.y[row] = table.sum(axis=0) / m_global
    payloads.degree[row] = out_degree
    return NodeState(
        node_id=node_id, table=table, stats=stats, rho=rho,
        m_global=m_global, out_degree=out_degree, selector=selector,
        buffer=[row],
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
    buffer = node.buffer
    if not buffer:
        raise RuntimeError(
            f"node {node.node_id} activated with an empty buffer; the "
            f"self-copy invariant was broken"
        )
    # The pull mean and the push sum add the buffered payloads in buffer
    # order, as np.mean/np.sum do over their stacked (k, 2d) block; the
    # buffered rows are only read, and only ``row`` is written.
    z_rows, y_rows, degree = payloads.z, payloads.y, payloads.degree
    first = buffer[0]
    z_hat = z_rows[first].copy()
    y_new = y_rows[first] / degree[first]
    for r in buffer[1:]:
        z_hat += z_rows[r]
        y_new += y_rows[r] / degree[r]
    # a float divisor rounds as the int would and skips its conversion
    z_hat /= float(len(buffer))

    fresh = saddle_gradient(z_hat, node.stats[pick], node.rho)
    y_new += (fresh - node.table[pick]) / float(node.m_global)
    node.table[pick] = fresh

    z_tilde = z_hat - _block_steps(eta1, eta2, z_hat.shape[0] // 2) * y_new
    z_rows[row] = z_tilde
    y_rows[row] = y_new
    degree[row] = node.out_degree
    node.buffer = [row]
    return z_hat


@lru_cache(maxsize=16)
def _block_steps(eta1: float, eta2: float, d: int) -> np.ndarray:
    """The step diag(eta1 I_d, eta2 I_d) as a (2d,) vector (read-only)."""
    steps = np.array([eta1] * d + [eta2] * d)
    steps.flags.writeable = False
    return steps
