"""Per-node state machine of the asynchronous push-pull averaged-gradient run.

Each node keeps a saddle vector z, a gradient tracker y, a per-sample table of
stored gradients, and one receive buffer of (z, y) payload pairs. An
activation, in order:

  1. pulls z as the elementwise mean of buffered z payloads,
  2. pushes y as the elementwise sum of buffered y payloads,
  3. draws the next sample(s) from the reshuffle selector, refreshes the
     gradient table, and corrects y by (new - stored) / m with the *global*
     sample count m,
  4. forms the outgoing pair: z_tilde = z - diag(eta1, eta2) block step along
     y, y_tilde = y / out_degree (self-inclusive out-degree),
  5. empties the buffer and immediately re-buffers its own copy of
     (z_tilde, y_tilde).

Every buffered entry carries provenance (origin node, origin event index) so
that a post-hoc matrix replay can reconstruct the exact information flow. The
sign convention: y's omega block carries the negated dual gradient, so the
single subtraction in step 4 descends on theta and ascends on omega.

Nodes never share state; all interaction flows through payloads that the
caller (the simulator) delivers with their Message records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """Selector stream shared between node ``node_id`` and the centralized
    baseline (which uses node 0's stream so the n=1 reduction is exact)."""
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

    def next(self) -> int:
        if self._pos == self.m_local:
            self._perm = self._rng.permutation(self.m_local)
            self._pos = 0
        p = int(self._perm[self._pos])
        self._pos += 1
        return p

    def next_batch(self, size: int) -> list[int]:
        return [self.next() for _ in range(size)]

    @property
    def window(self) -> int:
        """Selection bound K: every index appears in any K consecutive draws."""
        return 2 * self.m_local - 1


@dataclass(slots=True)
class Reception:
    """One buffered payload with provenance."""

    z_tilde: np.ndarray
    y_tilde: np.ndarray
    origin: int
    sent_event: int  # virtual-counter index of the originating update (0 = init)


@dataclass(slots=True)
class Message:
    """Delivery record of one in-flight broadcast; the simulator keeps its
    (z_tilde, y_tilde) payload beside it until delivery."""

    origin: int
    dest: int
    sent_at: int      # event index of the originating update (0 = init)
    deliver_at: int   # event slot after which the payload is visible
    consumed_at: int | None = None

    def __post_init__(self):
        if self.deliver_at < self.sent_at:
            raise ValueError("message cannot be delivered before it is sent")


@dataclass
class NodeState:
    """One node's full protocol state. Owned by exactly one executor."""

    node_id: int
    z: np.ndarray                    # latest completed saddle vector z_i
    y: np.ndarray                    # latest tracker value y_i
    table: np.ndarray                # (m_local, 2d) stored per-sample gradients
    stats: tuple[SampleStats, ...]   # local sample statistics
    rho: float
    m_global: int
    out_degree: int
    selector: SampleSelector
    buffer: list[Reception] = field(default_factory=list)

    @property
    def m_local(self) -> int:
        return len(self.stats)


@dataclass(slots=True)
class ActivationResult:
    """Everything one activation produced.

    The arrays are never written after the activation returns, so the node
    state, the buffers and the in-flight payloads share them instead of
    copying. The simulator's trace copies samples, y_new, z_tilde and
    consumed into its columns.
    """

    samples: tuple[int, ...]
    z_hat: np.ndarray                # post-pull average
    y_new: np.ndarray                # tracker after the table correction
    z_tilde: np.ndarray              # broadcast value (also the node's new z)
    y_tilde: np.ndarray              # broadcast share y_new / out_degree
    consumed: tuple[tuple[int, int], ...]  # (origin, sent_event) per buffered entry


def init_node(node_id: int, samples: list[SampleStats] | tuple[SampleStats, ...],
              z0: np.ndarray, out_degree: int, m_global: int, rho: float,
              selector: SampleSelector) -> tuple[NodeState, tuple[np.ndarray, np.ndarray]]:
    """Fill the gradient table at z0 and stage the initial broadcast.

    Returns the node plus the (z_tilde, y_tilde) payload its out-neighbors
    must receive; the node's own copy is already buffered (with provenance
    event 0).
    """
    stats = tuple(samples)
    if len(stats) != selector.m_local:
        raise ValueError("selector size does not match the sample count")
    z0 = np.asarray(z0, dtype=float).copy()
    table = np.stack([saddle_gradient(z0, st, rho) for st in stats])
    y = table.sum(axis=0) / m_global
    y_tilde = y / out_degree
    node = NodeState(
        node_id=node_id, z=z0, y=y, table=table, stats=stats, rho=rho,
        m_global=m_global, out_degree=out_degree, selector=selector,
    )
    node.buffer.append(
        Reception(z_tilde=z0, y_tilde=y_tilde, origin=node_id, sent_event=0)
    )
    return node, (z0, y_tilde)


def on_receive(node: NodeState, msg: Message, z_tilde: np.ndarray,
               y_tilde: np.ndarray) -> None:
    """Append a delivered payload to the node's buffer (arrival order kept).

    Duplicates from the same sender are kept as separate entries; each gets
    its own averaging weight at the next activation.
    """
    if msg.dest != node.node_id:
        raise ValueError(
            f"message for node {msg.dest} delivered to node {node.node_id}"
        )
    node.buffer.append(
        Reception(z_tilde=z_tilde, y_tilde=y_tilde, origin=msg.origin,
                  sent_event=msg.sent_at)
    )


def activate(node: NodeState, eta1: float, eta2: float, current_event: int,
             batch_size: int = 1) -> ActivationResult:
    """Run one full activation (pull, push, sample, step, broadcast)."""
    buffer = node.buffer
    if not buffer:
        raise RuntimeError(
            f"node {node.node_id} activated with an empty buffer; the "
            f"self-copy invariant was broken"
        )
    # The pull mean and the push sum add the buffered payloads in buffer
    # order, as np.mean/np.sum do over their stacked (k, 2d) block; the
    # payloads themselves are shared and stay unwritten.
    z_hat = buffer[0].z_tilde.copy()
    y_new = buffer[0].y_tilde.copy()
    for r in buffer[1:]:
        z_hat += r.z_tilde
        y_new += r.y_tilde
    z_hat /= len(buffer)
    consumed = tuple((r.origin, r.sent_event) for r in buffer)

    picks = node.selector.next_batch(batch_size)
    for p in picks:
        fresh = saddle_gradient(z_hat, node.stats[p], node.rho)
        y_new += (fresh - node.table[p]) / node.m_global
        node.table[p] = fresh

    z_tilde = z_hat - _block_steps(eta1, eta2, z_hat.shape[0] // 2) * y_new
    y_tilde = y_new / node.out_degree

    node.z = z_tilde
    node.y = y_new
    node.buffer = [
        Reception(z_tilde=z_tilde, y_tilde=y_tilde, origin=node.node_id,
                  sent_event=current_event)
    ]
    return ActivationResult(
        samples=tuple(picks), z_hat=z_hat, y_new=y_new, z_tilde=z_tilde,
        y_tilde=y_tilde, consumed=consumed,
    )


@lru_cache(maxsize=16)
def _block_steps(eta1: float, eta2: float, d: int) -> np.ndarray:
    """The step diag(eta1 I_d, eta2 I_d) as a (2d,) vector (read-only)."""
    steps = np.array([eta1] * d + [eta2] * d)
    steps.flags.writeable = False
    return steps


def local_residual(node: NodeState) -> float:
    """Nodes' local stopping quantity ||y_i||_2."""
    return float(np.linalg.norm(node.y))
