"""Deterministic discrete-event engine for the asynchronous protocol.

Time is the virtual counter k: it advances by exactly one whenever any node
completes an update, no matter which. Messages live on an event timeline too:
a payload sent at event s with transmission delay D occupies delivery slot
s + D and is visible to its receiver's activations from event s + D + 1 on.
Self-copies bypass the network (the protocol re-buffers them at emission).

Everything is reproducible from one integer seed: the activation schedule,
the per-message delays, and each node's sample selector draw from independent
derived streams.

A run's trace is array columns: one row per event, and a ``MessageLog`` of
five int columns with one row per network message (``trace.messages[i]``
builds the ``Message`` record of row i), which with the activator column is
the one record of who consumed what.

None of the bookkeeping depends on a value of z or y. ``run_async`` first
draws the whole run's activators, which fix the length of every record
column, and each node's sample picks, and allocates each column once, at its
length. It then works through blocks of ``_PLAN_BLOCK`` events: array code
draws the delays of a block's messages and plans which activation consumes
which message in which buffer order, and a per-event loop runs only the
protocol's arithmetic on that plan. Each block that has run writes its rows
of the record into their slice, in one of two ways, each holding what its one
reader reads: its broadcasts ``z_tilde`` (the full trace, which
``augmented.replay`` reads), or, given the solution, its rows of the error
series (the streamed trace, whose ``series`` ``asyncsag run`` writes).
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .graph import DirectedGraph, is_strongly_connected
from .mspbe import ProblemSpec
from .protocol import (
    Message,
    NodeState,
    PayloadTable,
    STREAM_DELAY,
    STREAM_SCHEDULE,
    activate,
    derived_rng,
    init_node,
    on_receive,
    sample_picks,
    selector_rng,
)

log = logging.getLogger(__name__)


class AssumptionViolation(RuntimeError):
    """A bounded-asynchrony assumption failed on a concrete trace; the
    message names the node."""


@dataclass(frozen=True)
class ActivationSchedule:
    """Descriptor of who activates at each event.

    kinds: round_robin (node (k-1) mod n), uniform_random, straggler
    (uniform with the target node's probability divided by the slowdown).
    """

    kind: str
    n: int
    straggler_node: int | None = None
    straggler_factor: float = 1.0

    def __post_init__(self):
        if self.kind not in ("round_robin", "uniform_random", "straggler"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "straggler":
            if self.straggler_node is None or not (0 <= self.straggler_node < self.n):
                raise ValueError("straggler schedule needs a valid target node")
            if not 1.0 <= self.straggler_factor < np.inf:
                raise ValueError("straggler slowdown factor must be finite "
                                 "and >= 1")

    def weights(self) -> np.ndarray:
        w = np.ones(self.n)
        if self.kind == "straggler":
            w[self.straggler_node] /= self.straggler_factor
        return w / w.sum()

    @cached_property
    def _cdf(self) -> np.ndarray:
        """The normalized cumulative weights that ``rng.choice(n, p=w)``
        rebuilds on every call."""
        cdf = np.cumsum(self.weights())
        return cdf / cdf[-1]

    def next(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """The activators of events 1 .. count."""
        if self.kind == "round_robin":
            return np.arange(count) % self.n
        # the draws and the stream are those of count rng.choice(n, p=weights())
        return self._cdf.searchsorted(rng.random(count), side="right")


# an event + d_max stays in int64 for 2**62 events
_MAX_SPAN = 2**62


@dataclass(frozen=True)
class DelayModel:
    """Transmission delays in event counts, bounded by d_max.

    kinds: zero, uniform (integer uniform on [0, d_max]), round_barrier
    (every message is held to the next multiple of d_max + 1, the end of its
    round when a round is d_max + 1 events long).
    """

    kind: str
    d_max: int = 0

    def __post_init__(self):
        if self.kind not in ("zero", "uniform", "round_barrier"):
            raise ValueError(f"unknown delay kind {self.kind!r}")
        if (isinstance(self.d_max, bool)
                or not isinstance(self.d_max, (int, np.integer))):
            raise ValueError(f"d_max must be an integer, got {self.d_max!r}")
        if self.d_max < 0:
            raise ValueError("d_max must be nonnegative")
        if self.d_max > _MAX_SPAN:
            raise ValueError(f"d_max must be at most 2**62, so that a "
                             f"delivery slot fits in int64, got {self.d_max}")

    def draw(self, rng: np.random.Generator, sent_at: np.ndarray) -> np.ndarray:
        """Delays of messages sent at events ``sent_at``, in send order; a
        uniform draw takes one value per message from ``rng``."""
        if self.kind == "zero":
            return np.zeros_like(sent_at)
        if self.kind == "uniform":
            return rng.integers(0, self.d_max + 1, size=sent_at.shape[0])
        return (-sent_at) % (self.d_max + 1)


@dataclass(eq=False)
class MessageLog:
    """The network messages of a run in send order, one int64 row each.

    Row i is the broadcast that went from ``origin[i]`` to ``dest[i]`` at
    event ``sent_at[i]`` (0 = init), visible after slot ``deliver_at[i]``,
    and consumed by the activation ``consumed_at[i]``, or -1 for none.
    Indexing and iteration build ``Message`` records on demand, and a log
    equals another log with the same rows.
    """

    origin: np.ndarray
    dest: np.ndarray
    sent_at: np.ndarray
    deliver_at: np.ndarray
    consumed_at: np.ndarray

    def __post_init__(self):
        if np.any(self.deliver_at < self.sent_at):
            raise ValueError("message cannot be delivered before it is sent")

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.origin, self.dest, self.sent_at, self.deliver_at,
                self.consumed_at)

    def __len__(self) -> int:
        return self.origin.shape[0]

    def __getitem__(self, i: int) -> Message:
        origin, dest, sent, slot, used = (int(col[i]) for col in self._columns())
        return Message(origin, dest, sent, slot, None if used < 0 else used)

    def __iter__(self) -> Iterator[Message]:
        for origin, dest, sent, slot, used in zip(
                *(col.tolist() for col in self._columns())):
            yield Message(origin, dest, sent, slot, None if used < 0 else used)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MessageLog):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in
                   zip(self._columns(), other._columns()))


@dataclass(eq=False)
class EventTrace:
    """Log of one run.

    Every node starts at z = 0. Event k (1-based) is row k - 1 of every
    per-event column. ``messages`` holds every network message as int
    columns; its entries are ``Message`` records. Event k's pull consumed
    the activator's own latest broadcast (that of its previous activation,
    or its initial one) and the rows whose ``messages.consumed_at`` is k.
    ``window`` is the trace's bounded-asynchrony window b, certified once.
    Traces compare and hash by identity.

    Both records hold the plan columns (``node``, ``samples``,
    ``messages``). A full trace adds every event's broadcast in ``z_tilde``,
    which post-hoc matrix replay reads. A run given the solution keeps its
    error ``series`` instead, and ``z_tilde`` has no rows.
    """

    n: int
    d: int
    m_i: tuple[int, ...]
    eta1: float
    eta2: float
    graph: DirectedGraph
    node: np.ndarray                    # (T,) activator of each event
    samples: np.ndarray                 # (T,) refreshed sample of each event
    z_tilde: np.ndarray                 # (T, 2d) broadcast, the activator's new z
    messages: MessageLog                # all network messages, init included
    series: MetricSeries | None         # the error series of a streamed run

    @property
    def num_events(self) -> int:
        return len(self.node)

    @cached_property
    def activations(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Plan indices of the activator column, computed once: for each
        event row, the row of its activator's previous activation (-1 for
        none) and of its next one (T for none); and each node's first
        activation row (T for none)."""
        t = self.num_events
        order = np.argsort(self.node, kind="stable")
        by_node = self.node[order]
        # order[j + 1] is the next activation of order[j]'s activator
        same = np.flatnonzero(by_node[1:] == by_node[:-1])
        previous = np.full(t, -1, dtype=np.int64)
        previous[order[same + 1]] = order[same]
        following = np.full(t, t, dtype=np.int64)
        following[order[same]] = order[same + 1]
        starts = np.flatnonzero(np.diff(by_node, prepend=-1))
        first = np.full(self.n, t, dtype=np.int64)
        first[by_node[starts]] = order[starts]
        return previous, following, first

    @cached_property
    def window(self) -> int:
        """The window b that ``verify_assumption1b`` certifies for this
        trace, computed at the first read; raises AssumptionViolation when
        some node starves."""
        return verify_assumption1b(self)


# run_async plans this many events at a time with array code
_PLAN_BLOCK = 4096


class _Network:
    """The messages of one run: the log in send order (a message's index is
    its rank in it), and the indices of the ones still in flight."""

    def __init__(self, graph: DirectedGraph, delays: DelayModel,
                 rng: np.random.Generator, counts: np.ndarray) -> None:
        # broadcast targets, by origin; the self-copy is already buffered by
        # the protocol
        origin, self._targets = np.nonzero(
            graph.adj & ~np.eye(graph.n, dtype=bool))
        self._fanout = np.bincount(origin, minlength=graph.n)
        self._first = np.cumsum(self._fanout) - self._fanout
        self._delays, self._rng = delays, rng
        # the log: columns origin, dest, sent, slot and consuming event (-1
        # for none yet), one row per message that the initial broadcasts and
        # activations send (``counts`` per node), ``_count`` written. Each is
        # its own buffer: numpy asks for huge pages from 4 MB on, and columns
        # 2 MB apart in one buffer would each take one on first use.
        rows = int(self._fanout.sum() + counts @ self._fanout)
        self.log = [np.empty(rows, dtype=np.int64) for _ in range(5)]
        self._count = 0
        self.pending = np.empty(0, dtype=np.int64)

    def send(self, origins: np.ndarray, events: np.ndarray) -> None:
        """Broadcast from each origin at its event, one delay draw each."""
        fanout = self._fanout[origins]
        total = int(fanout.sum())
        skip = np.repeat(self._first[origins] - (np.cumsum(fanout) - fanout),
                         fanout)
        dest = self._targets[skip + np.arange(total)]
        origin = np.repeat(origins, fanout)
        sent = np.repeat(events, fanout)
        slot = sent + self._delays.draw(self._rng, sent)
        start, self._count = self._count, self._count + total
        self.pending = np.append(self.pending, np.arange(start, self._count))
        for column, rows in zip(self.log, (origin, dest, sent, slot, -1)):
            column[start:self._count] = rows


def _payload_row(origin: np.ndarray, sent: np.ndarray, n: int) -> np.ndarray:
    """The payload row of each broadcast: v < n is node v's initial one,
    n + k - 1 event k's."""
    return np.where(sent == 0, origin, n + sent - 1)


def _plan_block(k0: int, act: np.ndarray, network: _Network, n: int
                ) -> tuple[int, list[int], list[int], np.ndarray]:
    """Plan the deliveries of events k0 .. k0 + len(act) - 1, whose
    activators are ``act``, from the delay stream and the graph alone.

    The network's messages in flight carry from block to block. Returns the
    oldest payload row that this block or a later one reads, and the block's
    deliveries: event j's are entries ``delivered[j]:delivered[j+1]`` of the
    list ``dest`` and the array ``row`` (the payload row), the rest of its
    buffer in order.
    """
    count = act.shape[0]
    events = np.arange(k0, k0 + count)
    if k0 == 1:   # the initial broadcasts go first
        network.send(np.concatenate([np.arange(n), act]),
                     np.concatenate([np.zeros(n, dtype=np.int64), events]))
    else:
        network.send(act, events)

    # the block's events grouped by node, each node's in event order
    order = np.argsort(act, kind="stable")
    by_node = act[order]

    # A message is consumed at its destination's first activation after its
    # slot: one search over the (node, event) keys of the block.
    index = network.pending
    origin, dest, sent, slot = (col[index] for col in network.log[:4])
    keys = np.append(by_node * count + order, n * count)
    found = keys[np.searchsorted(
        keys, dest * count + np.clip(slot - k0 + 1, 0, count))]
    hit = found < (dest + 1) * count
    network.pending = index[~hit]
    at = found[hit] - dest[hit] * count
    # each buffer in delivery order: slot, sent event, origin, send rank
    buffered = np.lexsort((index[hit], origin[hit], sent[hit], slot[hit], at))
    index, at = index[hit][buffered], at[buffered]
    origin, dest, sent = (col[index] for col in network.log[:3])
    network.log[4][index] = k0 + at   # consumed at

    delivered = at.searchsorted(np.arange(count + 1))
    row = _payload_row(origin, sent, n)
    waiting = _payload_row(network.log[0][network.pending],
                           network.log[2][network.pending], n)
    oldest = min(row.min(initial=n + k0 - 1), waiting.min(initial=n + k0 - 1))
    return int(oldest), delivered.tolist(), dest.tolist(), row


def run_async(problem: ProblemSpec, graph: DirectedGraph,
              schedule: ActivationSchedule, delays: DelayModel,
              eta1: float, eta2: float, seed: int, max_events: int,
              z_star: np.ndarray | None = None) -> EventTrace:
    """Run the asynchronous protocol for ``max_events`` activations, every
    node starting at z = 0.

    Given the solution ``z_star``, each planned block is reduced to its rows
    of the error series by ``metrics`` once it has run, and the trace keeps
    that series in place of the events' broadcasts. Raises MemoryError when
    the record of ``max_events`` events cannot be allocated.
    """
    for name, value in (("max_events", max_events), ("seed", seed)):
        if (isinstance(value, bool)
                or not isinstance(value, (int, np.integer)) or value < 0):
            raise ValueError(f"{name} must be a nonnegative integer, got "
                             f"{value!r}")
    if not is_strongly_connected(graph):
        raise ValueError("communication graph must be strongly connected")
    if graph.n != problem.n:
        raise ValueError(f"graph has {graph.n} nodes, problem has {problem.n}")
    for name, eta in (("eta1", eta1), ("eta2", eta2)):
        if not 0 < eta < np.inf:
            raise ValueError(f"{name}: step sizes must be finite and "
                             f"positive, got {eta!r}")
    if schedule.n != graph.n:
        raise ValueError("schedule node count does not match the graph")
    # numpy refuses an int64 column this long outright, with a ValueError
    if max_events > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"no record of {max_events} events fits in memory")

    n, width = problem.n, 2 * problem.d
    # Payload row v < n is node v's initial broadcast and row n + k - 1
    # event k's. The table holds the rows from ``base`` on, the oldest that
    # a buffer or a planned delivery can still read, and the buffers and
    # deliveries index it from there.
    payloads, base = PayloadTable.empty(n, width), 0
    degree = graph.adj.sum(axis=1).tolist()
    nodes = [init_node(i, *problem.node_maps(i), degree[i], problem.m, eta1,
                       eta2, payloads, row=i) for i in range(n)]
    # the whole run's activators, and each node's picks in the order of its
    # activations, drawn at once from its selector stream
    node = schedule.next(max_events, derived_rng(seed, STREAM_SCHEDULE))
    counts = np.bincount(node, minlength=n)
    samples = np.empty(max_events, dtype=np.int64)
    samples[np.argsort(node, kind="stable")] = np.concatenate([
        sample_picks(m_local, selector_rng(seed, i), c)
        for i, (m_local, c) in enumerate(zip(problem.m_i, counts.tolist()))])
    network = _Network(graph, delays, derived_rng(seed, STREAM_DELAY), counts)
    # the rest of the record, row k - 1 event k's: the broadcasts (the full
    # trace), or the error series, whose row 0 is the initialization's and
    # row k event k's
    if z_star is None:
        z_tilde, series, carry = np.empty((max_events, width)), None, None
    else:
        z_tilde = np.empty((0, width))
        series = MetricSeries(*(np.empty(max_events + 1)
                                for _ in fields(MetricSeries)))
        carry = MetricCarry.start(payloads.y / problem.m, z_star)
    for k0 in range(1, max(max_events, 1) + 1, _PLAN_BLOCK):
        block = slice(k0 - 1, min(k0 - 1 + _PLAN_BLOCK, max_events))
        act = node[block]
        oldest, delivered, dest, row = _plan_block(k0, act, network, n)
        # drop the rows that nothing can read any more, and make room for
        # the block's broadcasts; the old row views go first, so that two
        # lists of them never coexist
        oldest = min(oldest, base + min(min(nd.buffer) for nd in nodes))
        kept, count = n + k0 - 1 - oldest, act.shape[0]
        payloads.views.clear()
        table = PayloadTable.empty(kept + count, width)
        table.rows[:kept] = payloads.rows[oldest - base:]
        for nd in nodes:
            nd.buffer = [r - (oldest - base) for r in nd.buffer]
        payloads, base = table, oldest
        row = (row - base).tolist()

        for at, i, pick, lo, hi in zip(range(kept, kept + count),
                                        act.tolist(), samples[block].tolist(),
                                        delivered, delivered[1:]):
            active = nodes[i]
            for q in range(lo, hi):
                on_receive(active, dest[q], row[q])
            activate(active, payloads, at, pick)

        states = slice(kept, kept + count)
        if carry is None:
            z_tilde[block] = payloads.rows[states, :width]
        else:
            # the block's trackers Y / m, divided where they are
            y_new = payloads.y[states]
            y_new /= problem.m
            piece = metrics(act, payloads.rows[states, :width], y_new,
                            z_star, carry)
            # the piece's rows end at the block's last event
            for column, rows in zip(vars(series).values(),
                                    vars(piece).values()):
                column[block.stop + 1 - rows.shape[0]:block.stop + 1] = rows

    messages = MessageLog(*network.log)
    log.info("run_async: %d events, %d network messages, %d consumed",
             max_events, len(messages),
             np.count_nonzero(messages.consumed_at >= 0))
    return EventTrace(n=n, d=problem.d, m_i=problem.m_i, eta1=eta1,
                      eta2=eta2, graph=graph, node=node, samples=samples,
                      z_tilde=z_tilde, messages=messages, series=series)


# ---------------------------------------------------------------------------
# assumption certification
# ---------------------------------------------------------------------------

def verify_assumption1b(trace: EventTrace) -> int:
    """Certify the bounded-asynchrony window b for a finite trace.

    Returns the smallest window length such that (a) every window of that
    many consecutive events contains, for every node, a completed update
    whose outgoing messages were also delivered within the window, and (b)
    every consumed reception was at most b-1 events old at consumption (the
    realized-age condition that makes the delay-register encoding well
    posed). Raises AssumptionViolation when some node starves.
    """
    t = trace.num_events
    if t == 0:
        raise ValueError("empty trace")
    events = np.arange(1, t + 1)
    # An update is complete at its event or at its last delivery slot,
    # whichever is later; broadcasts from event 0 are the initialization's.
    sent, slot = trace.messages.sent_at, trace.messages.deliver_at
    complete = events.copy()
    own = sent > 0
    np.maximum.at(complete, sent[own] - 1, slot[own])
    # The oldest consumed message; an activator's own copy is younger than
    # its activation gap, which the windows below bound by b.
    consumed = trace.messages.consumed_at
    age_max = int((consumed - sent - 1)[consumed >= 0].max(initial=0))

    counts = np.bincount(trace.node, minlength=trace.n)
    idle = np.flatnonzero(counts == 0)
    if idle.size:
        v = int(idle[0])
        raise AssumptionViolation(
            f"node {v} never completed an update in the trace")
    # The window of b events from event s holds an update of node v that
    # completes inside it iff b >= first_v(s) - s + 1, where first_v(s) is
    # the earliest completion among v's activations at or after s. Row s-1
    # of `first` is the largest first_v(s) over the nodes.
    first = np.zeros(t, dtype=np.int64)
    for v, at in enumerate(np.split(np.argsort(trace.node, kind="stable"),
                                    np.cumsum(counts)[:-1])):
        earliest = np.minimum.accumulate(complete[at][::-1])[::-1]
        if earliest[0] > t:
            raise AssumptionViolation(
                f"node {v} has no update delivered within the trace")
        # starts after v's previous activation and up to this one find this
        # one first; a start after v's last activation finds none, which
        # counts as a completion past the trace
        np.maximum(first[:at[-1] + 1],
                   np.repeat(earliest, np.diff(at, prepend=-1)),
                   out=first[:at[-1] + 1])
        first[at[-1] + 1:] = t + 1
    # A length b works iff every start s <= t-b+1 needs at most b, i.e.
    # iff the running maximum of the needs plus s-1 is at most t at start
    # t-b+1. That sum increases strictly in s, so the smallest such b is
    # t+1 minus the number of starts where it is at most t.
    first -= events - 1
    np.maximum.accumulate(first, out=first)
    first += events - 1
    return max(t + 1 - int(first.searchsorted(t, side="right")), age_max + 1)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricSeries:
    """Per-event error series: row k is the state after event k (row 0 is
    the initial state)."""

    err_max: np.ndarray
    err_mean: np.ndarray
    y_norm_max: np.ndarray


@dataclass
class MetricCarry:
    """Where a reduction to the error series stands after the first ``k``
    events of a run: each node's latest distance to z_star and tracker
    norm."""

    k: int
    errs: np.ndarray
    y_norms: np.ndarray

    @classmethod
    def start(cls, y0: np.ndarray, z_star: np.ndarray) -> MetricCarry:
        """Before the first event: every node at z = 0, with tracker ``y0``."""
        return cls(0, np.linalg.norm(np.zeros(y0.shape) - z_star, axis=1),
                   np.linalg.norm(y0, axis=1))


def metrics(node: np.ndarray, z_tilde: np.ndarray, y_new: np.ndarray,
            z_star: np.ndarray, carry: MetricCarry) -> MetricSeries:
    """The error series' rows of a run's next events.

    ``node``, ``z_tilde`` and ``y_new`` are the activators, broadcasts and
    corrected trackers of the events after the carry's first ``carry.k``.
    Row k reflects every node's latest completed state after the first k
    events of the run. The series holds the rows of these events, after row
    0 (the initialization) when the carry is at the start, and the carry
    moves past them; so the pieces of a run reduced in turn give its rows.
    """
    t, n = node.shape[0], carry.errs.shape[0]
    head = int(carry.k == 0)   # row 0, the initialization's
    # latest[j, v]: the entry of (carried values, these rows) that holds
    # node v's value at row j of the piece
    latest = np.tile(np.arange(n), (head + t, 1))
    latest[np.arange(head, head + t), node] = np.arange(n, n + t)
    latest = np.maximum.accumulate(latest, axis=0)
    errs = np.concatenate([
        carry.errs, np.linalg.norm(z_tilde - z_star, axis=1)])[latest]
    y_norms = np.concatenate([
        carry.y_norms, np.linalg.norm(y_new, axis=1)])[latest]
    carry.k, carry.errs, carry.y_norms = carry.k + t, errs[-1], y_norms[-1]
    return MetricSeries(err_max=errs.max(axis=1), err_mean=errs.mean(axis=1),
                        y_norm_max=y_norms.max(axis=1))


# write_metrics_csv converts this many rows at a time to Python objects, so
# that a long series never holds all its rows as Python floats at once
_ROW_BLOCK = 4096


def _reprs(values: np.ndarray) -> list[str]:
    """``repr`` of each float, called once per run of equal bit patterns
    (so -0.0 and 0.0 stay apart); an error series holds long runs."""
    bits = values.view(np.int64)
    starts = np.empty(bits.shape[0], dtype=bool)
    starts[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    texts = np.array([repr(v) for v in values[starts].tolist()], dtype=object)
    return texts[np.cumsum(starts) - 1].tolist()


def write_metrics_csv(series: MetricSeries, node: np.ndarray,
                      path: str | Path) -> None:
    """CSV with header k,node,event_type,err_max,err_mean,y_norm_max.

    Row k is the series' row k, with ``node[k - 1]``, the run's activator
    of event k, as its node. The initial row has node -1 and event type
    "init", the others "activation". Floats are written with ``repr``, so
    they read back exactly.
    """
    rows = series.err_max.shape[0]
    if node.shape != (rows - 1,):
        raise ValueError(f"a series of {rows} rows needs {rows - 1} "
                         f"activators, got shape {node.shape}")
    nodes = np.concatenate([[-1], node])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,node,event_type,err_max,err_mean,y_norm_max\n")
        for lo in range(0, rows, _ROW_BLOCK):
            block = slice(lo, lo + _ROW_BLOCK)
            fh.write("".join([
                f"{k},{v},{'activation' if k else 'init'},"
                f"{e_max},{e_mean},{y_max}\n"
                for k, v, e_max, e_mean, y_max in zip(
                    range(lo, lo + _ROW_BLOCK), nodes[block].tolist(),
                    _reprs(series.err_max[block]),
                    _reprs(series.err_mean[block]),
                    _reprs(series.y_norm_max[block]))
            ]))


@dataclass(frozen=True)
class RateFit:
    """Geometric decay fit of an error series."""

    c_hat: float              # exp(slope) of log(err) vs k over the tail half
    r_squared: float


def estimate_rate(err: np.ndarray) -> RateFit:
    """Fit err(k) ~ C * c^k on the tail half of the series."""
    err = np.asarray(err, dtype=float)
    if err.shape[0] < 100:
        raise ValueError(f"need at least 100 points to fit a rate, got {err.shape[0]}")
    clamped = np.maximum(err, 1e-300)
    tail = clamped[err.shape[0] // 2:]
    ks = np.arange(tail.shape[0], dtype=float)
    logs = np.log(tail)
    slope, intercept = np.polyfit(ks, logs, 1)
    fitted = slope * ks + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(c_hat=float(np.exp(slope)), r_squared=float(r2))
