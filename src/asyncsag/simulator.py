"""Deterministic discrete-event engine for the asynchronous protocol.

Time is the virtual counter k: it advances by exactly one whenever any node
completes an update, no matter which. Messages live on an event timeline too:
a payload sent at event s with transmission delay D occupies delivery slot
s + D and is visible to its receiver's activations from event s + D + 1 on.
Self-copies bypass the network (the protocol re-buffers them at emission).

Everything is reproducible from one integer seed: the activation schedule,
the per-message delays, and each node's sample selector draw from independent
derived streams.
"""

from __future__ import annotations

import heapq
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import DirectedGraph, is_strongly_connected
from .mspbe import ProblemSpec
from .protocol import (
    ActivationResult,
    Message,
    NodeState,
    SampleSelector,
    STREAM_DELAY,
    STREAM_SCHEDULE,
    activate,
    derived_rng,
    init_node,
    local_residual,
    on_receive,
    selector_rng,
)

log = logging.getLogger(__name__)


class AssumptionViolation(RuntimeError):
    """A bounded-asynchrony assumption failed on a concrete trace."""

    def __init__(self, message: str, node: int | None = None) -> None:
        super().__init__(message)
        self.node = node


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
            if self.straggler_factor < 1.0:
                raise ValueError("straggler slowdown factor must be >= 1")

    def weights(self) -> np.ndarray:
        w = np.ones(self.n)
        if self.kind == "straggler":
            w[self.straggler_node] /= self.straggler_factor
        return w / w.sum()

    def next(self, k: int, rng: np.random.Generator) -> int:
        if self.kind == "round_robin":
            return (k - 1) % self.n
        return int(rng.choice(self.n, p=self.weights()))


@dataclass(frozen=True)
class DelayModel:
    """Transmission delays in event counts, bounded by d_max.

    kinds: zero, uniform (integer uniform on [0, d_max]), per_edge (fixed
    delay per directed edge from a table), round_barrier (every message is
    held to the next multiple of d_max + 1, the end of its round when a round
    is d_max + 1 events long).
    """

    kind: str = "zero"
    d_max: int = 0
    table: dict | None = None

    def __post_init__(self):
        if self.kind not in ("zero", "uniform", "per_edge", "round_barrier"):
            raise ValueError(f"unknown delay kind {self.kind!r}")
        if self.d_max < 0:
            raise ValueError("d_max must be nonnegative")
        if self.kind == "per_edge":
            if self.table is None:
                raise ValueError("per_edge delays need a table")
            if any(v < 0 or v > self.d_max for v in self.table.values()):
                raise ValueError("per_edge delays must lie in [0, d_max]")

    def draw(self, rng: np.random.Generator, origin: int, dest: int,
             sent_at: int) -> int:
        if self.kind == "zero":
            return 0
        if self.kind == "uniform":
            return int(rng.integers(0, self.d_max + 1))
        if self.kind == "round_barrier":
            return (-sent_at) % (self.d_max + 1)
        return int(self.table.get((origin, dest), 0))


@dataclass(frozen=True)
class ActivationRecord:
    """One event of the trace: who activated and everything they computed."""

    k: int
    node: int
    result: ActivationResult


@dataclass
class EventTrace:
    """Complete log of one run, sufficient for post-hoc matrix replay."""

    n: int
    d: int
    m_i: tuple[int, ...]
    rho: float
    gamma: float
    eta1: float
    eta2: float
    batch_size: int
    seed: int
    schedule_kind: str
    graph: DirectedGraph
    z0: np.ndarray                      # (n, 2d) initial saddle vectors
    y0: np.ndarray                      # (n, 2d) initial trackers
    events: list[ActivationRecord]
    messages: list[Message]             # all network messages, init included
    stop_reason: str
    final_z: np.ndarray
    final_y: np.ndarray
    wall_time_per_round: list[float] | None = None

    @property
    def num_events(self) -> int:
        return len(self.events)


def run_async(problem: ProblemSpec, graph: DirectedGraph,
              schedule: ActivationSchedule, delays: DelayModel,
              eta1: float, eta2: float, seed: int, max_events: int,
              epsilon: float | None = None, z0: np.ndarray | None = None,
              batch_size: int = 1, b_max: int | None = None) -> EventTrace:
    """Run the asynchronous protocol for up to ``max_events`` activations.

    Stops early when every node's tracker norm falls below ``epsilon`` (when
    given). Raises AssumptionViolation if some node goes more than ``b_max``
    events without activating (when given).
    """
    if not is_strongly_connected(graph):
        raise ValueError("communication graph must be strongly connected")
    if graph.n != problem.n:
        raise ValueError(f"graph has {graph.n} nodes, problem has {problem.n}")
    if eta1 <= 0 or eta2 <= 0:
        raise ValueError("step sizes must be positive")
    if schedule.n != graph.n:
        raise ValueError("schedule node count does not match the graph")

    rng_sched = derived_rng(seed, STREAM_SCHEDULE)
    rng_delay = derived_rng(seed, STREAM_DELAY)
    z0_rows = (np.zeros((problem.n, 2 * problem.d)) if z0 is None
               else np.asarray(z0, dtype=float))
    if z0_rows.shape == (2 * problem.d,):
        z0_rows = np.tile(z0_rows, (problem.n, 1))

    # Per-destination delivery queues ordered by (slot, sent, origin, seq);
    # a message in slot t is consumable by activations with k > t.
    pending: list[list] = [[] for _ in range(graph.n)]
    seq = 0
    all_messages: list[Message] = []

    def send(origin: int, z_t: np.ndarray, y_t: np.ndarray, sent_at: int) -> None:
        nonlocal seq
        for dest in graph.out_neighbors(origin):
            if dest == origin:
                continue  # self-copy already buffered by the protocol
            delay = delays.draw(rng_delay, origin, dest, sent_at)
            msg = Message(origin=origin, dest=dest, z_tilde=z_t, y_tilde=y_t,
                          sent_at=sent_at, deliver_at=sent_at + delay)
            all_messages.append(msg)
            heapq.heappush(pending[dest], (msg.deliver_at, msg.sent_at, origin, seq, msg))
            seq += 1

    nodes: list[NodeState] = []
    for i in range(problem.n):
        selector = SampleSelector(problem.m_i[i], selector_rng(seed, i))
        node, (z_t, y_t) = init_node(
            i, problem.per_node[i], z0_rows[i], graph.out_degree(i), problem.m,
            problem.rho, selector,
        )
        nodes.append(node)
        send(i, z_t, y_t, sent_at=0)
    y0_rows = np.stack([node.y for node in nodes])

    events: list[ActivationRecord] = []
    last_activation = [0] * graph.n
    stop_reason = "max_events"
    for k in range(1, max_events + 1):
        i = schedule.next(k, rng_sched)
        if b_max is not None:
            for v in range(graph.n):
                if k - last_activation[v] > b_max:
                    raise AssumptionViolation(
                        f"node {v} has not activated in the last {b_max} "
                        f"events (event {k})", node=v,
                    )
        while pending[i] and pending[i][0][0] < k:
            msg = heapq.heappop(pending[i])[4]
            on_receive(nodes[i], msg)
            msg.consumed_at = k
        result = activate(nodes[i], eta1, eta2, current_event=k,
                          batch_size=batch_size)
        send(i, result.z_tilde, result.y_tilde, sent_at=k)
        last_activation[i] = k
        events.append(ActivationRecord(k=k, node=i, result=result))
        if epsilon is not None and max(local_residual(nd) for nd in nodes) < epsilon:
            stop_reason = "epsilon"
            break

    return EventTrace(
        n=problem.n, d=problem.d, m_i=problem.m_i, rho=problem.rho,
        gamma=problem.gamma, eta1=eta1, eta2=eta2, batch_size=batch_size,
        seed=seed, schedule_kind=schedule.kind, graph=graph, z0=z0_rows,
        y0=y0_rows, events=events, messages=all_messages,
        stop_reason=stop_reason,
        final_z=np.stack([nd.z for nd in nodes]),
        final_y=np.stack([nd.y for nd in nodes]),
    )


def run_sync(problem: ProblemSpec, graph: DirectedGraph, rounds: int,
             eta1: float, eta2: float, seed: int,
             straggler: tuple[int, float] | None = None,
             z0: np.ndarray | None = None, batch_size: int = 1) -> EventTrace:
    """Synchronous push-pull baseline: per round, every node activates on the
    previous round's broadcasts.

    This is ``run_async`` with round-robin activation (a round is n events,
    node i acting at event i + 1 of it) and round-barrier delivery, which
    holds each broadcast to the end of its round. The wall-clock model
    charges each round the slowest node's time (1 per round, or the slowdown
    factor when a straggler is configured), which is how a straggler stalls
    the whole synchronous system; the mathematics does not depend on it.
    """
    n = graph.n
    round_cost = 1.0
    if straggler is not None:
        target, factor = straggler
        if not (0 <= target < n) or factor < 1.0:
            raise ValueError("straggler must be (valid node, factor >= 1)")
        round_cost = float(factor)
    trace = run_async(problem, graph, ActivationSchedule("round_robin", n),
                      DelayModel("round_barrier", d_max=n - 1), eta1, eta2,
                      seed, max_events=rounds * n, z0=z0, batch_size=batch_size)
    trace.wall_time_per_round = [round_cost] * rounds
    return trace


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
    sent_slots: dict[tuple[int, int], int] = {}
    for msg in trace.messages:
        key = (msg.origin, msg.sent_at)
        sent_slots[key] = max(sent_slots.get(key, 0), msg.deliver_at)

    per_node: list[list[tuple[int, int]]] = [[] for _ in range(trace.n)]
    age_max = 0
    for ev in trace.events:
        complete = max(ev.k, sent_slots.get((ev.node, ev.k), ev.k))
        per_node[ev.node].append((ev.k, complete))
        for _, sent_event in ev.result.consumed:
            age_max = max(age_max, ev.k - sent_event - 1)

    for v in range(trace.n):
        if not per_node[v]:
            raise AssumptionViolation(
                f"node {v} never completed an update in the trace", node=v
            )

    def window_ok(b: int) -> bool:
        # A window starting at s (events s .. s+b-1) is served by an
        # activation (k, complete) iff s <= k and complete <= s+b-1, i.e.
        # s in [complete-b+1, k]. Every start in [1, t-b+1] must be served.
        last_start = max(1, t - b + 1)
        for acts in per_node:
            ivals = sorted((max(1, c - b + 1), k) for k, c in acts)
            covered_to = 0
            for lo, hi in ivals:
                if lo > covered_to + 1:
                    break
                covered_to = max(covered_to, hi)
                if covered_to >= last_start:
                    break
            if covered_to < last_start:
                return False
        return True

    lo, hi = 1, t
    if not window_ok(hi):
        # Even the whole-trace window misses some node's completed update.
        for v, acts in enumerate(per_node):
            if all(c > t for _, c in acts):
                raise AssumptionViolation(
                    f"node {v} has no update delivered within the trace", node=v
                )
        raise AssumptionViolation("no finite window covers every node")
    while lo < hi:
        mid = (lo + hi) // 2
        if window_ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return max(lo, age_max + 1)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricSeries:
    """Per-event error series (row 0 is the initial state)."""

    k: np.ndarray
    node: np.ndarray          # activator id; -1 for the initial row
    event_type: tuple[str, ...]
    err_max: np.ndarray
    err_mean: np.ndarray
    y_norm_max: np.ndarray


def metrics(trace: EventTrace, z_star: np.ndarray) -> MetricSeries:
    """Distance-to-solution series over the trace.

    Row k reflects every node's latest completed state after the first k
    events (row 0 is the initialization).
    """
    z_cur = trace.z0.copy()
    y_cur = trace.y0.copy()
    rows = trace.num_events + 1
    err_max = np.empty(rows)
    err_mean = np.empty(rows)
    y_norm_max = np.empty(rows)
    ks = np.empty(rows, dtype=int)
    nodes = np.empty(rows, dtype=int)
    types: list[str] = []

    def snapshot(idx: int, k: int, node: int, kind: str) -> None:
        errs = np.linalg.norm(z_cur - z_star, axis=1)
        err_max[idx] = errs.max()
        err_mean[idx] = errs.mean()
        y_norm_max[idx] = np.linalg.norm(y_cur, axis=1).max()
        ks[idx] = k
        nodes[idx] = node
        types.append(kind)

    snapshot(0, 0, -1, "init")
    for idx, ev in enumerate(trace.events, start=1):
        z_cur[ev.node] = ev.result.z_tilde
        y_cur[ev.node] = ev.result.y_new
        snapshot(idx, ev.k, ev.node, "activation")
    return MetricSeries(
        k=ks, node=nodes, event_type=tuple(types), err_max=err_max,
        err_mean=err_mean, y_norm_max=y_norm_max,
    )


def write_metrics_csv(series: MetricSeries, path: str | Path) -> None:
    """CSV with header k,node,event_type,err_max,err_mean,y_norm_max."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,node,event_type,err_max,err_mean,y_norm_max\n")
        for idx in range(series.k.shape[0]):
            fh.write(
                f"{series.k[idx]},{series.node[idx]},{series.event_type[idx]},"
                f"{float(series.err_max[idx])!r},{float(series.err_mean[idx])!r},"
                f"{float(series.y_norm_max[idx])!r}\n"
            )


@dataclass(frozen=True)
class RateFit:
    """Geometric decay fit of an error series."""

    c_hat: float              # exp(slope) of log(err) vs k over the tail half
    r_squared: float
    max_window_ratio: float   # worst per-event factor over sliding windows


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
    w = max(1, tail.shape[0] // 10)
    ratios = (tail[w:] / tail[:-w]) ** (1.0 / w)
    return RateFit(
        c_hat=float(np.exp(slope)), r_squared=float(r2),
        max_window_ratio=float(ratios.max()),
    )


# ---------------------------------------------------------------------------
# trace dump / load (line-oriented text)
# ---------------------------------------------------------------------------

def dump_trace(trace: EventTrace, path: str | Path) -> None:
    """One JSON object per line: header, then events, then messages."""
    def vec(a: np.ndarray) -> list[float]:
        return [float(x) for x in np.ravel(a)]

    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "format": "asyncsag-trace v1", "n": trace.n, "d": trace.d,
            "m_i": list(trace.m_i), "rho": trace.rho, "gamma": trace.gamma,
            "eta1": trace.eta1, "eta2": trace.eta2,
            "batch_size": trace.batch_size, "seed": trace.seed,
            "schedule_kind": trace.schedule_kind,
            "stop_reason": trace.stop_reason,
            "graph_edges": sorted(trace.graph.edges),
            "z0": vec(trace.z0), "y0": vec(trace.y0),
            "final_z": vec(trace.final_z), "final_y": vec(trace.final_y),
            "wall_time_per_round": trace.wall_time_per_round,
        }
        fh.write(json.dumps(header) + "\n")
        for ev in trace.events:
            r = ev.result
            fh.write(json.dumps({
                "type": "event", "k": ev.k, "node": ev.node,
                "samples": list(r.samples),
                "consumed": [list(c) for c in r.consumed],
                "z_hat": vec(r.z_hat), "y_new": vec(r.y_new),
                "z_tilde": vec(r.z_tilde), "y_tilde": vec(r.y_tilde),
            }) + "\n")
        for msg in trace.messages:
            fh.write(json.dumps({
                "type": "message", "origin": msg.origin, "dest": msg.dest,
                "sent_at": msg.sent_at, "deliver_at": msg.deliver_at,
                "consumed_at": msg.consumed_at,
                "z_tilde": vec(msg.z_tilde), "y_tilde": vec(msg.y_tilde),
            }) + "\n")


def load_trace(path: str | Path) -> EventTrace:
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("format") != "asyncsag-trace v1":
            raise ValueError(f"{path}: not a trace dump")
        n, d = header["n"], header["d"]

        def mat(key, rows):
            return np.array(header[key], dtype=float).reshape(rows, 2 * d)

        events: list[ActivationRecord] = []
        messages: list[Message] = []
        for line in fh:
            obj = json.loads(line)
            if obj["type"] == "event":
                events.append(ActivationRecord(
                    k=obj["k"], node=obj["node"],
                    result=ActivationResult(
                        samples=tuple(obj["samples"]),
                        z_hat=np.array(obj["z_hat"]),
                        y_new=np.array(obj["y_new"]),
                        z_tilde=np.array(obj["z_tilde"]),
                        y_tilde=np.array(obj["y_tilde"]),
                        consumed=tuple((c[0], c[1]) for c in obj["consumed"]),
                    ),
                ))
            else:
                messages.append(Message(
                    origin=obj["origin"], dest=obj["dest"],
                    z_tilde=np.array(obj["z_tilde"]),
                    y_tilde=np.array(obj["y_tilde"]),
                    sent_at=obj["sent_at"], deliver_at=obj["deliver_at"],
                    consumed_at=obj["consumed_at"],
                ))
    return EventTrace(
        n=n, d=d, m_i=tuple(header["m_i"]), rho=header["rho"],
        gamma=header["gamma"], eta1=header["eta1"], eta2=header["eta2"],
        batch_size=header["batch_size"], seed=header["seed"],
        schedule_kind=header["schedule_kind"],
        graph=DirectedGraph(n, [tuple(e) for e in header["graph_edges"]]),
        z0=mat("z0", n), y0=mat("y0", n), events=events, messages=messages,
        stop_reason=header["stop_reason"], final_z=mat("final_z", n),
        final_y=mat("final_y", n),
        wall_time_per_round=header["wall_time_per_round"],
    )
