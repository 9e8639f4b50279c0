"""The planned event engine against the per-event engine it replaced.

``heap_run_async`` below is the earlier ``simulator.run_async``, kept as the
reference: one scalar schedule draw per event, one scalar delay draw per
message, a heap of pending messages per destination popped at each
activation, and its own buffer of (z, y share, origin, sent) payloads and
activation arithmetic. ``simulator.run_async`` plans blocks of events with
array code and must give the same trace, bit for bit, for every block size,
and fill every activation's buffer in the heap engine's order.

The heap engine also returns its own record of each event's buffer, apart
from the message log, which other tests take as the reference for who
consumed what.
"""

from __future__ import annotations

import heapq
import unittest.mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncsag import graph, mspbe, protocol, simulator
from asyncsag.protocol import (STREAM_DELAY, STREAM_SCHEDULE, Message,
                               SampleSelector, derived_rng, selector_rng)
from helpers import assert_traces_equal, build_problem, tracker_bounds


def heap_run_async(problem, graph_, schedule, delays, eta1, eta2, seed,
                   max_events, epsilon=None, batch_size=1, b_max=None):
    """The trace, and each event's buffer as (origin, sent event) pairs in
    buffer order, the activator's own latest broadcast first."""
    rng_sched = derived_rng(seed, STREAM_SCHEDULE)
    rng_delay = derived_rng(seed, STREAM_DELAY)
    n, d, m, rho = problem.n, problem.d, problem.m, problem.rho
    steps = np.array([eta1] * d + [eta2] * d)
    z0_rows = np.zeros((n, 2 * d))

    def delay(sent_at):
        if delays.kind == "zero":
            return 0
        if delays.kind == "uniform":
            return int(rng_delay.integers(0, delays.d_max + 1))
        return (-sent_at) % (delays.d_max + 1)

    # per-destination queues ordered by (slot, sent, origin, seq)
    pending = [[] for _ in range(n)]
    messages = []
    seq = 0
    targets = [[v for v in graph_.out_neighbors(i) if v != i] for i in range(n)]
    degree = [graph_.out_degree(i) for i in range(n)]

    def send(origin, z_t, y_t, sent_at):
        nonlocal seq
        for dest in targets[origin]:
            deliver_at = sent_at + delay(sent_at)
            msg = Message(origin, dest, sent_at, deliver_at)
            messages.append(msg)
            heapq.heappush(pending[dest],
                           (deliver_at, sent_at, origin, seq, msg, z_t, y_t))
            seq += 1

    selectors, tables, ys, buffers = [], [], [], []
    for i in range(n):
        selectors.append(SampleSelector(problem.m_i[i], selector_rng(seed, i)))
        table = np.stack([mspbe.saddle_gradient(z0_rows[i], st_, rho)
                          for st_ in problem.per_node[i]])
        y = table.sum(axis=0) / m
        tables.append(table)
        ys.append(y)
        buffers.append([(z0_rows[i], y / degree[i], i, 0)])
        send(i, z0_rows[i], y / degree[i], 0)
    y0_rows = np.stack(ys)

    node_col, samples, z_col, y_col = [], [], [], []
    pulled = []
    residual = [float(np.linalg.norm(y)) for y in ys]
    last = [0] * n
    stop_reason = "max_events"
    for k in range(1, max_events + 1):
        if schedule.kind == "round_robin":
            i = (k - 1) % n
        else:
            i = int(rng_sched.choice(n, p=schedule.weights()))
        if b_max is not None:
            for v in range(n):
                if k - last[v] > b_max:
                    raise simulator.AssumptionViolation(
                        f"node {v} has not activated in the last {b_max} "
                        f"events (event {k})", node=v)
        queue = pending[i]
        while queue and queue[0][0] < k:
            msg, z_t, y_t = heapq.heappop(queue)[4:]
            buffers[i].append((z_t, y_t, msg.origin, msg.sent_at))
            msg.consumed_at = k

        buffer = buffers[i]
        z_hat = np.mean([z for z, _, _, _ in buffer], axis=0)
        y_new = np.sum([y for _, y, _, _ in buffer], axis=0)
        picks = [selectors[i].next() for _ in range(batch_size)]
        for p in picks:
            fresh = mspbe.saddle_gradient(z_hat, problem.per_node[i][p], rho)
            y_new += (fresh - tables[i][p]) / m
            tables[i][p] = fresh
        z_tilde = z_hat - steps * y_new
        y_tilde = y_new / degree[i]
        pulled.append([(origin, sent) for _, _, origin, sent in buffer])
        buffers[i] = [(z_tilde, y_tilde, i, k)]
        send(i, z_tilde, y_tilde, k)
        last[i] = k
        node_col.append(i)
        samples.append(picks)
        z_col.append(z_tilde)
        y_col.append(y_new)

        if epsilon is not None:
            residual[i] = float(np.linalg.norm(y_new))
            if max(residual) < epsilon:
                stop_reason = "epsilon"
                break

    rows = len(node_col)
    log = np.array([(msg.origin, msg.dest, msg.sent_at, msg.deliver_at,
                     -1 if msg.consumed_at is None else msg.consumed_at)
                    for msg in messages], dtype=np.int64).reshape(-1, 5)
    trace = simulator.EventTrace(
        n=n, d=d, m_i=problem.m_i, eta1=eta1, eta2=eta2, graph=graph_,
        y0=y0_rows,
        node=np.array(node_col, dtype=np.int64),
        samples=np.array(samples, dtype=np.int64).reshape(rows, batch_size),
        z_tilde=np.array(z_col).reshape(rows, 2 * d),
        y_new=np.array(y_col).reshape(rows, 2 * d),
        messages=simulator.MessageLog(*(col.copy() for col in log.T)),
        stop_reason=stop_reason,
    )
    return trace, pulled


def outcome(run, *args, **kwargs):
    try:
        return run(*args, **kwargs)
    except simulator.AssumptionViolation as exc:
        return exc


def assert_same_outcome(got, want):
    if isinstance(want, simulator.AssumptionViolation):
        assert isinstance(got, simulator.AssumptionViolation), got
        assert (str(got), got.node) == (str(want), want.node)
        return
    assert not isinstance(got, Exception), got
    assert_traces_equal(got, want)


SIZES = {"ring": (1, 2, 3, 5), "exponential": (2, 4, 6), "grid": (4, 9)}


@settings(max_examples=100, deadline=None)
@given(topology=st.sampled_from(sorted(SIZES)), data=st.data(),
       kind=st.sampled_from(["round_robin", "uniform_random", "straggler"]),
       delay_kind=st.sampled_from(["zero", "uniform", "round_barrier"]),
       d_max=st.integers(0, 3), batch_size=st.integers(1, 2),
       events=st.integers(0, 60), seed=st.integers(0, 2**32 - 1),
       stop=st.sampled_from(["none", "epsilon", "b_max"]))
def test_planned_engine_matches_heap_engine(topology, data, kind, delay_kind,
                                            d_max, batch_size, events, seed,
                                            stop):
    n = data.draw(st.sampled_from(SIZES[topology]), label="n")
    prob = build_problem(n=n)
    g = graph.generate_topology(topology, n)
    straggler = kind == "straggler"
    sched = simulator.ActivationSchedule(
        kind=kind, n=n, straggler_node=n - 1 if straggler else None,
        straggler_factor=5.0 if straggler else 1.0)
    delays = simulator.DelayModel(delay_kind, d_max)
    args = (prob, g, sched, delays, 0.05, 0.4, seed, events)
    kwargs = {"batch_size": batch_size}
    if stop == "epsilon" and events:
        # a threshold the run crosses by a drawn event
        at = data.draw(st.integers(1, events), label="epsilon event")
        kwargs["epsilon"] = min(
            tracker_bounds(heap_run_async(*args, **kwargs)[0])[:at])
    elif stop == "b_max":
        kwargs["b_max"] = data.draw(st.integers(1, 4 * n + 6), label="b_max")
    want = outcome(heap_run_async, *args, **kwargs)
    for block in (1, 3, 7):
        buffers = []

        def recording(node, payloads, row, *rest):
            # the table holds the rows from the oldest still readable on:
            # event k writes row n + k - 1, so its table starts at the
            # global row n + k - 1 - row
            base = n + len(buffers) - row
            buffers.append([r + base for r in node.buffer])
            return protocol.activate(node, payloads, row, *rest)

        with unittest.mock.patch.object(simulator, "_PLAN_BLOCK", block), \
                unittest.mock.patch.object(simulator, "activate", recording):
            got = outcome(simulator.run_async, *args, **kwargs)
        if isinstance(want, Exception):
            assert_same_outcome(got, want)
            continue
        trace, pulled = want
        assert_same_outcome(got, trace)
        # each activation's buffer holds the heap engine's payload rows, in
        # its order: row v < n is v's initial broadcast, n + s - 1 event s's
        assert buffers == [[v if s == 0 else n + s - 1 for v, s in buffer]
                           for buffer in pulled]


def test_stops_and_violations_land_in_later_blocks(monkeypatch):
    """An epsilon stop and a b_max violation past the first planned block
    end the run at the event where the heap engine ends it."""
    prob = build_problem(n=6)
    g = graph.generate_topology("exponential", 6)
    sched = simulator.ActivationSchedule("straggler", 6, straggler_node=2,
                                         straggler_factor=6.0)
    args = (prob, g, sched, simulator.DelayModel("uniform", 3), 0.05, 0.4, 17,
            400)
    monkeypatch.setattr(simulator, "_PLAN_BLOCK", 7)
    want = outcome(heap_run_async, *args, b_max=25)
    assert want.node == 2 and "(event 47)" in str(want)
    assert_same_outcome(outcome(simulator.run_async, *args, b_max=25), want)

    epsilon = min(tracker_bounds(heap_run_async(*args)[0])[:10])
    stopped, _ = heap_run_async(*args, epsilon=epsilon)
    assert stopped.stop_reason == "epsilon" and stopped.num_events == 9
    assert_same_outcome(simulator.run_async(*args, epsilon=epsilon), stopped)
