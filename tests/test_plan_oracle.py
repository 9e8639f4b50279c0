"""The planned event engine against the per-event engine it replaced.

``heap_run_async`` below is the earlier ``simulator.run_async``, kept as the
reference: one scalar schedule draw per event, one scalar delay draw per
message, a heap of pending messages per destination popped at each
activation, and its own buffer of (z, Y share, origin, sent) payloads and
activation arithmetic, that of ``protocol.activate``: a tracker Y = m y, a
table of G_s z without the offsets, and the broadcast M_i [z_hat | Y].
``simulator.run_async`` plans blocks of events with array code and must
give the same trace, bit for bit, for every block size, and fill every
activation's buffer in the heap engine's order.

The heap engine also returns the states its nodes computed (each node's
initial tracker, each event's broadcast and corrected tracker), which must
equal those the planned engine computes, and its own record of each event's
buffer, apart from the message log, which other tests take as the reference
for who consumed what.
"""

from __future__ import annotations

import heapq
import unittest.mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncsag import graph, protocol, simulator
from asyncsag.protocol import (STREAM_DELAY, STREAM_SCHEDULE, Message,
                               derived_rng, sample_picks, selector_rng)
from helpers import (NodeStates, assert_traces_equal, build_problem,
                     recorded_states)


def heap_run_async(problem, graph_, schedule, delays, eta1, eta2, seed,
                   max_events):
    """The trace, the nodes' states, and each event's buffer as (origin,
    sent event) pairs in buffer order, the activator's own latest broadcast
    first."""
    rng_sched = derived_rng(seed, STREAM_SCHEDULE)
    rng_delay = derived_rng(seed, STREAM_DELAY)
    n, d, m = problem.n, problem.d, problem.m
    steps = np.diag([-eta1 / m] * d + [-eta2 / m] * d)
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
    targets = [[v for v in np.flatnonzero(graph_.adj[i]).tolist() if v != i]
               for i in range(n)]
    degree = graph_.adj.sum(axis=1).tolist()
    # each node's broadcast M_i [z_hat | Y] = [z_hat - eta Y / m | Y / degree]
    push = [np.block([[np.eye(2 * d), steps],
                      [np.zeros((2 * d, 2 * d)), np.eye(2 * d) / deg]])
            for deg in degree]

    def send(origin, z_t, y_t, sent_at):
        nonlocal seq
        for dest in targets[origin]:
            deliver_at = sent_at + delay(sent_at)
            msg = Message(origin, dest, sent_at, deliver_at)
            messages.append(msg)
            heapq.heappush(pending[dest],
                           (deliver_at, sent_at, origin, seq, msg, z_t, y_t))
            seq += 1

    # each node's picks, enough for every event: a shorter draw is a prefix
    picks, tables, ys, buffers = [], [], [], []
    for i in range(n):
        picks.append(iter(sample_picks(problem.m_i[i], selector_rng(seed, i),
                                       max_events).tolist()))
        offset = problem.node_maps(i)[1]
        # at z = 0 every entry G_s z is zero, and Y is the offsets' sum
        tables.append(np.zeros_like(offset))
        y = offset.sum(axis=0)
        ys.append(y / m)
        buffers.append([(z0_rows[i], y / degree[i], i, 0)])
        send(i, z0_rows[i], y / degree[i], 0)
    y0_rows = np.stack(ys)

    node_col, samples, z_col, y_col = [], [], [], []
    pulled = []
    for k in range(1, max_events + 1):
        if schedule.kind == "round_robin":
            i = (k - 1) % n
        else:
            i = int(rng_sched.choice(n, p=schedule.weights()))
        queue = pending[i]
        while queue and queue[0][0] < k:
            msg, z_t, y_t = heapq.heappop(queue)[4:]
            buffers[i].append((z_t, y_t, msg.origin, msg.sent_at))
            msg.consumed_at = k

        buffer = buffers[i]
        z_hat = np.mean([z for z, _, _, _ in buffer], axis=0)
        y_new = np.sum([y for _, y, _, _ in buffer], axis=0)
        pick = next(picks[i])
        fresh = problem.node_maps(i)[0][pick] @ z_hat
        y_new += fresh
        y_new -= tables[i][pick]
        tables[i][pick] = fresh
        broadcast = push[i] @ np.concatenate([z_hat, y_new])
        z_tilde, y_tilde = broadcast[:2 * d], broadcast[2 * d:]
        pulled.append([(origin, sent) for _, _, origin, sent in buffer])
        buffers[i] = [(z_tilde, y_tilde, i, k)]
        send(i, z_tilde, y_tilde, k)
        node_col.append(i)
        samples.append(pick)
        z_col.append(z_tilde)
        y_col.append(y_new / m)

    rows = len(node_col)
    log = np.array([(msg.origin, msg.dest, msg.sent_at, msg.deliver_at,
                     -1 if msg.consumed_at is None else msg.consumed_at)
                    for msg in messages], dtype=np.int64).reshape(-1, 5)
    trace = simulator.EventTrace(
        n=n, d=d, m_i=problem.m_i, eta1=eta1, eta2=eta2, graph=graph_,
        node=np.array(node_col, dtype=np.int64),
        samples=np.array(samples, dtype=np.int64),
        z_tilde=np.array(z_col).reshape(rows, 2 * d),
        messages=simulator.MessageLog(*(col.copy() for col in log.T)),
        series=None,
    )
    states = NodeStates(y0=y0_rows, z_tilde=trace.z_tilde,
                        y_new=np.array(y_col).reshape(rows, 2 * d))
    return trace, states, pulled


SIZES = {"ring": (1, 2, 3, 5), "exponential": (2, 4, 6), "grid": (4, 9)}


@settings(max_examples=100, deadline=None)
@given(topology=st.sampled_from(sorted(SIZES)), data=st.data(),
       kind=st.sampled_from(["round_robin", "uniform_random", "straggler"]),
       delay_kind=st.sampled_from(["zero", "uniform", "round_barrier"]),
       d_max=st.integers(0, 3), events=st.integers(0, 60),
       seed=st.integers(0, 2**32 - 1))
def test_planned_engine_matches_heap_engine(topology, data, kind, delay_kind,
                                            d_max, events, seed):
    n = data.draw(st.sampled_from(SIZES[topology]), label="n")
    prob = build_problem(n=n)
    g = graph.generate_topology(topology, n)
    straggler = kind == "straggler"
    sched = simulator.ActivationSchedule(
        kind=kind, n=n, straggler_node=n - 1 if straggler else None,
        straggler_factor=5.0 if straggler else 1.0)
    delays = simulator.DelayModel(delay_kind, d_max)
    args = (prob, g, sched, delays, 0.05, 0.4, seed, events)
    trace, heap_states, pulled = heap_run_async(*args)
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
                unittest.mock.patch.object(simulator, "activate", recording), \
                recorded_states() as states:
            got = simulator.run_async(*args)
        assert_traces_equal(got, trace)
        # every node's tracker, initial and after each of its activations
        for name in ("y0", "z_tilde", "y_new"):
            a, b = getattr(states, name), getattr(heap_states, name)
            assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), name
        # each activation's buffer holds the heap engine's payload rows, in
        # its order: row v < n is v's initial broadcast, n + s - 1 event s's
        assert buffers == [[v if s == 0 else n + s - 1 for v, s in buffer]
                           for buffer in pulled]

