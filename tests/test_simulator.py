"""Discrete-event engine: schedules, delays, determinism, certification of
the bounded-asynchrony window, metrics, and the message log."""

from __future__ import annotations

import dataclasses
import functools
import logging
import os
import subprocess
import sys
import tracemalloc
import unittest.mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncsag import cli, graph, mspbe, protocol, simulator
from helpers import (assert_traces_equal, build_problem, initial_z,
                     recorded_states, run_sync)


def small_run(seed=7, n=3, max_events=60, kind="uniform_random",
              delay_kind="uniform", d_max=2, eta1=0.01, zeta=10.0,
              **kwargs):
    prob = build_problem(n=n)
    g = graph.generate_topology("ring", n)
    schedule = simulator.ActivationSchedule(kind=kind, n=n, **{
        k: v for k, v in kwargs.items() if k.startswith("straggler")
    })
    delays = simulator.DelayModel(kind=delay_kind, d_max=d_max)
    run_kwargs = {k: v for k, v in kwargs.items()
                  if not k.startswith("straggler")}
    trace = simulator.run_async(prob, g, schedule, delays, eta1, eta1 * zeta,
                                seed=seed, max_events=max_events, **run_kwargs)
    return prob, trace


def consumed(trace, k):
    """The (origin, sent_event) pairs that event k's pull consumed, in
    buffer order: the activator's own latest broadcast, then the messages
    consumed at k by slot, sent event, origin and send rank."""
    node = trace.node[:k].tolist()
    own = max((s for s, v in enumerate(node[:-1], start=1) if v == node[-1]),
              default=0)
    log = trace.messages
    rows = np.flatnonzero(log.consumed_at == k)
    rows = rows[np.lexsort((log.origin[rows], log.sent_at[rows],
                            log.deliver_at[rows]))]
    return ((node[-1], own),) + tuple(zip(log.origin[rows].tolist(),
                                          log.sent_at[rows].tolist()))


def test_same_seed_gives_byte_identical_traces():
    _, a = small_run(seed=11)
    _, b = small_run(seed=11)
    assert_traces_equal(a, b)
    _, c = small_run(seed=12)
    assert not np.array_equal(a.z_tilde, c.z_tilde)
    # the comparison sees one ulp in one array entry
    nudged = dataclasses.replace(b, z_tilde=b.z_tilde.copy())
    nudged.z_tilde[-1, -1] = np.nextafter(nudged.z_tilde[-1, -1], np.inf)
    with pytest.raises(AssertionError, match="z_tilde"):
        assert_traces_equal(a, nudged)


def test_round_robin_alternates_in_node_order():
    _, trace = small_run(kind="round_robin", n=4, max_events=23)
    for k in range(1, trace.num_events + 1):
        assert trace.node[k - 1] == (k - 1) % 4


@pytest.mark.parametrize("kind", ["uniform_random", "straggler"])
def test_schedule_draws_match_rng_choice(kind):
    """The CDF built once draws what rng.choice(n, p=weights) draws, from
    the same stream, whatever the block sizes."""
    sched = simulator.ActivationSchedule(
        kind=kind, n=5, straggler_node=3 if kind == "straggler" else None,
        straggler_factor=10.0 if kind == "straggler" else 1.0)
    ours, reference = np.random.default_rng(3), np.random.default_rng(3)
    drawn = []
    for count in (1, 777, 0, 2, 1500, 13, 2707):
        drawn += sched.next(count, ours).tolist()
    assert drawn == [int(reference.choice(5, p=sched.weights()))
                     for _ in range(5000)]
    rr = simulator.ActivationSchedule("round_robin", 3)
    assert rr.next(5, ours).tolist() == [0, 1, 2, 0, 1]


@pytest.mark.parametrize("kind", ["zero", "uniform", "round_barrier"])
def test_delay_draws_match_successive_scalar_draws(kind):
    """One draw over an array of send events gives the delays one draw per
    message would, in send order, from the same stream."""
    model = simulator.DelayModel(kind, d_max=3)
    sent = np.repeat(np.arange(0, 400), np.arange(400) % 3)
    ours, reference = np.random.default_rng(8), np.random.default_rng(8)
    drawn = np.concatenate([model.draw(ours, part) for part in
                            np.split(sent, [1, 2, 200, 200, 311])])
    if kind == "zero":
        expected = [0] * sent.shape[0]
    elif kind == "uniform":
        expected = [int(reference.integers(0, 4)) for _ in sent]
    else:
        expected = [(-s) % 4 for s in sent.tolist()]
    assert drawn.tolist() == expected


def test_delay_model_rejects_fractional_d_max():
    with pytest.raises(ValueError, match="d_max"):
        simulator.DelayModel("uniform", d_max=2.5)


@pytest.mark.parametrize("kind", ["uniform", "round_barrier"])
def test_delay_model_keeps_slots_in_int64(kind):
    # sent + d_max stays below 2**63 for any run shorter than 2**62 events
    drawn = simulator.DelayModel(kind, d_max=2**62).draw(
        np.random.default_rng(0), np.arange(1, 50, dtype=np.int64))
    assert drawn.dtype == np.int64 and drawn.min() >= 0
    with pytest.raises(ValueError, match="d_max"):
        simulator.DelayModel(kind, d_max=2**62 + 1)
    with pytest.raises(ValueError, match="d_max"):
        simulator.DelayModel(kind, d_max=10**20)


@pytest.mark.parametrize("eta", [float("nan"), float("inf")])
def test_run_async_rejects_non_finite_step(eta):
    prob = build_problem(n=3)
    sched = simulator.ActivationSchedule(kind="round_robin", n=3)
    with pytest.raises(ValueError, match="eta1"):
        simulator.run_async(prob, graph.generate_topology("ring", 3), sched,
                            simulator.DelayModel("zero"), eta, 0.1, seed=0,
                            max_events=5)


@pytest.mark.parametrize("name,value", [
    ("max_events", -5), ("max_events", 10.5), ("max_events", True),
    ("max_events", None), ("seed", -1), ("seed", 2.0), ("seed", False)])
def test_run_async_rejects_bad_max_events_or_seed(name, value):
    prob = build_problem(n=3)
    sched = simulator.ActivationSchedule(kind="round_robin", n=3)
    kwargs = dict(seed=0, max_events=5)
    run = functools.partial(simulator.run_async, prob,
                            graph.generate_topology("ring", 3), sched,
                            simulator.DelayModel("zero"), 0.01, 0.1)
    # one sample refreshed per event
    assert run(**kwargs).samples.shape == (5,)
    with pytest.raises(ValueError, match=f"^{name} must be a nonnegative "
                                         f"integer"):
        run(**dict(kwargs, **{name: value}))
    # no events: the initial state alone
    empty = run(seed=np.int64(0), max_events=0)
    assert empty.num_events == 0 and empty.z_tilde.shape == (0, 6)
    assert empty.samples.shape == (0,)
    streamed = run(seed=0, max_events=0, z_star=mspbe.solve_problem(prob))
    assert streamed.series.err_max.shape == (1,)


def test_straggler_weights():
    sched = simulator.ActivationSchedule(
        kind="straggler", n=4, straggler_node=2, straggler_factor=10.0)
    w = np.array([1.0, 1.0, 0.1, 1.0]) / 3.1
    assert np.allclose(sched.weights(), w, atol=1e-15)
    with pytest.raises(ValueError):
        simulator.ActivationSchedule(kind="straggler", n=4)
    with pytest.raises(ValueError):
        simulator.ActivationSchedule(
            kind="straggler", n=4, straggler_node=2, straggler_factor=0.5)
    with pytest.raises(ValueError):
        simulator.ActivationSchedule(kind="poisson", n=4)


def test_certified_window_round_robin_zero_delay_is_n():
    """With round-robin activation and instant delivery, every stretch of n
    events contains one completed update per node and the oldest consumed
    self-copy is n-1 events old, so the certified window is exactly n."""
    for n in (2, 3, 5):
        _, trace = small_run(kind="round_robin", n=n, delay_kind="zero",
                             d_max=0, max_events=8 * n)
        assert simulator.verify_assumption1b(trace) == n


def test_certified_window_single_node_is_one():
    prob = build_problem(n=1)
    g = graph.generate_topology("ring", 1)
    sched = simulator.ActivationSchedule(kind="round_robin", n=1)
    trace = simulator.run_async(prob, g, sched, simulator.DelayModel("zero"),
                                0.01, 0.1, seed=3, max_events=40)
    assert simulator.verify_assumption1b(trace) == 1
    assert len(trace.messages) == 0  # no network messages without edges


def test_messages_respect_causality_and_delay_bounds():
    for delay_kind in ("uniform", "round_barrier"):
        _, trace = small_run(seed=5, delay_kind=delay_kind, d_max=3,
                             max_events=80)
        consumed_any = 0
        for msg in trace.messages:
            assert msg.deliver_at >= msg.sent_at
            assert msg.deliver_at - msg.sent_at <= 3
            if delay_kind == "round_barrier":
                assert msg.deliver_at % 4 == 0
            if msg.consumed_at is not None:
                consumed_any += 1
                assert msg.consumed_at > msg.deliver_at
        assert consumed_any > 0
        # every consumption recorded by an activation predates that event
        for k in range(1, trace.num_events + 1):
            for origin, sent_event in consumed(trace, k):
                assert sent_event < k


def test_round_barrier_delay_per_message():
    prob = build_problem(n=2)
    g = graph.generate_topology("ring", 2)
    sched = simulator.ActivationSchedule(kind="round_robin", n=2)
    delays = simulator.DelayModel(kind="round_barrier", d_max=4)
    trace = simulator.run_async(prob, g, sched, delays, 0.01, 0.1, seed=1,
                                max_events=30)
    assert len(trace.messages) == 32  # 2 initial and 30 event broadcasts
    for msg in trace.messages:
        expected = (5 - msg.sent_at % 5) % 5  # held to the next multiple of 5
        assert msg.deliver_at - msg.sent_at == expected


def test_every_delivered_message_is_consumed_promptly():
    """A message in slot t must be absorbed by its destination's first
    activation after t."""
    _, trace = small_run(seed=9, max_events=100, d_max=2)
    acts_by_node = {}
    for k, node in enumerate(trace.node.tolist(), start=1):
        acts_by_node.setdefault(node, []).append(k)
    horizon = trace.num_events
    for msg in trace.messages:
        later = [k for k in acts_by_node.get(msg.dest, [])
                 if k > msg.deliver_at]
        if later:
            assert msg.consumed_at == later[0]
        elif msg.deliver_at < horizon:
            assert msg.consumed_at is None


def test_rejects_disconnected_graph_and_size_mismatch():
    prob = build_problem(n=3)
    lonely = graph.DirectedGraph(3, [(0, 1), (1, 0)])  # node 2 unreachable
    sched = simulator.ActivationSchedule(kind="round_robin", n=3)
    with pytest.raises(ValueError):
        simulator.run_async(prob, lonely, sched, simulator.DelayModel("zero"),
                            0.01, 0.1, seed=0, max_events=5)
    with pytest.raises(ValueError):
        simulator.run_async(prob, graph.generate_topology("ring", 4), sched,
                            simulator.DelayModel("zero"), 0.01, 0.1, seed=0,
                            max_events=5)



def test_metrics_series_shape_and_initial_row():
    z_star = mspbe.solve_problem(build_problem(n=3))
    _, trace = small_run(seed=4, max_events=40)
    series = small_run(seed=4, max_events=40, z_star=z_star)[1].series
    for field in dataclasses.fields(simulator.MetricSeries):
        assert getattr(series, field.name).shape == (41,)
    init_err = np.linalg.norm(initial_z(trace) - z_star, axis=1)
    assert np.isclose(series.err_max[0], init_err.max())
    assert np.isclose(series.err_mean[0], init_err.mean())
    # rows track the activator's published state
    z_cur = initial_z(trace)
    for idx in range(1, trace.num_events + 1):
        z_cur[trace.node[idx - 1]] = trace.z_tilde[idx - 1]
        errs = np.linalg.norm(z_cur - z_star, axis=1)
        assert np.isclose(series.err_max[idx], errs.max())


def test_metrics_csv_header_and_row_count(tmp_path):
    z_star = mspbe.solve_problem(build_problem(n=3))
    _, trace = small_run(seed=4, max_events=25, z_star=z_star)
    series = trace.series
    path = tmp_path / "metrics.csv"
    simulator.write_metrics_csv(series, trace.node, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,node,event_type,err_max,err_mean,y_norm_max"
    assert len(lines) == 26 + 1
    assert lines[1].startswith("0,-1,init,")
    assert [line.split(",")[:3] for line in lines[2:]] == [
        [str(k), str(v), "activation"]
        for k, v in enumerate(trace.node.tolist(), start=1)]
    # floats are repr round-trippable
    first = lines[1].split(",")
    assert float(first[3]) == series.err_max[0]


def write_metrics_csv_by_row(series, node, path):
    """Reference for ``simulator.write_metrics_csv``: one write per row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,node,event_type,err_max,err_mean,y_norm_max\n")
        for idx in range(series.err_max.shape[0]):
            fh.write(
                f"{idx},{node[idx - 1] if idx else -1},"
                f"{'init' if idx == 0 else 'activation'},"
                f"{float(series.err_max[idx])!r},{float(series.err_mean[idx])!r},"
                f"{float(series.y_norm_max[idx])!r}\n"
            )


# values the writer must keep apart although they compare equal (0.0 and
# -0.0) or write alike (nans of two payloads); drawn among random floats
# they make the runs of equal values the writer formats once
REPEATS = [0.0, -0.0, np.nan,
           np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0]]


def random_series(floats):
    return simulator.MetricSeries(
        err_max=np.array(floats[0::3]), err_mean=np.array(floats[1::3]),
        y_norm_max=np.array(floats[2::3]),
    )


@settings(max_examples=60, deadline=None)
@given(block=st.integers(1, 9), data=st.data())
def test_metrics_csv_blocks_match_row_loop(tmp_path_factory, block, data):
    rows = data.draw(st.integers(1, 40))
    nodes = data.draw(st.lists(st.integers(-1, 50), min_size=rows - 1,
                               max_size=rows - 1))
    floats = data.draw(st.lists(st.floats(width=64) | st.sampled_from(REPEATS),
                                min_size=3 * rows, max_size=3 * rows))
    series, nodes = random_series(floats), np.array(nodes, dtype=np.int64)
    out = tmp_path_factory.mktemp("csv")
    with unittest.mock.patch.object(simulator, "_ROW_BLOCK", block):
        simulator.write_metrics_csv(series, nodes, out / "blocks.csv")
    write_metrics_csv_by_row(series, nodes, out / "rows.csv")
    assert (out / "blocks.csv").read_bytes() == (out / "rows.csv").read_bytes()


def test_metrics_csv_default_blocks_match_row_loop(tmp_path):
    # two full blocks and a partial one
    rows = 2 * simulator._ROW_BLOCK + 3
    rng = np.random.default_rng(8)
    series = random_series(rng.lognormal(-3.0, 4.0, 3 * rows).tolist())
    nodes = rng.integers(0, 6, rows - 1)
    simulator.write_metrics_csv(series, nodes, tmp_path / "blocks.csv")
    write_metrics_csv_by_row(series, nodes, tmp_path / "rows.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_metrics_csv_rejects_a_node_column_of_another_length(tmp_path):
    series = random_series([1.0, 2.0, 3.0] * 4)
    for nodes in (np.zeros(4, dtype=np.int64), np.zeros(2, dtype=np.int64)):
        with pytest.raises(ValueError, match="needs 3 activators"):
            simulator.write_metrics_csv(series, nodes, tmp_path / "m.csv")


def test_rate_fit_recovers_synthetic_decay():
    k = np.arange(400)
    err = 3.0 * 0.9 ** k
    fit = simulator.estimate_rate(err)
    assert abs(fit.c_hat - 0.9) < 1e-12
    assert fit.r_squared > 1 - 1e-12
    with pytest.raises(ValueError):
        simulator.estimate_rate(err[:50])


def test_message_log_columns_mark_exactly_the_unconsumed(monkeypatch):
    """Five int64 columns; a message's consumed_at is the event whose pull
    buffered it, and -1 exactly when no event of the trace did, also for
    the messages still in flight when a run ends inside a planned block."""
    monkeypatch.setattr(simulator, "_PLAN_BLOCK", 7)
    _, trace = small_run(seed=9, max_events=120, d_max=3)
    log = trace.messages
    for column in (log.origin, log.dest, log.sent_at, log.deliver_at,
                   log.consumed_at):
        assert column.dtype == np.int64 and column.shape == (len(log),)
    assert log.sent_at.max() == trace.num_events
    used = log.consumed_at != -1
    assert (log.consumed_at[used] > log.deliver_at[used]).all()
    assert (log.consumed_at[used] <= trace.num_events).all()
    # unconsumed exactly when the destination does not activate after the
    # slot within the trace
    last = {v: k for k, v in enumerate(trace.node.tolist(), start=1)}
    assert (~used).tolist() == [
        last.get(v, 0) <= slot
        for v, slot in zip(log.dest.tolist(), log.deliver_at.tolist())]
    assert not used.all()
    got = sorted(zip(*(column[used].tolist() for column in
                       (log.origin, log.dest, log.sent_at, log.consumed_at))))
    want = sorted((origin, v, sent, k) for k, v in
                  enumerate(trace.node.tolist(), start=1)
                  for origin, sent in consumed(trace, k)[1:])
    assert got == want
    # the records built on demand carry the same rows
    records = list(log)
    rows = zip(*(column.tolist() for column in
                 (log.origin, log.dest, log.sent_at, log.deliver_at,
                  log.consumed_at)))
    assert records == [protocol.Message(*row[:4], None if row[4] < 0
                                        else row[4]) for row in rows]
    assert log[0] == records[0] and log[-1] == records[-1]
    assert [msg.consumed_at is None for msg in records] == (~used).tolist()
    _, shorter = small_run(seed=9, max_events=119, d_max=3)
    assert shorter.messages != log
    with pytest.raises(ValueError, match="delivered before"):
        simulator.MessageLog(*(np.array([v]) for v in (0, 1, 5, 4, -1)))


def test_run_logs_one_summary_line(caplog):
    with caplog.at_level(logging.INFO, logger="asyncsag.simulator"):
        _, trace = small_run(seed=9, max_events=40)
    lines = [rec.getMessage() for rec in caplog.records
             if rec.name == "asyncsag.simulator"]
    used = sum(msg.consumed_at is not None for msg in trace.messages)
    assert lines == [f"run_async: 40 events, {len(trace.messages)} network "
                     f"messages, {used} consumed"]


# ---------------------------------------------------------------------------
# the array code against the per-event loops it replaced
# ---------------------------------------------------------------------------

def dense_metrics(node, states, z_star):
    """The error series by the whole-run formula, with (T+1) x n index and
    value arrays: row k from every node's latest state after event k, each
    node starting at z = 0 with its initial tracker."""
    n, t = states.y0.shape[0], node.shape[0]
    latest = np.zeros((t + 1, n), dtype=np.intp)
    latest[0] = np.arange(n)
    latest[np.arange(1, t + 1), node] = np.arange(n, n + t)
    latest = np.maximum.accumulate(latest, axis=0)
    errs = np.linalg.norm(
        np.concatenate([np.zeros(states.y0.shape), states.z_tilde]) - z_star,
        axis=1)[latest]
    y_norms = np.linalg.norm(np.concatenate([states.y0, states.y_new]),
                             axis=1)[latest]
    return simulator.MetricSeries(
        err_max=errs.max(axis=1), err_mean=errs.mean(axis=1),
        y_norm_max=y_norms.max(axis=1),
    )


def assert_series_equal(got, want):
    """Every column equal in dtype, shape and bytes."""
    for field in dataclasses.fields(simulator.MetricSeries):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
        assert a.tobytes() == b.tobytes(), field.name


def metrics_by_event(node, states, z_star):
    """Reference for the error series: replay the recorded states event by
    event."""
    z_cur = np.zeros(states.y0.shape)
    y_cur = states.y0.copy()
    rows = node.shape[0] + 1
    err_max = np.empty(rows)
    err_mean = np.empty(rows)
    y_norm_max = np.empty(rows)

    def snapshot(k):
        errs = np.linalg.norm(z_cur - z_star, axis=1)
        err_max[k] = errs.max()
        err_mean[k] = errs.mean()
        y_norm_max[k] = np.linalg.norm(y_cur, axis=1).max()

    snapshot(0)
    for k in range(1, rows):
        z_cur[node[k - 1]] = states.z_tilde[k - 1]
        y_cur[node[k - 1]] = states.y_new[k - 1]
        snapshot(k)
    return simulator.MetricSeries(
        err_max=err_max, err_mean=err_mean, y_norm_max=y_norm_max,
    )


def window_by_event(trace):
    """Reference for ``simulator.verify_assumption1b``: per-event dicts and
    an interval sweep per node."""
    t = trace.num_events
    sent_slots = {}
    for msg in trace.messages:
        key = (msg.origin, msg.sent_at)
        sent_slots[key] = max(sent_slots.get(key, 0), msg.deliver_at)
    per_node = [[] for _ in range(trace.n)]
    age_max = 0
    for k in range(1, t + 1):
        node = int(trace.node[k - 1])
        complete = max(k, sent_slots.get((node, k), k))
        per_node[node].append((k, complete))
        for _, sent_event in consumed(trace, k):
            age_max = max(age_max, k - sent_event - 1)
    for v in range(trace.n):
        if not per_node[v]:
            raise simulator.AssumptionViolation(
                f"node {v} never completed an update in the trace")

    def window_ok(b):
        last_start = max(1, t - b + 1)
        for acts in per_node:
            covered_to = 0
            for lo, hi in sorted((max(1, c - b + 1), k) for k, c in acts):
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
        for v, acts in enumerate(per_node):
            if all(c > t for _, c in acts):
                raise simulator.AssumptionViolation(
                    f"node {v} has no update delivered within the trace")
        raise simulator.AssumptionViolation(
            "no finite window covers every node")
    while lo < hi:
        mid = (lo + hi) // 2
        if window_ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return max(lo, age_max + 1)


def assert_matches_event_loops(trace, states, z_star):
    """The series of a run given ``z_star`` and its certified window equal
    the per-event loops' over its recorded states."""
    want = metrics_by_event(trace.node, states, z_star)
    for field in dataclasses.fields(simulator.MetricSeries):
        assert np.array_equal(getattr(trace.series, field.name),
                              getattr(want, field.name)), field.name
    try:
        b = window_by_event(trace)
    except simulator.AssumptionViolation as expected:
        with pytest.raises(simulator.AssumptionViolation) as err:
            simulator.verify_assumption1b(trace)
        assert str(err.value) == str(expected)
    else:
        assert simulator.verify_assumption1b(trace) == b


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), topology=st.sampled_from(["ring", "exponential"]),
       kind=st.sampled_from(["round_robin", "uniform_random", "straggler"]),
       delay_kind=st.sampled_from(["zero", "uniform", "round_barrier"]),
       d_max=st.integers(0, 3), events=st.integers(30, 80),
       seed=st.integers(0, 2**32 - 1))
def test_array_metrics_and_window_match_event_loops(
        n, topology, kind, delay_kind, d_max, events, seed):
    prob = build_problem(n=n)
    z_star = mspbe.solve_problem(prob)
    straggler = kind == "straggler"
    sched = simulator.ActivationSchedule(
        kind=kind, n=n, straggler_node=0 if straggler else None,
        straggler_factor=4.0 if straggler else 1.0)
    with recorded_states() as states:
        trace = simulator.run_async(
            prob, graph.generate_topology(topology, n), sched,
            simulator.DelayModel(kind=delay_kind, d_max=d_max), 0.01, 0.1,
            seed=seed, max_events=events, z_star=z_star)
    assert_matches_event_loops(trace, states, z_star)


def assert_streamed_equals_full(streamed, states, full, z_star):
    """The oracle of the streamed series: a run given ``z_star`` has the
    bits of the whole-run formula over the states it computed (``states``,
    recorded), those are the full trace's broadcasts, and the two records
    of the same run agree in everything else."""
    assert_series_equal(streamed.series,
                        dense_metrics(streamed.node, states, z_star))
    assert full.series is None
    assert states.z_tilde.tobytes() == full.z_tilde.tobytes()
    assert streamed.z_tilde.shape == (0, 2 * full.d)
    assert_traces_equal(dataclasses.replace(
        streamed, z_tilde=full.z_tilde, series=None), full)


@pytest.mark.parametrize("block", [1, 3, 7, 64, None])
@pytest.mark.parametrize("delay_kind,d_max", [("zero", 0), ("uniform", 3),
                                              ("round_barrier", 2)])
def test_streamed_series_equals_metrics_of_the_full_trace(
        monkeypatch, block, delay_kind, d_max):
    """Planned blocks of 1, 3, 7, 64 and the default size, every delay
    kind, a straggler (which does not activate in the first blocks of 1, 3
    and 7), a run that ends inside a block, and a one-event run."""
    if block is not None:
        monkeypatch.setattr(simulator, "_PLAN_BLOCK", block)
    n = 4
    prob = build_problem(n=n)
    z_star = mspbe.solve_problem(prob)
    g = graph.generate_topology("ring", n)
    delays = simulator.DelayModel(delay_kind, d_max)
    uniform = simulator.ActivationSchedule("uniform_random", n)
    straggler = simulator.ActivationSchedule("straggler", n, straggler_node=1,
                                             straggler_factor=20.0)
    for schedule, events in ((uniform, 300), (straggler, 300), (uniform, 1)):
        args = (prob, g, schedule, delays, 0.05, 0.4)
        kwargs = dict(seed=13, max_events=events)
        full = simulator.run_async(*args, **kwargs)
        with recorded_states() as states:
            streamed = simulator.run_async(*args, **kwargs, z_star=z_star)
        assert_streamed_equals_full(streamed, states, full, z_star)


def test_payload_table_holds_only_the_readable_rows(monkeypatch):
    """On a uniform schedule the table stays far shorter than the run; a
    slow node's buffer and the messages waiting for it keep older rows,
    and the series still has the full trace's bits."""
    monkeypatch.setattr(simulator, "_PLAN_BLOCK", 64)
    n, events = 4, 2000
    prob = build_problem(n=n)
    z_star = mspbe.solve_problem(prob)
    g = graph.generate_topology("ring", n)
    delays = simulator.DelayModel("uniform", 3)
    longest = {}
    for name, schedule in (
            ("uniform", simulator.ActivationSchedule("uniform_random", n)),
            ("straggler", simulator.ActivationSchedule(
                "straggler", n, straggler_node=2, straggler_factor=50.0))):
        args = (prob, g, schedule, delays, 0.05, 0.4)
        rows = []

        def spying(node, payloads, *rest):
            rows.append(payloads.rows.shape[0])
            return protocol.activate(node, payloads, *rest)

        with monkeypatch.context() as patch:
            patch.setattr(simulator, "activate", spying)
            with recorded_states() as states:
                streamed = simulator.run_async(
                    *args, seed=3, max_events=events, z_star=z_star)
        longest[name] = max(rows)
        full = simulator.run_async(*args, seed=3, max_events=events)
        assert_streamed_equals_full(streamed, states, full, z_star)
    assert longest["uniform"] < events // 10
    # the straggler's gaps run to hundreds of events
    assert longest["straggler"] > 2 * longest["uniform"]


def reachable_arrays(obj, seen=None):
    """The distinct ndarray buffers reachable from a record, through
    dataclass fields, containers and array bases."""
    seen = {} if seen is None else seen
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        seen[id(obj)] = obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            reachable_arrays(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            reachable_arrays(item, seen)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            reachable_arrays(getattr(obj, field.name), seen)
    return list(seen.values())


def test_streamed_run_memory_does_not_hold_the_states():
    """On quickstart at 45000 events a run given z_star peaks at well
    under a full trace (11.9 MB); at 180000 events its record holds about
    80 B per event (a full trace 40.9 MB), and at both it reaches no
    per-event float array of width 2d. The peak at 180000 events is
    bounded by ``test_streamed_run_rss_grows_with_the_record``."""
    bundle = cli.build_experiment(
        cli.load_config(cli.bundled_config("quickstart")))
    z_star = cli._solution(bundle)
    width = 2 * bundle.problem.d
    tracemalloc.start()
    try:
        traces = {45000: cli._run_trace(bundle, 45000, None, z_star)}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    traces[180000] = cli._run_trace(bundle, 180000, None, z_star)
    for events, trace in traces.items():
        assert trace.num_events == events
        assert trace.series.err_max.shape == (events + 1,)
        big = [a.shape for a in reachable_arrays(trace)
               if a.dtype.kind == "f" and a.size >= events * width]
        assert big == []
    # the int columns and the series: 80 B per event held
    assert sum(a.nbytes
               for a in reachable_arrays(traces[180000])) <= 100 * 180000
    assert peak <= 10 * 2**20


# A fresh interpreter runs quickstart for argv[1] events, given z_star when
# argv[2] is "streamed", and prints the growth of its peak RSS over the run
# and the bytes of the arrays of the record the run returns.
_RSS_CHILD = """
import dataclasses, sys
from asyncsag import cli

def status(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh
                    if line.startswith(key))

bundle = cli.build_experiment(cli.load_config(cli.bundled_config("quickstart")))
z_star = cli._solution(bundle) if sys.argv[2] == "streamed" else None
before = status("VmRSS:")
trace = cli._run_trace(bundle, int(sys.argv[1]), None, z_star)
growth = status("VmHWM:") - before
series = trace.series
arrays = [trace.node, trace.samples, trace.z_tilde, *trace.messages._columns(),
          *(getattr(series, f.name) for f in
            (dataclasses.fields(series) if series else ()))]
print(growth, sum(a.nbytes for a in arrays))
"""


def rss_children(runs):
    """(peak RSS growth, record bytes) of a fresh interpreter per (events,
    mode) in ``runs``, the children running side by side."""
    env = dict(os.environ, PYTHONPATH=str(Path(simulator.__file__).parents[1]))
    children = {run: subprocess.Popen(
        [sys.executable, "-c", _RSS_CHILD, str(run[0]), run[1]], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for run in runs}
    measured = {}
    for run, child in children.items():
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        measured[run] = tuple(map(int, out.split()))
    return measured


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads VmRSS and VmHWM from /proc")
def test_run_and_metrics_memory_follow_the_trace():
    """On quickstart (45000 events) the full trace holds its columns and no
    per-message objects: the run grows its peak RSS by at most 12 MiB
    (8.9 MiB over a 5.8 MiB record; 17.1 MiB when the trace also keeps a
    list of ``Message`` records)."""
    ((growth, record),) = rss_children([(45000, "full")]).values()
    assert record > 5 * 2**20
    assert growth <= 12 * 2**20, (growth, record)


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads VmRSS and VmHWM from /proc")
def test_streamed_run_rss_grows_with_the_record():
    """From 45000 to 180000 quickstart events, the peak RSS of a streamed
    run grows by at most 1.2 times what its record grows by: the columns
    are written in place, not built from small pieces that the allocator
    keeps after they are joined (2.1 times then). At 180000 events the run
    grows its peak RSS by at most 20 MB over a 14.4 MB record."""
    growth, record = {}, {}
    for (events, _), measured in rss_children(
            [(45000, "streamed"), (180000, "streamed")]).items():
        growth[events], record[events] = measured
    assert record[180000] - record[45000] > 10 * 10**6
    # 16.9 MiB; 31.0 MiB for a run that keeps the full trace and 30.3 MiB
    # for one whose columns are joined from pieces kept alive until the end
    assert growth[180000] <= 20 * 2**20, (growth, record)
    assert (growth[180000] - growth[45000]
            <= 1.2 * (record[180000] - record[45000])), (growth, record)


@pytest.mark.parametrize("topology,n", [("grid", 9), ("ring", 5)])
def test_record_holds_no_spare_capacity(monkeypatch, topology, n):
    """Every array of a trace owns exactly its rows, for the full trace and
    the streamed run alike: the record is allocated once, at the size the
    run's activators give it, also for a log whose fanouts differ from node
    to node."""
    monkeypatch.setattr(simulator, "_PLAN_BLOCK", 64)
    prob = build_problem(n=n)
    g = graph.generate_topology(topology, n)
    fanouts = set(g.adj.sum(axis=1).tolist())
    assert len(fanouts) == (3 if topology == "grid" else 1)
    args = (prob, g, simulator.ActivationSchedule("uniform_random", n),
            simulator.DelayModel("uniform", d_max=2), 0.01, 0.1)
    for z_star in (None, mspbe.solve_problem(prob)):
        trace = simulator.run_async(*args, seed=4, max_events=300,
                                    z_star=z_star)
        arrays = [trace.node, trace.samples, trace.z_tilde,
                  *trace.messages._columns()]
        if z_star is not None:
            arrays += [getattr(trace.series, field.name)
                       for field in dataclasses.fields(trace.series)]
        assert len(arrays) == (8 if z_star is None else 11)
        for a in arrays:
            assert a.base is None or a.base.nbytes == a.nbytes, a.shape


def test_traces_compare_by_identity():
    """A trace equals itself alone, and hashes, so it can key a dict; two
    runs compare unequal without comparing their arrays."""
    _, one = small_run(seed=1, max_events=50)
    _, other = small_run(seed=1, max_events=50)
    assert one == one
    assert one != other and not one == other
    assert {one: "one", other: "other"}[one] == "one"
    assert_traces_equal(one, other)


def test_node_that_never_activates_is_named():
    z_star = mspbe.solve_problem(build_problem(n=4))
    with recorded_states() as states:
        _, trace = small_run(seed=3, n=4, max_events=60, kind="straggler",
                             straggler_node=2, straggler_factor=1e15,
                             z_star=z_star)
    assert 2 not in trace.node
    assert_matches_event_loops(trace, states, z_star)
    with pytest.raises(simulator.AssumptionViolation,
                       match="^node 2 never completed an update"):
        simulator.verify_assumption1b(trace)


def test_node_whose_only_update_lands_after_the_trace_is_named():
    """Node 1 activates once, at the last event, and its broadcast to node
    0 lands one slot later, so no window of the trace holds an update of
    node 1 that completes inside it."""
    _, trace = small_run(seed=2, n=2, kind="round_robin", d_max=1,
                         max_events=2)
    assert trace.node.tolist() == [0, 1]
    assert (trace.messages.origin[-1], trace.messages.sent_at[-1],
            trace.messages.deliver_at[-1]) == (1, 2, 3)
    with pytest.raises(simulator.AssumptionViolation) as err:
        simulator.verify_assumption1b(trace)
    assert str(err.value) == "node 1 has no update delivered within the trace"


def test_sync_round_structure():
    prob = build_problem(n=3)
    g = graph.generate_topology("ring", 3)
    trace = run_sync(prob, g, rounds=8, eta1=0.01, eta2=0.1, seed=5,
                     z_star=None)
    assert trace.num_events == 24
    for k in range(1, trace.num_events + 1):
        node = trace.node[k - 1]
        assert node == (k - 1) % 3
        # each node pulls its own previous broadcast, then its in-neighbours'
        # broadcasts of the previous round in ascending order (event 0 in
        # round 1), and nothing from the current round
        r = (k - 1) // 3 + 1
        last = [0] * 3 if r == 1 else [(r - 2) * 3 + v + 1 for v in range(3)]
        peers = [j for j in np.flatnonzero(g.adj[:, node]).tolist()
                 if j != node]
        assert consumed(trace, k) == tuple(
            (v, last[v]) for v in [node] + sorted(peers))
    # given z_star, the series has a row per event after the initial one
    streamed = run_sync(prob, g, rounds=8, eta1=0.01, eta2=0.1, seed=5,
                        z_star=mspbe.solve_problem(prob))
    assert streamed.series.err_max.shape == (8 * 3 + 1,)
