"""Contracts of the simulator's per-event path.

The activation is written for speed (in-place sums over payload rows
[z | share], one division for the mean, a tracker Y = m y kept in place,
and one matrix-vector product for the broadcast, written into its row). It
must give the same bits as the plain numpy expressions below, which are
kept here as the reference: the mean of the buffered z and the sum of the
buffered shares, each added in buffer order, the table entry ``G_s @ z``,
Y moved by the new entry and then by the stored one, and the broadcast
``M_i @ [z_hat | Y]`` with M_i = [[I, -diag(eta1 I_d, eta2 I_d) / m],
[0, I / out_degree]]. The paper's form of the same step
(``helpers.paper_activate``) agrees with it to rounding. The benchmark's
tracer must also still find every name it wraps.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from asyncsag import cli, graph, mspbe, protocol, simulator
from asyncsag.protocol import PayloadTable
from helpers import (assert_traces_equal, build_problem, paper_arithmetic,
                     sample_map)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def reference_saddle_gradient(z, linear, offset):
    return linear @ z + offset


def random_stats(rng, d, scale=1.0):
    return mspbe.SampleStats(scale * rng.normal(size=d),
                             scale * rng.normal(size=d),
                             float(scale * rng.normal()))


def reference_push(eta1, eta2, m, out_degree, d):
    """M_i = [[I, -diag(eta1 I_d, eta2 I_d) / m], [0, I / out_degree]]."""
    eye = np.eye(2 * d)
    steps = np.diag(np.repeat([eta1, eta2], d))
    return np.block([[eye, -steps / m], [np.zeros((2 * d, 2 * d)),
                                          eye / out_degree]])


def reference_activate(node, payloads, row, pick, push):
    """One activation of ``node`` whose broadcast map is ``push``."""
    if not node.buffer:
        raise RuntimeError("empty buffer")
    width = payloads.y.shape[1]
    # the buffered rows summed in buffer order, the sum of one row being
    # that row (np.sum over the stacked rows starts at +0.0, which would
    # turn a column of -0.0 into +0.0)
    stacked = [payloads.rows[r] for r in node.buffer]
    total = functools.reduce(np.add, stacked[1:], stacked[0].copy())
    z_hat = total[:width] / len(node.buffer)
    fresh = node.linear[pick] @ z_hat
    y_new = total[width:] + fresh - node.table[pick]
    node.table[pick] = fresh
    payloads.rows[row] = push @ np.concatenate([z_hat, y_new])
    payloads.y[row] = y_new
    node.buffer = [row]
    return z_hat


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def unchanged_payloads(activate):
    """``activate`` that fails when it writes to a payload row other than its
    own broadcast's."""
    def checked(node, payloads, row, *args, **kwargs):
        columns = (payloads.rows, payloads.y)
        before = [np.delete(col, row, axis=0).tobytes() for col in columns]
        result = activate(node, payloads, row, *args, **kwargs)
        after = [np.delete(col, row, axis=0).tobytes() for col in columns]
        assert after == before, "activate wrote to another payload row"
        return result
    return checked


# the nine topology and schedule cases
TOPOLOGIES = pytest.mark.parametrize("topology,n", [("ring", 5),
                                                    ("exponential", 6),
                                                    ("grid", 9)])
SCHEDULES = pytest.mark.parametrize("kind", ["round_robin", "uniform_random",
                                             "straggler"])


def case_runs(topology, n, kind):
    """The ``run_async`` arguments (problem, graph, schedule, delays,
    steps) of one topology and schedule case, once per delay kind; the
    straggler is the node with the most in-neighbours, so its buffer fills
    up between its activations."""
    prob = build_problem(n=n, length=40, num_states=12)
    g = graph.generate_topology(topology, n)
    straggler = int(g.adj.sum(axis=0).argmax())
    sched = simulator.ActivationSchedule(
        kind=kind, n=n, straggler_node=straggler if kind == "straggler" else None,
        straggler_factor=4.0 if kind == "straggler" else 1.0)
    for delay_kind, d_max in (("zero", 0), ("uniform", 3), ("round_barrier", 2)):
        yield (prob, g, sched, simulator.DelayModel(delay_kind, d_max), 0.05,
               0.4)


@TOPOLOGIES
@SCHEDULES
def test_run_async_bits_equal_reference_arithmetic(monkeypatch, topology, n,
                                                   kind):
    longest = 0
    for args in case_runs(topology, n, kind):
        prob, g, *_, eta1, eta2 = args
        kwargs = dict(seed=11, max_events=150)
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "activate",
                          unchanged_payloads(protocol.activate))
            fast = simulator.run_async(*args, **kwargs)
        push = [reference_push(eta1, eta2, prob.m, degree, prob.d)
                for degree in g.adj.sum(axis=1).tolist()]
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "activate",
                          lambda node, *rest: reference_activate(
                              node, *rest, push[node.node_id]))
            slow = simulator.run_async(*args, **kwargs)
        assert_traces_equal(fast, slow)
        consumed = fast.messages.consumed_at
        longest = max(longest, 1 + int(np.bincount(
            consumed[consumed >= 0]).max(initial=0)))
    if kind == "straggler":
        assert longest >= 8   # the in-place sums ran over long buffers


@TOPOLOGIES
@SCHEDULES
def test_run_async_broadcasts_match_the_paper_arithmetic(topology, n, kind):
    """The offset-free table and the tracker in units of m change only the
    rounding: every broadcast is within 1e-12 max|z_tilde| of the paper's
    form, on the same plan."""
    for args in case_runs(topology, n, kind):
        kwargs = dict(seed=11, max_events=150)
        fast = simulator.run_async(*args, **kwargs)
        with paper_arithmetic():
            paper = simulator.run_async(*args, **kwargs)
        assert_traces_equal(dataclasses.replace(fast, z_tilde=paper.z_tilde),
                            paper)
        scale = np.abs(paper.z_tilde).max()
        assert scale > 0
        assert np.abs(fast.z_tilde - paper.z_tilde).max() <= 1e-12 * scale


def test_overflowing_run_ends_all_nan_in_both_forms():
    """Steps far past the stable range (eta1 = 50, eta2 = 800) overflow
    in both forms, on the same events: the same broadcasts hold a
    non-finite entry, the same ones are nan in every entry, and so is the
    last."""
    prob = build_problem(n=5, length=40, num_states=12)
    args = (prob, graph.generate_topology("ring", 5),
            simulator.ActivationSchedule("uniform_random", 5),
            simulator.DelayModel("uniform", 3), 50.0, 800.0)
    with np.errstate(all="ignore"):
        fast = simulator.run_async(*args, seed=11, max_events=1500)
        with paper_arithmetic():
            paper = simulator.run_async(*args, seed=11, max_events=1500)
    for test in (np.isfinite, np.isnan):
        rows = [test(trace.z_tilde).all(axis=1) for trace in (fast, paper)]
        assert np.array_equal(*rows)
        assert 0 < rows[0].sum() < 1500
    assert np.isnan(fast.z_tilde[-1]).all()


def test_activate_matches_reference_on_shared_payloads():
    rng = np.random.default_rng(5)
    d = 4
    stats = [random_stats(rng, d) for _ in range(3)]
    maps = mspbe.ProblemSpec((tuple(stats),), 0.1).maps
    push = reference_push(0.05, 0.4, 7, 3, d)
    for length in range(1, 10):
        rows = 1 + length + 1
        z = rng.normal(size=(rows, 2 * d))
        y = rng.normal(size=(rows, 2 * d))
        degree = rng.integers(1, 4, size=(rows, 1))
        # entries stored at earlier evaluations
        stored = rng.normal(size=(3, 2 * d))
        sides = []
        for _ in range(2):
            payloads = PayloadTable.empty(rows, 2 * d)
            node = protocol.init_node(0, *maps, 3, 7, 0.05, 0.4, payloads,
                                      row=0)
            node.table = list(stored.copy())
            payloads.rows[1:] = np.hstack([z, y / degree])[1:]
            payloads.y[1:] = y[1:]
            # one row may sit in a buffer twice, as a duplicate delivery does
            node.buffer += list(range(1, 1 + length)) + [1]
            (pick,) = protocol.sample_picks(3, protocol.selector_rng(1, 0),
                                            1).tolist()
            sides.append((node, payloads, pick))
        (fast_node, fast_rows, pick), (slow_node, slow_rows, _) = sides
        fast = unchanged_payloads(protocol.activate)(fast_node, fast_rows,
                                                     rows - 1, pick)
        slow = reference_activate(slow_node, slow_rows, rows - 1, pick, push)
        assert same_bits(fast, slow)
        # the broadcast z and Y are compared as the payload rows below; the
        # table is a list of rows, one per local sample
        assert len(fast_node.table) == len(slow_node.table) == 3
        for got, want in zip(fast_node.table, slow_node.table):
            assert same_bits(got, want)
        for name in ("rows", "y"):
            assert same_bits(getattr(fast_rows, name),
                             getattr(slow_rows, name)), name
        assert fast_node.buffer == slow_node.buffer == [rows - 1]


# payload entries: ordinary values and the IEEE cases that arithmetic can
# reach, signed zero, infinities, nan and subnormals
ENTRIES = st.one_of(st.floats(-1e3, 1e3),
                    st.sampled_from([-0.0, np.inf, -np.inf, np.nan, 5e-324,
                                     -2.5e-310, 1e-308]))


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 3), degree=st.integers(1, 4),
       buffer=st.lists(st.integers(0, 5), min_size=1, max_size=9),
       etas=st.tuples(st.sampled_from([0.05, 0.07, 0.4]),
                      st.sampled_from([0.4, 1.12, 3.0])),
       data=st.data())
def test_activate_matches_reference_on_any_entries(d, degree, buffer, etas,
                                                   data):
    # six readable rows, duplicates in the buffer included, and row 6 for
    # the broadcast
    entries = data.draw(hnp.arrays(np.float64, (6, 4 * d), elements=ENTRIES))
    trackers = data.draw(hnp.arrays(np.float64, (6, 2 * d), elements=ENTRIES))
    stored = data.draw(hnp.arrays(np.float64, (3, 2 * d), elements=ENTRIES))
    rng = np.random.default_rng(d)
    maps = mspbe.ProblemSpec((tuple(random_stats(rng, d) for _ in range(3)),),
                             0.1).maps
    pick = data.draw(st.integers(0, 2))
    push = reference_push(*etas, 5, degree, d)
    sides = []
    for _ in range(2):
        payloads = PayloadTable.empty(7, 2 * d)
        node = protocol.init_node(0, *maps, degree, 5, *etas, payloads, row=0)
        payloads.rows[:6], payloads.y[:6] = entries, trackers
        node.table = list(stored.copy())
        node.buffer = list(buffer)
        sides.append((node, payloads))
    (fast_node, fast_rows), (slow_node, slow_rows) = sides
    with np.errstate(all="ignore"):
        fast = protocol.activate(fast_node, fast_rows, 6, pick)
        slow = reference_activate(slow_node, slow_rows, 6, pick, push)
    assert same_bits(fast, slow)
    for name in ("rows", "y"):
        assert same_bits(getattr(fast_rows, name), getattr(slow_rows, name))
    assert len(fast_node.table) == len(slow_node.table) == 3
    for got, want in zip(fast_node.table, slow_node.table):
        assert same_bits(got, want)
    # IEEE: the product adds 0 * v_j for every entry v_j that M_i does not
    # weigh, so a finite [z_hat | Y] gives every copy 1/out_degree times Y,
    # and a non-finite v_j (0 * inf is nan) makes nan every entry whose
    # weight on it is 0
    pulled = np.concatenate([fast, fast_rows.y[6]])
    broadcast = fast_rows.rows[6]
    if np.isfinite(pulled).all():
        with np.errstate(all="ignore"):
            assert np.array_equal(broadcast[2 * d:],
                                  (1 / degree) * fast_rows.y[6])
    for j in np.flatnonzero(~np.isfinite(pulled)).tolist():
        assert np.isnan(broadcast[push[:, j] == 0]).all()


def test_saddle_gradient_matches_reference():
    rng = np.random.default_rng(3)
    for d in (1, 2, 3, 5, 8, 17, 64):
        for _ in range(20):
            maps = sample_map(random_stats(rng, d, 10.0 ** rng.integers(-6, 7)),
                              0.1)
            z = rng.normal(size=2 * d) * 10.0 ** rng.integers(-6, 7)
            assert same_bits(mspbe.saddle_gradient(z, *maps),
                             reference_saddle_gradient(z, *maps))
        with pytest.raises(ValueError):
            mspbe.saddle_gradient(np.zeros(2 * d + 1), *maps)


def test_bench_tracer_wraps_the_hot_path(monkeypatch, tmp_path, capsys):
    # bench/tracer.py is imported as it is; its dataclasses need the module
    # to be registered while it runs
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  BENCH / "tracer.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    # several planned blocks, so that the per-block counts are not all 1
    monkeypatch.setattr(simulator, "_PLAN_BLOCK", 64)
    tracer = tracing.Tracer()
    tracing.install(tracer, full=True)
    try:
        code = cli.main(["run", "--config", str(BENCH / "tiny.ini"),
                         "--out", str(tmp_path)])
    finally:
        left = tracer.restore()
    capsys.readouterr()
    assert left == []
    assert code == cli.EXIT_OK
    # each wrapper saw every call the one simulated trace implies
    trace = tracer.observed["trace"]
    calls = {name: span.calls for name, span in tracer.stats.items()}
    assert calls["simulator.run_async"] == 1
    assert calls["protocol.activate"] == trace.num_events
    # the series comes from the wrapped reduction and is written once
    assert calls["simulator.metrics"] >= 1
    assert calls["simulator.write_metrics_csv"] == 1
    # the schedule is drawn once per run, the delays once per planned block
    blocks = math.ceil(trace.num_events / simulator._PLAN_BLOCK)
    assert blocks > 1
    assert calls["simulator.schedule_next"] == 1
    assert calls["simulator.delay_draw"] == blocks
    received = sum(msg.consumed_at is not None for msg in trace.messages)
    assert calls["protocol.on_receive"] == received
    # the run refreshes each table entry as G_s z, without the offset, and
    # calls the gradient map not once; the protocol keeps the binding that
    # the tracer wraps
    assert calls["mspbe.saddle_gradient"] == 0
    # the activate probe reads len(node.buffer) before each pull: the own
    # copy and the messages received
    assert tracer.observed["buffer_len_sum"] == trace.num_events + received


def test_bench_selftest_passes():
    # a refactor that stops calling a name the tracer wraps fails here, not
    # only in a traced benchmark run
    proc = subprocess.run([sys.executable, "bench/selftest.py"],
                          cwd=BENCH.parent, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
