"""Contracts of the simulator's per-event path.

The activation and the per-sample gradient are written for speed (in-place
sums over payload rows [z | share], one division for the mean and one for
the broadcast, outputs written into their row). They must give the same
bits as the plain numpy expressions below, which are kept here as the
reference: the mean of the buffered z and the sum of the buffered shares,
each added in buffer order, the gradient map ``G_s @ z + g_s``, a block
step per half, and the share ``y_new / out_degree``. The benchmark's tracer
must also still find every name it wraps.
"""

from __future__ import annotations

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
from helpers import assert_traces_equal, build_problem, sample_map

BENCH = Path(__file__).resolve().parents[1] / "bench"


def reference_saddle_gradient(z, linear, offset):
    return linear @ z + offset


def random_stats(rng, d, scale=1.0):
    return mspbe.SampleStats(scale * rng.normal(size=d),
                             scale * rng.normal(size=d),
                             float(scale * rng.normal()))


def reference_activate(node, payloads, row, pick, eta1, eta2):
    if not node.buffer:
        raise RuntimeError("empty buffer")
    width = payloads.y.shape[1]
    # the buffered rows summed in buffer order, the sum of one row being
    # that row (np.sum over the stacked rows starts at +0.0, which would
    # turn a column of -0.0 into +0.0)
    stacked = [payloads.rows[r] for r in node.buffer]
    total = functools.reduce(np.add, stacked[1:], stacked[0].copy())
    z_hat = total[:width] / len(node.buffer)
    y_new = total[width:]

    fresh = reference_saddle_gradient(z_hat, node.linear[pick],
                                      node.offset[pick])
    y_new += (fresh - node.table[pick]) / node.m_global
    node.table[pick] = fresh

    d = width // 2
    z_tilde = z_hat.copy()
    z_tilde[:d] -= eta1 * y_new[:d]
    z_tilde[d:] -= eta2 * y_new[d:]

    # the node's divisor ends in its out-degree
    payloads.rows[row] = np.concatenate([z_tilde, y_new / node.divisor[-1]])
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


@pytest.mark.parametrize("topology,n", [("ring", 5), ("exponential", 6),
                                        ("grid", 9)])
@pytest.mark.parametrize("kind", ["round_robin", "uniform_random", "straggler"])
def test_run_async_bits_equal_reference_arithmetic(monkeypatch, topology, n,
                                                   kind):
    prob = build_problem(n=n, length=40, num_states=12)
    g = graph.generate_topology(topology, n)
    # the straggler is the node with the most in-neighbours, so its buffer
    # fills up between its activations
    straggler = int(g.adj.sum(axis=0).argmax())
    sched = simulator.ActivationSchedule(
        kind=kind, n=n, straggler_node=straggler if kind == "straggler" else None,
        straggler_factor=4.0 if kind == "straggler" else 1.0)
    longest = 0
    for delay_kind, d_max in (("zero", 0), ("uniform", 3), ("round_barrier", 2)):
        args = (prob, g, sched, simulator.DelayModel(delay_kind, d_max),
                0.05, 0.4)
        kwargs = dict(seed=11, max_events=150)
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "activate",
                          unchanged_payloads(protocol.activate))
            fast = simulator.run_async(*args, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "activate", reference_activate)
            patch.setattr(protocol, "saddle_gradient",
                          reference_saddle_gradient)
            slow = simulator.run_async(*args, **kwargs)
        assert_traces_equal(fast, slow)
        consumed = fast.messages.consumed_at
        longest = max(longest, 1 + int(np.bincount(
            consumed[consumed >= 0]).max(initial=0)))
    if kind == "straggler":
        assert longest >= 8   # the in-place sums ran over long buffers


def test_activate_matches_reference_on_shared_payloads():
    rng = np.random.default_rng(5)
    d = 4
    stats = [random_stats(rng, d) for _ in range(3)]
    maps = mspbe.ProblemSpec((tuple(stats),), 0.1).maps
    for length in range(1, 10):
        rows = 1 + length + 1
        z = rng.normal(size=(rows, 2 * d))
        y = rng.normal(size=(rows, 2 * d))
        degree = rng.integers(1, 4, size=(rows, 1))
        sides = []
        for _ in range(2):
            payloads = PayloadTable.empty(rows, 2 * d)
            node = protocol.init_node(0, *maps, 3, 7, payloads, row=0)
            payloads.rows[1:] = np.hstack([z, y / degree])[1:]
            payloads.y[1:] = y[1:]
            # one row may sit in a buffer twice, as a duplicate delivery does
            node.buffer += list(range(1, 1 + length)) + [1]
            (pick,) = protocol.sample_picks(3, protocol.selector_rng(1, 0),
                                            1).tolist()
            sides.append((node, payloads, pick))
        (fast_node, fast_rows, pick), (slow_node, slow_rows, _) = sides
        fast = unchanged_payloads(protocol.activate)(fast_node, fast_rows,
                                                     rows - 1, pick, 0.05, 0.4)
        slow = reference_activate(slow_node, slow_rows, rows - 1, pick,
                                  0.05, 0.4)
        assert same_bits(fast, slow)
        # the broadcast z and y are compared as the payload rows below; the
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
    rng = np.random.default_rng(d)
    maps = mspbe.ProblemSpec((tuple(random_stats(rng, d) for _ in range(3)),),
                             0.1).maps
    pick = data.draw(st.integers(0, 2))
    sides = []
    for _ in range(2):
        payloads = PayloadTable.empty(7, 2 * d)
        node = protocol.init_node(0, *maps, degree, 5, payloads, row=0)
        payloads.rows[:6], payloads.y[:6] = entries, trackers
        node.buffer = list(buffer)
        sides.append((node, payloads))
    (fast_node, fast_rows), (slow_node, slow_rows) = sides
    with np.errstate(all="ignore"):
        fast = protocol.activate(fast_node, fast_rows, 6, pick, *etas)
        slow = reference_activate(slow_node, slow_rows, 6, pick, *etas)
    assert same_bits(fast, slow)
    for name in ("rows", "y"):
        assert same_bits(getattr(fast_rows, name), getattr(slow_rows, name))
    assert len(fast_node.table) == len(slow_node.table) == 3
    for got, want in zip(fast_node.table, slow_node.table):
        assert same_bits(got, want)
    # every copy carries the tracker divided by the drawn out-degree
    assert same_bits(fast_rows.rows[6, 2 * d:], fast_rows.y[6] / degree)


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
    # one refresh per drawn sample; the initial tables are the maps'
    # offsets, the gradient at z = 0, and call nothing
    assert calls["mspbe.saddle_gradient"] == trace.samples.size
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
