"""Contracts of the simulator's per-event path.

The activation and the per-sample gradient are written for speed (in-place
sums, one output buffer). They must give the same bits as the plain numpy
expressions below, which are kept here as the reference: ``np.mean`` and
``np.sum`` over the stacked buffer, a block step per half, and
``np.concatenate`` of the two gradient blocks. The benchmark's tracer must
also still find every name it wraps.
"""

from __future__ import annotations

import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from asyncsag import cli, graph, mspbe, protocol, simulator
from asyncsag.protocol import PayloadTable
from helpers import assert_traces_equal, build_problem

BENCH = Path(__file__).resolve().parents[1] / "bench"


def reference_saddle_gradient(z, stats, rho):
    d = stats.phi.shape[0]
    if z.shape != (2 * d,):
        raise ValueError(f"z must have length {2 * d}, got shape {z.shape}")
    theta, omega = z[:d], z[d:]
    u = stats.phi @ omega
    g_theta = stats.psi * u + rho * theta
    g_omega = stats.phi * (u + stats.reward - stats.psi @ theta)
    return np.concatenate([g_theta, g_omega])


def random_stats(rng, d, scale=1.0):
    return mspbe.SampleStats(scale * rng.normal(size=d),
                             scale * rng.normal(size=d),
                             float(scale * rng.normal()))


def reference_activate(node, payloads, row, pick, eta1, eta2):
    if not node.buffer:
        raise RuntimeError("empty buffer")
    z_hat = np.mean([payloads.z[r] for r in node.buffer], axis=0)
    y_new = np.sum([payloads.y[r] / int(payloads.degree[r])
                    for r in node.buffer], axis=0)

    fresh = reference_saddle_gradient(z_hat, node.stats[pick], node.rho)
    y_new += (fresh - node.table[pick]) / node.m_global
    node.table[pick] = fresh

    d = z_hat.shape[0] // 2
    z_tilde = z_hat.copy()
    z_tilde[:d] -= eta1 * y_new[:d]
    z_tilde[d:] -= eta2 * y_new[d:]

    payloads.z[row] = z_tilde
    payloads.y[row] = y_new
    payloads.degree[row] = node.out_degree
    node.buffer = [row]
    return z_hat


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def unchanged_payloads(activate):
    """``activate`` that fails when it writes to a payload row other than its
    own broadcast's."""
    def checked(node, payloads, row, *args, **kwargs):
        columns = (payloads.z, payloads.y, payloads.degree)
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
    straggler = max(range(n), key=lambda v: len(g.in_neighbors(v)))
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
    for length in range(1, 10):
        rows = 1 + length + 1
        z = rng.normal(size=(rows, 2 * d))
        y = rng.normal(size=(rows, 2 * d))
        degree = rng.integers(1, 4, size=rows).astype(float)
        sides = []
        for _ in range(2):
            payloads = PayloadTable.empty(rows, 2 * d)
            selector = protocol.SampleSelector(3, protocol.selector_rng(1, 0))
            node = protocol.init_node(0, stats, 3, 7, 0.1, selector,
                                      payloads, row=0)
            payloads.z[1:], payloads.y[1:] = z[1:], y[1:]
            payloads.degree[1:] = degree[1:]
            # one row may sit in a buffer twice, as a duplicate delivery does
            node.buffer += list(range(1, 1 + length)) + [1]
            (pick,) = node.selector.take(1).tolist()
            sides.append((node, payloads, pick))
        (fast_node, fast_rows, pick), (slow_node, slow_rows, _) = sides
        fast = unchanged_payloads(protocol.activate)(fast_node, fast_rows,
                                                     rows - 1, pick, 0.05, 0.4)
        slow = reference_activate(slow_node, slow_rows, rows - 1, pick,
                                  0.05, 0.4)
        assert same_bits(fast, slow)
        # the broadcast z and y are compared as the payload rows below
        assert same_bits(fast_node.table, slow_node.table)
        for name in ("z", "y", "degree"):
            assert same_bits(getattr(fast_rows, name),
                             getattr(slow_rows, name)), name
        assert fast_node.buffer == slow_node.buffer == [rows - 1]


def test_saddle_gradient_matches_reference():
    rng = np.random.default_rng(3)
    for d in (1, 2, 3, 5, 8, 17, 64):
        for _ in range(20):
            stats = random_stats(rng, d, 10.0 ** rng.integers(-6, 7))
            z = rng.normal(size=2 * d) * 10.0 ** rng.integers(-6, 7)
            assert same_bits(mspbe.saddle_gradient(z, stats, 0.1),
                             reference_saddle_gradient(z, stats, 0.1))
        with pytest.raises(ValueError):
            mspbe.saddle_gradient(np.zeros(2 * d + 1), stats, 0.1)


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
    # the schedule and the delays are drawn once per planned block
    blocks = math.ceil(trace.num_events / simulator._PLAN_BLOCK)
    assert blocks > 1
    assert calls["simulator.schedule_next"] == blocks
    assert calls["simulator.delay_draw"] == blocks
    received = sum(msg.consumed_at is not None for msg in trace.messages)
    assert calls["protocol.on_receive"] == received
    # the initial tables, then one refresh per drawn sample
    assert calls["mspbe.saddle_gradient"] == sum(trace.m_i) + trace.samples.size
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
