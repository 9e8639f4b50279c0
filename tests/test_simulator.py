"""Discrete-event engine: schedules, delays, determinism, certification of
the bounded-asynchrony window, metrics, and trace serialization."""

from __future__ import annotations

import numpy as np
import pytest

from asyncsag import graph, mdp, mspbe, simulator


def build_problem(seed=0, n=3, d=3, length=31, rho=0.1, gamma=0.9,
                  num_states=10):
    m = mdp.build_random_mdp(num_states, 2, 1, seed, gamma=gamma)
    policy = mdp.random_policy(num_states, 2, seed)
    traj = mdp.sample_trajectory(m, policy, length, seed)
    feats = mdp.make_feature_map(num_states, d, seed)
    per_node = mdp.partition_samples(traj, feats, "parallel", n)
    return mspbe.problem_from_samples(per_node, rho, gamma)


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


def test_same_seed_gives_byte_identical_traces(tmp_path):
    _, a = small_run(seed=11)
    _, b = small_run(seed=11)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    simulator.dump_trace(a, pa)
    simulator.dump_trace(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    _, c = small_run(seed=12)
    assert not np.array_equal(a.final_z, c.final_z)


def test_round_robin_alternates_in_node_order():
    _, trace = small_run(kind="round_robin", n=4, max_events=23)
    for ev in trace.events:
        assert ev.node == (ev.k - 1) % 4


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
    trace = simulator.run_async(prob, g, sched, simulator.DelayModel(),
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
        for ev in trace.events:
            for origin, sent_event in ev.result.consumed:
                assert sent_event < ev.k


def test_per_edge_delay_table():
    prob = build_problem(n=2)
    g = graph.generate_topology("ring", 2)
    sched = simulator.ActivationSchedule(kind="round_robin", n=2)
    delays = simulator.DelayModel(kind="per_edge", d_max=4,
                                  table={(0, 1): 3})
    trace = simulator.run_async(prob, g, sched, delays, 0.01, 0.1, seed=1,
                                max_events=30)
    for msg in trace.messages:
        expected = 3 if (msg.origin, msg.dest) == (0, 1) else 0
        assert msg.deliver_at - msg.sent_at == expected


def test_every_delivered_message_is_consumed_promptly():
    """A message in slot t must be absorbed by its destination's first
    activation after t."""
    _, trace = small_run(seed=9, max_events=100, d_max=2)
    acts_by_node = {}
    for ev in trace.events:
        acts_by_node.setdefault(ev.node, []).append(ev.k)
    horizon = trace.num_events
    for msg in trace.messages:
        later = [k for k in acts_by_node.get(msg.dest, [])
                 if k > msg.deliver_at]
        if later:
            assert msg.consumed_at == later[0]
        elif msg.deliver_at < horizon:
            assert msg.consumed_at is None


def test_bmax_starvation_raises_naming_node():
    prob = build_problem(n=2)
    g = graph.generate_topology("ring", 2)
    sched = simulator.ActivationSchedule(kind="round_robin", n=2)
    with pytest.raises(simulator.AssumptionViolation) as err:
        simulator.run_async(prob, g, sched, simulator.DelayModel(),
                            0.01, 0.1, seed=1, max_events=30, b_max=1)
    assert err.value.node == 1
    assert "node 1" in str(err.value)


def test_rejects_disconnected_graph_and_size_mismatch():
    prob = build_problem(n=3)
    lonely = graph.DirectedGraph(3, [(0, 1), (1, 0)])  # node 2 unreachable
    sched = simulator.ActivationSchedule(kind="round_robin", n=3)
    with pytest.raises(ValueError):
        simulator.run_async(prob, lonely, sched, simulator.DelayModel(),
                            0.01, 0.1, seed=0, max_events=5)
    with pytest.raises(ValueError):
        simulator.run_async(prob, graph.generate_topology("ring", 4), sched,
                            simulator.DelayModel(), 0.01, 0.1, seed=0,
                            max_events=5)


def test_epsilon_stop_reports_reason():
    _, trace = small_run(seed=2, max_events=50, epsilon=1e9)
    assert trace.stop_reason == "epsilon"
    assert trace.num_events == 1
    _, full = small_run(seed=2, max_events=50)
    assert full.stop_reason == "max_events"
    assert full.num_events == 50


def test_metrics_series_shape_and_initial_row():
    prob, trace = small_run(seed=4, max_events=40)
    z_star = mspbe.solve_problem(prob)
    series = simulator.metrics(trace, z_star)
    assert series.k.shape == (41,)
    assert series.k[0] == 0 and series.node[0] == -1
    assert series.event_type[0] == "init"
    init_err = np.linalg.norm(trace.z0 - z_star, axis=1)
    assert np.isclose(series.err_max[0], init_err.max())
    assert np.isclose(series.err_mean[0], init_err.mean())
    # rows track the activator's published state
    z_cur = trace.z0.copy()
    for idx, ev in enumerate(trace.events, start=1):
        z_cur[ev.node] = ev.result.z_tilde
        errs = np.linalg.norm(z_cur - z_star, axis=1)
        assert np.isclose(series.err_max[idx], errs.max())


def test_metrics_csv_header_and_row_count(tmp_path):
    prob, trace = small_run(seed=4, max_events=25)
    series = simulator.metrics(trace, mspbe.solve_problem(prob))
    path = tmp_path / "metrics.csv"
    simulator.write_metrics_csv(series, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,node,event_type,err_max,err_mean,y_norm_max"
    assert len(lines) == 26 + 1
    # floats are repr round-trippable
    first = lines[1].split(",")
    assert float(first[3]) == series.err_max[0]


def test_rate_fit_recovers_synthetic_decay():
    k = np.arange(400)
    err = 3.0 * 0.9 ** k
    fit = simulator.estimate_rate(err)
    assert abs(fit.c_hat - 0.9) < 1e-12
    assert fit.r_squared > 1 - 1e-12
    assert abs(fit.max_window_ratio - 0.9) < 1e-12
    with pytest.raises(ValueError):
        simulator.estimate_rate(err[:50])


def test_trace_round_trip(tmp_path):
    _, trace = small_run(seed=13, max_events=35)
    path = tmp_path / "trace.jsonl"
    simulator.dump_trace(trace, path)
    loaded = simulator.load_trace(path)
    assert loaded.n == trace.n and loaded.d == trace.d
    assert loaded.m_i == trace.m_i
    assert loaded.seed == trace.seed
    assert loaded.graph.edges == trace.graph.edges
    assert np.array_equal(loaded.final_z, trace.final_z)
    assert np.array_equal(loaded.final_y, trace.final_y)
    assert loaded.num_events == trace.num_events
    for a, b in zip(loaded.events, trace.events):
        assert (a.k, a.node) == (b.k, b.node)
        assert a.result.samples == b.result.samples
        assert a.result.consumed == b.result.consumed
        assert np.array_equal(a.result.z_tilde, b.result.z_tilde)
    assert len(loaded.messages) == len(trace.messages)
    for a, b in zip(loaded.messages, trace.messages):
        assert (a.origin, a.dest, a.sent_at, a.deliver_at, a.consumed_at) == \
               (b.origin, b.dest, b.sent_at, b.deliver_at, b.consumed_at)
        assert np.array_equal(a.y_tilde, b.y_tilde)
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"format": "something else"}\n')
        simulator.load_trace(bad)


def test_sync_round_structure_and_wall_model():
    prob = build_problem(n=3)
    g = graph.generate_topology("ring", 3)
    trace = simulator.run_sync(prob, g, rounds=8, eta1=0.01, eta2=0.1, seed=5)
    assert trace.num_events == 24
    for ev in trace.events:
        assert ev.node == (ev.k - 1) % 3
        # each node pulls its own previous broadcast, then its in-neighbours'
        # broadcasts of the previous round in ascending order (event 0 in
        # round 1), and nothing from the current round
        r = (ev.k - 1) // 3 + 1
        last = [0] * 3 if r == 1 else [(r - 2) * 3 + v + 1 for v in range(3)]
        peers = [j for j in g.in_neighbors(ev.node) if j != ev.node]
        assert ev.result.consumed == tuple(
            (v, last[v]) for v in [ev.node] + sorted(peers))
    assert trace.wall_time_per_round == [1.0] * 8
    slowed = simulator.run_sync(prob, g, rounds=8, eta1=0.01, eta2=0.1,
                                seed=5, straggler=(1, 10.0))
    assert slowed.wall_time_per_round == [10.0] * 8
    # a straggler changes the wall clock, never the mathematics
    assert np.array_equal(slowed.final_z, trace.final_z)
    with pytest.raises(ValueError):
        simulator.run_sync(prob, g, rounds=4, eta1=0.01, eta2=0.1, seed=5,
                           straggler=(7, 10.0))
