"""Delay-register matrix replay: stochasticity, equivalence with the event
simulator, mass tracking, contraction products, and rate constants."""

from __future__ import annotations

import dataclasses
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from asyncsag import augmented, cli, graph, mspbe, simulator
from asyncsag.mspbe import SpectralConstants
from helpers import build_problem, graph_constants, initial_z, tracker_bounds
from test_plan_oracle import heap_run_async


def run_pair(seed=7, n=3, max_events=80, eta1=0.01, zeta=10.0, d_max=2,
             batch_size=1, kind="uniform_random"):
    prob = build_problem(n=n)
    g = graph.generate_topology("ring", n)
    sched = simulator.ActivationSchedule(kind=kind, n=n)
    delays = simulator.DelayModel(kind="uniform", d_max=d_max)
    trace = simulator.run_async(prob, g, sched, delays, eta1, eta1 * zeta,
                                seed=seed, max_events=max_events,
                                batch_size=batch_size)
    return prob, trace


def fake_spectral(alpha=0.5, beta=2.0, psi=1.0):
    return SpectralConstants(alpha=alpha, beta=beta, psi=psi, zeta_min=8.0,
                             zeta=10.0, g_eigs_real=True, valid=True,
                             g_max_eig=5.0)


def test_event_matrices_are_stochastic_every_event():
    _, trace = run_pair(seed=3, max_events=60)
    b = simulator.verify_assumption1b(trace)
    for k in range(1, trace.num_events + 1):
        mats = augmented.build_event_matrices(trace, k, b=b)
        assert (np.min(mats.h_row.toarray()) >= 0
                and np.min(mats.h_col.toarray()) >= 0)
        assert np.max(np.abs(mats.h_row.sum(axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(mats.h_col.sum(axis=0) - 1.0)) <= 1e-12
        # the activation indicator selects exactly the activator's real row
        i = trace.node[k - 1]
        expected = np.zeros_like(mats.i_act.toarray())
        expected[i, i] = 1.0
        assert np.array_equal(mats.i_act.toarray(), expected)


def test_event_matrices_take_linear_memory():
    """Sparse storage: one event's three matrices take O(ntilde) bytes
    (dense storage would take 24 * ntilde**2)."""
    _, trace = run_pair(seed=3, max_events=60)
    b = simulator.verify_assumption1b(trace)
    ntilde = trace.n * (b + 1)
    for k in range(1, trace.num_events + 1):
        mats = augmented.build_event_matrices(trace, k, b=b)
        total = mats.h_row.nbytes + mats.h_col.nbytes + mats.i_act.nbytes
        assert total < 100 * ntilde


@st.composite
def sparse_entries(draw):
    """Entries of a small square matrix: repeated positions, empty rows, and
    rows whose first weight differs from 1 all occur."""
    size = draw(st.integers(1, 6))
    count = draw(st.integers(0, 3 * size))
    index = st.integers(0, size - 1)
    rows = draw(st.lists(index, min_size=count, max_size=count))
    cols = draw(st.lists(index, min_size=count, max_size=count))
    weights = draw(st.lists(
        st.sampled_from([1.0, 0.5, 1.0 / 3.0, -2.0, 0.1])
        | st.floats(-4.0, 4.0, allow_nan=False),
        min_size=count, max_size=count))
    return size, rows, cols, weights


@settings(max_examples=200, deadline=None)
@given(sparse_entries(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_sparse_matrix_matches_dense(entries, width, seed):
    size, rows, cols, weights = entries
    dense = np.zeros((size, size))
    for row, col, weight in zip(rows, cols, weights):
        dense[row, col] += weight
    mat = augmented.SparseMatrix.from_entries(rows, cols, weights, size)
    assert mat.shape == (size, size)
    assert np.array_equal(mat.toarray(), dense)
    assert np.all(np.diff(mat.rows) >= 0)
    assert len(set(zip(mat.rows.tolist(), mat.cols.tolist()))) == mat.rows.size
    # both sides sum at most `size` rounded terms, in different orders, so
    # each may be off by size * eps of the sum of absolute terms
    slack = 2 * size * np.finfo(float).eps
    tiny = np.finfo(float).tiny
    rng = np.random.default_rng(seed)
    for operand in (rng.standard_normal(size),
                    rng.standard_normal((size, width))):
        bound = slack * (np.abs(dense) @ np.abs(operand)) + tiny
        assert np.all(np.abs(mat @ operand - dense @ operand) <= bound)
    for axis in (0, 1):
        bound = slack * np.abs(dense).sum(axis=axis) + tiny
        assert np.all(np.abs(mat.sum(axis=axis) - dense.sum(axis=axis))
                      <= bound)


def test_matrices_reject_out_of_range_event_and_small_window():
    _, trace = run_pair(seed=3, n=3, max_events=30, kind="round_robin",
                        d_max=0)
    b = simulator.verify_assumption1b(trace)
    with pytest.raises(ValueError):
        augmented.build_event_matrices(trace, 0, b)
    with pytest.raises(ValueError):
        augmented.build_event_matrices(trace, 31, b)
    # b = 1 is below the certified window of 3
    with pytest.raises(simulator.AssumptionViolation):
        for k in range(1, 31):
            augmented.build_event_matrices(trace, k, b=1)


def test_window_below_certified_names_the_idle_splitter():
    """Round robin on 3 nodes with instant delivery certifies b = 3. At
    b = 2 the two events after the initial split (nodes 0 and 1) hold no
    activation of node 2, so its own share has no register to wait in."""
    _, trace = run_pair(seed=3, n=3, max_events=30, kind="round_robin",
                        d_max=0)
    b = simulator.verify_assumption1b(trace)
    assert b == 3
    for k in range(1, trace.num_events + 1):
        augmented.build_event_matrices(trace, k, b)
    with pytest.raises(simulator.AssumptionViolation,
                       match="event 1: node 2 does not activate within the "
                             "2 events after event 0") as err:
        augmented.build_event_matrices(trace, 1, b - 1)
    assert err.value.node == 2


@pytest.mark.parametrize("d_max,b,k,origin,sent,age", [
    (0, 2, 3, 2, 0, 2),   # node 2's own initial copy
    (0, 2, 4, 0, 1, 2),   # node 0's own copy, from before the window
    (2, 3, 4, 2, 0, 3),   # node 2's initial broadcast, received by node 0
])
def test_window_below_certified_names_the_stale_reception(d_max, b, k, origin,
                                                          sent, age):
    """Round robin on 3 nodes certifies b = 3 with instant delivery and
    b = 5 with delays up to 2. Below it, the first payload in event k's
    buffer older than b - 1 events is named, whether it is the activator's
    own copy or a network reception."""
    _, trace = run_pair(seed=3, n=3, max_events=30, kind="round_robin",
                        d_max=d_max)
    assert simulator.verify_assumption1b(trace) == {0: 3, 2: 5}[d_max]
    own = origin == trace.node[k - 1]
    assert own == (d_max == 0)
    with pytest.raises(simulator.AssumptionViolation) as err:
        augmented.build_event_matrices(trace, k, b)
    assert str(err.value) == (
        f"event {k}: reception from node {origin} (event {sent}) is {age} "
        f"events old, exceeding the window b={b}")
    assert err.value.node == origin


def test_stale_receptions_are_named_in_buffer_order():
    """A straggler's buffer at event 73 holds node 1's broadcasts of events
    68 and 67, delivered in that order (slots 71 and 72). At b = 2 both are
    too old, and the one buffered first is named, not the one sent first."""
    trace = simulator.run_async(
        build_problem(n=4), graph.generate_topology("exponential", 4),
        simulator.ActivationSchedule("straggler", 4, straggler_node=0,
                                     straggler_factor=4.0),
        simulator.DelayModel("uniform", 5), 0.05, 0.4, seed=116244473,
        max_events=90)
    log = trace.messages
    rows = log.consumed_by(73)
    assert list(zip(log.origin[rows].tolist(), log.sent_at[rows].tolist(),
                    log.deliver_at[rows].tolist())) == [(1, 68, 71),
                                                        (1, 67, 72)]
    with pytest.raises(simulator.AssumptionViolation) as err:
        augmented.build_event_matrices(trace, 73, 2)
    assert str(err.value) == ("event 73: reception from node 1 (event 68) is "
                              "4 events old, exceeding the window b=2")
    assert err.value.node == 1


def _consumptions(trace, pulled):
    """(origin, sent event, receiver) -> the event that consumed it, over
    every consumption in the heap engine's buffers, self-copies included."""
    return {(origin, sent, receiver): k
            for k, (receiver, buffer) in enumerate(
                zip(trace.node.tolist(), pulled), start=1)
            for origin, sent in buffer}


def _push_matrix_by_dict(trace, consumed, k, b):
    """Reference for the push matrix of ``build_event_matrices``: every
    share that splits at event k, the splitter's own included, parks where
    the consumption dict says it was consumed, or on top for none."""
    n = trace.n
    ntilde = n * (b + 1)
    if k == 1:
        splitters = [(w, 0) for w in range(n)]
    else:
        splitters = [(int(trace.node[k - 2]), k - 1)]
    parked, origins, shares = [], [], []
    for w, sent in splitters:
        for dest in trace.graph.out_neighbors(w):
            used = consumed.get((w, sent, dest))
            parked.append((b if used is None else used - sent - 1) * n + dest)
            origins.append(w)
            shares.append(1.0 / trace.graph.out_degree(w))
    holders = [v for v in range(n) if v not in {w for w, _ in splitters}]
    return augmented.SparseMatrix.from_entries(
        holders + list(range(ntilde - n)) + parked,
        holders + list(range(n, ntilde)) + origins,
        [1.0] * (len(holders) + ntilde - n) + shares, ntilde)


def _pull_matrix_by_buffer(trace, buffer, k, b):
    """Reference for the pull matrix of ``build_event_matrices``: the
    activator's row averages the registers that hold the (origin, sent)
    payloads of its buffer, and every other row copies its source."""
    n = trace.n
    ntilde = n * (b + 1)
    i = int(trace.node[k - 1])
    others = [v for v in range(ntilde) if v != i]
    return augmented.SparseMatrix.from_entries(
        others + [i] * len(buffer),
        [v if v < n else v - n for v in others]
        + [(k - sent - 1) * n + origin for origin, sent in buffer],
        [1.0] * len(others) + [1.0 / len(buffer)] * len(buffer), ntilde)


def _certified_run_with_buffers(n, topology, kind, delay_kind, d_max,
                                batch_size, events, stop, seed):
    """A planned run, its certified b, and the heap engine's record of each
    event's buffer for the same run; ``stop`` > 0 picks the event by which
    an epsilon threshold is crossed. Rejects a run in which a node
    starves."""
    straggler = kind == "straggler"
    args = (build_problem(n=n), graph.generate_topology(topology, n),
            simulator.ActivationSchedule(
                kind=kind, n=n, straggler_node=0 if straggler else None,
                straggler_factor=5.0 if straggler else 1.0),
            simulator.DelayModel(kind=delay_kind, d_max=d_max), 0.05, 0.4)
    kwargs = dict(seed=seed, max_events=events, batch_size=batch_size)
    trace = simulator.run_async(*args, **kwargs)
    if 0 < stop <= events:
        kwargs["epsilon"] = min(tracker_bounds(trace)[:stop])
        trace = simulator.run_async(*args, **kwargs)
    try:
        b = simulator.verify_assumption1b(trace)
    except simulator.AssumptionViolation:
        reject()  # some node starves within the trace
    _, pulled = heap_run_async(*args, **kwargs)
    assert len(pulled) == trace.num_events
    return trace, b, pulled


RUNS = dict(
    n=st.integers(1, 6), topology=st.sampled_from(["ring", "exponential"]),
    kind=st.sampled_from(["round_robin", "uniform_random", "straggler"]),
    delay_kind=st.sampled_from(["zero", "uniform", "round_barrier"]),
    d_max=st.integers(0, 4), batch_size=st.integers(1, 2),
    events=st.integers(1, 120), stop=st.integers(0, 120),
    seed=st.integers(0, 2**32 - 1))


def _assert_same_bits(got, want, k):
    for name in ("rows", "cols", "weights"):
        a, w = getattr(got, name), getattr(want, name)
        assert a.dtype == w.dtype and a.tobytes() == w.tobytes(), (k, name)


@settings(max_examples=60, deadline=None)
@given(**RUNS)
def test_pull_matrices_equal_the_heap_engine_buffers(**run):
    """Reading each event's pull from the message log and the activator's
    latest activation gives, bit for bit, the pull matrix of the buffers
    that the heap engine recorded, also on traces stopped by epsilon."""
    trace, b, pulled = _certified_run_with_buffers(**run)
    for k, buffer in enumerate(pulled, start=1):
        _assert_same_bits(augmented.build_event_matrices(trace, k, b).h_row,
                          _pull_matrix_by_buffer(trace, buffer, k, b), k)


@settings(max_examples=60, deadline=None)
@given(**RUNS)
def test_push_matrices_equal_the_consumption_dict(**run):
    """Reading each share's consuming event from the message log and the
    splitter's next activation gives the push matrices of a dict built from
    the heap engine's buffers, bit for bit, also on traces stopped by
    epsilon."""
    trace, b, pulled = _certified_run_with_buffers(**run)
    consumed = _consumptions(trace, pulled)
    for k in range(1, trace.num_events + 1):
        _assert_same_bits(augmented.build_event_matrices(trace, k, b).h_col,
                          _push_matrix_by_dict(trace, consumed, k, b), k)


def test_replay_matches_simulator_to_machine_precision():
    prob, trace = run_pair(seed=11, max_events=90)
    states = list(augmented.replay(trace, prob))
    dev = max(augmented.check_equivalence(trace, s) for s in states)
    assert dev <= 1e-9  # observed ~1e-15; the contract allows 1e-9
    residuals = [augmented.tracking_residual(s) for s in states]
    assert np.max(residuals) <= 1e-9


def test_replay_matches_with_batches_and_round_robin():
    prob, trace = run_pair(seed=5, max_events=60, batch_size=3,
                           kind="round_robin")
    states = list(augmented.replay(trace, prob))
    assert max(augmented.check_equivalence(trace, s) for s in states) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 5), topology=st.sampled_from(["ring", "exponential"]),
       kind=st.sampled_from(["round_robin", "uniform_random", "straggler"]),
       delay_kind=st.sampled_from(["zero", "uniform", "round_barrier"]),
       d_max=st.integers(0, 3), batch_size=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1))
def test_replay_matches_simulator_with_shared_payloads(
        n, topology, kind, delay_kind, d_max, batch_size, seed):
    """An activation's arrays are shared, not copied, by the node state, the
    receive buffers and the in-flight payloads. The replay shares nothing,
    so an in-place write to any of them shows up as a deviation."""
    prob = build_problem(n=n)
    straggler = kind == "straggler"
    sched = simulator.ActivationSchedule(
        kind=kind, n=n, straggler_node=0 if straggler else None,
        straggler_factor=2.0 if straggler else 1.0)
    delays = simulator.DelayModel(kind=delay_kind, d_max=d_max)
    trace = simulator.run_async(prob, graph.generate_topology(topology, n),
                                sched, delays, 0.01, 0.1, seed=seed,
                                max_events=40, batch_size=batch_size)
    try:
        states = list(augmented.replay(trace, prob))
    except simulator.AssumptionViolation:
        reject()  # some node's update was never delivered within 40 events
    assert max(augmented.check_equivalence(trace, s) for s in states) <= 1e-9
    assert max(augmented.tracking_residual(s) for s in states) <= 1e-9


def test_replay_initial_state():
    prob, trace = run_pair(seed=2, max_events=20)
    states = list(augmented.replay(trace, prob))
    s0 = states[0]
    assert s0.k == 0
    # every node starts at z = 0, and the virtual registers start empty;
    # trackers start at the partial averages
    assert np.all(s0.z_rows == 0.0)
    assert np.array_equal(s0.y_rows, s0.partial)
    assert len(states) == trace.num_events + 1
    # each later state carries its own event's matrices
    assert s0.mats is None
    assert all(s.mats.k == s.k for s in states[1:])


def test_replay_detects_a_tampered_iterate():
    """The replay reconstructs every iterate from the event structure alone,
    so corrupting one published vector must surface as a deviation of
    exactly that size."""
    prob, trace = run_pair(seed=13, max_events=70)
    states = list(augmented.replay(trace, prob))
    assert max(augmented.check_equivalence(trace, s) for s in states) <= 1e-9
    trace.z_tilde[40, 0] += 1e-3
    dev = max(augmented.check_equivalence(trace, s) for s in states)
    assert abs(dev - 1e-3) < 1e-6


def _equivalence_oracle(trace, states):
    """The whole-sequence equivalence check that the per-state one replaced:
    a running simulator iterate, advanced event by event."""
    zeta = trace.eta2 / trace.eta1
    z_cur = initial_z(trace)
    worst = 0.0
    for state in states:
        if state.k > 0:
            z_cur[trace.node[state.k - 1]] = trace.z_tilde[state.k - 1]
        for v in range(trace.n):
            replayed = mspbe.from_scaled(state.z_rows[v], zeta)
            worst = max(worst, float(np.max(np.abs(replayed - z_cur[v]))))
    return worst


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 4),
       kind=st.sampled_from(["round_robin", "uniform_random"]),
       d_max=st.integers(0, 2), max_events=st.integers(1, 40),
       noise=st.sampled_from([0.0, 1e-12, 1e-3]),
       seed=st.integers(0, 2**32 - 1))
def test_check_equivalence_per_state_matches_running_oracle(
        n, kind, d_max, max_events, noise, seed):
    """The maximum over the per-state deviations equals, bit for bit, the
    deviation of the running-iterate loop. Noise on the published iterates
    makes every state's deviation depend on which row it compares."""
    prob = build_problem(n=n)
    trace = simulator.run_async(
        prob, graph.generate_topology("ring", n),
        simulator.ActivationSchedule(kind=kind, n=n),
        simulator.DelayModel(kind="uniform", d_max=d_max), 0.01, 0.1,
        seed=seed, max_events=max_events)
    try:
        states = list(augmented.replay(trace, prob))
    except simulator.AssumptionViolation:
        reject()  # some node's update was never delivered within the trace
    rng = np.random.default_rng(seed)
    trace.z_tilde += noise * rng.standard_normal(trace.z_tilde.shape)
    got = max(augmented.check_equivalence(trace, s) for s in states)
    assert got == _equivalence_oracle(trace, states)


def test_replay_keeps_one_state_at_a_time():
    """Consuming a 300-event replay holds a few states, not all of them."""
    n, d = 3, 32
    prob = build_problem(n=n, d=d, num_states=40)
    trace = simulator.run_async(
        prob, graph.generate_topology("ring", n),
        simulator.ActivationSchedule(kind="uniform_random", n=n),
        simulator.DelayModel(kind="uniform", d_max=2), 0.01, 0.1, seed=11,
        max_events=300)
    b = simulator.verify_assumption1b(trace)
    state_bytes = 3 * n * (b + 1) * 2 * d * 8
    mats_bytes = 0
    for k in range(1, trace.num_events + 1):
        mats = augmented.build_event_matrices(trace, k, b=b)
        mats_bytes = max(mats_bytes, mats.h_row.nbytes + mats.h_col.nbytes
                         + mats.i_act.nbytes)
    count = 0
    tracemalloc.start()
    try:
        for _ in augmented.replay(trace, prob):
            count += 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == trace.num_events + 1 == 301
    # about 2.7 states are live at the peak; all 301 would be 100 times more
    assert peak <= 4 * state_bytes + mats_bytes


def test_replay_rejects_mismatched_problem():
    prob, trace = run_pair(seed=4, n=3, max_events=20)
    other = build_problem(n=4)
    with pytest.raises(ValueError):
        augmented.replay(trace, other)


def test_replay_refuses_a_streamed_run_at_the_call():
    """A run given z_star keeps its error series and no broadcasts; replay
    refuses it before the first state is asked for, as it refuses a trace
    whose state columns were cut."""
    prob, trace = run_pair(seed=4, n=3, max_events=20)
    streamed = simulator.run_async(
        prob, trace.graph, simulator.ActivationSchedule("uniform_random", 3),
        simulator.DelayModel("uniform", 2), trace.eta1, trace.eta2, seed=4,
        max_events=20, z_star=mspbe.solve_problem(prob))
    assert streamed.z_tilde.shape == (0, 2 * trace.d)
    cut = dataclasses.replace(trace, y_new=trace.y_new[:-1])
    for bad in (streamed, cut):
        with pytest.raises(ValueError, match="replay needs a full trace"):
            augmented.replay(bad, prob)
    next(augmented.replay(trace, prob))


def test_rank_one_distance_pinned():
    assert augmented.rank_one_distance(np.eye(4)) == pytest.approx(
        np.sqrt(3.0), abs=1e-12)
    rank1 = np.outer(np.ones(5), np.arange(1.0, 6.0))
    assert augmented.rank_one_distance(rank1) <= 1e-12


def test_product_of_pull_matrices_contracts_to_rank_one():
    _, trace = run_pair(seed=9, max_events=250)
    b = simulator.verify_assumption1b(trace)
    mats = [augmented.build_event_matrices(trace, k, b)
            for k in range(1, trace.num_events + 1)]
    dists = augmented.product_contraction([m.h_row for m in mats])
    ntilde = trace.n * (b + 1)
    assert dists[0] == pytest.approx(np.sqrt(ntilde - 1), abs=1e-12)
    assert dists[-1] < 1e-8
    # the forward products stay row-stochastic
    prod = np.eye(ntilde)
    for m in mats[:50]:
        prod = m.h_row @ prod
    assert np.max(np.abs(prod.sum(axis=1) - 1.0)) <= 1e-12


def _dense_contraction(matrices):
    """Reference for product_contraction: dense products and full SVDs."""
    prod = np.eye(matrices[0].shape[0])
    dists = [augmented.rank_one_distance(prod)]
    for mat in matrices:
        prod = mat @ prod
        dists.append(augmented.rank_one_distance(prod))
    return np.array(dists)


def _assert_matches_dense(matrices):
    got = augmented.product_contraction(matrices)
    want = _dense_contraction(matrices)
    assert got.shape == want.shape
    big = want >= 1e-6
    assert np.all(np.abs(got[big] - want[big]) <= 1e-9 * want[big])
    assert np.all(np.abs(got[~big] - want[~big]) <= 1e-12)


def _assert_boxes_hold_products(matrices):
    """Step a support box beside the full products of ``__matmul__``: the
    box holds their entries bit for bit, and every entry outside it is
    zero. Returns the last box."""
    size = matrices[0].shape[0]
    box = augmented._SupportBox(size)
    prod = np.eye(size)
    for mat in matrices:
        box.step(mat)
        prod = mat @ prod
        inside = np.ix_(box.rows, box.cols)
        assert prod[inside].tobytes() == box.block.tobytes()
        outside = prod.copy()
        outside[inside] = 0.0
        assert not outside.any()
    return box


def _event_matrices(trace):
    b = simulator.verify_assumption1b(trace)
    return b, [augmented.build_event_matrices(trace, k, b)
               for k in range(1, trace.num_events + 1)]


@pytest.mark.parametrize("seed,kind,batch_size", [
    (9, "uniform_random", 1),
    (4, "uniform_random", 3),
    (5, "round_robin", 1),
    (2, "round_robin", 2),
])
def test_product_contraction_matches_dense_svd(seed, kind, batch_size):
    _, trace = run_pair(seed=seed, max_events=150, kind=kind,
                        batch_size=batch_size)
    b, mats = _event_matrices(trace)
    h_rows, h_cols = [m.h_row for m in mats], [m.h_col for m in mats]
    _assert_matches_dense(h_rows)
    _assert_matches_dense(h_cols)
    # past the window the boxes are small: the pull product reads only the
    # initial real rows, and the push product's mass has left some registers
    assert trace.num_events > b + 1
    ntilde = trace.n * (b + 1)
    pull, push = (_assert_boxes_hold_products(h_rows),
                  _assert_boxes_hold_products(h_cols))
    assert pull.cols.size <= trace.n and pull.rows.size == ntilde
    assert push.rows.size < ntilde and push.cols.size == ntilde


def test_product_contraction_matches_dense_with_structural_zeros():
    """Dense inputs enter through their nonzeros. Zero rows and columns
    leave the box, and a product that turns zero has distance zero."""
    rng = np.random.default_rng(3)
    size = 9
    matrices = []
    for _ in range(12):
        mat = rng.random((size, size)) * (rng.random((size, size)) < 0.35)
        mat[rng.integers(size)] = 0.0
        mat[:, rng.integers(size)] = 0.0
        matrices.append(mat)
    _assert_matches_dense(matrices)
    box = _assert_boxes_hold_products(
        [augmented._as_sparse(mat) for mat in matrices])
    assert box.rows.size < size and box.cols.size < size
    # a shift is nilpotent: its powers lose one rank per step down to zero
    shift = np.eye(size, k=-1)
    _assert_matches_dense([shift] * (size + 2))
    assert augmented.product_contraction([shift] * size)[-1] == 0.0


@pytest.mark.parametrize("matrices,message", [
    ([], r"need at least one matrix"),
    ([np.ones((2, 3))], r"matrix 0 has shape \(2, 3\), which is not square"),
    ([np.eye(3), np.eye(3), np.ones(3)],
     r"matrix 2 has shape \(3,\), which is not square"),
    ([np.eye(3), np.eye(4)],
     r"matrix 1 has shape \(4, 4\), but matrix 0 has shape \(3, 3\)"),
    ([np.eye(3), augmented.SparseMatrix.from_entries([0], [0], [1.0], 2)],
     r"matrix 1 has shape \(2, 2\), but matrix 0 has shape \(3, 3\)"),
], ids=["empty", "first-not-square", "one-dimensional", "dense-size",
        "sparse-size"])
def test_product_contraction_rejects_bad_input(matrices, message):
    with pytest.raises(ValueError, match=message):
        augmented.product_contraction(matrices)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 4),
       kind=st.sampled_from(["round_robin", "uniform_random"]),
       batch_size=st.integers(1, 3), max_events=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_forward_products_conserve_mass(n, kind, batch_size, max_events,
                                        seed):
    """Pull products stay row-stochastic and push products column-
    stochastic, and their distances match the dense oracle."""
    _, trace = run_pair(seed=seed, n=n, max_events=max_events, kind=kind,
                        batch_size=batch_size)
    try:
        b, mats = _event_matrices(trace)
    except simulator.AssumptionViolation:
        reject()  # some node's update was never delivered within the trace
    ntilde = n * (b + 1)
    for side, axis in (("h_row", 1), ("h_col", 0)):
        matrices = [getattr(m, side) for m in mats]
        prod = np.eye(ntilde)
        for mat in matrices:
            prod = mat @ prod
            assert np.max(np.abs(prod.sum(axis=axis) - 1.0)) <= 1e-12
        _assert_matches_dense(matrices)


def test_product_contraction_working_set():
    """On quickstart's 200 pull matrices the working set stays within three
    ntilde x ntilde arrays (the parent product, its successor and the
    residual) plus the Lanczos basis of 64 vectors."""
    cfg = cli.load_config(cli.bundled_config("quickstart"))
    bundle = cli.build_experiment(cfg)
    trace = cli._run_trace(bundle, min(cfg.verify_events, cfg.max_events),
                           None)
    h_rows = [m.h_row for m in _event_matrices(trace)[1][:200]]
    ntilde = h_rows[0].size
    tracemalloc.start()
    try:
        augmented.product_contraction(h_rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(h_rows) == 200
    assert peak <= 3 * ntilde ** 2 * 8 + 64 * ntilde * 8


def test_product_contraction_follows_sigma1_across_blocks():
    """P^T P of a block-diagonal product splits into blocks; when the block
    holding sigma_1 changes, a warm start confined to the old block would
    keep reporting that block's sigma_1."""
    rng = np.random.default_rng(0)
    big, small = 5, 7
    q_a, q_b = rng.random((big, big)), rng.random((small, small))
    size = big + small
    first = np.zeros((size, size))
    first[:big, :big] = q_a
    first[big:, big:] = q_b / np.linalg.norm(q_b, 2) * np.linalg.norm(q_a, 2) / 2
    swap = [np.diag([0.5] * big + [2.0] * small),
            np.diag([2.0] * big + [0.5] * small)]
    matrices = [first] + [swap[t % 2] for t in range(8)]
    _assert_matches_dense(matrices)


def test_push_weights_conserve_total_mass():
    _, trace = run_pair(seed=6, max_events=120)
    b = simulator.verify_assumption1b(trace)
    h_cols = [augmented.build_event_matrices(trace, k, b).h_col
              for k in range(1, trace.num_events + 1)]
    # v^{k+1} = H_C^k v^k from v^0 = [1_n; 0]
    v = np.zeros(h_cols[0].shape[0])
    v[:trace.n] = 1.0
    weights = [v]
    for h in h_cols:
        weights.append(h @ weights[-1])
    weights = np.stack(weights)
    assert weights.shape == (trace.num_events + 1, trace.n * (b + 1))
    sums = weights.sum(axis=1)
    assert np.max(np.abs(sums - trace.n)) <= 1e-10
    assert np.min(weights) >= -1e-15
    # once information has circulated, the activator's real row holds mass
    for k in range(40, trace.num_events):
        i = trace.node[k]
        assert weights[k + 1][i] > 0.0


def test_rate_constants_pinned_small_example():
    # n=2, b=2, K=3, diameter 2: ntilde = 6, kappa = 6^-4 = 1/1296
    rc = augmented.rate_constants(2, 2, 3, 2, fake_spectral())
    assert rc.ntilde == 6
    assert rc.mu_over_kappa_times_n == 0.25
    with mp.workdps(80):
        assert mp.almosteq(rc.kappa, mp.mpf(1) / 1296, rel_eps=mp.mpf("1e-70"))
        assert mp.almosteq(rc.mu * 4 * 2, rc.kappa, rel_eps=mp.mpf("1e-70"))
        # delta is the (d_g*b)-th root of 1 - kappa
        assert mp.almosteq(rc.delta ** 4, 1 - rc.kappa,
                           rel_eps=mp.mpf("1e-70"))
        # t_tilde is the crossing integer of delta^t <= mu/2
        assert rc.delta ** rc.t_tilde <= rc.mu / 2
        assert rc.delta ** (rc.t_tilde - 1) > rc.mu / 2
    assert rc.one_minus_delta > 0
    assert rc.eta_within_theory and rc.valid
    assert rc.one_minus_c > 0


def test_rate_constants_scale_without_underflow():
    """At realistic sizes kappa underflows double precision; the report must
    still carry finite, ordered values."""
    rc = augmented.rate_constants(9, 40, 99, 4, fake_spectral())
    assert float(rc.kappa) == 0.0  # genuinely below double precision
    assert rc.kappa > 0
    assert 0 < rc.one_minus_c < 1
    assert rc.t_tilde > 1
    assert rc.eta_max_theory > 0
    assert rc.eta_used < rc.eta_max_theory
    assert rc.valid


def test_rate_constants_flag_oversized_step():
    rc = augmented.rate_constants(3, 4, 9, 2, fake_spectral(), eta=1.0)
    assert not rc.eta_within_theory
    assert not rc.valid


def test_delta_power_monotone():
    rc = augmented.rate_constants(3, 4, 9, 2, fake_spectral())
    assert augmented.delta_power(rc, 0) == 1.0
    values = [augmented.delta_power(rc, t) for t in (1, 10, 100)]
    assert all(0 < v < 1 for v in values)
    assert values[0] > values[1] > values[2]


def test_eta2_range_pinned():
    assert augmented.eta2_range(10, fake_spectral(beta=2.0, psi=1.0),
                                0.1) == pytest.approx(4.0, abs=1e-15)


def test_graph_constants_helper():
    _, trace = run_pair(seed=3, n=3, max_events=40, kind="round_robin",
                        d_max=0)
    b, d_g = graph_constants(trace)
    assert b == 3
    assert d_g == graph.diameter(trace.graph)
