"""Delay-register matrix replay: stochasticity, equivalence with the event
simulator, mass tracking, contraction products, and rate constants."""

from __future__ import annotations

import dataclasses
import decimal
import gc
import tracemalloc
import weakref
from decimal import Decimal

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from asyncsag import augmented, cli, graph, mspbe, simulator
from asyncsag.mspbe import SpectralConstants
from helpers import build_problem, from_entries, graph_constants, initial_z
from test_plan_oracle import heap_run_async


def run_pair(seed=7, n=3, max_events=80, eta1=0.01, zeta=10.0, d_max=2,
             kind="uniform_random"):
    prob = build_problem(n=n)
    g = graph.generate_topology("ring", n)
    sched = simulator.ActivationSchedule(kind=kind, n=n)
    delays = simulator.DelayModel(kind="uniform", d_max=d_max)
    trace = simulator.run_async(prob, g, sched, delays, eta1, eta1 * zeta,
                                seed=seed, max_events=max_events)
    return prob, trace


def fake_spectral(alpha=0.5, beta=2.0, psi=1.0):
    return SpectralConstants(alpha=alpha, beta=beta, psi=psi, zeta_min=8.0,
                             g_eigs_real=True, valid=True, g_max_eig=5.0)


def to_dense(mat: augmented.SparseMatrix) -> np.ndarray:
    """The dense form of a ``SparseMatrix``."""
    dense = np.zeros(mat.shape)
    dense[mat.rows, mat.cols] = mat.weights
    return dense


def sparse(mat) -> augmented.SparseMatrix:
    """A dense square matrix as the ``SparseMatrix`` of its nonzeros; a
    ``SparseMatrix`` as it is."""
    if isinstance(mat, augmented.SparseMatrix):
        return mat
    mat = np.asarray(mat, dtype=float)
    rows, cols = np.nonzero(mat)
    return from_entries(rows, cols, mat[rows, cols], mat.shape[0])


def rank_one_distance(mat: np.ndarray) -> float:
    """Frobenius distance to the best rank-one approximation, by a full SVD.

    The distance is sqrt(sigma_2**2 + sigma_3**2 + ...), O(ntilde**3). It is
    the dense reference for ``product_contraction``. For the ntilde x ntilde
    identity it is sqrt(ntilde - 1), which exceeds 2 once ntilde >= 6; it is
    therefore not the norm of the 2*delta**t envelope, which bounds the l1
    deviation of a stochastic product's rows (or columns) from their mean.
    """
    return augmented._distance(np.linalg.svd(mat, compute_uv=False) ** 2)


def test_event_matrices_are_stochastic_every_event():
    _, trace = run_pair(seed=3, max_events=60)
    for k in range(1, trace.num_events + 1):
        mats = augmented.build_event_matrices(trace, k)
        assert (np.min(to_dense(mats.h_row)) >= 0
                and np.min(to_dense(mats.h_col)) >= 0)
        assert np.max(np.abs(mats.h_row.sum(axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(mats.h_col.sum(axis=0) - 1.0)) <= 1e-12
        # the activation indicator selects exactly the activator's real row
        i = trace.node[k - 1]
        expected = np.zeros(mats.i_act.shape)
        expected[i, i] = 1.0
        assert np.array_equal(to_dense(mats.i_act), expected)


def test_event_matrices_take_linear_memory():
    """Sparse storage: one event's three matrices take O(ntilde) bytes
    (dense storage would take 24 * ntilde**2)."""
    _, trace = run_pair(seed=3, max_events=60)
    b = trace.window
    ntilde = trace.n * (b + 1)
    for k in range(1, trace.num_events + 1):
        mats = augmented.build_event_matrices(trace, k)
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
    mat = from_entries(rows, cols, weights, size)
    assert mat.shape == (size, size)
    assert np.array_equal(to_dense(mat), dense)
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


def _sequential_product(mat, operand):
    """``mat @ operand`` by a plain loop over the entries: each row starts
    as its first entry's weight times that entry's source row (an empty row
    as 0 times row 0), then adds w * x[c] for each later entry in order."""
    out = 0.0 * np.repeat(operand[:1], mat.size, axis=0)
    seen = set()
    for row, col, weight in zip(mat.rows.tolist(), mat.cols.tolist(),
                                mat.weights.tolist()):
        if row in seen:
            out[row] += weight * operand[col]
        else:
            out[row] = weight * operand[col]
            seen.add(row)
    return out


@st.composite
def long_rows(draw):
    """A square matrix with rows of three or more entries, empty rows and
    weights other than 1, and an operand with signed zeros."""
    size = draw(st.integers(2, 7))
    rows, cols, weights = [], [], []
    for row in range(size):
        cols_of_row = draw(st.lists(st.integers(0, size - 1), unique=True,
                                    max_size=size))
        rows += [row] * len(cols_of_row)
        cols += sorted(cols_of_row)
        weights += draw(st.lists(
            st.sampled_from([1.0, 0.5, 1.0 / 3.0, -2.0, 0.1, 1e-300])
            | st.floats(-4.0, 4.0, allow_nan=False).filter(bool),
            min_size=len(cols_of_row), max_size=len(cols_of_row)))
    width = draw(st.sampled_from([None, 1, 3]))
    shape = (size,) if width is None else (size, width)
    operand = np.array(draw(st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0])
        | st.floats(-1e300, 1e300, allow_nan=False),
        min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    ).reshape(shape)
    return augmented.SparseMatrix(np.array(rows, dtype=np.int32),
                                  np.array(cols, dtype=np.int32),
                                  np.array(weights), size), operand


@settings(max_examples=300, deadline=None)
@given(long_rows())
@example((augmented.SparseMatrix(np.array([0, 0, 0, 2], dtype=np.int32),
                                 np.array([0, 1, 2, 1], dtype=np.int32),
                                 np.array([1.0, 1e16, -1e16, 0.5]), 3),
          np.array([[1.0, -0.0], [1.0, 2.0], [1.0, -0.0]])))
def test_sparse_product_is_the_sequential_sum_bit_for_bit(case):
    """Each row of ``M @ x`` is its first term, then each later term added
    in entry order, bit for bit: the later terms are not summed apart
    first. Empty rows are 0 times row 0."""
    mat, operand = case
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = mat @ operand, _sequential_product(mat, operand)
    assert got.tobytes() == want.tobytes()


def test_matrices_reject_out_of_range_event_and_small_window():
    """An event index outside 1..T is refused; no window can be asked for
    but the certified one, ``trace.window``."""
    _, trace = run_pair(seed=3, n=3, max_events=30, kind="round_robin",
                        d_max=0)
    with pytest.raises(ValueError):
        augmented.build_event_matrices(trace, 0)
    with pytest.raises(ValueError):
        augmented.build_event_matrices(trace, 31)


def test_event_plan_is_dropped_with_its_trace():
    """The plan registry keeps a trace's plan as long as the trace lives
    and holds the trace itself only weakly."""
    _, trace = run_pair(seed=3, max_events=30)
    gc.collect()
    before = len(augmented._PLANS)
    augmented.build_event_matrices(trace, 1)
    assert len(augmented._PLANS) == before + 1
    trace_ref = weakref.ref(trace)
    plan_ref = weakref.ref(augmented._PLANS[trace])
    del trace
    gc.collect()
    assert trace_ref() is None and plan_ref() is None
    assert len(augmented._PLANS) == before


def test_event_matrices_share_only_read_only_plan_arrays():
    """Every array of an event's matrices that is a view of its trace's
    plan refuses writes, so no caller can change a later build of the
    event; the pull and the push row gathers both hold such views."""
    _, trace = run_pair(seed=3, max_events=80)
    plan = [array for array in vars(augmented._event_plan(trace)).values()
            if isinstance(array, np.ndarray)]
    shared = dict.fromkeys(("h_row", "h_col", "i_act"), 0)
    for k in range(1, trace.num_events + 1):
        mats = augmented.build_event_matrices(trace, k)
        for name in ("h_row", "h_col", "i_act"):
            mat = getattr(mats, name)
            arrays = [mat.rows, mat.cols, mat.weights]
            if mat.gather is not None:
                arrays += [mat.gather.source, mat.gather.reset,
                           mat.gather.empty,
                           *(array for part in mat.gather.added
                             for array in part)]
            for array in arrays:
                if any(np.shares_memory(array, held) for held in plan):
                    shared[name] += 1
                    with pytest.raises(ValueError, match="read-only"):
                        array[...] = 0
    assert shared["h_row"] and shared["h_col"], shared


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
        degree = int(trace.graph.adj[w].sum())
        for dest in np.flatnonzero(trace.graph.adj[w]).tolist():
            used = consumed.get((w, sent, dest))
            parked.append((b if used is None else used - sent - 1) * n + dest)
            origins.append(w)
            shares.append(1.0 / degree)
    holders = [v for v in range(n) if v not in {w for w, _ in splitters}]
    return from_entries(
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
    return from_entries(
        others + [i] * len(buffer),
        [v if v < n else v - n for v in others]
        + [(k - sent - 1) * n + origin for origin, sent in buffer],
        [1.0] * len(others) + [1.0 / len(buffer)] * len(buffer), ntilde)


def _planned_run(n, topology, kind, delay_kind, d_max, events, seed):
    """A planned run, with the arguments that made it."""
    straggler = kind == "straggler"
    args = (build_problem(n=n), graph.generate_topology(topology, n),
            simulator.ActivationSchedule(
                kind=kind, n=n, straggler_node=0 if straggler else None,
                straggler_factor=5.0 if straggler else 1.0),
            simulator.DelayModel(kind=delay_kind, d_max=d_max), 0.05, 0.4,
            seed, events)
    return simulator.run_async(*args), args


def _certified_run_with_buffers(**run):
    """A planned run, its certified b, and the heap engine's record of each
    event's buffer for the same run. Rejects a run in which a node
    starves."""
    trace, args = _planned_run(**run)
    try:
        b = trace.window
    except simulator.AssumptionViolation:
        reject()  # some node starves within the trace
    _, _, pulled = heap_run_async(*args)
    assert len(pulled) == trace.num_events
    return trace, b, pulled


RUNS = dict(
    n=st.integers(1, 6), topology=st.sampled_from(["ring", "exponential"]),
    kind=st.sampled_from(["round_robin", "uniform_random", "straggler"]),
    delay_kind=st.sampled_from(["zero", "uniform", "round_barrier"]),
    d_max=st.integers(0, 4), events=st.integers(1, 120),
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
    that the heap engine recorded."""
    trace, b, pulled = _certified_run_with_buffers(**run)
    for k, buffer in enumerate(pulled, start=1):
        _assert_same_bits(augmented.build_event_matrices(trace, k).h_row,
                          _pull_matrix_by_buffer(trace, buffer, k, b), k)


@settings(max_examples=60, deadline=None)
@given(**RUNS)
def test_push_matrices_equal_the_consumption_dict(**run):
    """Reading each share's consuming event from the message log and the
    splitter's next activation gives the push matrices of a dict built from
    the heap engine's buffers, bit for bit."""
    trace, b, pulled = _certified_run_with_buffers(**run)
    consumed = _consumptions(trace, pulled)
    for k in range(1, trace.num_events + 1):
        _assert_same_bits(augmented.build_event_matrices(trace, k).h_col,
                          _push_matrix_by_dict(trace, consumed, k, b), k)


@settings(max_examples=60, deadline=None)
@given(**RUNS)
def test_activations_equal_a_scan_of_the_activators(**run):
    """Each event's previous and next activation of its activator (-1 and T
    for none) and each node's first activation (T for none) are those of a
    plain scan over ``trace.node``, also with nodes that never activate
    (again)."""
    trace, _ = _planned_run(**run)
    node, t = trace.node.tolist(), trace.num_events
    previous, following, first = trace.activations
    last = {}
    for r, v in enumerate(node):
        assert previous[r] == last.get(v, -1), r
        last[v] = r
    upcoming = {}
    for r in reversed(range(t)):
        assert following[r] == upcoming.get(node[r], t), r
        upcoming[node[r]] = r
    assert first.tolist() == [upcoming.get(v, t) for v in range(trace.n)]
    for array in (previous, following, first):
        assert array.dtype == np.int64


@settings(max_examples=40, deadline=None)
@given(**RUNS)
def test_event_products_equal_the_products_of_their_entries(**run):
    """The row gathers that ``build_event_matrices`` attaches give, bit for
    bit, the product that ``SparseMatrix`` derives from the same entries,
    for 1-D and 2-D operands with signed zeros."""
    trace, _ = _planned_run(**run)
    try:
        trace.window
    except simulator.AssumptionViolation:
        reject()  # some node starves within the trace
    rng = np.random.default_rng(run["seed"])
    for k in range(1, trace.num_events + 1):
        mats = augmented.build_event_matrices(trace, k)
        for mat in (mats.h_row, mats.h_col):
            plain = augmented.SparseMatrix(mat.rows, mat.cols, mat.weights,
                                           mat.size)
            for shape in ((mat.size,), (mat.size, 3)):
                operand = rng.standard_normal(shape)
                operand[rng.random(shape) < 0.3] = -0.0
                assert (mat @ operand).tobytes() == \
                    (plain @ operand).tobytes(), k


@settings(max_examples=60, deadline=None)
@given(**RUNS)
def test_certified_window_fits_every_entry(**run):
    """At b = ``trace.window``, read from the message log and the activator
    column alone: every consumed message is at most b - 1 events old; every
    activation comes at most b events after its activator's previous one,
    or after event 0; and every splitter activates again within the next b
    events whenever those b events are in the trace. So every row and
    column of every built pull and push matrix is below ntilde."""
    trace, _ = _planned_run(**run)
    try:
        b = trace.window
    except simulator.AssumptionViolation:
        reject()  # some node starves within the trace
    t, log = trace.num_events, trace.messages
    previous, following, first = trace.activations
    used = log.consumed_at >= 0
    assert np.all(log.consumed_at[used] - 1 - log.sent_at[used] <= b - 1)
    # event r + 1 follows its activator's event previous[r] + 1 (0 for none)
    assert np.all(np.arange(t) - previous <= b)
    # a node acting at event j (0 for its initial broadcast) acts again at
    # event j + b or before whenever j + b <= t; t + 1 stands for never
    acted = np.concatenate([np.zeros(trace.n, dtype=np.int64),
                            np.arange(1, t + 1)])
    again = np.concatenate([first, following]) + 1
    inside = acted + b <= t
    assert np.all(again[inside] - acted[inside] <= b)
    ntilde = trace.n * (b + 1)
    for k in range(1, t + 1):
        mats = augmented.build_event_matrices(trace, k)
        for mat in (mats.h_row, mats.h_col):
            assert max(mat.rows.max(), mat.cols.max()) < ntilde, k


def test_replay_matches_simulator_to_machine_precision():
    prob, trace = run_pair(seed=11, max_events=90)
    states = list(augmented.replay(trace, prob))
    dev = max(augmented.check_equivalence(trace, s) for s in states)
    assert dev <= 1e-9  # observed ~1e-15; the contract allows 1e-9
    residuals = [augmented.tracking_residual(s) for s in states]
    assert np.max(residuals) <= 1e-9


def test_replay_matches_with_round_robin():
    prob, trace = run_pair(seed=5, max_events=60, kind="round_robin")
    states = list(augmented.replay(trace, prob))
    assert max(augmented.check_equivalence(trace, s) for s in states) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 5), topology=st.sampled_from(["ring", "exponential"]),
       kind=st.sampled_from(["round_robin", "uniform_random", "straggler"]),
       delay_kind=st.sampled_from(["zero", "uniform", "round_barrier"]),
       d_max=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_replay_matches_simulator_with_shared_payloads(
        n, topology, kind, delay_kind, d_max, seed):
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
                                max_events=40)
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
    # the real trackers start at the partial averages, one row per node
    n = trace.n
    assert np.all(s0.z_rows == 0.0)
    assert s0.partial.shape == (n, 2 * trace.d)
    assert np.array_equal(s0.y_rows[:n], s0.partial)
    assert np.all(s0.y_rows[n:] == 0.0)
    assert len(states) == trace.num_events + 1
    # each later state carries its own event's matrices, entry for entry
    assert s0.mats is None
    for s in states[1:]:
        want = augmented.build_event_matrices(trace, s.k)
        for name in ("h_row", "h_col", "i_act"):
            got, ref = getattr(s.mats, name), getattr(want, name)
            assert got.size == ref.size
            for column in ("rows", "cols", "weights"):
                a, r = getattr(got, column), getattr(ref, column)
                assert (a.dtype, a.tobytes()) == (r.dtype, r.tobytes())


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


def _rebuilt_deviation(trace, state):
    """The per-state check with each node's latest activation found anew
    from the first k events, O(k) at state k."""
    n, k = trace.n, state.k
    latest = np.full(n, -1)
    np.maximum.at(latest, trace.node[:k], np.arange(k))
    simulated = np.zeros((n, 2 * trace.d))
    simulated[latest >= 0] = trace.z_tilde[latest[latest >= 0]]
    replayed = state.z_rows[:n].copy()
    replayed[:, trace.d:] *= np.sqrt(trace.eta2 / trace.eta1)
    return float(np.max(np.abs(replayed - simulated)))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 4),
       kind=st.sampled_from(["round_robin", "uniform_random"]),
       d_max=st.integers(0, 2), max_events=st.integers(1, 40),
       noise=st.sampled_from([0.0, 1e-12, 1e-3]),
       seed=st.integers(0, 2**32 - 1))
def test_check_equivalence_per_state_matches_running_oracle(
        n, kind, d_max, max_events, noise, seed):
    """The maximum over the per-state deviations equals, bit for bit, the
    deviation of the running-iterate loop, and each equals that of the
    check that rebuilt every node's latest activation from the trace.
    Noise on the published iterates makes every state's deviation depend
    on which row it compares."""
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
    got = [augmented.check_equivalence(trace, s) for s in states]
    assert max(got) == _equivalence_oracle(trace, states)
    assert got == [_rebuilt_deviation(trace, s) for s in states]


def test_replay_keeps_one_state_at_a_time():
    """Consuming a 300-event replay holds a few states, not all of them."""
    n, d = 3, 32
    prob = build_problem(n=n, d=d, num_states=40)
    trace = simulator.run_async(
        prob, graph.generate_topology("ring", n),
        simulator.ActivationSchedule(kind="uniform_random", n=n),
        simulator.DelayModel(kind="uniform", d_max=2), 0.01, 0.1, seed=11,
        max_events=300)
    b = trace.window
    state_bytes = 3 * n * (b + 1) * 2 * d * 8
    mats_bytes = 0
    for k in range(1, trace.num_events + 1):
        mats = augmented.build_event_matrices(trace, k)
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
    cut = dataclasses.replace(trace, z_tilde=trace.z_tilde[:-1])
    for bad in (streamed, cut):
        with pytest.raises(ValueError, match="replay needs a full trace"):
            augmented.replay(bad, prob)
    next(augmented.replay(trace, prob))


def test_rank_one_distance_pinned():
    assert rank_one_distance(np.eye(4)) == pytest.approx(np.sqrt(3.0),
                                                         abs=1e-12)
    rank1 = np.outer(np.ones(5), np.arange(1.0, 6.0))
    assert rank_one_distance(rank1) <= 1e-12


def test_product_of_pull_matrices_contracts_to_rank_one():
    _, trace = run_pair(seed=9, max_events=250)
    b = trace.window
    mats = [augmented.build_event_matrices(trace, k)
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
    dists = [rank_one_distance(prod)]
    for mat in matrices:
        prod = mat @ prod
        dists.append(rank_one_distance(prod))
    return np.array(dists)


def _assert_matches_dense(matrices):
    got = augmented.product_contraction([sparse(mat) for mat in matrices])
    want = _dense_contraction(matrices)
    assert got.shape == want.shape
    big = want >= 1e-6
    assert np.all(np.abs(got[big] - want[big]) <= 1e-9 * want[big])
    assert np.all(np.abs(got[~big] - want[~big]) <= 1e-12)


def _assert_products_exact(matrices):
    """Step the forward product beside the dense one of the row gather: at
    every step its dense form is the dense product bit for bit, up to the
    sign of a zero; its pure columns are not core columns, no row is both
    pure and core, and the core holds no zero row or column. Returns the
    last product's nonzero rows and columns."""
    size = matrices[0].shape[0]
    forward = augmented._ForwardProduct(size)
    prod = np.eye(size)
    for mat in matrices:
        forward.step(mat)
        prod = mat @ prod
        # adding 0.0 turns a -0.0 into 0.0 and leaves every other value
        dense = np.zeros((size, size))
        dense[forward.pure_rows, forward.pure_col[forward.pure_rows]] = (
            forward.pure_w[forward.pure_rows])
        dense[np.ix_(forward.rows, forward.cols)] = forward.block
        assert (dense + 0.0).tobytes() == (prod + 0.0).tobytes()
        pure = forward.pure_col >= 0
        assert np.array_equal(np.flatnonzero(pure), forward.pure_rows)
        assert not np.isin(forward.pure_col[pure], forward.cols).any()
        assert not pure[forward.rows].any()
        assert np.array_equal(np.flatnonzero(forward.core_at >= 0),
                              np.sort(forward.rows))
        assert forward.block.shape == (forward.rows.size, forward.cols.size)
        assert forward.block.any(axis=0).all()
        assert forward.block.any(axis=1).all()
    return np.flatnonzero(prod.any(axis=1)), np.flatnonzero(prod.any(axis=0))


def _event_matrices(trace):
    b = trace.window
    return b, [augmented.build_event_matrices(trace, k)
               for k in range(1, trace.num_events + 1)]


@pytest.mark.parametrize("seed,kind,d_max", [
    (9, "uniform_random", 1),
    (4, "uniform_random", 3),
    (5, "round_robin", 1),
    (2, "round_robin", 2),
])
def test_product_contraction_matches_dense_svd(seed, kind, d_max):
    _, trace = run_pair(seed=seed, max_events=150, kind=kind, d_max=d_max)
    b, mats = _event_matrices(trace)
    h_rows, h_cols = [m.h_row for m in mats], [m.h_col for m in mats]
    _assert_matches_dense(h_rows)
    _assert_matches_dense(h_cols)
    # past the window the products are narrow: the pull product reads only
    # the initial real rows, and the push product's mass has left some
    # registers
    assert trace.num_events > b + 1
    ntilde = trace.n * (b + 1)
    pull_rows, pull_cols = _assert_products_exact(h_rows)
    push_rows, push_cols = _assert_products_exact(h_cols)
    assert pull_cols.size <= trace.n and pull_rows.size == ntilde
    assert push_rows.size < ntilde and push_cols.size == ntilde


def test_product_contraction_matches_dense_with_structural_zeros():
    """Zero rows and columns of the matrices, built from dense arrays by
    their nonzeros, leave the product's support, and a product that turns
    zero has distance zero."""
    rng = np.random.default_rng(3)
    size = 9
    matrices = []
    for _ in range(12):
        mat = rng.random((size, size)) * (rng.random((size, size)) < 0.35)
        mat[rng.integers(size)] = 0.0
        mat[:, rng.integers(size)] = 0.0
        matrices.append(mat)
    _assert_matches_dense(matrices)
    rows, cols = _assert_products_exact([sparse(mat) for mat in matrices])
    assert rows.size < size and cols.size < size
    # a sum that cancels exactly is not stored
    flip = np.array([[1.0, -1.0], [0.5, 0.5]])
    rows, _ = _assert_products_exact(
        [sparse(mat) for mat in (np.ones((2, 2)), flip)])
    assert rows.tolist() == [1]
    # a core column that no row holds any more leaves the core
    drop = [np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]]),
            np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])]
    _assert_matches_dense(drop)
    rows, cols = _assert_products_exact([sparse(mat) for mat in drop])
    assert rows.tolist() == [0, 1] and cols.tolist() == [0, 1]
    # and a zero matrix leaves neither core rows nor core columns
    drop.append(np.zeros((3, 3)))
    _assert_matches_dense(drop)
    rows, cols = _assert_products_exact([sparse(mat) for mat in drop])
    assert rows.size == cols.size == 0
    # a shift is nilpotent: its powers lose one rank per step down to zero
    shift = np.eye(size, k=-1)
    _assert_matches_dense([shift] * (size + 2))
    assert augmented.product_contraction([sparse(shift)] * size)[-1] == 0.0


@st.composite
def component_matrices(draw):
    """A nonnegative square matrix made of disjoint components: isolated
    columns and rows, lone entries and blocks with zeros inside, on
    shuffled rows and columns, with empty rows and columns beside them.
    Returns (size, rows, cols, weights)."""
    positive = st.floats(1e-3, 4.0)
    rows, cols, weights = [], [], []
    height = width = 0
    for kind in draw(st.lists(st.sampled_from(
            ["column", "row", "lone", "block"]), max_size=5)):
        tall = draw(st.integers(2, 4)) if kind in ("column", "block") else 1
        wide = draw(st.integers(2, 4)) if kind in ("row", "block") else 1
        for i in range(tall):
            for j in range(wide):
                weight = draw(positive if kind != "block"
                              else st.just(0.0) | positive)
                if weight:
                    rows.append(height + i)
                    cols.append(width + j)
                    weights.append(weight)
        height, width = height + tall, width + wide
    size = max(height, width, 1) + draw(st.integers(0, 2))
    row_at = draw(st.permutations(range(size)))
    col_at = draw(st.permutations(range(size)))
    return (size, [row_at[r] for r in rows], [col_at[c] for c in cols],
            weights)


@settings(max_examples=200, deadline=None)
@given(component_matrices())
def test_component_spectra_match_dense_svd(case):
    """The singular values of the matrix times the identity, read from its
    pure columns, its core's isolated rows and one SVD of the rest, are
    those of the dense SVD, within 1e-12 of the largest, and so is the
    distance that ``product_contraction`` reports. An all-zero matrix
    gives no singular value and distance exactly 0."""
    size, rows, cols, weights = case
    mat = from_entries(rows, cols, weights, size)
    dense = to_dense(mat)
    want = np.linalg.svd(dense, compute_uv=False)
    prod = augmented._ForwardProduct(size)
    prod.step(mat)
    got = np.sqrt(np.sort(prod.squared_singular_values())[::-1])
    assert got.size <= size
    got = np.concatenate([got, np.zeros(size - got.size)])
    assert np.all(np.abs(got - want) <= 1e-12 * want[0])
    dist = augmented.product_contraction([mat])[1]
    assert abs(dist - rank_one_distance(dense)) <= 1e-12 * want[0]


def test_product_contraction_of_rank_one_and_zero_products():
    """An exactly rank-one product is at distance at most 1e-12, on a dense
    core or with zero rows and columns beside it; an all-zero product is
    at distance exactly 0."""
    rng = np.random.default_rng(5)
    left, right = rng.random(6) + 0.1, rng.random(6) + 0.1
    assert augmented.product_contraction(
        [sparse(np.outer(left, right))])[1] <= 1e-12
    left[[1, 4]] = right[[0, 2, 3]] = 0.0
    assert augmented.product_contraction(
        [sparse(np.eye(6)), sparse(np.outer(left, right))])[2] <= 1e-12
    zero = augmented.product_contraction([sparse(np.eye(4)),
                                          sparse(np.zeros((4, 4)))])
    assert zero[1] == np.sqrt(3.0) and zero[2] == 0.0


@pytest.mark.parametrize("matrices,message", [
    ([], r"need at least one matrix"),
    ([sparse(np.eye(3)), sparse(np.eye(3)), sparse(np.eye(4))],
     r"matrix 2 has shape \(4, 4\), but matrix 0 has shape \(3, 3\)"),
    ([sparse(np.eye(3)),
      from_entries([0], [0], [1.0], 2)],
     r"matrix 1 has shape \(2, 2\), but matrix 0 has shape \(3, 3\)"),
], ids=["empty", "dense-size", "sparse-size"])
def test_product_contraction_rejects_bad_input(matrices, message):
    with pytest.raises(ValueError, match=message):
        augmented.product_contraction(matrices)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 4),
       kind=st.sampled_from(["round_robin", "uniform_random"]),
       max_events=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
# an iterative top-singular-vector estimate once missed the dense SVD on
# this draw by 2.2e-5 relative (push product, t = 4)
@example(n=4, kind="uniform_random", max_events=17, seed=280)
def test_forward_products_conserve_mass(n, kind, max_events, seed):
    """Pull products stay row-stochastic and push products column-
    stochastic, and their distances match the dense oracle."""
    _, trace = run_pair(seed=seed, n=n, max_events=max_events, kind=kind)
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
    """On quickstart's first 200 pull and push matrices (ntilde = 180) the
    working set stays below 0.6 of one ntilde x ntilde float array
    (155.5 kB), so a dense product fails. Measured peaks: 100.6 kB (pull)
    and 123.0 kB (push), for products of at most 1260 entries."""
    cfg = cli.load_config(cli.bundled_config("quickstart"))
    bundle = cli.build_experiment(cfg)
    trace = cli._run_trace(bundle, min(cfg.verify_events, cfg.max_events),
                           None)
    mats = _event_matrices(trace)[1][:200]
    assert len(mats) == 200 and mats[0].h_row.size == 180
    for side in ("h_row", "h_col"):
        matrices = [getattr(m, side) for m in mats]
        tracemalloc.start()
        try:
            augmented.product_contraction(matrices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * 180 ** 2 * 8, side


@pytest.mark.parametrize("name", ["quickstart", "marl9", "straggler"])
def test_forward_product_cores_stay_thin(name):
    """Over the first 200 events of a bundled config the pull core has at
    most n columns, and the push core that goes through the SVD (the core
    less its isolated rows) at most n + 2 rows: 693 x 9 and 11 x 693 on
    marl9."""
    cfg = cli.load_config(cli.bundled_config(name))
    bundle = cli.build_experiment(cfg)
    trace = cli._run_trace(bundle, min(cfg.verify_events, cfg.max_events),
                           None)
    mats = _event_matrices(trace)[1][:200]
    assert len(mats) == 200
    pull = augmented._ForwardProduct(mats[0].h_row.size)
    push = augmented._ForwardProduct(mats[0].h_col.size)
    widest = [0, 0]
    for mat in mats:
        pull.step(mat.h_row)
        push.step(mat.h_col)
        widest[0] = max(widest[0], pull.block.shape[1])
        widest[1] = max(widest[1], push.split_core()[1].shape[1])
    assert widest[0] <= trace.n and widest[1] <= trace.n + 2, widest


def test_product_contraction_follows_sigma1_across_blocks():
    """A block-diagonal product splits into components; when the block
    holding sigma_1 changes, the distance must leave out the new block's
    sigma_1, not the old one's."""
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
    b = trace.window
    h_cols = [augmented.build_event_matrices(trace, k).h_col
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
    # mu = kappa / 4n, so the ratio the constants report prints is 1/4
    with decimal.localcontext(augmented._context(80)):
        assert float(rc.mu * rc.n / rc.kappa) == 0.25
    with mp.workdps(80):
        # the Decimal fields, read by mpmath at their full 80 digits
        kappa, mu, delta, t_tilde = (mp.mpf(str(v)) for v in
                                     (rc.kappa, rc.mu, rc.delta, rc.t_tilde))
        assert mp.almosteq(kappa, mp.mpf(1) / 1296, rel_eps=mp.mpf("1e-70"))
        assert mp.almosteq(mu * 4 * 2, kappa, rel_eps=mp.mpf("1e-70"))
        # delta is the (d_g*b)-th root of 1 - kappa
        assert mp.almosteq(delta ** 4, 1 - kappa, rel_eps=mp.mpf("1e-70"))
        # t_tilde is the crossing integer of delta^t <= mu/2
        assert delta ** t_tilde <= mu / 2
        assert delta ** (t_tilde - 1) > mu / 2
    assert rc.one_minus_delta > 0
    assert rc.valid
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


def test_delta_power_monotone():
    rc = augmented.rate_constants(3, 4, 9, 2, fake_spectral())
    assert augmented.delta_power(rc, 0) == 1.0
    values = [augmented.delta_power(rc, t) for t in (1, 10, 100)]
    assert all(0 < v < 1 for v in values)
    assert values[0] > values[1] > values[2]


@settings(max_examples=200, deadline=None)
@given(e=st.floats(-3000, -0.05), negative=st.booleans())
# either side of the 1e-3 switch from the power series to ln and exp
@example(e=-3.0, negative=False)
@example(e=-3.0, negative=True)
@example(e=-3.0000001, negative=True)
@example(e=-2.9999999, negative=False)
@example(e=-0.05, negative=True)
def test_decimal_log1p_and_expm1_match_mpmath(e, negative):
    with decimal.localcontext(augmented._context(80)):
        x = (-1 if negative else 1) * Decimal(10) ** Decimal(e)
        got = augmented._log1p(x), augmented._expm1(x)
    with mp.workdps(100):
        x_mp = mp.mpf(str(x))
        want = mp.log1p(x_mp), mp.expm1(x_mp)
        for g, w in zip(got, want):
            assert abs(mp.mpf(str(g)) / w - 1) < mp.mpf("1e-75"), (x, g, w)


def test_rate_constants_keep_the_caller_context():
    before = decimal.getcontext().copy()
    rc = augmented.rate_constants(9, 40, 99, 4, fake_spectral())
    augmented.delta_power(rc, 7)
    after = decimal.getcontext()
    assert (after.prec, after.Emin, after.Emax, after.rounding) == (
        before.prec, before.Emin, before.Emax, before.rounding)
    # every field holds its 80 digits
    assert len(rc.kappa.as_tuple().digits) == 80


def test_eta2_range_pinned():
    assert augmented.eta2_range(10, fake_spectral(beta=2.0, psi=1.0),
                                0.1) == pytest.approx(4.0, abs=1e-15)


def test_graph_constants_helper():
    _, trace = run_pair(seed=3, n=3, max_events=40, kind="round_robin",
                        d_max=0)
    b, d_g = graph_constants(trace)
    assert b == 3
    assert d_g == graph.diameter(trace.graph)
