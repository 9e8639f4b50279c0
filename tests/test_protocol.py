"""Node-local protocol: sample selection windows, activation arithmetic,
buffer lifecycle, and mass conservation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncsag import mspbe
from asyncsag.protocol import (Message, PayloadTable, SampleSelector, activate,
                               init_node, on_receive, selector_rng)


def scalar_stats(phi=0.0, psi=0.0, r=0.0):
    """d = 1 sample with A_hat = phi*psi, b_hat = phi*r, C_hat = phi**2."""
    return mspbe.SampleStats(np.array([phi]), np.array([psi]), r)


def make_node(samples, out_degree=2, m_global=None, rho=0.1, seed=0,
              node_id=0, payloads=None):
    """A node, at z = 0, whose initial broadcast is row ``node_id`` of
    ``payloads`` (a fresh 64-row table unless given)."""
    m_global = len(samples) if m_global is None else m_global
    payloads = (PayloadTable.empty(64, 2 * samples[0].phi.shape[0])
                if payloads is None else payloads)
    selector = SampleSelector(len(samples), selector_rng(seed, node_id))
    node = init_node(node_id, samples, out_degree, m_global, rho,
                     selector, payloads, row=node_id)
    return node, payloads


def put(payloads, row, z, y_share, degree=1):
    """Write a broadcast whose copies carry (z, y_share) into ``row``."""
    payloads.z[row] = z
    payloads.y[row] = np.asarray(y_share) * degree
    payloads.degree[row] = degree


def share(payloads, row):
    return payloads.y[row] / payloads.degree[row]


def permutation_epochs(m, seed, node_id, count):
    """The first ``count`` picks of a random-reshuffle selector, spelled
    out: one ``rng.permutation(m)`` epoch after another, from the node's
    selector stream."""
    rng = selector_rng(seed, node_id)
    picks = []
    while len(picks) < count:
        picks += rng.permutation(m).tolist()
    return picks[:count]


def test_selector_covers_every_window():
    # within any K = 2m-1 consecutive picks every sample index appears
    for seed in range(5):
        for m in (1, 2, 5, 8):
            K = 2 * m - 1
            picks = SampleSelector(m, selector_rng(seed, 0)).take(
                6 * m + 3).tolist()
            for start in range(len(picks) - K + 1):
                assert set(picks[start:start + K]) == set(range(m))


def test_selector_epochs_are_permutations():
    sel = SampleSelector(6, selector_rng(3, 1))
    first, second = sel.take(6).tolist(), sel.take(6).tolist()
    assert sorted(first) == list(range(6))
    assert sorted(second) == list(range(6))


def test_selector_deterministic_per_seed_and_node():
    a = SampleSelector(5, selector_rng(7, 2))
    b = SampleSelector(5, selector_rng(7, 2))
    c = SampleSelector(5, selector_rng(7, 3))
    seq_a, seq_b, seq_c = (sel.take(20).tolist() for sel in (a, b, c))
    assert seq_a == seq_b
    assert seq_a != seq_c


def test_selector_take_draws_permutation_epochs():
    for m in (1, 3, 7):
        for seed, node_id in ((4, 1), (0, 0), (29, 5)):
            taken = SampleSelector(m, selector_rng(seed, node_id)).take(40)
            assert taken.dtype == np.int64
            assert taken.tolist() == permutation_epochs(m, seed, node_id, 40)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 9), chunks=st.lists(st.integers(0, 25), max_size=12))
def test_selector_picks_do_not_depend_on_chunking(m, chunks):
    """The engine takes each node's picks a block at a time, and the
    centralized baseline all at once; the single-node run equals the
    baseline bit for bit only if the picks are the same either way."""
    sel = SampleSelector(m, selector_rng(6, 0))
    taken = [sel.take(count).tolist() for count in chunks]
    assert [len(part) for part in taken] == chunks
    assert sum(taken, []) == permutation_epochs(m, 6, 0, sum(chunks))


def test_init_node_table_and_tracker():
    samples = [scalar_stats(phi=0.5, psi=2.0, r=4.0) for _ in range(3)]
    node, payloads = make_node(samples, out_degree=2, m_global=6)
    # at z = 0 the gradient is [0; phi * r]: the dual block is not zero
    expected_g = mspbe.saddle_gradient(np.zeros(2), samples[0], 0.1)
    assert np.array_equal(expected_g, [0.0, 2.0])
    assert np.allclose(node.table, np.tile(expected_g, (3, 1)))
    # the broadcast row carries z = 0 and the tracker, which divides by the
    # GLOBAL sample count, and its copies the out-degree share of it
    assert np.array_equal(payloads.z[0], np.zeros(2))
    assert np.allclose(payloads.y[0], 3 * expected_g / 6)
    assert np.allclose(share(payloads, 0), 3 * expected_g / 6 / 2)
    # self-copy pre-buffered: the node's own initial row
    assert node.buffer == [0]


def test_activation_arithmetic_pinned():
    """Table-correction pin: y = 0.5 + (4 - 2)/4 = 1.0.

    Stats (phi=1, psi=0, r=4, rho=4) make the gradient
    [psi*(phi*omega) + rho*theta; phi*(phi*omega + r - psi*theta)] equal
    [0 + 4; 0 + 4 - 0] = [4; 4] at z_hat = [1, 0]; the stored table entry is
    forced to 2 and the buffered tracker share to 0.5 with m_global = 4.
    """
    samples = [scalar_stats(phi=1.0, psi=0.0, r=4.0)]
    node, payloads = make_node(samples, out_degree=1,
                               m_global=4, rho=4.0)
    node.table[0] = np.array([2.0, 2.0])
    put(payloads, 1, [1.0, 0.0], [0.5, 0.5])
    node.buffer = [1]
    z_hat = activate(node, payloads, 2, 0, eta1=0.1, eta2=0.2)
    assert np.allclose(z_hat, [1.0, 0.0])
    assert np.allclose(payloads.y[2], [1.0, 1.0])
    assert np.allclose(node.table[0], [4.0, 4.0])
    # primal and dual blocks step with their own rates
    assert np.allclose(payloads.z[2], [1.0 - 0.1, 0.0 - 0.2])
    assert np.allclose(share(payloads, 2), [1.0, 1.0])  # out_degree 1


def test_pull_is_mean_push_is_sum():
    samples = [scalar_stats(phi=1.0, r=1.0)]
    node, payloads = make_node(samples, out_degree=3, m_global=9)
    put(payloads, 1, [1.0, 0.0], [0.3, 0.0])
    put(payloads, 2, [3.0, 2.0], [0.5, 1.0], degree=2)
    node.buffer = [1, 2]
    z_hat = activate(node, payloads, 3, 0, 0.0, 0.0)
    assert np.allclose(z_hat, [2.0, 1.0])  # mean of pulls
    # y starts from the SUM of shares before the table correction
    y_base = np.array([0.8, 1.0])
    g = node.table[0]  # refreshed entry equals gradient at z_hat
    expected = y_base + (g - mspbe.saddle_gradient(np.zeros(2), samples[0], 0.1)) / 9
    assert np.allclose(payloads.y[3], expected)


def test_buffer_lifecycle_and_self_copy():
    samples = [scalar_stats(phi=1.0, r=1.0)]
    node, payloads = make_node(samples, out_degree=2)
    assert node.buffer == [0]
    put(payloads, 1, np.ones(2), np.ones(2))
    on_receive(node, 0, 1)
    assert node.buffer == [0, 1]
    z_hat = activate(node, payloads, 7, 0, 0.1, 0.1)
    # buffer now holds exactly the fresh self-copy: the row just written
    assert node.buffer == [7]
    assert np.allclose(payloads.z[7], z_hat - 0.1 * payloads.y[7])
    assert np.allclose(share(payloads, 7), payloads.y[7] / 2)


def test_activate_empty_buffer_raises():
    samples = [scalar_stats()]
    node, payloads = make_node(samples)
    node.buffer = []
    with pytest.raises(RuntimeError):
        activate(node, payloads, 1, 0, 0.1, 0.1)


def test_on_receive_rejects_wrong_destination():
    samples = [scalar_stats()]
    node, _ = make_node(samples, node_id=0)
    with pytest.raises(ValueError):
        on_receive(node, 2, 1)
    assert node.buffer == [0]


def test_message_rejects_delivery_before_send():
    with pytest.raises(ValueError):
        Message(origin=0, dest=1, sent_at=5, deliver_at=4)


def test_duplicate_receptions_are_kept():
    samples = [scalar_stats()]
    node, _ = make_node(samples, node_id=0)
    on_receive(node, 0, 1)
    on_receive(node, 0, 1)
    assert node.buffer == [0, 1, 1]  # self-copy + two duplicates


def test_table_soundness_against_eval_points():
    # every table row equals the gradient of its sample at its eval point:
    # the pull average z_hat of the last activation that drew it, or 0
    rng = np.random.default_rng(0)
    samples = [scalar_stats(phi=float(rng.normal()), psi=float(rng.normal()),
                            r=float(rng.normal()))
               for _ in range(4)]
    node, payloads = make_node(samples, out_degree=2, seed=5)
    eval_points = np.zeros((4, 2))
    for k in range(1, 30):
        put(payloads, 2 * k - 1, rng.normal(size=2), rng.normal(size=2))
        on_receive(node, 0, 2 * k - 1)
        (pick,) = node.selector.take(1).tolist()
        eval_points[pick] = activate(node, payloads, 2 * k, pick, 0.05, 0.1)
        for p in range(4):
            expected = mspbe.saddle_gradient(eval_points[p], samples[p], 0.1)
            assert np.allclose(node.table[p], expected, atol=1e-13)


def test_mass_conservation_two_node_relay():
    """Sum over unconsumed shares equals the global table mean after every
    event (self-copies included)."""
    rng = np.random.default_rng(2)
    all_samples = [
        [scalar_stats(phi=0.5, psi=0.8, r=2.0),
         scalar_stats(phi=0.9, psi=-0.2, r=0.5)],
        [scalar_stats(phi=0.7, psi=0.1, r=-1.4)],
    ]
    m = 3
    payloads = PayloadTable.empty(32, 2)
    nodes = [make_node(samples, out_degree=2, m_global=m,
                       node_id=i, seed=9, payloads=payloads)[0]
             for i, samples in enumerate(all_samples)]

    def global_table_mean():
        return sum(node.table.sum(axis=0) for node in nodes) / m

    # rows waiting at each destination: the peer's initial broadcast
    inflight = {0: [1], 1: [0]}
    for k in range(1, 25):
        i = int(rng.integers(0, 2))
        node = nodes[i]
        # deliver anything in flight
        for row in inflight[i]:
            on_receive(node, i, row)
        inflight[i] = []
        (pick,) = node.selector.take(1).tolist()
        activate(node, payloads, k + 1, pick, 0.02, 0.05)
        # the new mass splits into out_degree shares (peer copy + self copy)
        inflight[1 - i].append(k + 1)
        alive = [row for nd in nodes for row in nd.buffer]
        alive += [row for dest in inflight.values() for row in dest]
        total = sum(share(payloads, row) for row in alive)
        assert np.allclose(total, global_table_mean(), atol=1e-12), k

