"""Node-local protocol: sample selection windows, activation arithmetic,
buffer lifecycle, and mass conservation.

A node's tracker is Y = m y, in units of the global sample count m, and its
table holds G_s z without the offsets g_s, which cancel in every change of
Y; payload rows carry [z | Y / out_degree] and ``PayloadTable.y`` holds Y."""

from __future__ import annotations

import numpy as np
import pytest

from asyncsag import mspbe
from asyncsag.protocol import (Message, PayloadTable, activate, init_node,
                               on_receive, sample_picks, selector_rng)
from helpers import sample_map


def scalar_stats(phi=0.0, psi=0.0, r=0.0):
    """d = 1 sample with A_hat = phi*psi, b_hat = phi*r, C_hat = phi**2."""
    return mspbe.SampleStats(np.array([phi]), np.array([psi]), r)


def make_node(samples, out_degree=2, m_global=None, rho=0.1, node_id=0,
              payloads=None, etas=(0.1, 0.1)):
    """A node, at z = 0, with steps ``etas``, whose initial broadcast is row
    ``node_id`` of ``payloads`` (a fresh 64-row table unless given)."""
    m_global = len(samples) if m_global is None else m_global
    payloads = (PayloadTable.empty(64, 2 * samples[0].phi.shape[0])
                if payloads is None else payloads)
    linear, offset = mspbe.ProblemSpec((tuple(samples),), rho).maps
    node = init_node(node_id, linear, offset, out_degree, m_global, *etas,
                     payloads, row=node_id)
    return node, payloads


def gradient(z, stats, rho=0.1):
    """One sample's gradient map at ``z``."""
    return mspbe.saddle_gradient(np.asarray(z, dtype=float),
                                 *sample_map(stats, rho))


def table_entry(z, stats, rho=0.1):
    """What a table stores for one sample at ``z``: G_s z, its gradient
    less the offset g_s."""
    return gradient(z, stats, rho) - sample_map(stats, rho)[1]


def put(payloads, row, z, y_share, degree=1):
    """Write a broadcast whose copies carry (z, y_share) into ``row``."""
    width = payloads.y.shape[1]
    payloads.rows[row, :width] = z
    payloads.rows[row, width:] = y_share
    payloads.y[row] = np.asarray(y_share) * degree


def share(payloads, row):
    """The tracker share that every copy of broadcast ``row`` carries."""
    return payloads.rows[row, payloads.y.shape[1]:]


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
            picks = sample_picks(m, selector_rng(seed, 0), 6 * m + 3).tolist()
            for start in range(len(picks) - K + 1):
                assert set(picks[start:start + K]) == set(range(m))


def test_selector_epochs_are_permutations():
    picks = sample_picks(6, selector_rng(3, 1), 12).tolist()
    first, second = picks[:6], picks[6:]
    assert sorted(first) == list(range(6))
    assert sorted(second) == list(range(6))


def test_selector_deterministic_per_seed_and_node():
    seq_a, seq_b, seq_c = (sample_picks(5, rng, 20).tolist() for rng in
                           (selector_rng(7, 2), selector_rng(7, 2),
                            selector_rng(7, 3)))
    assert seq_a == seq_b
    assert seq_a != seq_c


def test_selector_picks_are_permutation_epochs():
    for m in (1, 3, 7):
        for seed, node_id in ((4, 1), (0, 0), (29, 5)):
            for count in (0, 1, m, 40):
                picks = sample_picks(m, selector_rng(seed, node_id), count)
                assert picks.dtype == np.int64
                assert picks.tolist() == permutation_epochs(m, seed, node_id,
                                                            count)
    with pytest.raises(ValueError):
        sample_picks(0, selector_rng(0, 0), 3)


def test_init_node_table_and_tracker():
    samples = [scalar_stats(phi=0.5, psi=2.0, r=4.0) for _ in range(3)]
    node, payloads = make_node(samples, out_degree=2, m_global=6,
                               etas=(0.1, 0.3))
    # at z = 0 the gradient is [0; phi * r]: the dual block is not zero
    expected_g = gradient(np.zeros(2), samples[0])
    assert np.array_equal(expected_g, [0.0, 2.0])
    # the table holds G_s 0 = 0; the offsets are in the tracker
    assert np.array_equal(node.table, np.zeros((3, 2)))
    # the broadcast row carries z = 0 and Y = m y, the sum of the offsets,
    # and its copies the out-degree share of it
    assert np.array_equal(payloads.rows[0, :2], np.zeros(2))
    assert np.array_equal(payloads.y[0], 3 * expected_g)
    assert np.array_equal(share(payloads, 0), 3 * expected_g / 2)
    # the broadcast map steps along Y / m, with the GLOBAL sample count m
    assert np.array_equal(node.push, [[1.0, 0.0, -0.1 / 6, 0.0],
                                      [0.0, 1.0, 0.0, -0.3 / 6],
                                      [0.0, 0.0, 0.5, 0.0],
                                      [0.0, 0.0, 0.0, 0.5]])
    # self-copy pre-buffered: the node's own initial row
    assert node.buffer == [0]


def test_activation_arithmetic_pinned():
    """Table-correction pin: Y = 2 + ([4, 0] - [2, -2]) = [4, 4], y = Y / 4
    = 1.

    Stats (phi=1, psi=0, r=4, rho=4) make the gradient
    [psi*(phi*omega) + rho*theta; phi*(phi*omega + r - psi*theta)] equal
    [0 + 4; 0 + 4 - 0] = [4; 4] at z_hat = [1, 0], so the table entry
    G_s z_hat is [4; 0] (g_s = [0; 4]); the stored entry is forced to
    [2; -2] (a stored gradient of [2; 2]) and the buffered tracker share to
    2 with m_global = 4.
    """
    samples = [scalar_stats(phi=1.0, psi=0.0, r=4.0)]
    node, payloads = make_node(samples, out_degree=1,
                               m_global=4, rho=4.0, etas=(0.1, 0.2))
    node.table[0] = np.array([2.0, -2.0])
    put(payloads, 1, [1.0, 0.0], [2.0, 2.0])
    node.buffer = [1]
    z_hat = activate(node, payloads, 2, 0)
    assert np.array_equal(z_hat, [1.0, 0.0])
    assert np.array_equal(payloads.y[2], [4.0, 4.0])
    assert np.array_equal(node.table[0], [4.0, 0.0])
    # primal and dual blocks step with their own rates, along Y / m = y
    assert np.allclose(payloads.rows[2, :2], [1.0 - 0.1, 0.0 - 0.2])
    assert np.array_equal(share(payloads, 2), [4.0, 4.0])  # out_degree 1


def test_pull_is_mean_push_is_sum():
    samples = [scalar_stats(phi=1.0, r=1.0)]
    node, payloads = make_node(samples, out_degree=3, m_global=9,
                               etas=(0.0, 0.0))
    put(payloads, 1, [1.0, 0.0], [0.3, 0.0])
    put(payloads, 2, [3.0, 2.0], [0.5, 1.0], degree=2)
    node.buffer = [1, 2]
    z_hat = activate(node, payloads, 3, 0)
    assert np.allclose(z_hat, [2.0, 1.0])  # mean of pulls
    # Y starts from the SUM of shares before the table correction, and the
    # table entry at z = 0 was zero
    y_base = np.array([0.8, 1.0])
    assert np.allclose(node.table[0], table_entry(z_hat, samples[0]))
    assert np.allclose(payloads.y[3], y_base + node.table[0])
    # zero steps broadcast the pull mean itself
    assert np.array_equal(payloads.rows[3, :2], z_hat)


def test_buffer_lifecycle_and_self_copy():
    samples = [scalar_stats(phi=1.0, r=1.0)]
    node, payloads = make_node(samples, out_degree=2)
    assert node.buffer == [0]
    put(payloads, 1, np.ones(2), np.ones(2))
    on_receive(node, 0, 1)
    assert node.buffer == [0, 1]
    z_hat = activate(node, payloads, 7, 0)
    # buffer now holds exactly the fresh self-copy: the row just written
    assert node.buffer == [7]
    # m = 1, so the step is along Y itself
    assert np.allclose(payloads.rows[7, :2], z_hat - 0.1 * payloads.y[7])
    assert np.array_equal(share(payloads, 7), payloads.y[7] / 2)


def test_activate_empty_buffer_raises():
    samples = [scalar_stats()]
    node, payloads = make_node(samples)
    node.buffer = []
    with pytest.raises(RuntimeError):
        activate(node, payloads, 1, 0)


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
    # every table row equals G_s at its eval point, the pull average z_hat
    # of the last activation that drew it, or 0
    rng = np.random.default_rng(0)
    samples = [scalar_stats(phi=float(rng.normal()), psi=float(rng.normal()),
                            r=float(rng.normal()))
               for _ in range(4)]
    node, payloads = make_node(samples, out_degree=2, etas=(0.05, 0.1))
    picks = sample_picks(4, selector_rng(5, 0), 29).tolist()
    eval_points = np.zeros((4, 2))
    for k, pick in enumerate(picks, start=1):
        put(payloads, 2 * k - 1, rng.normal(size=2), rng.normal(size=2))
        on_receive(node, 0, 2 * k - 1)
        eval_points[pick] = activate(node, payloads, 2 * k, pick)
        for p in range(4):
            expected = table_entry(eval_points[p], samples[p])
            assert np.allclose(node.table[p], expected, atol=1e-13)


def test_mass_conservation_two_node_relay():
    """Sum over unconsumed shares equals m times the global gradient mean,
    the sum of every table entry and every offset, after every event
    (self-copies included)."""
    rng = np.random.default_rng(2)
    all_samples = [
        [scalar_stats(phi=0.5, psi=0.8, r=2.0),
         scalar_stats(phi=0.9, psi=-0.2, r=0.5)],
        [scalar_stats(phi=0.7, psi=0.1, r=-1.4)],
    ]
    m = 3
    payloads = PayloadTable.empty(32, 2)
    nodes = [make_node(samples, out_degree=2, m_global=m,
                       node_id=i, payloads=payloads, etas=(0.02, 0.05))[0]
             for i, samples in enumerate(all_samples)]
    # each node's picks, as many as there are events
    picks = [iter(sample_picks(len(samples), selector_rng(9, i), 24).tolist())
             for i, samples in enumerate(all_samples)]

    offsets = sum(mspbe.ProblemSpec((tuple(samples),), 0.1).maps[1].sum(axis=0)
                  for samples in all_samples)

    def global_gradient_sum():
        return sum(np.sum(node.table, axis=0) for node in nodes) + offsets

    # rows waiting at each destination: the peer's initial broadcast
    inflight = {0: [1], 1: [0]}
    for k in range(1, 25):
        i = int(rng.integers(0, 2))
        node = nodes[i]
        # deliver anything in flight
        for row in inflight[i]:
            on_receive(node, i, row)
        inflight[i] = []
        pick = next(picks[i])
        activate(node, payloads, k + 1, pick)
        # the new mass splits into out_degree shares (peer copy + self copy)
        inflight[1 - i].append(k + 1)
        alive = [row for nd in nodes for row in nd.buffer]
        alive += [row for dest in inflight.values() for row in dest]
        total = sum(share(payloads, row) for row in alive)
        assert np.allclose(total, global_gradient_sum(), atol=1e-12), k

