"""Node-local protocol: sample selection windows, activation arithmetic,
buffer lifecycle, and mass conservation."""

from __future__ import annotations

import numpy as np
import pytest

from asyncsag import mspbe
from asyncsag.protocol import (Message, Reception, SampleSelector, activate,
                               init_node, local_residual, selector_rng)


def scalar_stats(phi=0.0, psi=0.0, r=0.0):
    """d = 1 sample with A_hat = phi*psi, b_hat = phi*r, C_hat = phi**2."""
    return mspbe.SampleStats(np.array([phi]), np.array([psi]), r)


def make_node(samples, z0, out_degree=2, m_global=None, rho=0.1, seed=0,
              node_id=0):
    m_global = len(samples) if m_global is None else m_global
    selector = SampleSelector(len(samples), selector_rng(seed, node_id))
    return init_node(node_id, samples, z0, out_degree, m_global, rho, selector)


def test_selector_covers_every_window():
    # within any K = 2m-1 consecutive picks every sample index appears
    for seed in range(5):
        for m in (1, 2, 5, 8):
            sel = SampleSelector(m, selector_rng(seed, 0))
            K = sel.window
            assert K == 2 * m - 1
            picks = [sel.next() for _ in range(6 * m + 3)]
            for start in range(len(picks) - K + 1):
                assert set(picks[start:start + K]) == set(range(m))


def test_selector_epochs_are_permutations():
    sel = SampleSelector(6, selector_rng(3, 1))
    first = [sel.next() for _ in range(6)]
    second = [sel.next() for _ in range(6)]
    assert sorted(first) == list(range(6))
    assert sorted(second) == list(range(6))


def test_selector_deterministic_per_seed_and_node():
    a = SampleSelector(5, selector_rng(7, 2))
    b = SampleSelector(5, selector_rng(7, 2))
    c = SampleSelector(5, selector_rng(7, 3))
    seq_a = [a.next() for _ in range(20)]
    seq_b = [b.next() for _ in range(20)]
    seq_c = [c.next() for _ in range(20)]
    assert seq_a == seq_b
    assert seq_a != seq_c


def test_init_node_table_and_tracker():
    samples = [scalar_stats(phi=0.5, psi=2.0, r=4.0) for _ in range(3)]
    z0 = np.array([2.0, -1.0])
    node, payload = make_node(samples, z0, out_degree=2, m_global=6)
    expected_g = mspbe.saddle_gradient(z0, samples[0], 0.1)
    assert np.allclose(node.table, np.tile(expected_g, (3, 1)))
    # tracker divides by the GLOBAL sample count
    assert np.allclose(node.y, 3 * expected_g / 6)
    # payload carries z0 and the out-degree share of y
    assert np.allclose(payload[0], z0)
    assert np.allclose(payload[1], node.y / 2)
    # self-copy pre-buffered with provenance event 0
    assert len(node.buffer) == 1
    assert node.buffer[0].origin == 0
    assert node.buffer[0].sent_event == 0


def test_activation_arithmetic_pinned():
    """Table-correction pin: y = 0.5 + (4 - 2)/4 = 1.0.

    Stats (phi=1, psi=0, r=4, rho=4) make the gradient
    [psi*(phi*omega) + rho*theta; phi*(phi*omega + r - psi*theta)] equal
    [0 + 4; 0 + 4 - 0] = [4; 4] at z_hat = [1, 0]; the stored table entry is
    forced to 2 and the buffered tracker share to 0.5 with m_global = 4.
    """
    samples = [scalar_stats(phi=1.0, psi=0.0, r=4.0)]
    node, _ = make_node(samples, np.zeros(2), out_degree=1, m_global=4, rho=4.0)
    node.table[0] = np.array([2.0, 2.0])
    node.buffer = [Reception(z_tilde=np.array([1.0, 0.0]),
                             y_tilde=np.array([0.5, 0.5]),
                             origin=0, sent_event=0)]
    res = activate(node, eta1=0.1, eta2=0.2, current_event=1)
    assert np.allclose(res.z_hat, [1.0, 0.0])
    assert np.allclose(res.y_new, [1.0, 1.0])
    assert np.allclose(node.table[0], [4.0, 4.0])
    # primal and dual blocks step with their own rates
    assert np.allclose(res.z_tilde, [1.0 - 0.1, 0.0 - 0.2])
    assert np.allclose(res.y_tilde, res.y_new)  # out_degree 1
    assert np.allclose(node.z, res.z_tilde)


def test_pull_is_mean_push_is_sum():
    samples = [scalar_stats(phi=1.0, r=1.0)]
    node, _ = make_node(samples, np.zeros(2), out_degree=3, m_global=9)
    node.buffer = [
        Reception(np.array([1.0, 0.0]), np.array([0.3, 0.0]), 1, 0),
        Reception(np.array([3.0, 2.0]), np.array([0.5, 1.0]), 2, 0),
    ]
    res = activate(node, 0.0, 0.0, current_event=5)
    assert np.allclose(res.z_hat, [2.0, 1.0])  # mean of pulls
    # y starts from the SUM of shares before the table correction
    y_base = np.array([0.8, 1.0])
    g = node.table[0]  # refreshed entry equals gradient at z_hat
    expected = y_base + (g - mspbe.saddle_gradient(np.zeros(2), samples[0], 0.1)) / 9
    assert np.allclose(res.y_new, expected)


def test_buffer_lifecycle_and_self_copy():
    samples = [scalar_stats(phi=1.0, r=1.0)]
    node, _ = make_node(samples, np.zeros(2), out_degree=2)
    assert len(node.buffer) == 1
    node.buffer.append(Reception(np.ones(2), np.ones(2), 1, 2))
    res = activate(node, 0.1, 0.1, current_event=7)
    assert res.consumed == ((0, 0), (1, 2))
    # buffer now holds exactly the fresh self-copy
    assert len(node.buffer) == 1
    assert node.buffer[0].origin == 0
    assert node.buffer[0].sent_event == 7
    assert np.allclose(node.buffer[0].z_tilde, res.z_tilde)
    assert np.allclose(node.buffer[0].y_tilde, res.y_tilde)


def test_activate_empty_buffer_raises():
    samples = [scalar_stats()]
    node, _ = make_node(samples, np.zeros(2))
    node.buffer = []
    with pytest.raises(RuntimeError):
        activate(node, 0.1, 0.1, current_event=1)


def test_on_receive_rejects_wrong_destination():
    from asyncsag.protocol import on_receive
    samples = [scalar_stats()]
    node, _ = make_node(samples, np.zeros(2), node_id=0)
    msg = Message(origin=1, dest=2, sent_at=1, deliver_at=1)
    with pytest.raises(ValueError):
        on_receive(node, msg, np.zeros(2), np.zeros(2))


def test_message_rejects_delivery_before_send():
    with pytest.raises(ValueError):
        Message(origin=0, dest=1, sent_at=5, deliver_at=4)


def test_duplicate_receptions_are_kept():
    from asyncsag.protocol import on_receive
    samples = [scalar_stats()]
    node, _ = make_node(samples, np.zeros(2), node_id=0)
    payload = Message(origin=1, dest=0, sent_at=1, deliver_at=1)
    on_receive(node, payload, np.ones(2), np.ones(2))
    on_receive(node, payload, np.ones(2), np.ones(2))
    assert len(node.buffer) == 3  # self-copy + two duplicates


def test_table_soundness_against_eval_points():
    # every table row equals the gradient of its sample at its eval point:
    # the pull average z_hat of the last activation that drew it, or z0
    rng = np.random.default_rng(0)
    samples = [scalar_stats(phi=float(rng.normal()), psi=float(rng.normal()),
                            r=float(rng.normal()))
               for _ in range(4)]
    z0 = rng.normal(size=2)
    node, _ = make_node(samples, z0, out_degree=2, seed=5)
    eval_points = np.tile(z0, (4, 1))
    for k in range(1, 30):
        node.buffer.append(Reception(rng.normal(size=2), rng.normal(size=2),
                                     1, k - 1))
        result = activate(node, 0.05, 0.1, current_event=k)
        for p in result.samples:
            eval_points[p] = result.z_hat
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
    nodes = []
    shares = []   # alive (unconsumed) payload shares, one per out-edge copy
    for i, samples in enumerate(all_samples):
        node, payload = make_node(samples, np.zeros(2), out_degree=2,
                                  m_global=m, node_id=i, seed=9)
        nodes.append(node)
        shares.append([payload[1]])        # copy sent to the peer
        shares[i].append(node.buffer[0].y_tilde)  # self-copy

    def global_table_mean():
        return sum(node.table.sum(axis=0) for node in nodes) / m

    inflight = {0: [], 1: []}  # payloads waiting at each destination
    for i, node in enumerate(nodes):
        inflight[1 - i].append(shares[i][0])

    for k in range(1, 25):
        i = int(rng.integers(0, 2))
        node = nodes[i]
        # deliver anything in flight
        for y_share in inflight[i]:
            node.buffer.append(Reception(rng.normal(size=2), y_share, 1 - i, k))
        inflight[i] = []
        res = activate(node, 0.02, 0.05, current_event=k)
        # the new mass splits into out_degree shares (peer copy + self copy)
        inflight[1 - i].append(res.y_tilde)
        total = sum(buf.y_tilde for nd in nodes for buf in nd.buffer)
        total = total + sum(s for dest in inflight.values() for s in dest)
        assert np.allclose(total, global_table_mean(), atol=1e-12), k


def test_local_residual_is_tracker_norm():
    samples = [scalar_stats(phi=1.0, r=2.0)]
    node, _ = make_node(samples, np.zeros(2))
    assert local_residual(node) == pytest.approx(float(np.linalg.norm(node.y)))
