"""Synthetic MDP pipeline: chains, stationary laws, trajectories, features,
and sample partitioning."""

from __future__ import annotations

import logging
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncsag import graph, mdp
from helpers import bfs_distances


def small_mdp(seed=0, num_states=8, num_actions=3, streams=2):
    return mdp.build_random_mdp(num_states, num_actions, streams, seed)


def dense_rewards(num_states, num_actions, streams, seed):
    """Oracle: the whole (streams, S, A, S) reward table, drawn densely from
    the generator ``build_random_mdp`` seeds, right after its transitions."""
    rng = np.random.default_rng(np.random.SeedSequence([0x4D4450, seed]))
    rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
    return rng.random((streams, num_states, num_actions, num_states))


def all_rewards(m):
    """Every entry of ``m``'s reward table, read through ``rewards_at``."""
    s, a, s_next = np.indices(
        (m.num_states, m.num_actions, m.num_states)).reshape(3, -1)
    table = m.rewards_at(s, a, s_next)
    return table.T.reshape(m.num_streams, m.num_states, m.num_actions,
                           m.num_states)


def some_reward_state():
    """A reward generator state for MDPs built by hand."""
    return np.random.PCG64(0).state


def test_transition_rows_are_distributions():
    m = small_mdp()
    sums = m.transitions.sum(axis=2)
    assert np.allclose(sums, 1.0, atol=1e-12)
    assert (m.transitions >= 0).all()


def test_build_is_deterministic_in_seed():
    a, b = small_mdp(seed=5), small_mdp(seed=5)
    assert np.array_equal(a.transitions, b.transitions)
    oracle = dense_rewards(8, 3, 2, seed=5)
    assert all_rewards(a).tobytes() == oracle.tobytes()
    assert all_rewards(b).tobytes() == oracle.tobytes()
    c = small_mdp(seed=6)
    assert not np.array_equal(a.transitions, c.transitions)
    assert not np.array_equal(all_rewards(c), oracle)


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(2, 7), st.integers(1, 3), st.integers(1, 4)),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_rewards_at_matches_dense_draw(shape, seed, data):
    """Unsorted indices with repeats read the dense table's entries bitwise."""
    num_states, num_actions, streams = shape
    m = mdp.build_random_mdp(num_states, num_actions, streams, seed)
    oracle = dense_rewards(num_states, num_actions, streams, seed)
    length = data.draw(st.integers(0, 40))
    s, a, s_next = (
        np.array(data.draw(st.lists(st.integers(0, size - 1),
                                    min_size=length, max_size=length)),
                 dtype=np.int64)
        for size in (num_states, num_actions, num_states))
    got = m.rewards_at(s, a, s_next)
    assert got.shape == (length, streams)
    assert got.tobytes() == oracle[:, s, a, s_next].T.tobytes()


def test_rewards_at_pinned_on_marl9_shape():
    m = mdp.build_random_mdp(512, 2, 9, 23)
    oracle = dense_rewards(512, 2, 9, 23)
    rng = np.random.default_rng(1)
    s, s_next = rng.integers(0, 512, (2, 450))
    a = rng.integers(0, 2, 450)
    assert m.rewards_at(s, a, s_next).tobytes() == \
        oracle[:, s, a, s_next].T.tobytes()


@pytest.mark.parametrize("name,index", [
    ("s", (8, 0, 0)), ("s", (-1, 0, 0)), ("a", (0, 3, 0)),
    ("s_next", (0, 0, 8)), ("s_next", (0, 0, -1)),
])
def test_rewards_at_rejects_out_of_range_index(name, index):
    m = small_mdp()
    s, a, s_next = ([v, 0] for v in index)
    with pytest.raises(ValueError, match=f"^{name} has an index outside"):
        m.rewards_at(s, a, s_next)


def test_build_random_mdp_memory_is_not_a_dense_reward_table():
    # the dense (9, 512, 2, 512) table alone is 37.7 MB
    tracemalloc.start()
    try:
        mdp.build_random_mdp(512, 2, 9, 23)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_chain_matrix_is_policy_average():
    m = small_mdp()
    policy = mdp.random_policy(8, 3, 1)
    P = mdp.chain_matrix(m, policy)
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
    # oracle: explicit loop
    expected = np.zeros((8, 8))
    for s in range(8):
        for a in range(3):
            expected[s] += policy[s, a] * m.transitions[s, a]
    assert np.allclose(P, expected, atol=1e-14)


def test_stationary_distribution_against_power_iteration():
    m = small_mdp(seed=3)
    policy = mdp.random_policy(8, 3, 3)
    mu = mdp.stationary_distribution(m, policy)
    assert mu.shape == (8,)
    assert abs(mu.sum() - 1) < 1e-12
    assert (mu >= 0).all()
    # oracle: power iteration to convergence
    P = mdp.chain_matrix(m, policy)
    v = np.full(8, 1 / 8)
    for _ in range(20000):
        v = v @ P
    assert np.max(np.abs(v - mu)) < 1e-8


def test_stationary_distribution_rejects_reducible_chain_naming_states():
    # two absorbing blocks
    transitions = np.zeros((4, 1, 4))
    for s in range(4):
        transitions[s, 0, s] = 1.0
    m = mdp.Mdp(transitions, some_reward_state(), 1)
    policy = np.ones((4, 1))
    with pytest.raises(ValueError) as err:
        mdp.stationary_distribution(m, policy)
    # state 0 is absorbing, so every other state is named
    assert "states [1, 2, 3] " in str(err.value)


def test_irreducibility_check_matches_graph_search():
    """The reachability sweeps name the same states as a breadth-first
    search over the chain's support graph, the reference implementation."""
    rng = np.random.default_rng(4)
    outcomes = set()
    for _ in range(40):
        s = int(rng.integers(2, 9))
        support = rng.random((s, s)) < rng.uniform(0.1, 0.5)
        np.fill_diagonal(support, True)  # every row needs some mass
        chain = mdp.Mdp((support / support.sum(axis=1, keepdims=True))[:, None],
                        some_reward_state(), 1)
        g = graph.DirectedGraph(
            s, [(i, j) for i, j in zip(*np.nonzero(support)) if i != j])
        both = (bfs_distances(g, 0).keys()
                & bfs_distances(g, 0, reverse=True).keys())
        bad = sorted(set(range(s)) - both)
        outcomes.add(bool(bad))
        if bad:
            with pytest.raises(ValueError, match=re.escape(f"states {bad} ")):
                mdp.stationary_distribution(chain, np.ones((s, 1)))
        else:
            mdp.stationary_distribution(chain, np.ones((s, 1)))
    assert outcomes == {True, False}


def test_trajectory_empirical_frequencies_match_stationary():
    m = small_mdp(seed=3)
    policy = mdp.random_policy(8, 3, 3)
    mu = mdp.stationary_distribution(m, policy)
    traj = mdp.sample_trajectory(m, policy, 60000, seed=3)
    states = np.array([t.s for t in traj])
    freq = np.bincount(states, minlength=8) / states.size
    assert np.abs(freq - mu).sum() / 2 < 0.01  # total variation


def test_trajectory_is_consistent_chain():
    m = small_mdp(seed=9)
    policy = mdp.random_policy(8, 3, 9)
    traj = mdp.sample_trajectory(m, policy, 50, seed=4)
    assert len(traj) == 49
    for first, second in zip(traj, traj[1:]):
        assert first.s_next == second.s
    for t in traj:
        assert t.rewards.shape == (2,)


def test_feature_map_unit_rows_and_full_rank():
    phi = mdp.make_feature_map(12, 4, seed=0)
    assert phi.shape == (12, 4)
    assert np.allclose(np.linalg.norm(phi, axis=1), 1.0, atol=1e-12)
    assert np.linalg.matrix_rank(phi) == 4


def test_feature_map_rejects_dim_above_states():
    with pytest.raises(ValueError):
        mdp.make_feature_map(3, 5, seed=0)


GAMMA = 0.9


def _pipeline(seed=7, length=25, streams=4, num_states=10, d=3):
    m = mdp.build_random_mdp(num_states, 2, streams, seed)
    policy = mdp.random_policy(num_states, 2, seed)
    traj = mdp.sample_trajectory(m, policy, length, seed)
    feats = mdp.make_feature_map(num_states, d, seed)
    return m, traj, feats


def assert_stats_of(stats, tr, feats, stream):
    """Bit for bit, phi is the state's feature row, psi is
    feats[s] - GAMMA * feats[s_next], and the reward is the stream's."""
    assert stats.phi.dtype == stats.psi.dtype == feats.dtype
    assert stats.phi.tobytes() == feats[tr.s].tobytes()
    assert stats.psi.tobytes() == (
        feats[tr.s] - GAMMA * feats[tr.s_next]).tobytes()
    assert stats.reward == tr.rewards[stream]


def test_parallel_partition_is_disjoint_cover():
    _, traj, feats = _pipeline(length=25)
    per_node = mdp.partition_samples(traj, feats, "parallel", 4, GAMMA)
    sizes = [len(node) for node in per_node]
    assert sum(sizes) == 24
    assert max(sizes) - min(sizes) <= 1
    flat = [s for node in per_node for s in node]
    # disjoint contiguous cover: concatenation reproduces the trajectory order
    assert len(flat) == len(traj)
    for sample, tr in zip(flat, traj):
        assert_stats_of(sample, tr, feats, 0)


def test_parallel_partition_proportions_pinned():
    # pinned example: m=24000 with 1:2:3:4 gives the first node 2400
    m = mdp.build_random_mdp(6, 2, 1, 0)
    policy = mdp.random_policy(6, 2, 0)
    traj = mdp.sample_trajectory(m, policy, 24001, seed=0)
    feats = mdp.make_feature_map(6, 2, 0)
    per_node = mdp.partition_samples(traj, feats, "parallel", 4, GAMMA,
                                     proportions=[1, 2, 3, 4])
    assert [len(node) for node in per_node] == [2400, 4800, 7200, 9600]


def test_parallel_partition_uses_shared_reward_stream():
    _, traj, feats = _pipeline(streams=4, length=25)
    per_node = mdp.partition_samples(traj, feats, "parallel", 4, GAMMA)
    flat = [s for node in per_node for s in node]
    for sample, tr in zip(flat, traj):
        assert sample.reward == tr.rewards[0]
    assert any(tr.rewards[0] != tr.rewards[1] for tr in traj)


def test_marl_partition_shares_transitions_with_private_rewards():
    _, traj, feats = _pipeline(streams=3, length=31)
    per_node = mdp.partition_samples(traj, feats, "marl", 3, GAMMA)
    assert all(len(node) == 10 for node in per_node)
    for p in range(10):
        for i, node in enumerate(per_node):
            assert_stats_of(node[p], traj[p], feats, i)
    # private streams differ
    assert any(per_node[0][p].reward != per_node[1][p].reward
               for p in range(10))


def test_marl_truncation_warns(caplog):
    _, traj, feats = _pipeline(streams=3, length=32)  # 31 transitions
    with caplog.at_level(logging.WARNING):
        per_node = mdp.partition_samples(traj, feats, "marl", 3, GAMMA)
    assert all(len(node) == 10 for node in per_node)
    assert any("truncat" in rec.message.lower() for rec in caplog.records)


def test_marl_requires_enough_reward_streams():
    _, traj, feats = _pipeline(streams=2, length=25)
    with pytest.raises(ValueError):
        mdp.partition_samples(traj, feats, "marl", 3, GAMMA)


def test_partition_rejects_unknown_mode():
    _, traj, feats = _pipeline()
    with pytest.raises(ValueError):
        mdp.partition_samples(traj, feats, "shard", 2, GAMMA)


@pytest.mark.parametrize("mode", ["parallel", "marl"])
@pytest.mark.parametrize("gamma", [0.0, 1.0, float("nan")])
def test_partition_rejects_gamma_outside_the_open_unit_interval(mode, gamma):
    _, traj, feats = _pipeline()
    with pytest.raises(ValueError, match="^gamma must lie strictly in"):
        mdp.partition_samples(traj, feats, mode, 2, gamma)
