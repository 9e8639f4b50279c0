"""Finite MDPs, fixed-policy trajectories, feature maps, and sample partitioning.

A policy is a plain (S, A) row-stochastic array. A feature map is a plain
(S, d) array with unit-norm rows. Trajectories are lists of ``Transition``
tuples carrying one reward per reward stream, so the same rollout can feed
both data layouts: disjoint slices with a shared reward function ("parallel")
or a shared state stream with private rewards ("marl").
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

log = logging.getLogger(__name__)

_PROB_TOL = 1e-12


class Transition(NamedTuple):
    s: int
    a: int
    s_next: int
    rewards: np.ndarray  # one entry per reward stream


class TdSample(NamedTuple):
    """One feature-space transition: (phi_t, phi_{t+1}, scalar reward)."""

    phi_t: np.ndarray
    phi_tp1: np.ndarray
    reward: float


@dataclass(frozen=True)
class Mdp:
    """Finite MDP with per-stream rewards.

    transitions: (S, A, S) tensor, transitions[s, a] a probability row.
    rewards:     (streams, S, A, S) reward table, values in [0, 1).
    gamma:       discount, strictly inside (0, 1).
    """

    transitions: np.ndarray
    rewards: np.ndarray
    gamma: float

    def __post_init__(self):
        p = self.transitions
        if p.ndim != 3 or p.shape[0] != p.shape[2]:
            raise ValueError(f"transition tensor must be (S, A, S), got {p.shape}")
        if np.any(p < 0) or np.max(np.abs(p.sum(axis=2) - 1.0)) > _PROB_TOL:
            raise ValueError("transition rows must be probability vectors")
        if self.rewards.shape[1:] != p.shape:
            raise ValueError(
                f"reward table shape {self.rewards.shape} does not extend {p.shape}"
            )
        if not (0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma must lie strictly in (0, 1), got {self.gamma}")

    @property
    def num_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def num_actions(self) -> int:
        return self.transitions.shape[1]

    @property
    def num_streams(self) -> int:
        return self.rewards.shape[0]


def build_random_mdp(num_states: int, num_actions: int, num_streams: int,
                     seed: int, gamma: float = 0.95) -> Mdp:
    """Seeded synthetic MDP: Dirichlet(1) transition rows, uniform rewards."""
    if num_states < 2 or num_actions < 1 or num_streams < 1:
        raise ValueError("need num_states >= 2, num_actions >= 1, num_streams >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([0x4D4450, seed]))
    transitions = rng.dirichlet(
        np.ones(num_states), size=(num_states, num_actions)
    )
    rewards = rng.random((num_streams, num_states, num_actions, num_states))
    return Mdp(transitions=transitions, rewards=rewards, gamma=gamma)


def random_policy(num_states: int, num_actions: int, seed: int) -> np.ndarray:
    """Fixed stochastic policy with Dirichlet(1) action rows."""
    rng = np.random.default_rng(np.random.SeedSequence([0x504F4C, seed]))
    return rng.dirichlet(np.ones(num_actions), size=num_states)


def _validate_policy(mdp: Mdp, policy: np.ndarray) -> None:
    if policy.shape != (mdp.num_states, mdp.num_actions):
        raise ValueError(
            f"policy shape {policy.shape} does not match "
            f"({mdp.num_states}, {mdp.num_actions})"
        )
    if np.any(policy < 0) or np.max(np.abs(policy.sum(axis=1) - 1.0)) > _PROB_TOL:
        raise ValueError("policy rows must be probability vectors")


def chain_matrix(mdp: Mdp, policy: np.ndarray) -> np.ndarray:
    """State chain under the policy: P[s, s'] = sum_a pi(a|s) P(s'|s, a)."""
    _validate_policy(mdp, policy)
    return np.einsum("sa,sat->st", policy, mdp.transitions)


def _reached_from_first(adj: np.ndarray) -> np.ndarray:
    """Mask of the states reachable from state 0 along the boolean ``adj``."""
    seen = frontier = np.arange(adj.shape[0]) == 0
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen |= frontier
    return seen


def stationary_distribution(mdp: Mdp, policy: np.ndarray) -> np.ndarray:
    """Stationary state distribution of the policy-induced chain.

    Solves mu^T P = mu^T with sum(mu) = 1 by a dense linear solve and checks
    the residual to 1e-10. Raises for reducible chains, naming the states
    that break irreducibility.
    """
    p = chain_matrix(mdp, policy)
    s = p.shape[0]
    support = p > 0.0  # self-loops never change reachability
    both = _reached_from_first(support) & _reached_from_first(support.T)
    if not both.all():
        bad = np.flatnonzero(~both).tolist()
        raise ValueError(
            f"chain is not irreducible: states {bad} are unreachable from or "
            f"cannot reach state 0"
        )
    # (P^T - I) mu = 0 with the last equation replaced by sum(mu) = 1.
    a = p.T - np.eye(s)
    a[-1, :] = 1.0
    rhs = np.zeros(s)
    rhs[-1] = 1.0
    mu = np.linalg.solve(a, rhs)
    residual = np.linalg.norm(mu @ p - mu)
    if residual > 1e-10 or abs(mu.sum() - 1.0) > 1e-10 or np.any(mu < -1e-12):
        raise ArithmeticError(f"stationary solve residual too large: {residual:.3e}")
    return np.clip(mu, 0.0, None) / np.clip(mu, 0.0, None).sum()


def sample_trajectory(mdp: Mdp, policy: np.ndarray, length: int,
                      seed: int) -> list[Transition]:
    """Markov rollout of ``length`` states (``length - 1`` transitions).

    The initial state is drawn from the stationary distribution so empirical
    statistics agree with stationary ones at moderate sample sizes.
    """
    if length < 2:
        raise ValueError(f"need at least 2 states in a rollout, got {length}")
    _validate_policy(mdp, policy)
    mu = stationary_distribution(mdp, policy)
    rng = np.random.default_rng(np.random.SeedSequence([0x54524A, seed]))
    out: list[Transition] = []
    s = int(rng.choice(mdp.num_states, p=mu))
    for _ in range(length - 1):
        a = int(rng.choice(mdp.num_actions, p=policy[s]))
        s_next = int(rng.choice(mdp.num_states, p=mdp.transitions[s, a]))
        out.append(Transition(s, a, s_next, mdp.rewards[:, s, a, s_next].copy()))
        s = s_next
    return out


def make_feature_map(num_states: int, dim: int, seed: int) -> np.ndarray:
    """(S, d) feature matrix: unit-norm Gaussian rows, full column rank.

    Redraws up to 10 times if the stacked matrix is rank-deficient, then
    raises.
    """
    if dim > num_states:
        raise ValueError(f"feature dimension {dim} exceeds state count {num_states}")
    rng = np.random.default_rng(np.random.SeedSequence([0x464541, seed]))
    for _ in range(10):
        phi = rng.standard_normal((num_states, dim))
        norms = np.linalg.norm(phi, axis=1)
        if np.any(norms == 0.0):
            continue
        phi /= norms[:, None]
        if np.linalg.matrix_rank(phi) == dim:
            return phi
    raise ArithmeticError(
        f"could not draw a rank-{dim} feature matrix in 10 attempts"
    )


def _featurize(tr: Transition, features: np.ndarray, stream: int) -> TdSample:
    return TdSample(
        phi_t=features[tr.s].copy(),
        phi_tp1=features[tr.s_next].copy(),
        reward=float(tr.rewards[stream]),
    )


def partition_samples(traj: list[Transition], features: np.ndarray, mode: str,
                      n: int, proportions: list[float] | None = None,
                      ) -> list[list[TdSample]]:
    """Lay out the trajectory as per-node sample lists.

    parallel -- disjoint contiguous slices sized proportionally to
        ``proportions`` (must have n positive entries), every node using the
        shared reward stream 0; the slice multiset union is the trajectory.
    marl -- every node holds the same first floor(m/n) transitions (identical
        feature streams) but reads its own private reward stream; a
        non-divisible m is truncated with a logged warning.
    """
    m = len(traj)
    if n < 1:
        raise ValueError("need at least one node")
    if m < n:
        raise ValueError(f"{m} transitions cannot cover {n} nodes")
    if mode == "parallel":
        if proportions is None:
            proportions = [1.0] * n
        if len(proportions) != n or any(p <= 0 for p in proportions):
            raise ValueError("parallel mode needs n positive proportions")
        cuts = np.round(np.cumsum(proportions) / sum(proportions) * m).astype(int)
        cuts[-1] = m
        starts = np.concatenate([[0], cuts[:-1]])
        if np.any(cuts - starts < 1):
            raise ValueError("proportions leave some node without samples")
        return [
            [_featurize(tr, features, 0) for tr in traj[a:b]]
            for a, b in zip(starts, cuts)
        ]
    if mode == "marl":
        if traj[0].rewards.shape[0] < n:
            raise ValueError(
                f"marl mode needs {n} reward streams, trajectory has "
                f"{traj[0].rewards.shape[0]}"
            )
        per = m // n
        if per * n != m:
            log.warning(
                "marl partition: %d transitions not divisible by %d nodes; "
                "truncating to %d", m, n, per * n,
            )
        shared = traj[:per]
        return [[_featurize(tr, features, i) for tr in shared] for i in range(n)]
    raise ValueError(f"unknown partition mode {mode!r}")
