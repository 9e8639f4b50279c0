"""Finite MDPs, fixed-policy trajectories, feature maps, and sample partitioning.

A policy is a plain (S, A) row-stochastic array. A feature map is a plain
(S, d) array with unit-norm rows. Trajectories are lists of ``Transition``
tuples carrying one reward per reward stream, so the same rollout can feed
both data layouts: disjoint slices with a shared reward function ("parallel")
or a shared state stream with private rewards ("marl"). Partitioning turns
each transition into the ``SampleStats`` the saddle objective reads, and it
is the one place the discount gamma enters.

Rewards are drawn on demand. A random MDP keeps the state of its reward
generator, and ``Mdp.rewards_at`` reaches each requested entry of the
(streams, S, A, S) uniform table by advancing that PCG64 stream, so the
values are bit for bit those of a dense ``random(shape)`` draw, but only the
entries a trajectory reads are ever made.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import hop_counts
from .mspbe import SampleStats

log = logging.getLogger(__name__)

_PROB_TOL = 1e-12


class Transition(NamedTuple):
    """A rollout step s -> s_next with its rewards, one per stream; the
    evaluation of a fixed policy reads no action, so none is kept."""

    s: int
    s_next: int
    rewards: np.ndarray  # one entry per reward stream


@dataclass(frozen=True)
class Mdp:
    """Finite MDP with per-stream rewards drawn on demand.

    transitions:  (S, A, S) tensor, transitions[s, a] a probability row.
    reward_state: ``PCG64`` state whose next S·A·S·streams doubles are the
                  reward table in C order, i.e. entry (k, s, a, s') of a dense
                  (streams, S, A, S) ``random`` draw; values lie in [0, 1).
    num_streams:  number of reward streams.
    """

    transitions: np.ndarray
    reward_state: dict
    num_streams: int

    def __post_init__(self):
        p = self.transitions
        if p.ndim != 3 or p.shape[0] != p.shape[2]:
            raise ValueError(f"transition tensor must be (S, A, S), got {p.shape}")
        if np.any(p < 0) or np.max(np.abs(p.sum(axis=2) - 1.0)) > _PROB_TOL:
            raise ValueError("transition rows must be probability vectors")
        if self.reward_state.get("bit_generator") != "PCG64":
            raise ValueError("reward_state must be a PCG64 bit-generator state")
        if self.num_streams < 1:
            raise ValueError(f"need at least one reward stream, got {self.num_streams}")

    @property
    def num_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def num_actions(self) -> int:
        return self.transitions.shape[1]

    def rewards_at(self, s, a, s_next) -> np.ndarray:
        """(len, streams) rewards of the transitions (s[i], a[i], s_next[i]).

        Walks the sorted distinct table entries once on one PCG64, advancing
        over the entries nobody reads, so repeated and unsorted indices cost
        one draw per distinct entry.
        """
        ns, na = self.num_states, self.num_actions
        cols = []
        for name, v, size in (("s", s, ns), ("a", a, na), ("s_next", s_next, ns)):
            v = np.asarray(v, dtype=np.int64)
            if v.ndim != 1:
                raise ValueError(f"{name} must be a 1-D index array, got shape {v.shape}")
            if v.size and (v.min() < 0 or v.max() >= size):
                raise ValueError(f"{name} has an index outside [0, {size})")
            cols.append(v)
        if not cols[0].size == cols[1].size == cols[2].size:
            raise ValueError("s, a and s_next must have the same length")
        entry = (cols[0] * na + cols[1]) * ns + cols[2]
        flat = entry[:, None] + np.arange(self.num_streams) * (ns * na * ns)
        wanted, inverse = np.unique(flat, return_inverse=True)
        bits = np.random.PCG64()
        bits.state = self.reward_state
        gen = np.random.Generator(bits)
        values = np.empty(wanted.size)
        pos = 0
        for i, j in enumerate(wanted.tolist()):
            bits.advance(j - pos)
            values[i] = gen.random()
            pos = j + 1
        return values[inverse].reshape(flat.shape)


def build_random_mdp(num_states: int, num_actions: int, num_streams: int,
                     seed: int) -> Mdp:
    """Seeded synthetic MDP: Dirichlet(1) transition rows, uniform rewards.

    The rewards are the generator's next draws after the transitions; the
    MDP keeps that generator state and draws entries on demand.
    """
    if num_states < 2 or num_actions < 1 or num_streams < 1:
        raise ValueError("need num_states >= 2, num_actions >= 1, num_streams >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([0x4D4450, seed]))
    transitions = rng.dirichlet(
        np.ones(num_states), size=(num_states, num_actions)
    )
    return Mdp(transitions=transitions, reward_state=rng.bit_generator.state,
               num_streams=num_streams)


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


def stationary_distribution(mdp: Mdp, policy: np.ndarray) -> np.ndarray:
    """Stationary state distribution of the policy-induced chain.

    Solves mu^T P = mu^T with sum(mu) = 1 by a dense linear solve and checks
    the residual to 1e-10. Raises for reducible chains, naming the states
    that break irreducibility.
    """
    p = chain_matrix(mdp, policy)
    s = p.shape[0]
    support = p > 0.0  # self-loops never change reachability
    both = (hop_counts(support, 0) >= 0) & (hop_counts(support.T, 0) >= 0)
    if not both.all():
        bad = np.flatnonzero(~both).tolist()
        raise ValueError(
            f"chain is not irreducible: states {bad} are unreachable from or "
            f"cannot reach state 0"
        )
    # (P^T - I) mu = 0 with the last equation replaced by sum(mu) = 1; the
    # identity is subtracted on the diagonal in place, without an s x s eye
    a = p.T.copy()
    a.flat[::s + 1] -= 1.0
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
    statistics agree with stationary ones at moderate sample sizes. Raises
    MemoryError when its 2 * length - 1 uniform draws cannot be allocated
    (numpy refuses the longest outright, with a ValueError).
    """
    if length < 2:
        raise ValueError(f"need at least 2 states in a rollout, got {length}")
    if 2 * length - 1 > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"no rollout of {length} states fits in memory")
    _validate_policy(mdp, policy)
    mu = stationary_distribution(mdp, policy)
    rng = np.random.default_rng(np.random.SeedSequence([0x54524A, seed]))
    uniforms = rng.random(2 * length - 1)
    # the policy rows' normalized cumulative weights, as _draw makes them
    actions = policy.cumsum(axis=1)
    actions /= actions[:, -1:]
    steps: list[tuple[int, int, int]] = []
    s = _draw(mu, uniforms[0])
    for u_action, u_next in zip(uniforms[1::2], uniforms[2::2]):
        a = int(actions[s].searchsorted(u_action, side="right"))
        s_next = _draw(mdp.transitions[s, a], u_next)
        steps.append((s, a, s_next))
        s = s_next
    rewards = mdp.rewards_at(*np.array(steps).T)
    return [Transition(s, s_next, row)
            for (s, _, s_next), row in zip(steps, rewards)]


def _draw(p: np.ndarray, u: float) -> int:
    """The index that ``rng.choice(p.size, p=p)`` draws with the double
    ``u``, without re-validating the checked row ``p``."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


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


def _featurize(traj: list[Transition], features: np.ndarray, gamma: float,
               stream: int) -> tuple[SampleStats, ...]:
    """Each transition's phi = features[s], psi = phi - gamma * features[s']
    and reward from ``stream``."""
    stats = []
    for tr in traj:
        phi = features[tr.s].copy()
        stats.append(SampleStats(phi=phi, psi=phi - gamma * features[tr.s_next],
                                 reward=float(tr.rewards[stream])))
    return tuple(stats)


def partition_samples(traj: list[Transition], features: np.ndarray, mode: str,
                      n: int, gamma: float,
                      proportions: list[float] | None = None,
                      ) -> tuple[tuple[SampleStats, ...], ...]:
    """Lay out the trajectory as each node's sample statistics at discount
    ``gamma``, strictly inside (0, 1).

    parallel -- disjoint contiguous slices sized proportionally to
        ``proportions`` (n positive entries with a finite sum), every node
        using the shared reward stream 0; the slice multiset union is the
        trajectory.
    marl -- every node holds the same first floor(m/n) transitions (identical
        feature streams) but reads its own private reward stream; a
        non-divisible m is truncated with a logged warning.
    """
    m = len(traj)
    # the negated comparison also rejects nan
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie strictly in (0, 1), got {gamma}")
    if n < 1:
        raise ValueError("need at least one node")
    if m < n:
        raise ValueError(f"{m} transitions cannot cover {n} nodes")
    if mode == "parallel":
        if proportions is None:
            proportions = [1.0] * n
        # a nan entry fails "< inf" through the sum
        if (len(proportions) != n or any(p <= 0 for p in proportions)
                or not sum(proportions) < np.inf):
            raise ValueError("parallel mode needs n positive proportions "
                             "with a finite sum")
        cuts = np.round(np.cumsum(proportions) / sum(proportions) * m).astype(int)
        cuts[-1] = m
        starts = np.concatenate([[0], cuts[:-1]])
        if np.any(cuts - starts < 1):
            raise ValueError("proportions leave some node without samples")
        return tuple(_featurize(traj[a:b], features, gamma, 0)
                     for a, b in zip(starts, cuts))
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
        return tuple(_featurize(traj[:per], features, gamma, i)
                     for i in range(n))
    raise ValueError(f"unknown partition mode {mode!r}")
