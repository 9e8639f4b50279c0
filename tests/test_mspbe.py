"""Saddle-point objective: per-sample statistics, gradients, exact solver,
scaled coordinates, and spectral constants."""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncsag import augmented, graph, mdp, mspbe, protocol, simulator
from helpers import (build_problem, rank_one_gradient, sample_map,
                     sample_objective, scaled_affine, to_scaled)


random_problem = functools.partial(build_problem, d=4, length=41,
                                   num_states=12)


def sample_operator(stats: mspbe.SampleStats, rho: float, zeta: float,
                    m: int) -> np.ndarray:
    """Per-sample linear block M_{i,p}; the aggregate M is their plain sum."""
    a_hat = np.outer(stats.phi, stats.psi)
    c_hat = np.outer(stats.phi, stats.phi)
    return mspbe._scaled_block(a_hat, c_hat, rho, zeta) / m


def numeric_gradient(fun, z, h=1e-5):
    g = np.zeros_like(z)
    for j in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        g[j] = (fun(zp) - fun(zm)) / (2 * h)
    return g


def test_per_sample_stats_shapes_and_rank():
    prob = random_problem()
    d = prob.d
    for stats in prob.all_stats():
        assert stats.phi.shape == (d,)
        assert stats.psi.shape == (d,)
        assert isinstance(stats.reward, float)
    # one transition 0 -> 1 with reward 3 at gamma 0.5
    step = mdp.Transition(0, 1, np.array([3.0]))
    feats = np.array([[1.0, 2.0], [0.5, -1.0]])
    (stats,), = mdp.partition_samples([step], feats, "parallel", 1, 0.5)
    assert np.array_equal(stats.phi, [1.0, 2.0])
    assert np.array_equal(stats.psi, [0.75, 2.5])
    assert stats.reward == 3.0
    with pytest.raises(ValueError):
        mspbe.SampleStats(np.ones(3), np.ones(2), 0.0)
    with pytest.raises(ValueError):
        mspbe.SampleStats(np.ones((2, 2)), np.ones((2, 2)), 0.0)


@pytest.mark.parametrize("rho", [0.0, -1.0, float("nan"), float("inf")])
def test_problem_spec_rejects_a_regularizer_outside_the_positive_reals(rho):
    stats = mspbe.SampleStats(np.ones(2), np.ones(2), 0.0)
    with pytest.raises(ValueError, match="rho"):
        mspbe.ProblemSpec(((stats,),), rho)


def test_gradient_matches_finite_differences():
    """Analytic saddle gradient against central differences.

    The objective is min over the first block and max over the second, so the
    gradient stack negates the dual block.
    """
    rng = np.random.default_rng(1)
    prob = random_problem(seed=1)
    d = prob.d
    flip = np.concatenate([np.ones(d), -np.ones(d)])
    linear, offset = prob.node_maps(0)
    for s, stats in enumerate(prob.per_node[0][:5]):
        z = rng.normal(size=2 * d)
        fun = lambda w: sample_objective(w, stats, prob.rho)
        expected = flip * numeric_gradient(fun, z)
        got = mspbe.saddle_gradient(z, linear[s], offset[s])
        assert np.max(np.abs(got - expected)) < 1e-6 * max(
            1.0, np.max(np.abs(expected)))


def test_gradient_is_affine_in_z():
    prob = random_problem(seed=2)
    linear, offset = (a[0] for a in prob.node_maps(1))
    rng = np.random.default_rng(2)
    z1, z2 = rng.normal(size=(2, 2 * prob.d))
    g1 = mspbe.saddle_gradient(z1, linear, offset)
    g2 = mspbe.saddle_gradient(z2, linear, offset)
    mid = mspbe.saddle_gradient(0.5 * (z1 + z2), linear, offset)
    assert np.allclose(mid, 0.5 * (g1 + g2), atol=1e-12)


def test_full_gradient_is_flat_mean_over_samples():
    prob = random_problem(seed=3, n=3)
    rng = np.random.default_rng(3)
    z = rng.normal(size=2 * prob.d)
    per_sample = [mspbe.saddle_gradient(z, g_s, o_s)
                  for g_s, o_s in zip(*prob.maps)]
    # the scaled map at zeta = 1 is the unscaled mean gradient
    m_op, const = scaled_affine(prob, 1.0)
    assert np.allclose(m_op @ z + const, np.mean(per_sample, axis=0),
                       atol=1e-12)


def test_aggregate_means():
    prob = random_problem(seed=4)
    A, b, C = mspbe.aggregate(prob)
    stats = list(prob.all_stats())
    assert np.allclose(A, np.mean([np.outer(s.phi, s.psi) for s in stats], axis=0))
    assert np.allclose(b, np.mean([s.phi * s.reward for s in stats], axis=0))
    assert np.allclose(C, np.mean([np.outer(s.phi, s.phi) for s in stats], axis=0))


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 64), m=st.integers(1, 6),
       scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]),
       seed=st.integers(0, 2**32 - 1))
def test_rank_one_kernels_match_dense_definition(d, m, scale, seed):
    """The gradient map, the rank-one oracle and aggregate against
    A = phi psi^T, C = phi phi^T, b = phi r built densely.

    Every entry of either side is a sum of at most K = 2d + 2 (gradient) or
    m (aggregate) products of two or three inputs, so each side is within
    (K + 3) u sum|terms| of the exact value, u the unit roundoff; the bound
    below doubles that for the two sides together.
    """
    rng = np.random.default_rng(seed)
    rho = 0.1
    stats = [mspbe.SampleStats(scale * rng.normal(size=d),
                               scale * rng.normal(size=d),
                               float(scale * rng.normal())) for _ in range(m)]
    z = scale * rng.normal(size=2 * d)
    theta, omega = z[:d], z[d:]
    u = np.finfo(float).eps / 2
    for s in stats:
        a, c, b = np.outer(s.phi, s.psi), np.outer(s.phi, s.phi), s.phi * s.reward
        dense = np.concatenate([a.T @ omega + rho * theta,
                                -(a @ theta - c @ omega - b)])
        # sum of the magnitudes of every term in each entry
        terms = np.concatenate([
            np.abs(a.T) @ np.abs(omega) + rho * np.abs(theta),
            np.abs(a) @ np.abs(theta) + np.abs(c) @ np.abs(omega) + np.abs(b)])
        bound = 2 * (2 * d + 5) * u * terms
        for got in (mspbe.saddle_gradient(z, *sample_map(s, rho)),
                    rank_one_gradient(z, s, rho)):
            assert np.all(np.abs(got - dense) <= bound)
    A, b, C = mspbe.aggregate(mspbe.ProblemSpec(((*stats,),), rho))
    loop = [np.zeros((d, d)), np.zeros(d), np.zeros((d, d))]
    mags = [np.zeros((d, d)), np.zeros(d), np.zeros((d, d))]
    for s in stats:
        for k, term in enumerate((np.outer(s.phi, s.psi), s.phi * s.reward,
                                  np.outer(s.phi, s.phi))):
            loop[k] += term
            mags[k] += np.abs(term)
    for got, total, mag in zip((A, b, C), loop, mags):
        assert np.all(np.abs(got - total / m) <= 2 * (m + 3) * u * mag / m)


def gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u the unit roundoff: the relative error
    bound of k roundings (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, section 3.1)."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


# 0 or a magnitude in [1e-50, 1e3], so that no product of three of them
# underflows and every rounding error is relative
_ENTRY = st.one_of(st.just(0.0), st.floats(1e-50, 1e3), st.floats(-1e3, -1e-50))


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 64), data=st.data())
def test_gradient_map_agrees_with_the_rank_one_oracle(d, data):
    """G_s z + g_s against the rank-one evaluation, for any factors.

    Every entry of G_s and g_s is one rounded product (rho and the negation
    are exact), and an entry of G_s z + g_s sums 2d + 1 terms, so the map is
    within gamma_{2d+2} (|G_s||z| + |g_s|) of the exact gradient. The
    rank-one form rounds each term of an entry at most d + 3 times (a d-term
    dot, the scalar sum, the scaling), within gamma_{d+3} of the same
    magnitudes, and d + 3 <= 2d + 2. The bound is computed from the rounded
    magnitudes, which one more gamma covers.
    """
    def vector(size):
        return np.array(data.draw(st.lists(_ENTRY, min_size=size,
                                           max_size=size)))

    stats = mspbe.SampleStats(vector(d), vector(d), data.draw(_ENTRY))
    rho = data.draw(st.floats(1e-6, 1e3))
    z = vector(2 * d)
    linear, offset = sample_map(stats, rho)
    got = mspbe.saddle_gradient(z, linear, offset)
    bound = 2 * gamma(2 * d + 3) * (np.abs(linear) @ np.abs(z) + np.abs(offset))
    assert np.all(np.abs(got - rank_one_gradient(z, stats, rho)) <= bound)


def test_map_stack_averages_to_the_mean_gradient_map():
    """The mean of ``ProblemSpec.maps`` is ``scaled_affine`` at zeta = 1.

    An entry of either side is a mean of the same m rounded products, summed
    in some order and divided by m, so each is within gamma_{m+2} of the
    exact mean relative to the mean of the magnitudes."""
    for seed in range(4):
        prob = random_problem(seed=seed, n=3)
        m_op, const = scaled_affine(prob, 1.0)
        for stack, mean in zip(prob.maps, (m_op, const)):
            bound = 2 * gamma(prob.m + 3) * np.abs(stack).mean(axis=0)
            assert np.all(np.abs(stack.mean(axis=0) - mean) <= bound)


def test_map_stack_is_built_once_and_shared(monkeypatch):
    """One problem holds one read-only stack of 8 m (2d)^2 bytes (and g's
    8 m 2d), built in place, and every table entry G_s z that a run
    evaluates and every gradient of its replay reads a row of it: no
    rebuild per run, per node or per call."""
    prob = build_problem(seed=11, n=3, d=16, length=301, num_states=20)
    m, width = prob.m, 2 * prob.d
    tracemalloc.start()
    try:
        linear, offset = prob.maps
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert linear.nbytes == 8 * m * width ** 2
    assert offset.nbytes == 8 * m * width
    assert linear.base is None and offset.base is None
    assert not (linear.flags.writeable or offset.flags.writeable)
    # the stacks, the factors and the ufuncs' fixed buffers (about 190 kB),
    # and no (m, d, d) temporary (600 kB here)
    assert peak <= linear.nbytes + offset.nbytes + 4 * m * width * 8 + 2**18
    assert all(new is old for new, old in zip(prob.maps, (linear, offset)))

    gradients, entries = [], []

    def spying(z, row_linear, row_offset):
        gradients.append((row_linear.base, row_offset.base))
        return mspbe.saddle_gradient(z, row_linear, row_offset)

    def activating(node, payloads, row, pick):
        # the run's table entry G_s z reads the node's row of G
        entries.append(node.linear[pick].base)
        return protocol.activate(node, payloads, row, pick)

    monkeypatch.setattr(simulator, "activate", activating)
    monkeypatch.setattr(augmented, "saddle_gradient", spying)
    g = graph.generate_topology("ring", prob.n)
    schedule = simulator.ActivationSchedule("uniform_random", prob.n)
    delays = simulator.DelayModel("uniform", 2)
    traces = [simulator.run_async(prob, g, schedule, delays, 0.05, 0.4,
                                  seed=seed, max_events=60)
              for seed in (1, 2)]
    for state in augmented.replay(traces[0], prob):
        pass
    assert len(gradients) == 60 and len(entries) == 2 * 60
    assert all(a is linear and b is offset for a, b in gradients)
    assert all(a is linear for a in entries)


def test_solve_saddle_zeroes_the_gradient():
    for seed in range(5):
        prob = random_problem(seed=seed, d=3)
        z_star = mspbe.solve_problem(prob)
        m_op, const = scaled_affine(prob, 1.0)
        assert np.linalg.norm(m_op @ z_star + const) < 1e-10


def test_solve_saddle_pinned_identity_example():
    # A = C = I, b = e1, rho = 1: theta* = e1/2, omega* = -e1/2
    d = 3
    A = np.eye(d)
    C = np.eye(d)
    b = np.zeros(d)
    b[0] = 1.0
    z = mspbe.solve_saddle(A, b, C, rho=1.0)
    expected = np.zeros(2 * d)
    expected[0] = 0.5
    expected[d] = -0.5
    assert np.allclose(z, expected, atol=1e-12)


def test_solve_saddle_rejects_singular_system():
    d = 3
    A = np.zeros((d, d))  # violates full-rank requirement
    C = np.eye(d)
    with pytest.raises(ArithmeticError):
        mspbe.solve_saddle(A, np.ones(d), C, rho=0.0)


def test_scaled_round_trip_and_gradient_consistency():
    prob = random_problem(seed=5)
    zeta = 9.0
    rng = np.random.default_rng(5)
    z = rng.normal(size=2 * prob.d)
    w = to_scaled(z, zeta)
    assert np.allclose(mspbe.from_scaled(w, zeta), z, atol=1e-14)
    # the affine map in scaled coordinates is the mean gradient with its
    # omega block scaled by sqrt(zeta), so one step of it is the unscaled
    # block step with eta2 = eta * zeta
    M, const = scaled_affine(prob, zeta)
    g = np.mean([mspbe.saddle_gradient(z, g_s, o_s)
                 for g_s, o_s in zip(*prob.maps)], axis=0)
    g[prob.d:] *= np.sqrt(zeta)
    assert np.allclose(M @ w + const, g, atol=1e-11)


def test_zeta_threshold_pinned_identity_example():
    # d samples phi = psi = sqrt(d) e_j, r = 0 average to A = C = I;
    # rho = 1 gives (4*1 + 4*1) / 1 = 8
    d = 2
    basis = np.sqrt(d) * np.eye(d)
    stats = tuple(mspbe.SampleStats(e, e.copy(), 0.0) for e in basis)
    prob = mspbe.ProblemSpec(per_node=(stats,), rho=1.0)
    A, _, C = mspbe.aggregate(prob)
    assert np.allclose(A, np.eye(d), atol=1e-15)
    assert np.allclose(C, np.eye(d), atol=1e-15)
    zeta_min = mspbe.spectral_constants(prob, 1.0).zeta_min
    assert zeta_min == pytest.approx(8.0, abs=1e-12)


def test_spectrum_real_above_threshold_complex_below():
    for seed in range(6):
        prob = random_problem(seed=seed, d=3)
        zmin = mspbe.spectral_constants(prob, 1.0).zeta_min
        above = mspbe.spectral_constants(prob, 1.05 * zmin)
        assert above.g_eigs_real
        assert above.valid
        assert above.alpha > 0
        below = mspbe.spectral_constants(prob, 0.2 * zmin)
        if not below.g_eigs_real:
            assert not below.valid


def test_beta_dominates_zeta_psi_over_2m():
    for seed in range(4):
        prob = random_problem(seed=seed)
        zeta = 1.2 * mspbe.spectral_constants(prob, 1.0).zeta_min
        spec = mspbe.spectral_constants(prob, zeta)
        assert spec.beta > zeta * spec.psi / (2 * prob.m)


def test_alpha_beta_are_true_extremes():
    prob = random_problem(seed=7)
    zeta = 1.5 * mspbe.spectral_constants(prob, 1.0).zeta_min
    spec = mspbe.spectral_constants(prob, zeta)
    M, _ = scaled_affine(prob, zeta)
    eigs = np.linalg.eigvals(M)
    assert spec.alpha == pytest.approx(float(eigs.real.min()), rel=1e-10)
    # beta bounds the norm of every per-sample block
    m = prob.m
    for node in prob.per_node:
        for s in node:
            op = sample_operator(s, prob.rho, zeta, m)
            assert np.linalg.norm(op, 2) <= spec.beta + 1e-12


def test_sample_operators_average_to_full_operator():
    prob = random_problem(seed=8)
    zeta = 2.0
    total = np.zeros((2 * prob.d, 2 * prob.d))
    for node in prob.per_node:
        for s in node:
            total += sample_operator(s, prob.rho, zeta, prob.m)
    assert np.allclose(total, scaled_affine(prob, zeta)[0], atol=1e-12)


def test_gradient_lipschitz_within_beta_times_m():
    # ||grad_{i,p}(z1) - grad_{i,p}(z2)|| <= m*beta*||z1-z2|| in scaled coords
    prob = random_problem(seed=10)
    zeta = 1.3 * mspbe.spectral_constants(prob, 1.0).zeta_min
    spec = mspbe.spectral_constants(prob, zeta)
    rng = np.random.default_rng(10)
    for node in prob.per_node:
        for s in node[:3]:
            op = sample_operator(s, prob.rho, zeta, prob.m)
            w1, w2 = rng.normal(size=(2, 2 * prob.d))
            diff = np.linalg.norm(op @ (w1 - w2))
            assert diff <= spec.beta * np.linalg.norm(w1 - w2) + 1e-12
