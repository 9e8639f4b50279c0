"""Centralized reference iterations: averaged-gradient tables and
deterministic descent-ascent."""

from __future__ import annotations

import functools

import numpy as np

from asyncsag import baselines, mspbe
from helpers import build_problem


random_problem = functools.partial(build_problem, d=4, length=41,
                                   num_states=12)


def test_sag_is_deterministic_per_seed():
    prob = random_problem(seed=1)
    a = baselines.centralized_sag(prob, 0.05, 0.5, 200, seed=9)
    b = baselines.centralized_sag(prob, 0.05, 0.5, 200, seed=9)
    assert np.array_equal(a.z_hist, b.z_hist)
    assert a.samples == b.samples
    c = baselines.centralized_sag(prob, 0.05, 0.5, 200, seed=10)
    assert c.samples != a.samples


def test_sag_trace_shapes_and_err_definition():
    prob = random_problem(seed=2)
    rng = np.random.default_rng(2)
    z0 = rng.normal(size=2 * prob.d)
    trace = baselines.centralized_sag(prob, 0.02, 0.2, 50, seed=3, z0=z0)
    z_star = mspbe.solve_problem(prob)
    assert trace.z_hist.shape == (51, 2 * prob.d)
    assert trace.err.shape == (51,)
    assert trace.ratios.shape == (50,)
    assert len(trace.samples) == 50
    assert np.allclose(trace.z_hist[0], z0)
    assert np.isclose(trace.err[0], np.linalg.norm(z0 - z_star), rtol=1e-12)
    assert np.allclose(trace.err,
                       np.linalg.norm(trace.z_hist - z_star, axis=1))


def test_full_refresh_reduces_to_deterministic_descent():
    """With every table entry refreshed each step, the averaged gradient is
    the exact full gradient, so the iteration must match plain block
    descent-ascent step for step."""
    prob = random_problem(seed=3, d=3, length=17, n=2)
    eta1, zeta = 0.01, 40.0
    iters = 60
    sag = baselines.centralized_sag(prob, eta1, eta1 * zeta, iters, seed=0,
                                    full_refresh=True)
    assert all(p == -1 for p in sag.samples)
    # oracle: independent loop on the aggregate gradient
    d = prob.d
    z = np.zeros(2 * d)
    for k in range(1, iters + 1):
        g = mspbe.full_gradient(prob, z)
        z = z - np.concatenate([eta1 * g[:d], eta1 * zeta * g[d:]])
        assert np.allclose(sag.z_hist[k], z, atol=1e-12)
    # and the same trajectory in scaled coordinates from the affine sweep
    gd = baselines.centralized_gd(prob, eta1, zeta, iters)
    for k in range(iters + 1):
        assert np.allclose(mspbe.to_scaled(sag.z_hist[k], zeta),
                           gd.z_hist[k], atol=1e-10)


def test_gd_contracts_geometrically_above_threshold():
    prob = random_problem(seed=4, d=3, length=25)
    zeta = 1.5 * mspbe.zeta_threshold(prob)
    spectral = mspbe.spectral_constants(prob, zeta)
    assert spectral.valid
    eta = 1.0 / (spectral.g_max_eig + spectral.alpha)
    rng = np.random.default_rng(4)
    z0 = rng.normal(size=2 * prob.d)
    trace = baselines.centralized_gd(prob, eta, zeta, 1500, z0=z0)
    assert trace.err[-1] < 1e-8 * trace.err[0]
    # every per-step ratio sits strictly below 1 once error is above noise
    live = trace.err[:-1] > 1e-12 * trace.err[0]
    assert np.all(trace.ratios[live] < 1.0)


def test_gd_rate_matches_extreme_eigenvalue():
    """The asymptotic per-step ratio of descent on an affine map is the
    largest |1 - eta*lambda| over the operator spectrum."""
    prob = random_problem(seed=5, d=3, length=25)
    zeta = 2.0 * mspbe.zeta_threshold(prob)
    m_op, _ = mspbe.scaled_affine(prob, zeta)
    eigs = np.linalg.eigvals(m_op)
    eta = 0.5 / np.max(eigs.real)
    expected = np.max(np.abs(1.0 - eta * eigs))
    rng = np.random.default_rng(5)
    trace = baselines.centralized_gd(prob, eta, zeta, 1800,
                                     z0=rng.normal(size=2 * prob.d))
    # window chosen past the non-normal transient but above the noise floor
    observed = (trace.err[1800] / trace.err[800]) ** (1.0 / 1000)
    assert abs(observed - expected) < 1e-6


def test_sag_converges_on_small_problem():
    prob = random_problem(seed=6, d=3, length=13, n=1)
    zeta = 1.2 * mspbe.zeta_threshold(prob)
    trace = baselines.centralized_sag(prob, 0.02, 0.02 * zeta, 8000, seed=1)
    assert trace.err[-1] < 1e-6 * max(trace.err[0], 1.0)


def test_sag_visits_every_sample():
    prob = random_problem(seed=7, n=2, length=21)
    m = prob.m
    trace = baselines.centralized_sag(prob, 0.01, 0.1, 2 * m, seed=2)
    assert set(trace.samples) == set(range(m))
