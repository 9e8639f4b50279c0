"""Centralized reference iterations: averaged-gradient tables and
deterministic descent-ascent."""

from __future__ import annotations

import functools

import numpy as np

from asyncsag import mspbe
from asyncsag.protocol import selector_rng
from helpers import (build_problem, centralized_gd, centralized_sag,
                     scaled_affine)


random_problem = functools.partial(build_problem, d=4, length=41,
                                   num_states=12)


def test_sag_is_deterministic_per_seed():
    prob = random_problem(seed=1)
    a = centralized_sag(prob, 0.05, 0.5, 200, seed=9)
    b = centralized_sag(prob, 0.05, 0.5, 200, seed=9)
    assert np.array_equal(a.z_hist, b.z_hist)
    assert np.array_equal(a.err, b.err)
    c = centralized_sag(prob, 0.05, 0.5, 200, seed=10)
    assert not np.array_equal(c.z_hist, a.z_hist)


def test_sag_trace_shapes_and_err_definition():
    prob = random_problem(seed=2)
    trace = centralized_sag(prob, 0.02, 0.2, 50, seed=3)
    z_star = mspbe.solve_problem(prob)
    assert trace.z_hist.shape == (51, 2 * prob.d)
    assert trace.err.shape == (51,)
    # every run starts at z = 0, as the distributed one does
    assert np.all(trace.z_hist[0] == 0.0)
    assert np.isclose(trace.err[0], np.linalg.norm(z_star), rtol=1e-12)
    assert np.allclose(trace.err,
                       np.linalg.norm(trace.z_hist - z_star, axis=1))


def test_gd_contracts_geometrically_above_threshold():
    prob = random_problem(seed=4, d=3, length=25)
    zeta = 1.5 * mspbe.spectral_constants(prob, 1.0).zeta_min
    spectral = mspbe.spectral_constants(prob, zeta)
    assert spectral.valid
    eta = 1.0 / (spectral.g_max_eig + spectral.alpha)
    rng = np.random.default_rng(4)
    z0 = rng.normal(size=2 * prob.d)
    trace = centralized_gd(prob, eta, zeta, 1500, z0=z0)
    assert trace.err[-1] < 1e-8 * trace.err[0]
    # every per-step ratio sits strictly below 1 once error is above noise
    live = trace.err[:-1] > 1e-12 * trace.err[0]
    assert np.all(trace.err[1:][live] / trace.err[:-1][live] < 1.0)


def test_gd_rate_matches_extreme_eigenvalue():
    """The asymptotic per-step ratio of descent on an affine map is the
    largest |1 - eta*lambda| over the operator spectrum."""
    prob = random_problem(seed=5, d=3, length=25)
    zeta = 2.0 * mspbe.spectral_constants(prob, 1.0).zeta_min
    m_op, _ = scaled_affine(prob, zeta)
    eigs = np.linalg.eigvals(m_op)
    eta = 0.5 / np.max(eigs.real)
    expected = np.max(np.abs(1.0 - eta * eigs))
    rng = np.random.default_rng(5)
    trace = centralized_gd(prob, eta, zeta, 1800,
                           z0=rng.normal(size=2 * prob.d))
    # window chosen past the non-normal transient but above the noise floor
    observed = (trace.err[1800] / trace.err[800]) ** (1.0 / 1000)
    assert abs(observed - expected) < 1e-6


def test_sag_converges_on_small_problem():
    prob = random_problem(seed=6, d=3, length=13, n=1)
    zeta = 1.2 * mspbe.spectral_constants(prob, 1.0).zeta_min
    trace = centralized_sag(prob, 0.02, 0.02 * zeta, 8000, seed=1)
    assert trace.err[-1] < 1e-6 * max(trace.err[0], 1.0)


def test_sag_visits_every_sample():
    """The baseline refreshes the samples in node 0's permutation epochs,
    which cover every sample within 2m steps: its iterates are those of the
    averaged-gradient loop spelled out over those picks."""
    prob = random_problem(seed=7, n=2, length=21)
    m, d, eta1, eta2 = prob.m, prob.d, 0.01, 0.1
    rng = selector_rng(2, 0)
    picks = rng.permutation(m).tolist() + rng.permutation(m).tolist()
    assert set(picks[:m]) == set(range(m))
    trace = centralized_sag(prob, eta1, eta2, 2 * m, seed=2)
    stats = list(prob.all_stats())
    z = np.zeros(2 * d)
    table = np.array([mspbe.saddle_gradient(z, st, prob.rho) for st in stats])
    for k, p in enumerate(picks, start=1):
        table[p] = mspbe.saddle_gradient(z, stats[p], prob.rho)
        y = table.mean(axis=0)
        z = z - np.concatenate([eta1 * y[:d], eta2 * y[d:]])
        assert np.allclose(trace.z_hist[k], z, rtol=0.0, atol=1e-12)
