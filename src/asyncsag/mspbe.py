"""Saddle-point core of the distributed policy-evaluation objective.

Per sample p held by node i, with feature pair (phi_t, phi_{t+1}) and scalar
reward r, every statistic is rank one: with psi = phi_t - gamma * phi_{t+1},

    A_hat = phi_t psi^T,    b_hat = phi_t * r,    C_hat = phi_t phi_t^T,

and ``SampleStats`` keeps only (phi_t, psi, r); ``mdp.partition_samples``
builds them. The per-sample saddle objective is

    J_{i,p}(theta, omega) = omega^T (A_hat theta - b_hat)
                            - 0.5 * omega^T C_hat omega
                            + 0.5 * rho * ||theta||^2,

minimized over theta and maximized over omega; the global objective is the
flat mean over all m samples. Saddle vectors are stored stacked as
z = [theta; omega] in R^{2d}; the gradient stack is [grad_theta; -grad_omega]
so one descent step moves theta downhill and omega uphill.

Scaled coordinates: for step-size ratio zeta = eta2/eta1, the analysis
coordinates are w = [theta; omega / sqrt(zeta)]. In these coordinates the
mean gradient map is w -> M w + [0; sqrt(zeta) b] with the block operator

    M = [[rho*I, sqrt(zeta)*A^T], [-sqrt(zeta)*A, zeta*C]],

whose extreme eigenvalues give the contraction constant alpha = lmin(M) and,
per sample, the Lipschitz constant beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SOLVE_TOL = 1e-10
EIG_IMAG_TOL = 1e-9


@dataclass(frozen=True)
class SampleStats:
    """One sample's rank-one factors: A_hat = phi psi^T, b_hat = phi r,
    C_hat = phi phi^T."""

    phi: np.ndarray
    psi: np.ndarray
    reward: float

    def __post_init__(self):
        if self.phi.ndim != 1 or self.psi.shape != self.phi.shape:
            raise ValueError(
                f"inconsistent stat shapes {self.phi.shape}, {self.psi.shape}"
            )


@dataclass(frozen=True)
class ProblemSpec:
    """All per-node sample statistics plus the regularizer.

    per_node[i][p] holds node i's p-th sample stats; m is the total count.
    """

    per_node: tuple[tuple[SampleStats, ...], ...]
    rho: float

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError(f"regularizer rho must be positive, got {self.rho}")
        if not self.per_node or any(len(s) == 0 for s in self.per_node):
            raise ValueError("every node needs at least one sample")

    @property
    def n(self) -> int:
        return len(self.per_node)

    @property
    def m_i(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.per_node)

    @property
    def m(self) -> int:
        return sum(self.m_i)

    @property
    def d(self) -> int:
        return self.per_node[0][0].phi.shape[0]

    def all_stats(self):
        for node_stats in self.per_node:
            yield from node_stats


def _factors(problem: ProblemSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Phi, Psi, r): every sample's factors, stacked in node order."""
    stats = list(problem.all_stats())
    return (np.array([st.phi for st in stats]),
            np.array([st.psi for st in stats]),
            np.array([st.reward for st in stats]))


def aggregate(problem: ProblemSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Global flat means (A, b, C) = (Phi^T Psi, Phi^T r, Phi^T Phi) / m."""
    phi, psi, reward = _factors(problem)
    m = problem.m
    return phi.T @ psi / m, phi.T @ reward / m, phi.T @ phi / m


def saddle_gradient(z: np.ndarray, stats: SampleStats, rho: float) -> np.ndarray:
    """Stacked per-sample gradient [grad_theta; -grad_omega] at z = [theta; omega].

    With the rank-one statistics, [A^T omega + rho theta; -(A theta - C omega - b)]
    is [psi (phi.omega) + rho theta; phi (phi.omega + r - psi.theta)].
    """
    phi, psi = stats.phi, stats.psi
    d = phi.shape[0]
    if z.shape != (2 * d,):
        raise ValueError(f"z must have length {2 * d}, got shape {z.shape}")
    theta, omega = z[:d], z[d:]
    u = phi.dot(omega)
    out = np.empty(2 * d)
    g_theta = out[:d]
    np.multiply(psi, u, out=g_theta)
    g_theta += rho * theta
    np.multiply(phi, u + stats.reward - psi.dot(theta), out=out[d:])
    return out


def solve_saddle(a: np.ndarray, b: np.ndarray, c: np.ndarray, rho: float) -> np.ndarray:
    """Unique stationary point of the aggregate objective.

    Solves the 2d x 2d linear system
        rho*theta + A^T omega = 0
        A theta - C omega     = b
    and verifies both residuals to 1e-10 (relative to the data scale).
    """
    d = b.shape[0]
    kkt = np.block([[rho * np.eye(d), a.T], [a, -c]])
    rhs = np.concatenate([np.zeros(d), b])
    try:
        z = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        raise ArithmeticError(
            "saddle system is singular: aggregate A must be full-rank and "
            "C positive-definite (or rho > 0)"
        ) from None
    scale = max(1.0, np.linalg.norm(rhs))
    res = np.linalg.norm(kkt @ z - rhs) / scale
    if res > SOLVE_TOL:
        raise ArithmeticError(f"saddle solve residual {res:.3e} exceeds {SOLVE_TOL}")
    return z


def solve_problem(problem: ProblemSpec) -> np.ndarray:
    a, b, c = aggregate(problem)
    return solve_saddle(a, b, c, problem.rho)


# ---------------------------------------------------------------------------
# scaled coordinates and spectral constants
# ---------------------------------------------------------------------------

def from_scaled(w: np.ndarray, zeta: float) -> np.ndarray:
    """Map analysis coordinates w = [theta; omega/sqrt(zeta)] back to
    z = [theta; omega], each row of a stack of vectors alike."""
    d = w.shape[-1] // 2
    z = w.copy()
    z[..., d:] *= np.sqrt(zeta)
    return z


def _scaled_block(a: np.ndarray, c: np.ndarray, rho: float, zeta: float) -> np.ndarray:
    """M = [[rho I, sqrt(zeta) A^T], [-sqrt(zeta) A, zeta C]].

    ``a`` and ``c`` may carry leading stack axes; M then has the same ones.
    """
    d = a.shape[-1]
    root = np.sqrt(zeta)
    out = np.zeros(a.shape[:-2] + (2 * d, 2 * d))
    out[..., :d, :d] = rho * np.eye(d)
    out[..., :d, d:] = root * np.swapaxes(a, -1, -2)
    out[..., d:, :d] = -root * a
    out[..., d:, d:] = zeta * c
    return out


def _zeta_min(a: np.ndarray, c: np.ndarray, rho: float) -> float:
    """Smallest step-size ratio with a guaranteed real positive M spectrum,
    zeta_min = (4*rho + 4*lmax(A^T C^{-1} A)) / lmin(C)."""
    c_eigs = np.linalg.eigvalsh(c)
    # a rank-deficient C shows a rounding-level lmin of either sign
    if c_eigs[0] <= c.shape[0] * np.finfo(float).eps * c_eigs[-1]:
        raise ArithmeticError(
            "aggregate C is not positive-definite; draw more samples"
        )
    inner = np.linalg.eigvalsh(a.T @ np.linalg.solve(c, a))
    return float((4.0 * rho + 4.0 * inner[-1]) / c_eigs[0])


@dataclass(frozen=True)
class SpectralConstants:
    """Spectral quantities of the scaled gradient operator."""

    alpha: float            # smallest eigenvalue of the aggregate M
    beta: float             # largest per-sample spectral norm of M_{i,p}
    psi: float              # largest eigenvalue of the aggregate C
    zeta_min: float         # realness threshold for the ratio zeta
    g_eigs_real: bool       # aggregate M spectrum real (to 1e-9) and positive
    valid: bool             # zeta > zeta_min and the spectrum checks passed
    g_max_eig: float        # largest real part of M's spectrum (step ceiling)


def spectral_constants(problem: ProblemSpec, zeta: float) -> SpectralConstants:
    """Compute alpha, beta, psi and the zeta threshold for a given ratio."""
    a, _, c = aggregate(problem)
    eigs = np.linalg.eigvals(_scaled_block(a, c, problem.rho, zeta))
    imag_max = float(np.max(np.abs(eigs.imag)))
    real = imag_max <= EIG_IMAG_TOL
    alpha = float(np.min(eigs.real))
    g_max = float(np.max(eigs.real))
    # every per-sample block M_{i,p}, whose plain sum is M, at once: the
    # outer products along a stack axis
    phi, psi, _ = _factors(problem)
    blocks = _scaled_block(phi[:, :, None] * psi[:, None, :],
                           phi[:, :, None] * phi[:, None, :],
                           problem.rho, zeta) / problem.m
    beta = float(np.linalg.norm(blocks, 2, axis=(1, 2)).max())
    psi = float(np.linalg.eigvalsh(c)[-1])
    zmin = _zeta_min(a, c, problem.rho)
    valid = bool(zeta > zmin and real and alpha > 0)
    return SpectralConstants(
        alpha=alpha, beta=beta, psi=psi, zeta_min=zmin,
        g_eigs_real=real, valid=valid, g_max_eig=g_max,
    )
