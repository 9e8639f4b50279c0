"""Saddle-point core of the distributed policy-evaluation objective.

Per sample p held by node i, with feature pair (phi_t, phi_{t+1}) and scalar
reward R, the statistics are

    A_hat = phi_t (phi_t - gamma * phi_{t+1})^T
    b_hat = phi_t * R
    C_hat = phi_t phi_t^T

and the per-sample saddle objective is

    J_{i,p}(theta, omega) = omega^T (A_hat theta - b_hat)
                            - 0.5 * omega^T C_hat omega
                            + 0.5 * rho * ||theta||^2,

minimized over theta and maximized over omega; the global objective is the
flat mean over all m samples. Saddle vectors are stored stacked as
z = [theta; omega] in R^{2d}; the gradient stack is [grad_theta; -grad_omega]
so one descent step moves theta downhill and omega uphill.

Scaled coordinates: for step-size ratio zeta = eta2/eta1, the analysis
coordinates are w = [theta; omega / sqrt(zeta)]. In these coordinates the
gradient map is affine with linear part similar (via diag(I, -I)) to

    G = [[rho*I, -sqrt(zeta)*A^T], [sqrt(zeta)*A, zeta*C]],

whose extreme eigenvalues give the contraction constant alpha = lmin(G) and,
per sample, the Lipschitz constant beta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .mdp import TdSample

SOLVE_TOL = 1e-10
EIG_IMAG_TOL = 1e-9


@dataclass(frozen=True)
class SampleStats:
    """Matrices of one sample's quadratic saddle term."""

    a_hat: np.ndarray
    b_hat: np.ndarray
    c_hat: np.ndarray

    def __post_init__(self):
        d = self.b_hat.shape[0]
        if self.a_hat.shape != (d, d) or self.c_hat.shape != (d, d):
            raise ValueError(
                f"inconsistent stat shapes {self.a_hat.shape}, "
                f"{self.b_hat.shape}, {self.c_hat.shape}"
            )


@dataclass(frozen=True)
class ProblemSpec:
    """All per-node sample statistics plus the regularizer.

    per_node[i][p] holds node i's p-th sample stats; m is the total count.
    """

    per_node: tuple[tuple[SampleStats, ...], ...]
    rho: float
    gamma: float

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
        return self.per_node[0][0].b_hat.shape[0]

    def all_stats(self):
        for node_stats in self.per_node:
            yield from node_stats


def per_sample_stats(sample: TdSample, gamma: float) -> SampleStats:
    """Rank-one statistics of a single feature-space transition."""
    phi_t = np.asarray(sample.phi_t, dtype=float)
    phi_tp1 = np.asarray(sample.phi_tp1, dtype=float)
    if phi_t.shape != phi_tp1.shape or phi_t.ndim != 1:
        raise ValueError(
            f"feature vectors must share one dimension, got "
            f"{phi_t.shape} and {phi_tp1.shape}"
        )
    return SampleStats(
        a_hat=np.outer(phi_t, phi_t - gamma * phi_tp1),
        b_hat=phi_t * float(sample.reward),
        c_hat=np.outer(phi_t, phi_t),
    )


def problem_from_samples(per_node_samples: list[list[TdSample]], rho: float,
                         gamma: float) -> ProblemSpec:
    return ProblemSpec(
        per_node=tuple(
            tuple(per_sample_stats(s, gamma) for s in node)
            for node in per_node_samples
        ),
        rho=rho,
        gamma=gamma,
    )


def aggregate(problem: ProblemSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Global flat means (A, b, C) over all m samples."""
    d, m = problem.d, problem.m
    a = np.zeros((d, d))
    b = np.zeros(d)
    c = np.zeros((d, d))
    for st in problem.all_stats():
        a += st.a_hat
        b += st.b_hat
        c += st.c_hat
    return a / m, b / m, c / m


def saddle_gradient(z: np.ndarray, stats: SampleStats, rho: float) -> np.ndarray:
    """Stacked per-sample gradient [grad_theta; -grad_omega] at z = [theta; omega]."""
    d = stats.b_hat.shape[0]
    if z.shape != (2 * d,):
        raise ValueError(f"z must have length {2 * d}, got shape {z.shape}")
    theta, omega = z[:d], z[d:]
    # both blocks are written into one buffer, with the operations of
    # [A^T omega + rho theta; -(A theta - C omega - b)] in that order
    out = np.empty(2 * d)
    g_theta, g_omega = out[:d], out[d:]
    stats.a_hat.T.dot(omega, out=g_theta)
    g_theta += rho * theta
    stats.a_hat.dot(theta, out=g_omega)
    g_omega -= stats.c_hat.dot(omega)
    g_omega -= stats.b_hat
    np.negative(g_omega, out=g_omega)
    return out


def sample_objective(z: np.ndarray, stats: SampleStats, rho: float) -> float:
    """Value of the per-sample saddle term (used by the derivative checks)."""
    d = stats.b_hat.shape[0]
    theta, omega = z[:d], z[d:]
    return float(
        omega @ (stats.a_hat @ theta - stats.b_hat)
        - 0.5 * omega @ (stats.c_hat @ omega)
        + 0.5 * rho * theta @ theta
    )


def full_gradient(problem: ProblemSpec, z: np.ndarray) -> np.ndarray:
    """Mean stacked gradient over all samples (equals the aggregate form)."""
    a, b, c = aggregate(problem)
    return saddle_gradient(z, SampleStats(a_hat=a, b_hat=b, c_hat=c), problem.rho)


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

def to_scaled(z: np.ndarray, zeta: float) -> np.ndarray:
    """Map z = [theta; omega] to analysis coordinates [theta; omega/sqrt(zeta)]."""
    d = z.shape[0] // 2
    w = z.copy()
    w[d:] /= np.sqrt(zeta)
    return w


def from_scaled(w: np.ndarray, zeta: float) -> np.ndarray:
    d = w.shape[0] // 2
    z = w.copy()
    z[d:] *= np.sqrt(zeta)
    return z


def scaled_gradient(problem: ProblemSpec, w: np.ndarray, zeta: float) -> np.ndarray:
    """Mean gradient map in scaled coordinates.

    One step w <- w - eta * scaled_gradient(w) reproduces the unscaled block
    step (eta1 = eta on theta, eta2 = eta*zeta on omega) up to the coordinate
    change.
    """
    g = full_gradient(problem, from_scaled(w, zeta))
    d = w.shape[0] // 2
    g[d:] *= np.sqrt(zeta)
    return g


def scaled_affine(problem: ProblemSpec, zeta: float) -> tuple[np.ndarray, np.ndarray]:
    """Affine form of the scaled gradient: scaled_gradient(w) = M @ w + const.

    M is orthogonally similar to the block operator G (via diag(I, -I)), so
    spectra and norms transfer; the explicit form lets iterative sweeps skip
    re-aggregation.
    """
    a, b, c = aggregate(problem)
    d = problem.d
    root = np.sqrt(zeta)
    m = np.block([
        [problem.rho * np.eye(d), root * a.T],
        [-root * a, zeta * c],
    ])
    const = np.concatenate([np.zeros(d), root * b])
    return m, const


def _block_operator(a: np.ndarray, c: np.ndarray, rho: float, zeta: float) -> np.ndarray:
    d = a.shape[0]
    root = np.sqrt(zeta)
    return np.block([
        [rho * np.eye(d), -root * a.T],
        [root * a, zeta * c],
    ])


def sample_operator(stats: SampleStats, rho: float, zeta: float, m: int) -> np.ndarray:
    """Per-sample linear block G_{i,p}; the aggregate G is their plain sum."""
    return _block_operator(stats.a_hat, stats.c_hat, rho, zeta) / m


def full_operator(problem: ProblemSpec, zeta: float) -> np.ndarray:
    a, _, c = aggregate(problem)
    return _block_operator(a, c, problem.rho, zeta)


def zeta_threshold(problem: ProblemSpec) -> float:
    """Smallest step-size ratio with a guaranteed real positive G spectrum.

    zeta_min = (4*rho + 4*lmax(A^T C^{-1} A)) / lmin(C), from the aggregate
    statistics.
    """
    a, _, c = aggregate(problem)
    c_eigs = np.linalg.eigvalsh(c)
    if c_eigs[0] <= 0:
        raise ArithmeticError(
            "aggregate C is not positive-definite; draw more samples"
        )
    inner = np.linalg.eigvalsh(a.T @ np.linalg.solve(c, a))
    return float((4.0 * problem.rho + 4.0 * inner[-1]) / c_eigs[0])


@dataclass(frozen=True)
class SpectralConstants:
    """Spectral quantities of the scaled gradient operator."""

    alpha: float            # smallest eigenvalue of the aggregate G
    beta: float             # largest per-sample spectral norm of G_{i,p}
    psi: float              # largest eigenvalue of the aggregate C
    zeta_min: float         # realness threshold for the ratio zeta
    zeta: float             # the ratio these constants were computed at
    g_eigs_real: bool       # aggregate G spectrum real (to 1e-9) and positive
    valid: bool             # zeta > zeta_min and the spectrum checks passed
    g_max_eig: float        # largest real part of G's spectrum (step ceiling)
    eta_max_theory: float | None = None  # filled in by the rate-constant pass


def spectral_constants(problem: ProblemSpec, zeta: float) -> SpectralConstants:
    """Compute alpha, beta, psi and the zeta threshold for a given ratio."""
    a, _, c = aggregate(problem)
    g = full_operator(problem, zeta)
    eigs = np.linalg.eigvals(g)
    imag_max = float(np.max(np.abs(eigs.imag)))
    real = imag_max <= EIG_IMAG_TOL
    alpha = float(np.min(eigs.real))
    g_max = float(np.max(eigs.real))
    beta = max(
        float(np.linalg.norm(sample_operator(st, problem.rho, zeta, problem.m), 2))
        for st in problem.all_stats()
    )
    psi = float(np.linalg.eigvalsh(c)[-1])
    zmin = zeta_threshold(problem)
    valid = bool(zeta > zmin and real and alpha > 0)
    return SpectralConstants(
        alpha=alpha, beta=beta, psi=psi, zeta_min=zmin, zeta=zeta,
        g_eigs_real=real, valid=valid, g_max_eig=g_max,
    )


def check_contraction(z: np.ndarray, eta: float, problem: ProblemSpec,
                      zeta: float) -> float:
    """One-step distance ratio ||w - eta*grad(w) - w*|| / ||w - w*||.

    Operates in scaled coordinates; ``z`` is an unscaled saddle vector.
    Raises at the saddle point itself (undefined ratio).

    This Euclidean ratio is not bounded by 1 - alpha*eta: the one-step map
    I - eta*M (M from ``scaled_affine``) is not normal, so the ratio can
    exceed that rate at single steps. With a real spectrum and
    eta <= 1/lmax(M), the per-step bound 1 - alpha*eta holds in the
    eigenbasis norm ||Q^{-1}(w - w*)||, where M = Q diag(lambda) Q^{-1}.
    """
    w = to_scaled(z, zeta)
    w_star = to_scaled(solve_problem(problem), zeta)
    gap = np.linalg.norm(w - w_star)
    if gap == 0.0:
        raise ValueError("contraction ratio undefined at the saddle point")
    stepped = w - eta * scaled_gradient(problem, w, zeta)
    return float(np.linalg.norm(stepped - w_star) / gap)


# ---------------------------------------------------------------------------
# text serialization
# ---------------------------------------------------------------------------

def dump_problem(problem: ProblemSpec, path: str | Path) -> None:
    """Write the problem as a plain-text dump (header + row-major matrices)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("asyncsag-problem v1\n")
        fh.write(f"n {problem.n}\n")
        fh.write(f"d {problem.d}\n")
        fh.write(f"rho {problem.rho!r}\n")
        fh.write(f"gamma {problem.gamma!r}\n")
        fh.write("m_i " + " ".join(str(c) for c in problem.m_i) + "\n")
        for i, node_stats in enumerate(problem.per_node):
            for p, st in enumerate(node_stats):
                fh.write(f"sample {i} {p}\n")
                for name, mat in (("A", st.a_hat), ("b", st.b_hat), ("C", st.c_hat)):
                    flat = " ".join(repr(float(x)) for x in np.ravel(mat))
                    fh.write(f"{name} {flat}\n")


def load_problem(path: str | Path) -> ProblemSpec:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != "asyncsag-problem v1":
        raise ValueError(f"{path}: not a problem dump")
    header: dict[str, str] = {}
    idx = 1
    while idx < len(lines) and not lines[idx].startswith("sample "):
        key, _, val = lines[idx].partition(" ")
        header[key] = val
        idx += 1
    n, d = int(header["n"]), int(header["d"])
    m_i = [int(x) for x in header["m_i"].split()]
    if len(m_i) != n:
        raise ValueError(f"{path}: m_i count {len(m_i)} does not match n={n}")
    per_node: list[list[SampleStats]] = [[] for _ in range(n)]
    while idx < len(lines):
        tag = lines[idx].split()
        if tag[0] != "sample" or len(tag) != 3:
            raise ValueError(f"{path}: expected sample header at line {idx + 1}")
        i = int(tag[1])
        vals = {}
        for off, name in enumerate(("A", "b", "C"), start=1):
            key, _, flat = lines[idx + off].partition(" ")
            if key != name:
                raise ValueError(f"{path}: expected {name} row at line {idx + off + 1}")
            vals[name] = np.array([float(x) for x in flat.split()])
        per_node[i].append(
            SampleStats(
                a_hat=vals["A"].reshape(d, d),
                b_hat=vals["b"],
                c_hat=vals["C"].reshape(d, d),
            )
        )
        idx += 4
    if [len(s) for s in per_node] != m_i:
        raise ValueError(f"{path}: sample counts do not match the m_i header")
    return ProblemSpec(
        per_node=tuple(tuple(s) for s in per_node),
        rho=float(header["rho"]),
        gamma=float(header["gamma"]),
    )
