"""Delay-register ("augmented") matrix form of the asynchronous run.

Every real node v gets a chain of b virtual registers per state family, so
bounded-delay information flow becomes a single-timescale linear recursion.
With ntilde = n*(b+1) rows, index (v, u) -> u*n + v, u=0 being the real row:

  pull side   Z^{k} in R^{ntilde x 2d}, rows are sqrt(zeta)-scaled saddle
              vectors (omega block divided by sqrt(zeta));
  push side   Y^{k}, rows are trackers with the omega block multiplied by
              sqrt(zeta);
  partial     per-node averaged-gradient rows (same scaling as Y).

Conventions fixed here (the replay-equivalence test is the arbiter):

* Pull chains age forward: register (v, u) copies (v, u-1) every event, so at
  state k it holds v's broadcast from event k-u. The activator's real row
  averages, for each consumed reception of origin o sent at event s, the
  register (o, k-s-1); everyone else holds.
* Push mass splits at creation: the tracker mass node w computed at event s
  splits into out-degree shares during the *next* transition (event s+1; the
  initialization masses split at event 1). Each share is parked in the
  receiver's chain at exactly the height that drains it into the receiver's
  real row at its consuming activation; shares never consumed inside the
  trace park at the top register. Chain registers shift down one per event.
* Per-event recursion, in this order:

      Y^{k} = H_C^{k} Y^{k-1} + partial^{k} - partial^{k-1}
      Z^{k} = H_R^{k} Z^{k-1} - eta * I_a^{k} Y^{k}

  i.e. the activator steps along its *corrected* tracker, outside the pull
  average. The gradient refresh inside partial^{k} is evaluated at the
  replay's own reconstructed pull average, which makes the replay an
  independent second implementation of the whole run.

Row sums of every H_R and column sums of every H_C are exactly one, which is
what makes the tracking identity 1^T Y^k = 1^T partial^k exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import mpmath as mp
import numpy as np

from .graph import diameter
from .mspbe import (ProblemSpec, SpectralConstants, from_scaled,
                    saddle_gradient, to_scaled)
from .simulator import AssumptionViolation, EventTrace, verify_assumption1b

STOCHASTIC_TOL = 1e-12


@dataclass(frozen=True)
class EventMatrices:
    """Pull, push, and activation-indicator matrices of one event."""

    k: int
    h_row: np.ndarray   # row-stochastic pull matrix
    h_col: np.ndarray   # column-stochastic push matrix
    i_act: np.ndarray   # diagonal indicator of the activator's real row


@dataclass(frozen=True)
class AugmentedState:
    """Full augmented state after event k (k=0 is the initialization)."""

    k: int
    z_rows: np.ndarray        # (ntilde, 2d), scaled saddle vectors
    y_rows: np.ndarray        # (ntilde, 2d), scaled trackers
    partial: np.ndarray       # (ntilde, 2d), scaled per-node gradient averages
    zeta: float


def _consumption_index(trace: EventTrace) -> dict[tuple[int, int, int], int]:
    """(origin, sent_event, receiver) -> event index that consumed it."""
    index: dict[tuple[int, int, int], int] = {}
    for ev in trace.events:
        for origin, sent in ev.result.consumed:
            index[(origin, sent, ev.node)] = ev.k
    return index


def build_event_matrices(trace: EventTrace, k: int, b: int | None = None,
                         _consumed: dict | None = None) -> EventMatrices:
    """Construct H_R^k, H_C^k, I_a^k for event k (1-based) of the trace."""
    if not (1 <= k <= trace.num_events):
        raise ValueError(f"event index {k} outside the trace (1..{trace.num_events})")
    if b is None:
        b = verify_assumption1b(trace)
    if _consumed is None:
        _consumed = _consumption_index(trace)
    n = trace.n
    ntilde = n * (b + 1)

    def idx(v: int, u: int) -> int:
        return u * n + v

    ev = trace.events[k - 1]
    i = ev.node

    # --- pull matrix -------------------------------------------------------
    h_row = np.zeros((ntilde, ntilde))
    for v in range(n):
        if v != i:
            h_row[idx(v, 0), idx(v, 0)] = 1.0
    weight = 1.0 / len(ev.result.consumed)
    for origin, sent in ev.result.consumed:
        age = k - sent - 1
        if age > b - 1:
            raise AssumptionViolation(
                f"event {k}: reception from node {origin} (event {sent}) is "
                f"{age} events old, exceeding the window b={b}", node=origin,
            )
        h_row[idx(i, 0), idx(origin, age)] += weight
    for v in range(n):
        for u in range(1, b + 1):
            h_row[idx(v, u), idx(v, u - 1)] = 1.0

    # --- activation indicator ---------------------------------------------
    i_act = np.zeros((ntilde, ntilde))
    i_act[idx(i, 0), idx(i, 0)] = 1.0

    # --- push matrix -------------------------------------------------------
    # The masses that split now are those created by the previous event (the
    # initialization broadcasts when k == 1).
    h_col = np.zeros((ntilde, ntilde))
    if k == 1:
        splitters = [(w, 0) for w in range(n)]
    else:
        prev = trace.events[k - 2]
        splitters = [(prev.node, prev.k)]
    split_nodes = {w for w, _ in splitters}
    for w, sent in splitters:
        share = 1.0 / trace.graph.out_degree(w)
        for dest in trace.graph.out_neighbors(w):
            consumed_at = _consumed.get((w, sent, dest))
            if consumed_at is None:
                height = b  # never consumed inside the trace; park on top
            else:
                height = consumed_at - sent - 1
                if height > b - 1:
                    raise AssumptionViolation(
                        f"event {k}: share from node {w} (event {sent}) to "
                        f"node {dest} rests {height} events, exceeding b={b}",
                        node=w,
                    )
            h_col[idx(dest, height), idx(w, 0)] += share
    for v in range(n):
        if v not in split_nodes:
            h_col[idx(v, 0), idx(v, 0)] = 1.0
        for u in range(1, b + 1):
            h_col[idx(v, u - 1), idx(v, u)] = 1.0

    return EventMatrices(k=k, h_row=h_row, h_col=h_col, i_act=i_act)


def replay(trace: EventTrace, problem: ProblemSpec, eta: float,
           zeta: float) -> list[AugmentedState]:
    """Re-run the whole trace as the augmented matrix recursion.

    Independent of the simulator's numerical path: gradients are recomputed
    at the replay's own reconstructed pull averages and the per-sample tables
    are rebuilt from scratch. Returns states for k = 0..T.
    """
    if problem.n != trace.n or problem.d != trace.d or problem.m_i != trace.m_i:
        raise ValueError("problem layout does not match the trace")
    b = verify_assumption1b(trace)
    consumed = _consumption_index(trace)
    n, d, m = trace.n, trace.d, sum(trace.m_i)
    ntilde = n * (b + 1)

    z_rows = np.zeros((ntilde, 2 * d))
    y_rows = np.zeros((ntilde, 2 * d))
    partial = np.zeros((ntilde, 2 * d))
    tables = []
    for v in range(n):
        z_rows[v] = to_scaled(trace.z0[v], zeta)
        stats = problem.per_node[v]
        table = np.stack([saddle_gradient(trace.z0[v], st, problem.rho)
                          for st in stats])
        tables.append(table)
        # tracker-side rows carry omega times sqrt(zeta), as from_scaled does
        partial[v] = from_scaled(table.sum(axis=0) / m, zeta)
    y_rows[:] = partial

    states = [AugmentedState(k=0, z_rows=z_rows.copy(), y_rows=y_rows.copy(),
                             partial=partial.copy(), zeta=zeta)]
    for ev in trace.events:
        k, i = ev.k, ev.node
        mats = build_event_matrices(trace, k, b=b, _consumed=consumed)

        z_pulled = mats.h_row @ z_rows
        z_hat = from_scaled(z_pulled[i], zeta)
        delta = np.zeros(2 * d)
        for p in ev.result.samples:
            fresh = saddle_gradient(z_hat, problem.per_node[i][p], problem.rho)
            delta += (fresh - tables[i][p]) / m
            tables[i][p] = fresh
        new_partial = partial.copy()
        new_partial[i] += from_scaled(delta, zeta)

        y_rows = mats.h_col @ y_rows
        y_rows[i] += new_partial[i] - partial[i]
        z_rows = z_pulled
        z_rows[i] -= eta * y_rows[i]
        partial = new_partial

        states.append(AugmentedState(k=k, z_rows=z_rows.copy(),
                                     y_rows=y_rows.copy(),
                                     partial=partial.copy(), zeta=zeta))
    return states


def check_equivalence(trace: EventTrace, states: Sequence[AugmentedState]) -> float:
    """Max deviation between replayed real rows and the simulator's iterates."""
    zeta = states[0].zeta
    z_cur = trace.z0.copy()
    worst = 0.0
    for state in states:
        if state.k > 0:
            ev = trace.events[state.k - 1]
            z_cur[ev.node] = ev.result.z_tilde
        for v in range(trace.n):
            replayed = from_scaled(state.z_rows[v], zeta)
            worst = max(worst, float(np.max(np.abs(replayed - z_cur[v]))))
    return worst


def tracking_residual(states: Sequence[AugmentedState],
                      k: int | None = None) -> np.ndarray | float:
    """Norm of 1^T Y^k - 1^T partial^k (the conserved-mass identity).

    Returns the residual at one k, or the whole per-state array when k is
    omitted.
    """
    def one(state: AugmentedState) -> float:
        return float(np.linalg.norm(state.y_rows.sum(axis=0)
                                    - state.partial.sum(axis=0)))

    if k is not None:
        for state in states:
            if state.k == k:
                return one(state)
        raise ValueError(f"no replayed state with k={k}")
    return np.array([one(s) for s in states])


def rank_one_distance(mat: np.ndarray) -> float:
    """Frobenius distance to the best rank-one approximation, by a full SVD.

    The distance is sqrt(sigma_2**2 + sigma_3**2 + ...), O(ntilde**3). It is
    the exact reference for ``product_contraction`` and its fallback. For the
    ntilde x ntilde identity it is sqrt(ntilde - 1), which exceeds 2 once
    ntilde >= 6; it is therefore not the norm of the 2*delta**t envelope,
    which bounds the l1 deviation of a stochastic product's rows (or columns)
    from their mean.
    """
    svals = np.linalg.svd(mat, compute_uv=False)
    return float(np.sqrt(np.sum(svals[1:] ** 2)))


# Lanczos steps per product before falling back to the SVD, and the relative
# accuracy asked of each squared distance.
_LANCZOS_STEPS = 64
_LANCZOS_RTOL = 1e-13
# Share of the warm start spread over every coordinate, so that the start is
# strictly positive (see product_contraction).
_WARM_FLOOR = 1e-3
# Below this fraction of ||P||_F the residual is rounding noise and the SVD
# decides. An exactly rank-one product then keeps its exact zero distance,
# which the 2*delta**t envelope needs at small ntilde, where it shrinks fast.
_RESOLVED = 1e-12


def _sparse_left_multiply(mat: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """mat @ prod by row gathers, in O(nnz(mat) * columns) for a sparse mat."""
    flat = np.flatnonzero(mat != 0)
    rows, cols = np.divmod(flat, mat.shape[1])
    weights = mat.ravel()[flat]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    # each row starts as its first entry times its source row (zero when the
    # row is empty), then adds its remaining entries
    source = np.zeros(mat.shape[0], dtype=np.intp)
    scale = np.zeros(mat.shape[0])
    source[rows[first]] = cols[first]
    scale[rows[first]] = weights[first]
    out = prod[source]
    scaled = np.flatnonzero(scale != 1.0)
    out[scaled] *= scale[scaled, None]
    rest = ~first
    for row, col, weight in zip(rows[rest], cols[rest], weights[rest]):
        out[row] += weight * prod[col]
    return out


def _top_right_singular_vector(mat: np.ndarray, start: np.ndarray,
                               frob2: float) -> tuple[np.ndarray, bool]:
    """Unit top right singular vector of ``mat``, and whether it converged.

    Lanczos with full reorthogonalisation on mat^T mat from ``start``;
    ``frob2`` is ||mat||_F**2. The top Ritz value theta_1 falls short of
    sigma_1**2 by exactly the excess that the Ritz vector adds to the squared
    rank-one distance. That excess is bounded by the Ritz residual r, and by
    r**2 / (theta_1 - theta_2) once the top Ritz value has separated; the
    iteration stops when the bound is below ``_LANCZOS_RTOL`` of the squared
    distance or at rounding level.
    """
    size = mat.shape[1]
    steps = min(size, _LANCZOS_STEPS)
    basis = np.empty((steps, size))
    alpha = np.empty(steps)
    beta = np.empty(steps)
    floor = (64 * np.finfo(float).eps) ** 2 * frob2
    q = start / np.linalg.norm(start)
    for j in range(steps):
        basis[j] = q
        w = mat.T @ (mat @ q)
        alpha[j] = q @ w
        for _ in range(2):
            w -= basis[:j + 1].T @ (basis[:j + 1] @ w)
        beta[j] = np.linalg.norm(w)
        theta, ritz = np.linalg.eigh(np.diag(alpha[:j + 1])
                                     + np.diag(beta[:j], 1)
                                     + np.diag(beta[:j], -1))
        resid = beta[j] * abs(ritz[-1, -1])
        bound = resid
        if j > 0 and theta[-1] > theta[-2]:
            bound = min(resid, resid * resid / (theta[-1] - theta[-2]))
        converged = bound <= _LANCZOS_RTOL * max(frob2 - theta[-1], 0.0) + floor
        if converged or j == steps - 1:
            break
        q = w / beta[j]
    vec = ritz[:, -1] @ basis[:j + 1]
    return vec / np.linalg.norm(vec), converged


def product_contraction(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Rank-one distances of the forward products of a matrix sequence.

    Entry t is ``rank_one_distance`` of the product P_t of the first t
    matrices (t=0 is the identity). Pass the h_row or h_col matrices of
    consecutive events. Each matrix enters only through its nonzeros (at
    most deg+1 per row), so a step costs O(ntilde**2) instead of the
    O(ntilde**3) of a dense product and an SVD:

    * P_t = M_t P_{t-1} is updated by row gathers;
    * the top right singular vector v of P_t comes from Lanczos on
      P_t^T P_t, warm-started from the previous step's vector. The start is
      |v_prev| plus a floor on every coordinate: P^T P is nonnegative and can
      split into disconnected blocks, and a start confined to one block would
      miss sigma_1, whose Perron vector is nonnegative (a strictly positive
      start always has a component along it);
    * the distance is the residual ||P_t - (P_t v) v^T||_F, whose error is
      second order in the error of v and free of cancellation, unlike
      sqrt(||P_t||_F**2 - sigma_1**2).

    A step falls back to the exact SVD when Lanczos does not converge within
    its step cap, or when the residual is at rounding level. The values
    match the SVD's to about 1e-13 relative, so ``verify``'s verdict is the
    SVD's: the distance starts at sqrt(ntilde - 1), above the 2*delta**t
    envelope whenever ntilde >= 6, which is why multi-node ``verify`` still
    reports ``FAIL product_contraction_bound`` at t=0.
    """
    if not matrices:
        raise ValueError("need at least one matrix")
    size = matrices[0].shape[0]
    prod = np.eye(size)
    vec = np.full(size, 1.0 / np.sqrt(size))
    out = np.empty(len(matrices) + 1)
    for t in range(len(matrices) + 1):
        if t > 0:
            prod = _sparse_left_multiply(matrices[t - 1], prod)
        frob2 = float(np.vdot(prod, prod))
        start = np.abs(vec) + _WARM_FLOOR / np.sqrt(size)
        vec, converged = _top_right_singular_vector(prod, start, frob2)
        resid = np.outer(prod @ vec, vec)
        resid -= prod
        out[t] = np.linalg.norm(resid)
        if not converged or out[t] <= _RESOLVED * np.sqrt(frob2):
            out[t] = rank_one_distance(prod)
    return out


def evolve_weights(h_col_seq: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Weight-vector recursion v^{k+1} = H_C^k v^k from v^0 = [1_n; 0].

    Returns the (len+1, ntilde) stack of weight vectors. Column
    stochasticity conserves the total weight at n exactly.
    """
    ntilde = h_col_seq[0].shape[0] if h_col_seq else n
    v = np.zeros(ntilde)
    v[:n] = 1.0
    out = [v.copy()]
    for h in h_col_seq:
        v = h @ v
        out.append(v.copy())
    return np.stack(out)


# ---------------------------------------------------------------------------
# worst-case rate constants (arbitrary precision)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateConstants:
    """Network-contraction constants and the worst-case linear rate.

    kappa underflows double precision badly at realistic sizes (it is
    (1/ntilde)^(d_g*b)), so every derived quantity is kept as an mpmath
    value with enough working precision; quantities of the form 1 - tiny
    additionally store the tiny part (one_minus_*) which is the numerically
    meaningful number.
    """

    n: int
    b: int
    big_k: int            # sample-selection window (2*max(m_i) - 1)
    d_g: int              # graph diameter
    ntilde: int
    kappa: mp.mpf         # (1/ntilde)^(d_g*b)
    delta: mp.mpf         # (1 - kappa)^(1/(d_g*b))
    one_minus_delta: mp.mpf
    mu: mp.mpf            # kappa / (4n), satisfying mu < kappa/(2n)
    mu_over_kappa_times_n: float  # exactly 1/4 by construction
    t_tilde: mp.mpf       # smallest integer t with delta^t <= mu/2
    eta_max_theory: mp.mpf
    eta_used: mp.mpf
    eta_within_theory: bool
    c: mp.mpf             # max of the two root terms
    one_minus_c: mp.mpf
    ln_c: mp.mpf
    valid: bool           # c in (0,1) and eta within the theoretical range


def rate_constants(n: int, b: int, big_k: int, d_g: int,
                   spectral: SpectralConstants,
                   eta: float | mp.mpf | None = None) -> RateConstants:
    """Evaluate the worst-case constants by direct formula.

    With ``eta`` omitted, the step is set to half the theoretical maximum so
    the rate is guaranteed inside (0, 1). All arithmetic runs at a working
    precision wide enough for the (astronomically small) kappa.
    """
    if min(n, b, big_k, d_g) < 1:
        raise ValueError("n, b, K, d_g must all be positive")
    ntilde = n * (b + 1)
    exponent = d_g * b
    # All formulas below are cancellation-free (1 - tiny forms go through
    # log1p/expm1), so a fixed mantissa precision suffices; mpmath exponents
    # are unbounded, which is what the astronomically small kappa needs.
    with mp.workdps(80):
        kappa = mp.power(ntilde, -exponent)
        ln_delta = mp.log1p(-kappa) / exponent
        one_minus_delta = -mp.expm1(ln_delta)
        delta = 1 - one_minus_delta
        mu = kappa / (4 * n)
        t_tilde = mp.ceil(mp.log(mu / 2) / ln_delta)
        alpha = mp.mpf(spectral.alpha)
        beta = mp.mpf(spectral.beta)
        eta_max = (alpha * kappa ** 4 * (1 - kappa) ** 2) / (
            72 * beta ** 3 * n ** 3 * mp.mpf(b) ** 6 * mp.mpf(big_k) ** 3
            * t_tilde ** 2
        )
        eta_used = eta_max / 2 if eta is None else mp.mpf(eta)
        # first root term: (1/2 + kappa^{-1} mu n)^{1/(t_tilde+1)}; the inner
        # sum is exactly 3/4 because mu = kappa/(4n).
        ln_c1 = mp.log(mp.mpf(3) / 4) / (t_tilde + 1)
        x = eta_used * alpha * kappa * n / 2
        if x >= 1:
            ln_c2 = mp.mpf("-inf")
        else:
            ln_c2 = mp.log1p(-x) / (b + 1)
        ln_c = max(ln_c1, ln_c2)
        one_minus_c = -mp.expm1(ln_c)
        c = 1 - one_minus_c
        within = bool(eta_used < eta_max)
        valid = bool(one_minus_c > 0 and within and spectral.valid)
    return RateConstants(
        n=n, b=b, big_k=big_k, d_g=d_g, ntilde=ntilde, kappa=kappa,
        delta=delta, one_minus_delta=one_minus_delta, mu=mu,
        mu_over_kappa_times_n=0.25, t_tilde=t_tilde, eta_max_theory=eta_max,
        eta_used=eta_used, eta_within_theory=within, c=c,
        one_minus_c=one_minus_c, ln_c=ln_c, valid=valid,
    )


def delta_power(constants: RateConstants, t: int) -> float:
    """delta**t as a float (1 minus a tiny number at realistic sizes)."""
    with mp.workdps(60):
        ln_delta = mp.log1p(-constants.kappa) / (constants.d_g * constants.b)
        return float(mp.exp(t * ln_delta))


def eta2_range(m: int, spectral: SpectralConstants, eta: float) -> float:
    """Upper end of the admissible dual step: eta2 < (2*m*beta/psi) * eta."""
    return float(2.0 * m * spectral.beta / spectral.psi * eta)


def graph_constants(trace: EventTrace) -> tuple[int, int]:
    """(certified b, diameter) of a trace's run."""
    return verify_assumption1b(trace), diameter(trace.graph)
