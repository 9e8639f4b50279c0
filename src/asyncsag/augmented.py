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

Row sums of every H_R and column sums of every H_C are one up to rounding,
which is what makes the tracking identity 1^T Y^k = 1^T partial^k exact.

Storage: each H_R, H_C and I_a is a ``SparseMatrix`` of coalesced
(row, col, weight) entries, at most deg+1 per row, so one event takes
O(ntilde) bytes. The replay and ``product_contraction`` multiply by row
gathers, and no event matrix is ever dense. ``product_contraction`` keeps
each forward product on its support box (its nonzero rows times its nonzero
columns), so an ntilde x ntilde array is formed only for the first few
products: on the event matrices the pull box narrows to at most n columns
once the products span the staleness window, and the push box keeps only
the registers that hold mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import mpmath as mp
import numpy as np

from .mspbe import (ProblemSpec, SpectralConstants, from_scaled,
                    saddle_gradient)
from .simulator import AssumptionViolation, EventTrace, verify_assumption1b

STOCHASTIC_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Square matrix kept as its nonzeros.

    The entries are coalesced (one per position) and sorted by row, then by
    column. An event matrix has at most deg+1 nonzeros per row, so it takes
    O(ntilde) bytes instead of the O(ntilde**2) of a dense array, and a
    product with it costs O(nnz * columns).
    """

    rows: np.ndarray      # int32, nondecreasing
    cols: np.ndarray      # int32, increasing within a row
    weights: np.ndarray   # float64
    size: int

    @classmethod
    def from_entries(cls, rows, cols, weights, size: int) -> SparseMatrix:
        """Sort (row, col, weight) entries; sum repeated positions in order.

        The sum starts at zero and adds the repeats in input order, as a
        dense ``+=`` over the same entries would.
        """
        rows = np.asarray(rows, dtype=np.int32)
        cols = np.asarray(cols, dtype=np.int32)
        key = rows.astype(np.int64) * size + cols
        order = np.argsort(key, kind="stable")
        key = key[order]
        weights = np.asarray(weights, dtype=float)[order]
        fresh = np.ones(key.size, dtype=bool)
        fresh[1:] = key[1:] != key[:-1]
        if not fresh.all():
            weights = np.bincount(np.cumsum(fresh) - 1, weights=weights)
        order = order[fresh]
        return cls(rows[order], cols[order], weights, size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.size, self.size)

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + self.cols.nbytes + self.weights.nbytes

    def sum(self, axis: int) -> np.ndarray:
        """Column sums (axis=0) or row sums (axis=1)."""
        if axis not in (0, 1):
            raise ValueError(f"axis must be 0 or 1, got {axis!r}")
        index = self.cols if axis == 0 else self.rows
        return np.bincount(index, weights=self.weights, minlength=self.size)

    def __matmul__(self, operand) -> np.ndarray:
        """``self @ operand`` for a dense 1-D or 2-D operand, by row gathers.

        Each output row starts as its first entry's weight times that
        entry's source row (zero for an empty row) and then adds its
        remaining entries in column order.
        """
        operand = np.asarray(operand, dtype=float)
        if operand.ndim not in (1, 2) or operand.shape[0] != self.size:
            raise ValueError(f"cannot multiply a {self.shape} matrix by an "
                             f"operand of shape {operand.shape}")
        return _gather(self.rows, self.cols, self.weights, operand, self.size)

    def toarray(self) -> np.ndarray:
        """The dense form."""
        dense = np.zeros(self.shape)
        dense[self.rows, self.cols] = self.weights
        return dense


def _row_starts(rows: np.ndarray) -> np.ndarray:
    """Mask of the entries that open a row in a nondecreasing row array."""
    first = np.ones(rows.size, dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    return first


def _gather(rows: np.ndarray, sources: np.ndarray, weights: np.ndarray,
            operand: np.ndarray, count: int) -> np.ndarray:
    """``count`` rows of sums ``weight * operand[source]``, grouped by row.

    ``rows`` is nondecreasing in [0, count). Each output row starts as its
    first entry's weight times that entry's source row (zero for a row
    without entries) and then adds its remaining entries in order.
    """
    first = _row_starts(rows)
    source = np.zeros(count, dtype=np.intp)
    scale = np.zeros(count)
    source[rows[first]] = sources[first]
    scale[rows[first]] = weights[first]
    out = np.take(operand, source, axis=0)
    scaled = np.flatnonzero(scale != 1.0)
    out[scaled] *= scale[scaled].reshape((-1,) + (1,) * (operand.ndim - 1))
    rest = ~first
    for row, col, weight in zip(rows[rest], sources[rest], weights[rest]):
        out[row] += weight * operand[col]
    return out


@dataclass(frozen=True)
class EventMatrices:
    """Pull, push, and activation-indicator matrices of one event, sparse."""

    k: int
    h_row: SparseMatrix   # row-stochastic pull matrix
    h_col: SparseMatrix   # column-stochastic push matrix
    i_act: SparseMatrix   # diagonal indicator of the activator's real row


@dataclass(frozen=True)
class AugmentedState:
    """Full augmented state after event k (k=0 is the initialization)."""

    k: int
    z_rows: np.ndarray        # (ntilde, 2d), scaled saddle vectors
    y_rows: np.ndarray        # (ntilde, 2d), scaled trackers
    partial: np.ndarray       # (ntilde, 2d), scaled per-node gradient averages
    mats: EventMatrices | None = None   # event k's matrices (None at k=0)


def build_event_matrices(trace: EventTrace, k: int, b: int) -> EventMatrices:
    """Construct H_R^k, H_C^k, I_a^k for event k (1-based) of the trace, at
    the window b that ``verify_assumption1b`` certifies for it."""
    if not (1 <= k <= trace.num_events):
        raise ValueError(f"event index {k} outside the trace (1..{trace.num_events})")
    n = trace.n
    ntilde = n * (b + 1)  # register (v, u) has index u*n + v

    i = int(trace.node[k - 1])
    log = trace.messages
    # Event k pulled the activator's own latest broadcast, looked for among
    # the b events before k, then the log rows consumed at k.
    behind, start = trace.node[:k - 1], max(k - 1 - b, 0)
    seen = start + np.flatnonzero(behind[start:] == i)
    if not seen.size:   # stale (to be named), or i's initial broadcast
        seen = np.flatnonzero(behind == i)
    own = int(seen[-1]) + 1 if seen.size else 0
    rows = log.consumed_by(k)
    consumed = [(i, own)] + list(zip(log.origin[rows].tolist(),
                                     log.sent_at[rows].tolist()))

    # --- pull matrix -------------------------------------------------------
    # The activator's row averages its receptions (a repeated reception adds
    # its weight again); the other real rows hold, and every chain register
    # copies the one below it. The entries come out sorted by row.
    weight = 1.0 / len(consumed)
    pulled: dict[int, float] = {}
    for origin, sent in consumed:
        age = k - sent - 1
        if age > b - 1:
            raise AssumptionViolation(
                f"event {k}: reception from node {origin} (event {sent}) is "
                f"{age} events old, exceeding the window b={b}", node=origin,
            )
        col = age * n + origin
        pulled[col] = pulled.get(col, 0.0) + weight
    sources = sorted(pulled)
    h_row = SparseMatrix(
        np.concatenate([np.arange(i), np.full(len(sources), i),
                        np.arange(i + 1, ntilde)]).astype(np.int32),
        np.concatenate([np.arange(i), sources, np.arange(i + 1, n),
                        np.arange(ntilde - n)]).astype(np.int32),
        np.concatenate([np.ones(i), [pulled[c] for c in sources],
                        np.ones(ntilde - i - 1)]),
        ntilde)

    # --- activation indicator ---------------------------------------------
    i_act = SparseMatrix(np.array([i], dtype=np.int32),
                         np.array([i], dtype=np.int32), np.ones(1), ntilde)

    # --- push matrix -------------------------------------------------------
    # The masses that split now are those created by the previous event (the
    # initialization broadcasts when k == 1). Each share parks at the height
    # that drains it at its consuming event, or on top when nothing in the
    # trace consumes it. The network shares are the messages sent at event
    # k-1 (the log is in send order); a splitter's own share is consumed at
    # its next activation, which a certified window of b events holds.
    sent = k - 1
    lo, hi = log.sent_at.searchsorted([sent, sent + 1])
    # (origin, receiver, consuming event or -1 for none) of each share
    split = list(zip(log.origin[lo:hi].tolist(), log.dest[lo:hi].tolist(),
                     log.consumed_at[lo:hi].tolist()))
    splitters = list(range(n)) if k == 1 else [int(trace.node[k - 2])]
    ahead = trace.node[sent:sent + b].tolist()
    for w in splitters:
        if w in ahead:
            split.append((w, w, sent + 1 + ahead.index(w)))
        elif sent + b <= trace.num_events:
            raise AssumptionViolation(
                f"event {k}: node {w} does not activate within the {b} "
                f"events after event {sent}, so its own share rests past "
                f"b={b}", node=w)
        else:
            split.append((w, w, -1))
    parked, origins, shares = [], [], []
    for w, dest, used in split:
        height = b if used < 0 else used - sent - 1
        if height > b - 1 and used >= 0:
            raise AssumptionViolation(
                f"event {k}: share from node {w} (event {sent}) to "
                f"node {dest} rests {height} events, exceeding b={b}", node=w)
        parked.append(height * n + dest)
        origins.append(w)
        shares.append(1.0 / trace.graph.out_degree(w))
    # the real rows that did not split hold, and every chain register
    # drains into the one below it
    holders = np.array([v for v in range(n) if v not in splitters],
                       dtype=np.int32)
    h_col = SparseMatrix.from_entries(
        np.concatenate([holders, np.arange(ntilde - n), parked]),
        np.concatenate([holders, np.arange(n, ntilde), origins]),
        np.concatenate([np.ones(holders.size), np.ones(ntilde - n), shares]),
        ntilde)

    return EventMatrices(k=k, h_row=h_row, h_col=h_col, i_act=i_act)


def replay(trace: EventTrace,
           problem: ProblemSpec) -> Iterator[AugmentedState]:
    """Re-run the whole trace as the augmented matrix recursion, at the
    trace's own steps (eta = eta1, zeta = eta2 / eta1).

    Independent of the simulator's numerical path: gradients are recomputed
    at the replay's own reconstructed pull averages and the per-sample tables
    are rebuilt from scratch. Each event's products with H_R and H_C are row
    gathers over its sparse matrices, built once and carried by the state.

    Yields the states k = 0..T in order; each owns its arrays, and only the
    previous one is kept. The layout checks and the certification of b
    raise at the call, before the first state is asked for.
    """
    if problem.n != trace.n or problem.d != trace.d or problem.m_i != trace.m_i:
        raise ValueError("problem layout does not match the trace")
    # a run given z_star keeps its error series, not the broadcasts
    t = trace.num_events
    if trace.z_tilde.shape[0] != t or trace.y_new.shape[0] != t:
        raise ValueError(f"the trace holds the broadcasts of "
                         f"{trace.z_tilde.shape[0]} of its {t} events; "
                         f"replay needs a full trace")
    b = verify_assumption1b(trace)
    return _replay_states(trace, problem, b)


def _replay_states(trace: EventTrace, problem: ProblemSpec,
                   b: int) -> Iterator[AugmentedState]:
    eta, zeta = trace.eta1, trace.eta2 / trace.eta1
    n, d, m = trace.n, trace.d, sum(trace.m_i)
    ntilde = n * (b + 1)

    # every node starts at z = 0, so every register does
    z_rows, partial = np.zeros((ntilde, 2 * d)), np.zeros((ntilde, 2 * d))
    tables = []
    for v in range(n):
        table = np.stack([saddle_gradient(np.zeros(2 * d), st, problem.rho)
                          for st in problem.per_node[v]])
        tables.append(table)
        # tracker-side rows carry omega times sqrt(zeta), as from_scaled does
        partial[v] = from_scaled(table.sum(axis=0) / m, zeta)
    prev = AugmentedState(k=0, z_rows=z_rows, y_rows=partial.copy(),
                          partial=partial)
    yield prev

    for k in range(1, trace.num_events + 1):
        i = int(trace.node[k - 1])
        mats = build_event_matrices(trace, k, b)

        z_rows = mats.h_row @ prev.z_rows
        z_hat = from_scaled(z_rows[i], zeta)
        delta = np.zeros(2 * d)
        for p in trace.samples[k - 1].tolist():
            fresh = saddle_gradient(z_hat, problem.per_node[i][p], problem.rho)
            delta += (fresh - tables[i][p]) / m
            tables[i][p] = fresh
        # only the real rows carry gradient averages; the registers stay 0
        partial = prev.partial.copy()
        partial[i] += from_scaled(delta, zeta)

        y_rows = mats.h_col @ prev.y_rows
        y_rows[i] += partial[i] - prev.partial[i]
        z_rows[i] -= eta * y_rows[i]

        prev = AugmentedState(k=k, z_rows=z_rows, y_rows=y_rows,
                              partial=partial, mats=mats)
        yield prev


def check_equivalence(trace: EventTrace, state: AugmentedState) -> float:
    """Max deviation of a state's real rows from the simulator's iterates
    after event ``state.k``."""
    n, k = trace.n, state.k
    # each node's latest activation at or before event k (-1: none yet)
    latest = np.full(n, -1)
    np.maximum.at(latest, trace.node[:k], np.arange(k))
    simulated = np.zeros((n, 2 * trace.d))
    simulated[latest >= 0] = trace.z_tilde[latest[latest >= 0]]
    zeta = trace.eta2 / trace.eta1
    replayed = [from_scaled(row, zeta) for row in state.z_rows[:n]]
    return float(np.max(np.abs(np.array(replayed) - simulated)))


def tracking_residual(state: AugmentedState) -> float:
    """Norm of 1^T Y^k - 1^T partial^k (the conserved-mass identity)."""
    return float(np.linalg.norm(state.y_rows.sum(axis=0)
                                - state.partial.sum(axis=0)))


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


class _SupportBox:
    """A forward product kept on its support box.

    ``block`` is the dense (len(rows), len(cols)) submatrix of the product
    at the given rows and columns; every entry outside the box is zero. The
    product starts as the identity.
    """

    def __init__(self, size: int) -> None:
        self.rows = np.arange(size)
        self.cols = np.arange(size)
        self.block = np.eye(size)

    def step(self, mat: SparseMatrix) -> np.ndarray:
        """Replace the product P by ``mat @ P``; return the mask of the old
        columns that stay in the box.

        Only the entries of ``mat`` whose source row is in the box are
        gathered, so every entry inside the new box is bit for bit the
        ``mat @ P`` of ``SparseMatrix.__matmul__``: the entries dropped
        there multiply a zero row. A column that turns all zero leaves the
        box.
        """
        position = np.full(mat.size, -1, dtype=np.intp)
        position[self.rows] = np.arange(self.rows.size)
        sources = position[mat.cols]
        live = sources >= 0
        targets = mat.rows[live]
        first = _row_starts(targets)
        self.rows = targets[first]
        self.block = _gather(np.cumsum(first) - 1, sources[live],
                             mat.weights[live], self.block, self.rows.size)
        keep = self.block.any(axis=0)
        if not keep.all():
            self.cols = self.cols[keep]
            self.block = np.compress(keep, self.block, axis=1)
        return keep


def _as_sparse(mat: SparseMatrix | np.ndarray) -> SparseMatrix:
    """A dense square matrix as the ``SparseMatrix`` of its nonzeros."""
    if isinstance(mat, SparseMatrix):
        return mat
    mat = np.asarray(mat, dtype=float)
    rows, cols = np.nonzero(mat)
    return SparseMatrix.from_entries(rows, cols, mat[rows, cols], mat.shape[0])


def _rank_one_residual(mat: np.ndarray,
                       start: np.ndarray) -> tuple[float, np.ndarray]:
    """Rank-one distance of ``mat`` by Lanczos from ``start``, or by the SVD
    when Lanczos does not converge or the residual is at rounding level;
    and the unit top right singular vector it used. The residual array is
    freed on return, before the next product is gathered."""
    frob2 = float(np.vdot(mat, mat))
    vec, converged = _top_right_singular_vector(mat, start, frob2)
    resid = np.outer(mat @ vec, vec)
    resid -= mat
    dist = float(np.linalg.norm(resid))
    if not converged or dist <= _RESOLVED * np.sqrt(frob2):
        dist = rank_one_distance(mat)
    return dist, vec


def product_contraction(
        matrices: Sequence[SparseMatrix | np.ndarray]) -> np.ndarray:
    """Rank-one distances of the forward products of a matrix sequence.

    Entry t is ``rank_one_distance`` of the product P_t of the first t
    matrices (t=0 is the identity). Pass the h_row or h_col matrices of
    consecutive events. Every matrix enters through its nonzeros (a dense
    array is converted to a ``SparseMatrix`` first), and each product is
    kept only on its support box: its nonzero rows times its nonzero
    columns, stored densely with the row and column indices beside it.

    * P_t = M_t P_{t-1}, gathering only the entries of M_t whose source row
      is in the box. A zero column of P_{t-1} stays zero in M_t P_{t-1},
      since every entry of that column is a weighted sum of zeros, so the
      columns only shrink; the columns that turn all zero leave the box.
      The entries inside the box are bit for bit those of the full product
      ``M_t @ P_{t-1}``. On the event matrices the pull box keeps the
      columns of the registers whose initial content still reaches some
      row, at most n once t > b, and the push box the rows that hold mass.
    * The singular values of P_t are those of its box, and its top right
      singular vector is supported on the box's columns. So the steps below
      run on the (rows x cols) box instead of the ntilde x ntilde product.
    * The top right singular vector v comes from Lanczos on P_t^T P_t,
      warm-started from the previous step's vector. The start is |v_prev|
      plus a floor on every coordinate: P^T P is nonnegative and can split
      into disconnected blocks, and a start confined to one block would miss
      sigma_1, whose Perron vector is nonnegative (a strictly positive start
      always has a component along it).
    * The distance is the residual ||P_t - (P_t v) v^T||_F, whose error is
      second order in the error of v and free of cancellation, unlike
      sqrt(||P_t||_F**2 - sigma_1**2).

    A step falls back to the exact SVD when Lanczos does not converge within
    its step cap, or when the residual is at rounding level. The values
    match the SVD's to about 1e-13 relative, so ``verify``'s verdict is the
    SVD's: the distance starts at sqrt(ntilde - 1), above the 2*delta**t
    envelope whenever ntilde >= 6, which is why multi-node ``verify`` still
    reports ``FAIL product_contraction_bound`` at t=0.

    Raises ``ValueError`` for an empty sequence, and for a matrix that is
    not square or not the size of the first.
    """
    if not matrices:
        raise ValueError("need at least one matrix")
    for index, mat in enumerate(matrices):
        shape = np.shape(mat)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"matrix {index} has shape {shape}, which is "
                             f"not square")
        if shape != np.shape(matrices[0]):
            raise ValueError(f"matrix {index} has shape {shape}, but matrix "
                             f"0 has shape {np.shape(matrices[0])}")
    size = np.shape(matrices[0])[0]
    box = _SupportBox(size)
    vec = np.full(size, 1.0 / np.sqrt(size))
    out = np.empty(len(matrices) + 1)
    for t in range(len(matrices) + 1):
        if t > 0:
            vec = vec[box.step(_as_sparse(matrices[t - 1]))]
        if not box.block.size:
            out[t] = 0.0   # the product is zero
            continue
        start = np.abs(vec) + _WARM_FLOOR / np.sqrt(vec.size)
        out[t], vec = _rank_one_residual(box.block, start)
    return out


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
        one_minus_c=one_minus_c, valid=valid,
    )


def delta_power(constants: RateConstants, t: int) -> float:
    """delta**t as a float (1 minus a tiny number at realistic sizes)."""
    with mp.workdps(60):
        ln_delta = mp.log1p(-constants.kappa) / (constants.d_g * constants.b)
        return float(mp.exp(t * ln_delta))


def eta2_range(m: int, spectral: SpectralConstants, eta: float) -> float:
    """Upper end of the admissible dual step: eta2 < (2*m*beta/psi) * eta."""
    return float(2.0 * m * spectral.beta / spectral.psi * eta)

