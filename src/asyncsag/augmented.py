"""Delay-register ("augmented") matrix form of the asynchronous run.

Every real node v gets a chain of b virtual registers per state family, so
bounded-delay information flow becomes a single-timescale linear recursion.
With ntilde = n*(b+1) rows, index (v, u) -> u*n + v, u=0 being the real row:

  pull side   Z^{k} in R^{ntilde x 2d}, rows are sqrt(zeta)-scaled saddle
              vectors (omega block divided by sqrt(zeta));
  push side   Y^{k}, rows are trackers with the omega block multiplied by
              sqrt(zeta);
  partial     the n real nodes' averaged-gradient rows (same scaling as Y);
              a register carries none.

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
O(ntilde) bytes. The replay multiplies by row gathers, and no event matrix
is ever dense. ``product_contraction`` keeps each forward product as pure
rows, one entry each in a column that only pure rows touch, plus one dense
core block holding every other nonzero row over the columns those rows
touch. An event matrix moves, scales and mixes rows of the two parts by
array gathers, and the distance to rank one comes from the pure columns'
norms plus one SVD of the thin core. No ntilde x ntilde array is formed.
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
        """Sort (row, col, weight) entries; sum repeated positions in order
        and drop the positions whose sum is exactly zero.

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
        nonzero = weights != 0.0
        if not nonzero.all():
            order, weights = order[nonzero], weights[nonzero]
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
        """``self @ operand`` for a dense 1-D or 2-D operand, by row gathers:
        each output row starts as its first entry's weight times that
        entry's source row (zero for an empty row) and then adds its
        remaining entries in column order."""
        operand = np.asarray(operand, dtype=float)
        if operand.ndim not in (1, 2) or operand.shape[0] != self.size:
            raise ValueError(f"cannot multiply a {self.shape} matrix by an "
                             f"operand of shape {operand.shape}")
        first = np.ones(self.rows.size, dtype=bool)
        first[1:] = self.rows[1:] != self.rows[:-1]
        source = np.zeros(self.size, dtype=np.intp)
        scale = np.zeros(self.size)
        source[self.rows[first]] = self.cols[first]
        scale[self.rows[first]] = self.weights[first]
        out = np.take(operand, source, axis=0)
        scaled = np.flatnonzero(scale != 1.0)
        out[scaled] *= scale[scaled].reshape((-1,) + (1,) * (operand.ndim - 1))
        rest = ~first
        for row, col, weight in zip(self.rows[rest], self.cols[rest],
                                    self.weights[rest]):
            out[row] += weight * operand[col]
        return out

    def toarray(self) -> np.ndarray:
        """The dense form."""
        dense = np.zeros(self.shape)
        dense[self.rows, self.cols] = self.weights
        return dense


@dataclass(frozen=True)
class EventMatrices:
    """Pull, push, and activation-indicator matrices of one event, sparse."""

    h_row: SparseMatrix   # row-stochastic pull matrix
    h_col: SparseMatrix   # column-stochastic push matrix
    i_act: SparseMatrix   # diagonal indicator of the activator's real row


@dataclass(frozen=True)
class AugmentedState:
    """Full augmented state after event k (k=0 is the initialization)."""

    k: int
    z_rows: np.ndarray        # (ntilde, 2d), scaled saddle vectors
    y_rows: np.ndarray        # (ntilde, 2d), scaled trackers
    partial: np.ndarray       # (n, 2d), scaled per-node gradient averages
    latest: np.ndarray        # (n,) each node's latest event row, -1 for none
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
                f"{age} events old, exceeding the window b={b}")
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
                f"b={b}")
        else:
            split.append((w, w, -1))
    parked, origins, shares = [], [], []
    for w, dest, used in split:
        height = b if used < 0 else used - sent - 1
        if height > b - 1 and used >= 0:
            raise AssumptionViolation(
                f"event {k}: share from node {w} (event {sent}) to "
                f"node {dest} rests {height} events, exceeding b={b}")
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

    return EventMatrices(h_row=h_row, h_col=h_col, i_act=i_act)


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
    if trace.z_tilde.shape[0] != t:
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
    z_rows, partial = np.zeros((ntilde, 2 * d)), np.empty((n, 2 * d))
    tables = []
    for v in range(n):
        table = np.stack([saddle_gradient(np.zeros(2 * d), st, problem.rho)
                          for st in problem.per_node[v]])
        tables.append(table)
        # tracker-side rows carry omega times sqrt(zeta), as from_scaled does
        partial[v] = from_scaled(table.sum(axis=0) / m, zeta)
    # the trackers start at the partial averages, and the registers empty
    y_rows = np.zeros((ntilde, 2 * d))
    y_rows[:n] = partial
    prev = AugmentedState(k=0, z_rows=z_rows, y_rows=y_rows, partial=partial,
                          latest=np.full(n, -1))
    yield prev

    for k in range(1, trace.num_events + 1):
        i = int(trace.node[k - 1])
        mats = build_event_matrices(trace, k, b)

        z_rows = mats.h_row @ prev.z_rows
        z_hat = from_scaled(z_rows[i], zeta)
        p = int(trace.samples[k - 1])
        fresh = saddle_gradient(z_hat, problem.per_node[i][p], problem.rho)
        partial = prev.partial.copy()
        partial[i] += from_scaled((fresh - tables[i][p]) / m, zeta)
        tables[i][p] = fresh

        y_rows = mats.h_col @ prev.y_rows
        y_rows[i] += partial[i] - prev.partial[i]
        z_rows[i] -= eta * y_rows[i]

        latest = prev.latest.copy()
        latest[i] = k - 1
        prev = AugmentedState(k=k, z_rows=z_rows, y_rows=y_rows,
                              partial=partial, latest=latest, mats=mats)
        yield prev


def check_equivalence(trace: EventTrace, state: AugmentedState) -> float:
    """Max deviation of a state's real rows from the simulator's iterates
    after event ``state.k``."""
    n, latest = trace.n, state.latest
    simulated = np.zeros((n, 2 * trace.d))
    simulated[latest >= 0] = trace.z_tilde[latest[latest >= 0]]
    replayed = from_scaled(state.z_rows[:n], trace.eta2 / trace.eta1)
    return float(np.max(np.abs(replayed - simulated)))


def tracking_residual(state: AugmentedState) -> float:
    """Norm of 1^T Y^k - 1^T partial^k (the conserved-mass identity)."""
    return float(np.linalg.norm(state.y_rows.sum(axis=0)
                                - state.partial.sum(axis=0)))


def rank_one_distance(mat: np.ndarray) -> float:
    """Frobenius distance to the best rank-one approximation, by a full SVD.

    The distance is sqrt(sigma_2**2 + sigma_3**2 + ...), O(ntilde**3). It is
    the dense reference for ``product_contraction``. For the ntilde x ntilde
    identity it is sqrt(ntilde - 1), which exceeds 2 once ntilde >= 6; it is
    therefore not the norm of the 2*delta**t envelope, which bounds the l1
    deviation of a stochastic product's rows (or columns) from their mean.
    """
    return _distance(np.linalg.svd(mat, compute_uv=False) ** 2)


def _distance(squares: np.ndarray) -> float:
    """sqrt of the sum of all squared singular values but the largest."""
    return float(np.sqrt(np.sum(np.sort(squares)[:-1])))


class _ForwardProduct:
    """A forward product P = M_t ... M_1, kept as pure rows plus one dense
    core block.

    A pure row holds one entry, in a column that no core row touches; it is
    stored as (column, weight) in two length-``size`` arrays, column -1 for
    a row that is not pure, and ``pure_rows`` lists the pure rows. Every
    other nonzero row is a core row: a row of ``block``, over the core
    columns ``cols``. ``rows`` names the row of P that each block row is,
    and ``core_at`` maps a row of P back to its block row (-1 for none). A
    row that is neither is zero.
    """

    def __init__(self, size: int):
        self.size = size
        self.pure_rows = np.arange(size)
        self.pure_col = np.arange(size)
        self.pure_w = np.ones(size)
        self.rows = np.empty(0, dtype=np.intp)
        self.core_at = np.full(size, -1)
        self.cols = np.empty(0, dtype=np.intp)
        self.block = np.empty((0, 0))

    def step(self, mat: SparseMatrix) -> None:
        """P <- mat @ P, each entry bit for bit that of the dense row gather
        ``mat @ P.toarray()`` on finite weights, up to the sign of a zero.

        A row of ``mat`` with one entry copies and scales a pure or core
        row. A row with more entries mixes its sources into a core row, in
        ``mat``'s column order. A pure column that a mixing row reads joins
        the core, and so does every pure row that holds it; core columns
        that no row holds any more are dropped.
        """
        size, rows, src, weights = self.size, mat.rows, mat.cols, mat.weights
        source, index, cols = self.block, self.core_at, self.cols
        reads = np.empty(0, dtype=np.intp)   # entries reading a pure row
        if self.pure_rows.size:
            from_pure = self.pure_col[src]
            reads = np.flatnonzero(from_pure >= 0)
        if reads.size:
            mixing = reads[np.bincount(rows, minlength=size)[rows[reads]] > 1]
            if mixing.size:
                # the pure columns that a row of two or more entries reads
                # get block columns after the old ones, and the pure rows
                # that hold them become block rows after the old ones; the
                # sort and mask are np.unique's, without its numpy.ma import
                joined = np.sort(from_pure[mixing])
                joined = joined[np.append(True, joined[1:] != joined[:-1])]
                width, height = cols.size, self.rows.size
                at = np.full(size, -1)
                at[joined] = width + np.arange(joined.size)
                to_col = at[self.pure_col[self.pure_rows]]
                held = to_col >= 0
                moving, to_col = self.pure_rows[held], to_col[held]
                index = index.copy()
                index[moving] = height + np.arange(moving.size)
                source = np.zeros((height + moving.size, width + joined.size))
                source[:height, :width] = self.block
                source[index[moving], to_col] = self.pure_w[moving]
                cols = np.concatenate([cols, joined])
        from_source = index[src]

        # A core row is the weighted sum of its entries' source rows, in
        # column order, starting from the first term as the dense row
        # gather does. An entry reading a zero row adds only a zero, so it
        # is left out, and a row with no other entry stays zero.
        entry = np.flatnonzero(from_source >= 0)
        core_rows = rows[entry]
        lead = np.ones(entry.size, dtype=bool)
        lead[1:] = core_rows[1:] != core_rows[:-1]
        first, core_rows = entry[lead], core_rows[lead]
        block = np.take(source, from_source[first], axis=0)
        scale = weights[first]
        scaled = np.flatnonzero(scale != 1.0)   # a weight of 1 copies
        block[scaled] *= scale[scaled, None]
        if not lead.all():
            # the later terms add one by one in entry order, so each row
            # sums in column order
            rest = entry[~lead]
            terms = np.take(source, from_source[rest], axis=0)
            terms *= weights[rest, None]
            slots = (np.cumsum(lead)[~lead] - 1).tolist()
            for slot, term in zip(slots, terms):
                block[slot] += term
        if not (block.size and block.all()):
            # a boolean matrix product with ones is any() along its summed
            # axis, and numpy runs it faster than the reduction
            nonzero = block != 0.0
            kept = np.ones(nonzero.shape[0], dtype=bool) @ nonzero
            if not kept.all():
                block, cols = block[:, kept], cols[kept]
            kept = nonzero @ np.ones(nonzero.shape[1], dtype=bool)
            if not kept.all():
                block, core_rows = block[kept], core_rows[kept]

        # a one-entry row reading a pure row whose column stays pure; a
        # product without pure rows keeps its all -1 and all 0 arrays
        copy = reads[from_source[reads] < 0]
        if copy.size or self.pure_rows.size:
            pure_col, pure_w = np.full(size, -1), np.zeros(size)
            pure_col[rows[copy]] = from_pure[copy]
            pure_w[rows[copy]] = weights[copy] * self.pure_w[src[copy]]
            self.pure_rows, self.pure_col, self.pure_w = (rows[copy],
                                                          pure_col, pure_w)
        self.rows, self.cols, self.block = core_rows, cols, block
        self.core_at = np.full(size, -1)
        self.core_at[core_rows] = np.arange(core_rows.size)

    def squared_singular_values(self) -> np.ndarray:
        """Squared singular values of P.

        The spectrum of a matrix is the union of those of the connected
        components of its row-column graph. A column of pure rows is one,
        whose one singular value is the l2 norm of its weights, summed in
        row order. The core is the rest (``split_core``). Zero singular
        values come only from a rank-deficient core; an all-zero P gives
        none.
        """
        cols = self.pure_col[self.pure_rows]
        groups = np.empty(0)
        if cols.size:
            sums = np.bincount(cols, weights=self.pure_w[self.pure_rows] ** 2,
                               minlength=self.size)
            present = np.zeros(self.size, dtype=bool)
            present[cols] = True
            groups = sums[present]
        lone, block = self.split_core()
        return np.concatenate([
            groups, lone,
            np.linalg.svd(block, compute_uv=False) ** 2 if block.size else []])

    def split_core(self) -> tuple[np.ndarray, np.ndarray]:
        """The core as (squared norms of its isolated rows, the rest in its
        tall orientation, for one SVD).

        An isolated row, one whose columns no other core row touches, is a
        component of its own. Only a wide core is searched for them, which
        on the event matrices is a push core; the many rows of a tall
        (pull) core cost more to search than to put through the SVD.
        """
        block, lone = self.block, np.empty(0)
        if block.shape[0] < block.shape[1]:
            nonzero = block != 0.0
            alone = ~(nonzero @ (nonzero.sum(axis=0) > 1))
            if alone.any():
                lone = np.sum(block[alone] ** 2, axis=1)
                block = block[~alone]
        # the SVD reads a Fortran-ordered array without a transposing copy
        return lone, np.asfortranarray(
            block.T if block.shape[0] < block.shape[1] else block)

    def toarray(self) -> np.ndarray:
        """The dense form of P."""
        dense = np.zeros((self.size, self.size))
        pure = self.pure_rows
        dense[pure, self.pure_col[pure]] = self.pure_w[pure]
        dense[np.ix_(self.rows, self.cols)] = self.block
        return dense


def _as_sparse(mat: SparseMatrix | np.ndarray) -> SparseMatrix:
    """A dense square matrix as the ``SparseMatrix`` of its nonzeros."""
    if isinstance(mat, SparseMatrix):
        return mat
    mat = np.asarray(mat, dtype=float)
    rows, cols = np.nonzero(mat)
    return SparseMatrix.from_entries(rows, cols, mat[rows, cols], mat.shape[0])


def product_contraction(
        matrices: Sequence[SparseMatrix | np.ndarray]) -> np.ndarray:
    """Rank-one distances of the forward products of a matrix sequence.

    Entry t is ``rank_one_distance`` of the product P_t of the first t
    matrices (t=0 is the identity). Pass the h_row or h_col matrices of
    consecutive events. Every matrix enters through its nonzeros (a dense
    array is converted to a ``SparseMatrix`` first). Each product
    P_t = M_t P_{t-1} is kept as pure rows plus one dense core block
    (``_ForwardProduct``), whose entries are bit for bit those of the dense
    row-gather product, up to the sign of a zero. A one-entry row of M_t
    moves or scales a row, and only a row of two or more entries sums.

    The distance is exact, computed by ``rank_one_distance``'s formula from
    the spectrum of P_t, which is the union of those of its components.
    Each column of pure rows gives the l2 norm of its weights, and the core
    goes through one SVD, taken in its tall orientation, after a wide core
    has given up its isolated rows by their norms. On the bundled configs
    the core is thin over the first 200 events: at most n columns for a
    pull product, and at most n + 2 rows through the SVD for a push
    product (693 x 9 and 11 x 693 on marl9, 1431 x 9 and 11 x 1431 on
    straggler). The distance starts at sqrt(ntilde - 1), above the
    2*delta**t envelope whenever ntilde >= 6, which is why multi-node
    ``verify`` reports ``FAIL product_contraction_bound`` at t=0.

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
    prod = _ForwardProduct(np.shape(matrices[0])[0])
    out = np.empty(len(matrices) + 1)
    out[0] = _distance(prod.squared_singular_values())
    for t, mat in enumerate(matrices, start=1):
        prod.step(_as_sparse(mat))
        out[t] = _distance(prod.squared_singular_values())
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

