"""Delay-register ("augmented") matrix form of the asynchronous run.

Every real node v gets a chain of b virtual registers per state family, so
bounded-delay information flow becomes a single-timescale linear recursion.
b is the trace's certified window, ``trace.window``: every consumed payload
is at most b - 1 events old and every splitter acts again within b events
unless the trace ends first, so every entry fits the chains. With ntilde =
n*(b+1) rows, index (v, u) -> u*n + v, u=0 being the real row:

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
is ever dense. An event's matrices slice the identity and chain-shift
entries that every event of the window shares (cached per (n, b)) and put
the few others, taken from per-trace arrays computed once from the plan,
at their sorted positions; they carry their row gathers, so a product is
one gather, a reset of the rows that mix, and one ordered scatter per
part. ``product_contraction`` keeps each forward product as pure
rows, one entry each in a column that only pure rows touch, plus one dense
core block holding every other nonzero row over the columns those rows
touch. An event matrix moves, scales and mixes rows of the two parts by
array gathers, and the distance to rank one comes from the pure columns'
norms plus one SVD of the thin core. No ntilde x ntilde array is formed.
"""

from __future__ import annotations

import decimal
import math
import weakref
from dataclasses import dataclass, field
from decimal import Decimal
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .mspbe import (ProblemSpec, SpectralConstants, from_scaled,
                    saddle_gradient)
from .simulator import EventTrace
# unused here: bench/tracer.py and bench/selftest.py patch and read this
# binding; the window itself comes from ``EventTrace.window``
from .simulator import verify_assumption1b

STOCHASTIC_TOL = 1e-12


class RowGather(NamedTuple):
    """A product ``M @ X`` as row gathers. Row r starts as ``X[source[r]]``,
    which is all of it when its first entry has weight 1; the rows
    ``reset`` start at -0.0 instead, and an ``empty`` row at 0 times row 0.
    Each part (rows, columns, weights) of ``added`` then adds its weighted
    source rows in order: every entry of a reset row and the later entries
    of the others, so each row sums in column order. As -0.0 + x is x, a
    reset row's sum starts at its first term exactly."""

    source: np.ndarray
    reset: np.ndarray
    empty: np.ndarray
    added: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


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
    # the row gathers of ``@``, when the builder knows them; ``_row_gather``
    # derives them from the entries otherwise
    gather: RowGather | None = field(default=None, repr=False)

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

    def _row_gather(self) -> RowGather:
        """The row gathers of ``self @ X``."""
        if self.gather is not None:
            return self.gather
        rows, cols, weights = self.rows, self.cols, self.weights
        first = np.empty(rows.size, dtype=bool)
        first[:1] = True
        np.not_equal(rows[1:], rows[:-1], out=first[1:])
        source = np.zeros(self.size, dtype=np.intp)
        source[rows[first]] = cols[first]
        reset = first & (weights != 1.0)
        added = reset | ~first
        return RowGather(source, rows[reset],
                         (np.bincount(rows, minlength=self.size) == 0
                          ).nonzero()[0],
                         ((rows[added], cols[added], weights[added]),))

    def __matmul__(self, operand) -> np.ndarray:
        """``self @ operand`` for a dense 1-D or 2-D operand, by the row
        gathers of ``_row_gather``; one ordered scatter per part adds the
        entries that a gather does not copy."""
        operand = np.asarray(operand, dtype=float)
        if operand.ndim not in (1, 2) or operand.shape[0] != self.size:
            raise ValueError(f"cannot multiply a {self.shape} matrix by an "
                             f"operand of shape {operand.shape}")
        gather = self._row_gather()
        out = operand.take(gather.source, axis=0)
        out[gather.reset] = -0.0
        if gather.empty.size:
            out[gather.empty] = 0.0 * operand[0]
        shape = (-1,) + (1,) * (operand.ndim - 1)
        for rows, cols, weights in gather.added:
            if rows.size:
                # np.add.at adds repeated rows in entry order
                np.add.at(out, rows, operand[cols] * weights.reshape(shape))
        return out

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


@dataclass(frozen=True)
class _Layout:
    """Read-only arrays that every event matrix of ntilde = n*(b+1) rows
    slices, cached per (n, b)."""

    index: np.ndarray       # int32, 0 .. ntilde - 1
    pull_cols: np.ndarray   # int32, each row's pull source when it holds
    pull_source: np.ndarray   # the same as intp, the base of its gathers
    ones: np.ndarray        # float64, ntilde ones
    # the push entries, sorted, of the chain alone (event 1, at which every
    # real row splits), and for each node w, row w of these (n, ntilde - 1)
    # arrays, of the chain and the real rows other than w holding
    chain_rows: np.ndarray
    chain_cols: np.ndarray
    held_rows: np.ndarray
    held_cols: np.ndarray
    # the row gathers of the latter: each row's first column (n, ntilde),
    # the top rows, all empty, and the chain entries (v, v + n) of the real
    # rows v other than w, which follow their holding entries (n, n - 1)
    held_source: np.ndarray
    top: np.ndarray
    held_added_rows: np.ndarray
    held_added_cols: np.ndarray


@lru_cache(maxsize=4)
def _layout(n: int, b: int) -> _Layout:
    """The ``_Layout`` of n nodes at window b."""
    ntilde = n * (b + 1)
    chain = ntilde - n
    index = np.arange(ntilde, dtype=np.int32)
    # a chain register reads the one below it in the pull matrix and drains
    # into it in the push matrix: push row r holds column r + n
    pull_cols = np.concatenate([index[:n], index[:chain]])
    rows = np.concatenate([np.repeat(index[:n], 2), index[n:chain]])
    cols = rows + np.int32(n)
    cols[:2 * n:2] = index[:n]   # real row v holds (v, v) before (v, v + n)
    # without (w, w), which is entry 2w
    drop = np.arange(ntilde - 1)
    drop = drop + (drop >= 2 * np.arange(n)[:, None])
    held_source = np.tile(np.concatenate([index[:n], index[2 * n:],
                                          np.zeros(n, dtype=np.int32)]),
                          (n, 1)).astype(np.intp)
    held_source[np.arange(n), np.arange(n)] += n
    others = np.arange(n - 1) + (np.arange(n - 1) >= np.arange(n)[:, None])
    layout = _Layout(index, pull_cols, pull_cols.astype(np.intp),
                     np.ones(ntilde), index[:chain], index[n:], rows[drop],
                     cols[drop], held_source, index[chain:],
                     index[others], index[others + n])
    for array in vars(layout).values():
        array.flags.writeable = False
    return layout


class _EventPlan:
    """The entries of every event's matrices that ``_layout`` does not hold,
    computed once per trace with array code from its plan columns.

    Event k's pull entries are ``[pull_at[k-1]:pull_at[k]]`` of the
    ``pull_*`` arrays: the activator's row, sorted by column. Its push
    entries, the shares that split at k, are ``[at[k-1]:at[k]]`` of the
    ``push_*`` arrays: each parks at row height * n + receiver, or, when
    nothing in the trace consumes it, on the top register, whose row b * n
    + receiver is added at the event (the last ``tops[k-1]`` entries hold
    the receiver alone). ``push_at`` places each share among the event's
    push entries, counted from the end for a share on top, so no array
    depends on b. A broadcast reaches each out-neighbour once, and the own
    copy and own share go to their origin alone, so no two entries of an
    event's pull or push share a position.
    """

    def __init__(self, trace: EventTrace):
        t, n, node = trace.num_events, trace.n, trace.node
        previous, following, first = trace.activations
        log = trace.messages
        events = np.arange(t)

        # pull: the activator's own latest broadcast and the log rows it
        # consumed, each read from register age * n + origin
        used = np.flatnonzero(log.consumed_at > 0)
        event = np.concatenate([events, log.consumed_at[used] - 1])
        age = np.concatenate([events - 1 - previous,
                              event[t:] - log.sent_at[used]])
        col = age * n + np.concatenate([node, log.origin[used]])
        order = np.lexsort((col, event))
        event, col = event[order], col[order]
        at = event.searchsorted(np.arange(t + 1))
        counts = np.diff(at)
        self.pull_at = at.tolist()
        self.pull_row = node[event].astype(np.int32)
        self.pull_col = col.astype(np.int32)
        self.pull_weight = np.repeat(1.0 / counts, counts)

        # push: the messages sent at event k - 1, then the splitters' own
        # shares (every node's at event 1, the previous activator's after),
        # each consumed at the row ``used`` or never (on top)
        sent = np.flatnonzero(log.sent_at < t)
        shares = sent.size
        event = np.concatenate([log.sent_at[sent], np.zeros(n, dtype=np.int64),
                                events[1:]])
        origin = np.concatenate([log.origin[sent], np.arange(n), node[:-1]])
        dest = np.concatenate([log.dest[sent], np.arange(n), node[:-1]])
        used = np.concatenate([log.consumed_at[sent] - 1, first,
                               following[:-1]])
        top = np.concatenate([log.consumed_at[sent] < 0,
                              used[shares:] == t])
        parked = np.where(top, dest, (used - event) * n + dest)
        order = np.lexsort((origin, parked, top, event))
        event, origin, parked, top = (array[order] for array in
                                      (event, origin, parked, top))
        at = event.searchsorted(np.arange(t + 1))
        self.at = at.tolist()
        rank = np.arange(event.size) - at[event]
        # a share comes after the held entries of the rows above its own and
        # of its row's columns below its own: at event 1 the chain alone,
        # later every real row but the splitter w holds at (v, v) too
        w = node[np.maximum(event - 1, 0)]
        below = np.where(parked < n, 2 * parked - (w < parked) + (parked < w),
                         parked + n - 1)
        below[event == 0] = parked[event == 0]
        self.push_at = np.where(top, rank - (at[event + 1] - at[event]),
                                below + rank)
        self.push_rows = parked.astype(np.int32)
        self.push_cols = origin.astype(np.int32)
        # each node's tracker mass splits into 1/|N_out| shares
        self.push_weight = 1.0 / np.array(
            [trace.graph.out_degree(v) for v in range(n)], dtype=float)[origin]
        tops = np.bincount(event[top], minlength=t)
        self.tops = tops.tolist()

        # The row gathers of the push matrix of each event after the first
        # with no share on top (``gathered``); the others derive theirs from
        # the entries. Every row that a share of the splitter w parks in is
        # reset and adds two entries in column order: the share and the real
        # row's holding entry (p, p), or the share and the chain entry
        # (p, p + n) of any other row.
        self.gathered = ((events > 0) & (tops == 0)).tolist()
        real = (parked < n) & (parked != origin)
        lead = ~real | (origin < parked)
        self.added_rows = np.repeat(self.push_rows, 2)
        self.added_cols = np.stack([
            np.where(lead, origin, parked),
            np.where(real, np.where(lead, parked, origin), parked + n)],
            axis=1).ravel().astype(np.int32)
        self.added_weight = np.stack([
            np.where(lead, self.push_weight, 1.0),
            np.where(lead, 1.0, self.push_weight)], axis=1).ravel()


# each live trace's plan, by id; ``build_event_matrices`` is given the
# trace alone, once per event
_PLANS: dict[int, _EventPlan] = {}


def _event_plan(trace: EventTrace) -> _EventPlan:
    """The trace's ``_EventPlan``, built at the first call and dropped with
    the trace."""
    plan = _PLANS.get(id(trace))
    if plan is None:
        plan = _PLANS[id(trace)] = _EventPlan(trace)
        weakref.finalize(trace, _PLANS.pop, id(trace), None)
    return plan


def build_event_matrices(trace: EventTrace, k: int) -> EventMatrices:
    """Construct H_R^k, H_C^k, I_a^k for event k (1-based) of the trace, at
    its certified window ``trace.window``.

    Each matrix is the identity and chain-shift entries of ``_layout`` with
    the event's other entries, from the trace's ``_EventPlan``, put at their
    sorted positions."""
    t = trace.num_events
    if not (1 <= k <= t):
        raise ValueError(f"event index {k} outside the trace (1..{t})")
    n, b = trace.n, trace.window
    ntilde = n * (b + 1)  # register (v, u) has index u*n + v
    layout = _layout(n, b)
    index, pull_cols, ones = layout.index, layout.pull_cols, layout.ones
    plan = _event_plan(trace)

    # --- pull matrix -------------------------------------------------------
    # The activator's row averages, in column order, its own latest
    # broadcast and the log rows consumed at k; the other real rows hold,
    # and every chain register copies the one below it.
    i = int(trace.node[k - 1])
    lo, hi = plan.pull_at[k - 1], plan.pull_at[k]
    row, col, weight = (plan.pull_row[lo:hi], plan.pull_col[lo:hi],
                        plan.pull_weight[lo:hi])
    h_row = SparseMatrix(
        np.concatenate([index[:i], row, index[i + 1:]]),
        np.concatenate([pull_cols[:i], col, pull_cols[i + 1:]]),
        np.concatenate([ones[:i], weight, ones[i + 1:]]),
        ntilde,
        RowGather(layout.pull_source, index[i:i + 1], index[:0],
                  ((row, col, weight),)))

    # --- activation indicator ---------------------------------------------
    i_act = SparseMatrix(index[i:i + 1], index[i:i + 1], ones[:1], ntilde)

    # --- push matrix -------------------------------------------------------
    # The masses that split now are those created by the previous event (the
    # initialization broadcasts when k == 1): each share parks at the height
    # that drains it at its consuming event, in a column below n, so before
    # its row's chain entry. The real rows that did not split hold.
    lo, hi = plan.at[k - 1], plan.at[k]
    rows = plan.push_rows[lo:hi]
    if k == 1:
        base_rows, base_cols = layout.chain_rows, layout.chain_cols
    else:
        w = int(trace.node[k - 2])
        base_rows, base_cols = layout.held_rows[w], layout.held_cols[w]
    gather = None
    if plan.gathered[k - 1]:
        # the rows the shares park in are reset and add their two entries
        # first; every real row but w then adds its chain entry (v, v + n)
        # to its holding entry, and the top rows are empty
        gather = RowGather(
            layout.held_source[w], rows, layout.top,
            ((plan.added_rows[2 * lo:2 * hi], plan.added_cols[2 * lo:2 * hi],
              plan.added_weight[2 * lo:2 * hi]),
             (layout.held_added_rows[w], layout.held_added_cols[w],
              ones[:n - 1])))
    tops = plan.tops[k - 1]
    if tops:   # the shares on top, last, park at b * n + receiver
        rows = rows.copy()
        rows[-tops:] += ntilde - n
    at = plan.push_at[lo:hi]
    held = np.empty(base_rows.size + at.size, dtype=bool)
    held.fill(True)
    held[at] = False
    h_rows = np.empty(held.size, dtype=np.int32)
    h_rows[held] = base_rows
    h_rows[at] = rows
    h_cols = np.empty(held.size, dtype=np.int32)
    h_cols[held] = base_cols
    h_cols[at] = plan.push_cols[lo:hi]
    weights = np.empty(held.size)
    weights.fill(1.0)
    weights[at] = plan.push_weight[lo:hi]
    h_col = SparseMatrix(h_rows, h_cols, weights, ntilde, gather)

    return EventMatrices(h_row=h_row, h_col=h_col, i_act=i_act)


def replay(trace: EventTrace,
           problem: ProblemSpec) -> Iterator[AugmentedState]:
    """Re-run the whole trace as the augmented matrix recursion, at the
    trace's own steps (eta = eta1, zeta = eta2 / eta1) and its certified
    window ``trace.window``.

    Independent of the simulator's numerical path: gradients are recomputed
    at the replay's own reconstructed pull averages and the per-sample tables
    are rebuilt from scratch. Each event's products with H_R and H_C are row
    gathers over its sparse matrices, built once and carried by the state.

    Yields the states k = 0..T in order; each owns its arrays, and only the
    previous one is kept. The layout checks and the certification raise at
    the call, before the first state is asked for.
    """
    if problem.n != trace.n or problem.d != trace.d or problem.m_i != trace.m_i:
        raise ValueError("problem layout does not match the trace")
    # a run given z_star keeps its error series, not the broadcasts
    t = trace.num_events
    if trace.z_tilde.shape[0] != t:
        raise ValueError(f"the trace holds the broadcasts of "
                         f"{trace.z_tilde.shape[0]} of its {t} events; "
                         f"replay needs a full trace")
    return _replay_states(trace, problem, trace.window)


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

    # from_scaled of a row is its product with from_scaled of ones: theta
    # times 1, omega times sqrt(zeta)
    unscale = from_scaled(np.ones(2 * d), zeta)
    for k, i, p in zip(range(1, trace.num_events + 1), trace.node.tolist(),
                       trace.samples.tolist()):
        mats = build_event_matrices(trace, k)

        z_rows = mats.h_row @ prev.z_rows
        fresh = saddle_gradient(z_rows[i] * unscale, problem.per_node[i][p],
                                problem.rho)
        step = fresh - tables[i][p]
        step /= m
        step *= unscale
        partial = prev.partial.copy()
        partial[i] += step
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
    after event ``state.k``; a node that has not activated is at zero."""
    latest = state.latest
    replayed = from_scaled(state.z_rows[:trace.n], trace.eta2 / trace.eta1)
    seen = latest >= 0
    replayed[seen] -= trace.z_tilde[latest[seen]]
    np.abs(replayed, out=replayed)
    return float(replayed.max())


def tracking_residual(state: AugmentedState) -> float:
    """Norm of 1^T Y^k - 1^T partial^k (the conserved-mass identity)."""
    gap = state.y_rows.sum(axis=0)
    gap -= state.partial.sum(axis=0)
    # the Euclidean norm, as np.linalg.norm computes it for a vector
    return math.sqrt(gap.dot(gap))


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
        ``mat @ P`` on finite weights, up to the sign of a zero.

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


def product_contraction(matrices: Sequence[SparseMatrix]) -> np.ndarray:
    """Rank-one distances of the forward products of a matrix sequence.

    Entry t is the Frobenius distance to the nearest rank-one matrix,
    sqrt(sigma_2**2 + sigma_3**2 + ...), of the product P_t of the first t
    matrices (t=0 is the identity). Pass the h_row or h_col matrices of
    consecutive events. Each product P_t = M_t P_{t-1} is kept as pure rows
    plus one dense core block (``_ForwardProduct``), whose entries are bit
    for bit those of the dense row-gather product, up to the sign of a
    zero. A one-entry row of M_t moves or scales a row, and only a row of
    two or more entries sums.

    The distance is exact, computed by that formula from
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
    not the size of the first.
    """
    if not matrices:
        raise ValueError("need at least one matrix")
    for index, mat in enumerate(matrices):
        if mat.shape != matrices[0].shape:
            raise ValueError(f"matrix {index} has shape {mat.shape}, but "
                             f"matrix 0 has shape {matrices[0].shape}")
    prod = _ForwardProduct(matrices[0].size)
    out = np.empty(len(matrices) + 1)
    out[0] = _distance(prod.squared_singular_values())
    for t, mat in enumerate(matrices, start=1):
        prod.step(mat)
        out[t] = _distance(prod.squared_singular_values())
    return out


# ---------------------------------------------------------------------------
# worst-case rate constants (extended precision)
# ---------------------------------------------------------------------------

# below this size log1p and expm1 sum their power series: ln and exp of 1 + x
# would lose the digits of x that 1 + x rounds away
_SERIES_BELOW = Decimal("1e-3")


def _context(digits: int) -> decimal.Context:
    """``digits`` significant digits, rounded to nearest, with the widest
    exponent range decimal has (kappa alone reaches 1e-864 on marl9)."""
    return decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_EVEN,
                           Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)


def _log1p(x: Decimal) -> Decimal:
    """ln(1 + x) to the precision of the current context, for x > -1."""
    with decimal.localcontext() as ctx:
        ctx.prec += 5
        if abs(x) >= _SERIES_BELOW:
            total = (1 + x).ln()
        else:
            # x - x^2/2 + x^3/3 - ...
            total, power, k = +x, +x, 1
            while True:
                k += 1
                power *= -x
                term = power / k
                if total + term == total:
                    break
                total += term
    return +total


def _expm1(x: Decimal) -> Decimal:
    """exp(x) - 1 to the precision of the current context."""
    with decimal.localcontext() as ctx:
        ctx.prec += 5
        if abs(x) >= _SERIES_BELOW:
            total = x.exp() - 1
        else:
            # x + x^2/2! + x^3/3! + ...
            total, term, k = +x, +x, 1
            while True:
                k += 1
                term = term * x / k
                if total + term == total:
                    break
                total += term
    return +total


@dataclass(frozen=True)
class RateConstants:
    """Network-contraction constants and the worst-case linear rate.

    kappa underflows double precision badly at realistic sizes (it is
    (1/ntilde)^(d_g*b)), so every derived quantity is a ``Decimal`` of 80
    significant digits with an unbounded exponent in practice; arithmetic on
    them needs a context of at least 80 digits (the default context keeps
    28). Quantities of the form 1 - tiny additionally store the tiny part
    (one_minus_*), which is the numerically meaningful number.
    """

    n: int
    b: int
    big_k: int            # sample-selection window (2*max(m_i) - 1)
    d_g: int              # graph diameter
    ntilde: int
    kappa: Decimal        # (1/ntilde)^(d_g*b)
    delta: Decimal        # (1 - kappa)^(1/(d_g*b))
    one_minus_delta: Decimal
    mu: Decimal           # kappa / (4n), satisfying mu < kappa/(2n)
    mu_over_kappa_times_n: float  # exactly 1/4 by construction
    t_tilde: Decimal      # smallest integer t with delta^t <= mu/2
    eta_max_theory: Decimal
    eta_used: Decimal     # eta_max_theory / 2
    c: Decimal            # max of the two root terms
    one_minus_c: Decimal
    valid: bool           # c in (0,1) and the spectral checks passed


def rate_constants(n: int, b: int, big_k: int, d_g: int,
                   spectral: SpectralConstants) -> RateConstants:
    """Evaluate the worst-case constants by direct formula.

    The step is half the theoretical maximum, so the rate is inside (0, 1)
    whenever the spectral checks pass (alpha > 0 makes the maximum
    positive). All arithmetic runs at a working precision wide enough for
    the (astronomically small) kappa.
    """
    if min(n, b, big_k, d_g) < 1:
        raise ValueError("n, b, K, d_g must all be positive")
    ntilde = n * (b + 1)
    exponent = d_g * b
    # All formulas below are cancellation-free (1 - tiny forms go through
    # log1p/expm1), so a fixed mantissa precision suffices; the context's
    # exponent range is what the astronomically small kappa needs.
    with decimal.localcontext(_context(80)):
        kappa = Decimal(ntilde) ** -exponent
        ln_delta = _log1p(-kappa) / exponent
        one_minus_delta = -_expm1(ln_delta)
        delta = 1 - one_minus_delta
        mu = kappa / (4 * n)
        t_tilde = ((mu / 2).ln() / ln_delta).to_integral_value(
            decimal.ROUND_CEILING)
        alpha = Decimal(spectral.alpha)
        beta = Decimal(spectral.beta)
        eta_max = (alpha * kappa ** 4 * (1 - kappa) ** 2) / (
            72 * beta ** 3 * n ** 3 * Decimal(b) ** 6 * Decimal(big_k) ** 3
            * t_tilde ** 2
        )
        eta_used = eta_max / 2
        # first root term: (1/2 + kappa^{-1} mu n)^{1/(t_tilde+1)}; the inner
        # sum is exactly 3/4 because mu = kappa/(4n).
        ln_c1 = Decimal("0.75").ln() / (t_tilde + 1)
        x = eta_used * alpha * kappa * n / 2
        if x >= 1:
            ln_c2 = Decimal("-Infinity")
        else:
            ln_c2 = _log1p(-x) / (b + 1)
        ln_c = max(ln_c1, ln_c2)
        one_minus_c = -_expm1(ln_c)
        c = 1 - one_minus_c
        valid = bool(one_minus_c > 0 and spectral.valid)
    return RateConstants(
        n=n, b=b, big_k=big_k, d_g=d_g, ntilde=ntilde, kappa=kappa,
        delta=delta, one_minus_delta=one_minus_delta, mu=mu,
        mu_over_kappa_times_n=0.25, t_tilde=t_tilde, eta_max_theory=eta_max,
        eta_used=eta_used, c=c, one_minus_c=one_minus_c, valid=valid,
    )


def delta_power(constants: RateConstants, t: int) -> float:
    """delta**t as a float (1 minus a tiny number at realistic sizes)."""
    with decimal.localcontext(_context(60)):
        ln_delta = _log1p(-constants.kappa) / (constants.d_g * constants.b)
        return float((t * ln_delta).exp())


def eta2_range(m: int, spectral: SpectralConstants, eta: float) -> float:
    """Upper end of the admissible dual step: eta2 < (2*m*beta/psi) * eta."""
    return float(2.0 * m * spectral.beta / spectral.psi * eta)

