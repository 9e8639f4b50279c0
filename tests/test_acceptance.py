"""End-to-end release gates for the asynchronous averaged-gradient evaluator.

Each test is one gate from the project's acceptance checklist; running
``pytest tests/test_acceptance.py -v -rA`` yields one line per gate, and each
test prints a PASS/FAIL detail line with the measured numbers before
asserting.

Three gates check a bound that holds in a particular norm or unit, and they
measure it in that norm or unit:

* gate 02 -- the per-step ``1 - alpha*eta`` contraction of plain descent
  holds in the eigenbasis norm ``||Q^-1 (w - w*)||`` of the scaled operator
  ``M = Q diag(lambda) Q^-1``, not in the Euclidean norm (the one-step map is
  not normal); each step may also exceed it by a first-order bound on that
  step's rounding;
* gate 07 -- the ``2*delta**t`` envelope bounds the largest l1 deviation of a
  product's rows (pull) or columns (push) from their mean, and it rests on
  the window premise that every product of ``L = d_g*b`` consecutive
  matrices has a column (pull) or row (push) with all entries ``>= kappa``.
  Both are checked, and so is the decay ``2*(1 - m)**floor(t/L)`` that the
  measured window minimum ``m`` implies (the envelope alone cannot fail
  before ``delta**t`` falls visibly below 1);
* gate 09 -- the straggler's cost is priced in wall-clock time, as the
  synchronous clause already is: with independent activation clocks of
  rate 1 (the straggler's 1/10), async time is events over the total rate.
  The claimed ceiling of 1.5 is missed: the network needs 1.54x the events
  and 1.71x the wall-clock time with the straggler.

Every gate's line carries its measured margins.
"""

from __future__ import annotations

import csv
import functools
import time

import mpmath as mp
import numpy as np

from asyncsag import augmented, cli, graph, mspbe, simulator
from helpers import (build_problem, centralized_gd, centralized_sag,
                     graph_constants, run_sync, sample_objective,
                     scaled_affine, to_scaled)

RHO = 0.1
GAMMA = 0.95


def _gate(num: int, ok: bool, detail: str) -> str:
    line = f"{'PASS' if ok else 'FAIL'} gate {num:02d}: {detail}"
    print(line)
    return line


@functools.lru_cache(maxsize=None)
def _problem(seed: int, n: int = 2, num_states: int = 16, d: int = 6,
             m: int = 60, mode: str = "parallel") -> mspbe.ProblemSpec:
    return build_problem(seed, n, d, m + 1, num_states, RHO, GAMMA, mode)


# ---------------------------------------------------------------------------
# gate 01: analytic per-sample gradients against central finite differences
# ---------------------------------------------------------------------------

def test_criterion_01_per_sample_gradient_matches_finite_differences():
    start = time.perf_counter()
    h = 1e-5
    worst = 0.0
    rng = np.random.default_rng(2024)
    for pair in range(20):
        prob = _problem(200 + pair % 5)
        stats = list(prob.all_stats())
        s = rng.integers(len(stats))
        st = stats[s]
        z = 2.0 * rng.standard_normal(2 * prob.d)
        linear, offset = prob.maps
        analytic = mspbe.saddle_gradient(z, linear[s], offset[s])
        fd = np.empty_like(z)
        for j in range(z.shape[0]):
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            fd[j] = (sample_objective(zp, st, prob.rho)
                     - sample_objective(zm, st, prob.rho)) / (2 * h)
        fd[prob.d:] *= -1.0  # the stack carries the negated dual block
        rel = float(np.linalg.norm(fd - analytic) / np.linalg.norm(analytic))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 1.0
    msg = _gate(1, ok, f"20 (state, sample) pairs, worst relative gradient "
                       f"error {worst:.2e} (tol 1e-6), {elapsed:.2f}s (cap 1s)")
    assert ok, msg


# ---------------------------------------------------------------------------
# gate 02: direct saddle solve + per-step descent contraction
# ---------------------------------------------------------------------------

_UNIT = 2.0 ** -53  # unit roundoff of IEEE double


def _step_rounding(m_op: np.ndarray, const: np.ndarray, eta: float,
                   w_hist: np.ndarray, w_star: np.ndarray) -> np.ndarray:
    """First-order bound, in the Euclidean norm, on how far each computed
    step w_{k+1} = fl(w_k - eta*fl(M w_k + c)) of ``centralized_gd`` can
    leave the exact affine map about the computed saddle point w*.

    Each component of M w + c is 2d products and 2d additions, so
    |fl(M w + c) - (M w + c)| <= gamma_{2d+1} (|M||w| + |c|) with
    gamma_n = n*u/(1 - n*u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, sections 3.1 and 3.5). Scaling by eta and
    the subtraction from w_k add at most u*||w_k - w_{k+1}|| and
    u*||w_{k+1}||. w* is not the exact fixed point: relative to it every
    step also moves by eta*||M w* + c||, bounded the same way. Errors
    proportional to ||w_k - w*|| itself (the subtraction in the distance,
    the product with Q^-1) are relative and well below the 1e-10 term.
    """
    n = m_op.shape[0] + 1
    gamma = n * _UNIT / (1.0 - n * _UNIT)
    abs_m, abs_c = np.abs(m_op), np.abs(const)
    affine = np.linalg.norm(np.abs(w_hist[:-1]) @ abs_m.T + abs_c, axis=1)
    step = (eta * gamma * affine
            + _UNIT * np.linalg.norm(np.diff(w_hist, axis=0), axis=1)
            + _UNIT * np.linalg.norm(w_hist[1:], axis=1))
    residual = eta * (np.linalg.norm(m_op @ w_star + const)
                      + gamma * np.linalg.norm(abs_m @ np.abs(w_star) + abs_c))
    return step + residual


def test_criterion_02_saddle_solve_and_descent_contraction():
    # For a real spectrum in [alpha, lmax] and eta <= 1/lmax every
    # |1 - eta*lambda| <= 1 - alpha*eta, so e_k = ||Q^{-1}(w_k - w*)||, with
    # M = Q diag(lambda) Q^{-1}, obeys e_{k+1} <= (1 - alpha*eta) e_k +
    # ||Q^{-1}||_2 * s_k, where s_k (``_step_rounding``) bounds the step's
    # rounding. Near the 1e-10 floor s_k / e_k is what a ratio of
    # differences of doubles cannot resolve. The one-step map is not
    # normal, so the Euclidean ratio may exceed the bound by far more; it is
    # printed, under the same allowance with Q = I, for information.
    start = time.perf_counter()
    worst_gnorm = 0.0
    converged = 0
    violating = []
    euclid_violating = []
    worst_excess = worst_euclid = worst_allow = -np.inf
    for seed in range(10):
        prob = _problem(100 + seed)
        z_star = mspbe.solve_problem(prob)
        # the mean stacked gradient is the scaled map at zeta = 1
        grad_op, grad_const = scaled_affine(prob, 1.0)
        worst_gnorm = max(worst_gnorm, float(
            np.linalg.norm(grad_op @ z_star + grad_const)))
        zeta = 2.0 * mspbe.spectral_constants(prob, 1.0).zeta_min
        spec = mspbe.spectral_constants(prob, zeta)
        assert spec.g_eigs_real and spec.valid, (
            f"problem {100 + seed}: spectrum not real and positive at "
            f"zeta = 2*zeta_min")
        eta = 0.5 / spec.g_max_eig
        # iterations sized from the nominal rate so every problem reaches the
        # 1e-10 relative floor within budget
        iters = min(int(1.3 * 23.03 / (spec.alpha * eta)) + 100, 150_000)
        z0 = np.random.default_rng(1000 + seed).standard_normal(2 * prob.d)
        trace = centralized_gd(prob, eta, zeta, iters, z0=z0)
        floor = 1e-10 * trace.err[0]
        below = np.nonzero(trace.err <= floor)[0]
        stop = int(below[0]) if below.size else iters
        if trace.err[stop] <= 1e-8 * trace.err[0]:
            converged += 1

        m_op, const = scaled_affine(prob, zeta)
        _, q = np.linalg.eig(m_op)
        q_inv = np.linalg.inv(q)
        w_star = to_scaled(z_star, zeta)
        w_hist = trace.z_hist[:stop + 1]
        eig_err = np.linalg.norm((w_hist - w_star) @ q_inv.T, axis=1)
        slack = _step_rounding(m_op, const, eta, w_hist, w_star)
        allow = np.linalg.norm(q_inv, 2) * slack / eig_err[:-1]
        bound = 1.0 - spec.alpha * eta
        excess = eig_err[1:] / eig_err[:-1] - bound - 1e-10 - allow
        euclid = (trace.err[1:stop + 1] / trace.err[:stop] - bound - 1e-10
                  - slack / trace.err[:stop])
        if np.any(excess > 0):
            violating.append(100 + seed)
        if np.any(euclid > 0):
            euclid_violating.append(100 + seed)
        worst_excess = max(worst_excess, float(excess.max()))
        worst_euclid = max(worst_euclid, float(euclid.max()))
        worst_allow = max(worst_allow, float(allow.max()))
    elapsed = time.perf_counter() - start
    ok = (worst_gnorm <= 1e-10 and converged == 10 and not violating
          and elapsed < 5.0)
    msg = _gate(2, ok,
                f"10 random problems: worst solve gradient norm "
                f"{worst_gnorm:.1e} (tol 1e-10), descent reached 1e-8 on "
                f"{converged}/10, per-step ratio of ||Q^-1(w-w*)|| within "
                f"1-alpha*eta+1e-10+rounding on {10 - len(violating)}/10 "
                f"(worst excess {worst_excess:.2e}"
                + (f", violated on problems {violating}" if violating else "")
                + f"; largest rounding allowance {worst_allow:.2e}); for "
                f"information the Euclidean ratio's worst excess is "
                f"{worst_euclid:.2e}"
                + (f" on problems {euclid_violating}" if euclid_violating
                   else "")
                + f" (the one-step map is not normal), {elapsed:.2f}s "
                f"(cap 5s)")
    assert ok, msg


# ---------------------------------------------------------------------------
# gate 03: event averaging matrices are row-/column-stochastic
# ---------------------------------------------------------------------------

def test_criterion_03_event_matrices_are_stochastic():
    prob = _problem(9, n=5, num_states=12, d=4, m=100)
    topo = graph.generate_topology("ring", 5)
    trace = simulator.run_async(
        prob, topo,
        simulator.ActivationSchedule(kind="uniform_random", n=5),
        simulator.DelayModel(kind="uniform", d_max=2),
        0.02, 0.2, seed=19, max_events=500)
    b, _ = graph_constants(trace)
    worst_row = worst_col = 0.0
    for k in range(1, trace.num_events + 1):
        mats = augmented.build_event_matrices(trace, k)
        worst_row = max(worst_row, float(
            np.max(np.abs(mats.h_row.sum(axis=1) - 1.0))))
        worst_col = max(worst_col, float(
            np.max(np.abs(mats.h_col.sum(axis=0) - 1.0))))
    ok = worst_row <= 1e-12 and worst_col <= 1e-12
    msg = _gate(3, ok, f"500 events, n=5, delays <= 2: max row-sum deviation "
                       f"{worst_row:.1e}, max column-sum deviation "
                       f"{worst_col:.1e} (tol 1e-12)")
    assert ok, msg


# ---------------------------------------------------------------------------
# gates 04/05: matrix replay reproduces the protocol and conserves mass
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _replay_cases() -> tuple[list[tuple[str, float, float]], float]:
    specs = [
        ("ring/uniform_random n=4",
         dict(pseed=31, n=4, topo="ring", sched="uniform_random",
              delay=("uniform", 2), rseed=41, eta1=0.02, zeta=12.0)),
        ("exponential/uniform_random n=5",
         dict(pseed=32, n=5, topo="exponential", sched="uniform_random",
              delay=("uniform", 3), rseed=42, eta1=0.01, zeta=10.0)),
        ("ring/round_robin n=3",
         dict(pseed=33, n=3, topo="ring", sched="round_robin",
              delay=("zero", 0), rseed=43, eta1=0.05, zeta=9.0)),
    ]
    start = time.perf_counter()
    out = []
    for label, c in specs:
        prob = _problem(c["pseed"], n=c["n"], num_states=12, d=4, m=80)
        topo = graph.generate_topology(c["topo"], c["n"])
        kind, d_max = c["delay"]
        trace = simulator.run_async(
            prob, topo,
            simulator.ActivationSchedule(kind=c["sched"], n=c["n"]),
            simulator.DelayModel(kind=kind, d_max=d_max),
            c["eta1"], c["eta1"] * c["zeta"], seed=c["rseed"],
            max_events=200)
        states = list(augmented.replay(trace, prob))
        dev = max(augmented.check_equivalence(trace, s) for s in states)
        track = max(augmented.tracking_residual(s) for s in states)
        out.append((label, dev, track))
    return out, time.perf_counter() - start


def test_criterion_04_replay_matches_protocol():
    cases, elapsed = _replay_cases()
    worst = max(dev for _, dev, _ in cases)
    ok = worst <= 1e-9 and elapsed < 10.0
    detail = ", ".join(f"{label} {dev:.1e}" for label, dev, _ in cases)
    msg = _gate(4, ok, f"3 randomized 200-event traces, max iterate deviation "
                       f"between simulation and matrix replay: {detail} "
                       f"(tol 1e-9), {elapsed:.2f}s (cap 10s)")
    assert ok, msg


def test_criterion_05_replay_tracks_gradient_mass():
    cases, _ = _replay_cases()
    worst = max(track for _, _, track in cases)
    ok = worst <= 1e-9
    detail = ", ".join(f"{label} {track:.1e}" for label, _, track in cases)
    msg = _gate(5, ok, f"column sums of the tracker block stay on the "
                       f"partial-sum mass: {detail} (tol 1e-9)")
    assert ok, msg


# ---------------------------------------------------------------------------
# gate 06: one node, no delays == the centralized averaged-gradient loop
# ---------------------------------------------------------------------------

def test_criterion_06_single_node_equals_centralized_sag():
    prob = _problem(7, n=1, num_states=12, d=4, m=60)
    eta1, zeta = 0.03, 8.0
    trace = simulator.run_async(
        prob, graph.generate_topology("ring", 1),
        simulator.ActivationSchedule(kind="round_robin", n=1),
        simulator.DelayModel(kind="zero"),
        eta1, eta1 * zeta, seed=13, max_events=1000)
    sag = centralized_sag(prob, eta1, eta1 * zeta, 1000, seed=13)
    dev = max(float(np.max(np.abs(trace.z_tilde[k - 1] - sag.z_hist[k])))
              for k in range(1, trace.num_events + 1))
    ok = dev <= 1e-12
    msg = _gate(6, ok, f"1000 shared-seed steps, max iterate deviation "
                       f"{dev!r} (tol 1e-12; sample selection is "
                       f"stream-identical, so the match is exact)")
    assert ok, msg


# ---------------------------------------------------------------------------
# gate 07: averaging-matrix products contract toward rank one
# ---------------------------------------------------------------------------

def _l1_deviation(mat: np.ndarray, columns: bool = False) -> float:
    """Largest l1 distance of a row of ``mat`` (with ``columns``: a column)
    from the mean row (column).

    For a stochastic product this bounds from above the infimum over phi
    that the 2*delta**t envelope bounds; 2 is the l1 diameter of the
    probability simplex. An ntilde x ntilde identity gives 2*(1 - 1/ntilde).
    """
    vecs = mat.T if columns else mat
    return float(np.max(np.abs(vecs - vecs.mean(axis=0)).sum(axis=1)))


def test_criterion_07_pull_products_approach_rank_one():
    # The 2*delta**t envelope bounds the l1 deviation of the rows (pull) or
    # columns (push) of the forward products. It rests on the window premise
    # encoded in rate_constants: every product of L = d_g*b consecutive pull
    # matrices has a column with all entries >= kappa = ntilde**(-L) (push:
    # a row). With m the measured smallest such entry, that block's
    # Dobrushin coefficient is at most 1 - m and the coefficient is
    # submultiplicative, so the deviation after t events is at most
    # 2*(1 - m)**floor(t/L) (Seneta, Non-negative Matrices and Markov
    # Chains, 2nd ed., ch. 3). That decay is checked too: 2 is the l1
    # diameter of the simplex and delta**200 = 0.99999 here, so the
    # envelope alone cannot fail on this trace.
    prob = _problem(5, n=3, num_states=12, d=4, m=60)
    trace = simulator.run_async(
        prob, graph.generate_topology("ring", 3),
        simulator.ActivationSchedule(kind="round_robin", n=3),
        simulator.DelayModel(kind="zero"),
        0.02, 0.2, seed=17, max_events=200)
    b, d_g = graph_constants(trace)
    spec = mspbe.spectral_constants(prob, 10.0)
    rc = augmented.rate_constants(trace.n, b, 2 * max(prob.m_i) - 1, d_g, spec)
    window = d_g * b
    mats = [augmented.build_event_matrices(trace, k)
            for k in range(1, trace.num_events + 1)]
    steps = np.arange(len(mats) + 1)
    envelope = np.array([2.0 * augmented.delta_power(rc, t) for t in steps])
    summary = []
    for side, seq, columns in (("pull", [m.h_row for m in mats], False),
                               ("push", [m.h_col for m in mats], True)):
        prod = np.eye(rc.ntilde)
        devs = [_l1_deviation(prod, columns)]
        for mat in seq:
            prod = mat @ prod
            devs.append(_l1_deviation(prod, columns))
        devs = np.array(devs)
        # pull: largest column minimum; push: largest row minimum
        floor = np.inf
        for s in range(len(seq) - window + 1):
            prod = np.eye(rc.ntilde)
            for mat in seq[s:s + window]:
                prod = mat @ prod
            floor = min(floor, float(prod.min(axis=1 if columns else 0).max()))
        decay = 2.0 * (1.0 - floor) ** (steps // window)
        summary.append((side, devs, devs - envelope, devs - decay, floor,
                        decay[-1]))
    with mp.workdps(80):
        kappa = mp.mpf(str(rc.kappa))
    ok = all(env.max() <= 0 and dec.max() <= 0 and floor >= kappa
             for _, _, env, dec, floor, _ in summary)
    detail = "; ".join(
        f"{side}: l1 deviation {devs[0]:.3f} at t=0 -> {devs[-1]:.1e} at "
        f"t=200, window minimum m={floor:.4f} vs kappa "
        f"{mp.nstr(kappa, 4)}, worst margin to 2*(1-m)**floor(t/L) "
        f"{dec.max():.2e} (bound {last:.1e} at t=200)"
        + (f" first exceeded at t={np.argmax(dec > 0)}"
           if dec.max() > 0 else "")
        + f", worst margin to 2*delta**t {env.max():.2e}"
        + (f" first exceeded at t={np.argmax(env > 0)}"
           if env.max() > 0 else "")
        for side, devs, env, dec, floor, last in summary)
    msg = _gate(7, ok,
                f"certified window b={b}, d_g={d_g}, ntilde={rc.ntilde}, "
                f"L=d_g*b={window}, delta**200={envelope[-1] / 2:.6f}: "
                f"{detail}")
    assert ok, msg


# ---------------------------------------------------------------------------
# gate 08: the bundled quickstart run converges linearly
# ---------------------------------------------------------------------------

def test_criterion_08_quickstart_converges_linearly():
    start = time.perf_counter()
    cfg = cli.load_config(cli.bundled_config("quickstart"))
    bundle = cli.build_experiment(cfg)
    series = simulator.run_async(
        bundle.problem, bundle.graph, cli._schedule(cfg), cli._delays(cfg),
        cfg.eta1, cfg.eta2, cfg.run_seed, max_events=cfg.max_events,
        z_star=mspbe.solve_problem(bundle.problem)).series
    target = 1e-6 * series.err_max[0]
    below = np.nonzero(series.err_max <= target)[0]
    hit = int(below[0]) if below.size else -1
    fit = simulator.estimate_rate(series.err_max)
    elapsed = time.perf_counter() - start
    ok = (hit >= 0 and fit.c_hat < 1.0 and fit.r_squared >= 0.95
          and elapsed < 60.0)
    msg = _gate(8, ok, f"error fell to 1e-6 of initial at event {hit} "
                       f"(budget {cfg.max_events}), fitted per-event rate "
                       f"{fit.c_hat:.6f} < 1 with R^2 {fit.r_squared:.4f} "
                       f">= 0.95, {elapsed:.1f}s (cap 60s)")
    assert ok, msg


# ---------------------------------------------------------------------------
# gate 09: a 10x straggler slows async < 1.5x in wall clock; sync pays >= 5x
# ---------------------------------------------------------------------------

def _clock_rate(schedule: simulator.ActivationSchedule) -> float:
    """Total activation rate when every node runs an independent clock of
    rate 1, a straggler's slowed by its factor. ``weights`` is that rate
    vector normalized, so the total is 1 / (a non-straggler's weight), and
    a run of E events spans E / (total rate) time units."""
    other = 1 if schedule.straggler_node == 0 else 0
    return float(1.0 / schedule.weights()[other])


def test_criterion_09_straggler_slowdown_stays_local():
    prob = _problem(23, n=9, num_states=20, d=5, m=450, mode="marl")
    topo = graph.generate_topology("grid", 9)
    z_star = mspbe.solve_problem(prob)
    zeta = 1.3 * mspbe.spectral_constants(prob, 1.0).zeta_min
    eta1 = 0.07
    delays = simulator.DelayModel(kind="uniform", d_max=2)
    target = 1e-4

    def events_to_target(trace: simulator.EventTrace) -> int:
        below = np.nonzero(trace.series.err_max <= target)[0]
        return int(below[0]) if below.size else -1

    uniform_sched = simulator.ActivationSchedule(kind="uniform_random", n=9)
    slowed_sched = simulator.ActivationSchedule(
        kind="straggler", n=9, straggler_node=0, straggler_factor=10.0)
    uniform = simulator.run_async(prob, topo, uniform_sched, delays, eta1,
                                  eta1 * zeta, seed=29, max_events=40_000,
                                  z_star=z_star)
    slowed = simulator.run_async(prob, topo, slowed_sched, delays, eta1,
                                 eta1 * zeta, seed=29, max_events=60_000,
                                 z_star=z_star)
    hit_uniform = events_to_target(uniform)
    hit_slowed = events_to_target(slowed)
    assert hit_uniform > 0 and hit_slowed > 0, "target err never reached"
    event_ratio = hit_slowed / hit_uniform
    async_ratio = ((hit_slowed / _clock_rate(slowed_sched))
                   / (hit_uniform / _clock_rate(uniform_sched)))

    # A synchronous round waits for its slowest node, so with one time unit
    # per node and round (node 0 at 10) each round lasts the largest of the
    # node times. The iterates do not depend on the clocks: one run serves
    # both sides.
    sync = run_sync(prob, topo, 6000, eta1, eta1 * zeta, seed=29,
                    z_star=z_star)
    hit_sync = events_to_target(sync)
    assert hit_sync > 0, "sync run never reached the target err"
    rounds_needed = -(-hit_sync // 9)
    node_time = np.ones(9)
    slowed_time = node_time.copy()
    slowed_time[0] = 10.0
    wall = rounds_needed * node_time.max()
    wall_slowed = rounds_needed * slowed_time.max()
    sync_ratio = wall_slowed / wall

    ok = async_ratio < 1.5 and sync_ratio >= 5.0
    msg = _gate(9, ok,
                f"time to err<=1e-4 with node 0 running 10x slower vs "
                f"without: async wall-clock ratio {async_ratio:.3f} (claim: "
                f"< 1.5; "
                f"{hit_slowed} vs {hit_uniform} events at total clock rates "
                f"{_clock_rate(slowed_sched):g} vs "
                f"{_clock_rate(uniform_sched):g}, event ratio "
                f"{event_ratio:.3f}); synchronous wall-clock ratio "
                f"{sync_ratio:.1f} (>= 5)")
    assert ok, msg


# ---------------------------------------------------------------------------
# gate 10: growing the network shrinks the per-node work to a fixed error
# ---------------------------------------------------------------------------

def test_criterion_10_more_nodes_fewer_evaluations_each(tmp_path):
    rc = cli.main(["run", "--config", "speedup", "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "speedup.csv", newline="", encoding="utf-8") as fh:
        rows = [(int(r["n"]), int(r["events_to_target"]),
                 float(r["per_node_evals"]))
                for r in csv.DictReader(fh)]
    ns = [n for n, _, _ in rows]
    evals = [per for _, _, per in rows]
    ok = (ns == sorted(ns) and all(hit >= 0 for _, hit, _ in rows)
          and all(a > b for a, b in zip(evals, evals[1:])))
    detail = ", ".join(f"n={n}: {per:.0f} evals ({hit} events)"
                       for n, hit, per in rows)
    msg = _gate(10, ok, f"per-node sample evaluations to err<=1e-4 fall "
                        f"monotonically: {detail}")
    assert ok, msg


# ---------------------------------------------------------------------------
# gate 11: the worst-case rate constants are finite and consistent
# ---------------------------------------------------------------------------

def test_criterion_11_rate_constants_are_sound():
    cfg = cli.load_config(cli.bundled_config("quickstart"))
    bundle = cli.build_experiment(cfg)
    trace = simulator.run_async(
        bundle.problem, bundle.graph, cli._schedule(cfg), cli._delays(cfg),
        cfg.eta1, cfg.eta2, cfg.run_seed, max_events=cfg.verify_events)
    b, _ = graph_constants(trace)
    d_g = max(1, graph.diameter(bundle.graph))
    big_k = 2 * max(bundle.problem.m_i) - 1
    rc = augmented.rate_constants(trace.n, b, big_k, d_g, bundle.spectral)

    spec = bundle.spectral
    floats_finite = all(np.isfinite(v) for v in
                        (spec.alpha, spec.beta, spec.psi, spec.zeta_min,
                         spec.g_max_eig))
    with mp.workdps(80):
        # the Decimal fields, read by mpmath at their full 80 digits
        kappa, delta, mu, t_tilde, eta_max, eta_used, c, one_minus_c = (
            mp.mpf(str(v)) for v in
            (rc.kappa, rc.delta, rc.mu, rc.t_tilde, rc.eta_max_theory,
             rc.eta_used, rc.c, rc.one_minus_c))
        mp_finite = all(mp.isfinite(v) for v in
                        (kappa, delta, mu, t_tilde, eta_max, eta_used, c))
        mu_ratio = float(mu * rc.n / kappa)
        c_interior = bool(0 < one_minus_c < 1)
        eta_positive = bool(eta_max > 0)
    beta_bound = cfg.zeta * spec.psi / (2 * bundle.problem.m)
    ok = (floats_finite and mp_finite and eta_positive
          and mu_ratio < 0.5
          and spec.beta > beta_bound
          and c_interior and rc.valid)
    msg = _gate(11, ok,
                f"b={b}, kappa={mp.nstr(kappa, 4)}, t_tilde="
                f"{mp.nstr(t_tilde, 6)}, eta_max="
                f"{mp.nstr(eta_max, 4)}: all constants finite; "
                f"mu*n/kappa={mu_ratio} < 1/2; beta={spec.beta:.4f} > "
                f"zeta*psi/(2m)={beta_bound:.4f}; at eta=eta_max/2 the rate "
                f"satisfies 0 < 1-c={mp.nstr(one_minus_c, 4)} < 1 "
                f"(valid={rc.valid})")
    assert ok, msg
