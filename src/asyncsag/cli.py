"""Experiment orchestration: INI configs, end-to-end runs, verification.

Subcommands:
  run        build the problem, simulate, write metrics CSV + constants report
  verify     short trace + structural checks (stochasticity, replay, tracking,
             product-contraction bound), pass/fail per check
  constants  print the spectral and worst-case rate constants only

Every run executes exactly [algorithm] max_events events (verify_events for
verify and constants, if fewer).

Exit codes: 0 success, 1 verification check failed, 2 invalid configuration,
3 the certification of b found a node with no completed or delivered update
in the trace.
"""

from __future__ import annotations

import argparse
import configparser
import decimal
import functools
import math
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from decimal import Decimal
from pathlib import Path

import numpy as np

from . import augmented, mdp, mspbe, simulator
from .graph import DirectedGraph, diameter, generate_topology, is_strongly_connected
from .simulator import ActivationSchedule, AssumptionViolation, DelayModel

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_ASSUMPTION = 3


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    # problem
    num_states: int = 20
    num_actions: int = 2
    n: int = 1
    d: int = 5
    m: int = 100                  # total transitions in the trajectory
    gamma: float = 0.95
    rho: float = 0.1
    mode: str = "parallel"        # parallel | marl
    proportions: list[float] | None = None
    data_seed: int = 0
    # topology
    topology: str = "ring"
    edge_list_path: str | None = None
    # algorithm
    eta1: float = 0.01
    eta2: float = 0.1
    max_events: int = 2000
    verify_events: int = 300
    # schedule
    schedule: str = "uniform_random"
    delay_kind: str = "uniform"
    d_max: int = 2
    straggler_node: int | None = None
    straggler_factor: float | None = None
    run_seed: int = 1
    # experiments
    n_values: list[int] | None = None   # speedup sweep
    eta1_values: list[float] | None = None
    target_err: float | None = None

    @property
    def zeta(self) -> float:
        return self.eta2 / self.eta1


def _get(parser: configparser.ConfigParser, consulted: set[tuple[str, str]],
         section: str, key: str, conv, default):
    """[section] key converted by ``conv``, or ``default`` when it is absent;
    adds (section, key) to ``consulted``."""
    consulted.add((section, key))
    if not parser.has_option(section, key):
        return default
    try:
        raw = parser.get(section, key)
    except configparser.InterpolationError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None
    try:
        return conv(raw)
    except (TypeError, ValueError):
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {conv.__name__}"
        ) from None


def _float_list(raw: str) -> list[float]:
    return [float(x) for x in raw.replace(",", " ").split()]


def _int_list(raw: str) -> list[int]:
    return [int(x) for x in raw.replace(",", " ").split()]


def load_config(path: str | Path) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"config file {path} not found or empty")
    cfg = ExperimentConfig()
    consulted: set[tuple[str, str]] = set()
    get = functools.partial(_get, parser, consulted)

    sec = "problem"
    cfg.num_states = get(sec, "num_states", int, cfg.num_states)
    cfg.num_actions = get(sec, "num_actions", int, cfg.num_actions)
    cfg.n = get(sec, "n", int, cfg.n)
    cfg.d = get(sec, "d", int, cfg.d)
    cfg.m = get(sec, "m", int, cfg.m)
    cfg.gamma = get(sec, "gamma", float, cfg.gamma)
    cfg.rho = get(sec, "rho", float, cfg.rho)
    cfg.mode = get(sec, "mode", str, cfg.mode)
    cfg.data_seed = get(sec, "seed", int, cfg.data_seed)
    cfg.proportions = get(sec, "proportions", _float_list, cfg.proportions)

    sec = "topology"
    cfg.topology = get(sec, "kind", str, cfg.topology)
    cfg.edge_list_path = get(sec, "path", str, cfg.edge_list_path)
    topo_n = get(sec, "n", int, None)
    if topo_n is not None and topo_n != cfg.n:
        raise ConfigError(f"[topology] n={topo_n} conflicts with [problem] "
                          f"n={cfg.n}")

    sec = "algorithm"
    eta1 = get(sec, "eta1", float, None)
    eta2 = get(sec, "eta2", float, None)
    if (eta1 is None) != (eta2 is None):
        raise ConfigError("[algorithm] give both eta1 and eta2")
    if eta1 is not None:
        cfg.eta1, cfg.eta2 = eta1, eta2
    cfg.max_events = get(sec, "max_events", int, cfg.max_events)
    cfg.verify_events = get(sec, "verify_events", int, cfg.verify_events)

    sec = "schedule"
    cfg.schedule = get(sec, "kind", str, cfg.schedule)
    cfg.delay_kind = get(sec, "delay", str, cfg.delay_kind)
    cfg.d_max = get(sec, "d_max", int, cfg.d_max)
    cfg.straggler_node = get(sec, "straggler_node", int, cfg.straggler_node)
    cfg.straggler_factor = get(sec, "straggler_factor", float,
                               cfg.straggler_factor)
    cfg.run_seed = get(sec, "seed", int, cfg.run_seed)

    sec = "experiment"
    cfg.n_values = get(sec, "n_values", _int_list, cfg.n_values)
    cfg.eta1_values = get(sec, "eta1_values", _float_list, cfg.eta1_values)
    cfg.target_err = get(sec, "target_err", float, cfg.target_err)

    # a key nothing read is misspelt or misplaced; a section key with its
    # [DEFAULT] value is the inherited one, checked as a [DEFAULT] key
    defaults, sections = parser.defaults(), parser.sections()
    unknown = [(sec, key) for sec in sections for key in parser[sec]
               if (sec, key) not in consulted
               and parser.get(sec, key, raw=True) != defaults.get(key)]
    unknown += [(parser.default_section, key) for key in defaults
                if not consulted & {(sec, key) for sec in sections}]
    if unknown:
        raise ConfigError(f"[{unknown[0][0]}] {unknown[0][1]}: unknown key")
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.n < 1:
        raise ConfigError("[problem] n: need at least one node")
    if cfg.mode not in ("parallel", "marl"):
        raise ConfigError(f"[problem] mode: unknown mode {cfg.mode!r}")
    if cfg.num_states < 2:
        raise ConfigError("[problem] num_states: need at least 2 states")
    if cfg.num_actions < 1:
        raise ConfigError("[problem] num_actions: need at least one action")
    if cfg.d < 1:
        raise ConfigError("[problem] d: need at least one feature")
    if cfg.d > cfg.num_states:
        raise ConfigError("[problem] d: feature dimension exceeds state count")
    if cfg.m < 1:
        raise ConfigError("[problem] m: need at least one transition")
    if not (0 < cfg.gamma < 1):
        raise ConfigError("[problem] gamma: must lie strictly in (0, 1)")
    # the negated comparisons also reject nan
    if not 0 < cfg.rho < math.inf:
        raise ConfigError("[problem] rho: must be positive and finite")
    if not (0 < cfg.eta1 < math.inf and 0 < cfg.eta2 < math.inf):
        raise ConfigError(
            "[algorithm] eta1/eta2: step sizes must be positive and finite")
    # a nan target is never reached
    if cfg.target_err is not None and not 0 < cfg.target_err < math.inf:
        raise ConfigError("[experiment] target_err: must be positive and finite")
    for section, key in (("problem", "data_seed"), ("schedule", "run_seed")):
        if getattr(cfg, key) < 0:
            raise ConfigError(f"[{section}] seed: must be nonnegative")
    for key in ("max_events", "verify_events"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"[algorithm] {key}: must be at least 1")
    # a key that only one kind or mode reads: (section, key, value, the
    # selecting key, its value, the one that reads the key); a sweep splits
    # the data 1:2:...:n through proportions, which only parallel reads
    for section, key, value, selector, kind, reader in (
            ("problem", "proportions", cfg.proportions, "mode", cfg.mode,
             "parallel"),
            ("experiment", "n_values", cfg.n_values, "mode", cfg.mode,
             "parallel"),
            ("topology", "path", cfg.edge_list_path, "kind", cfg.topology,
             "edge_list"),
            ("schedule", "straggler_node", cfg.straggler_node, "kind",
             cfg.schedule, "straggler"),
            ("schedule", "straggler_factor", cfg.straggler_factor, "kind",
             cfg.schedule, "straggler")):
        if value is not None and kind != reader:
            raise ConfigError(f"[{section}] {key}: only {selector} = {reader} "
                              f"reads it")
    if cfg.topology == "edge_list" and not cfg.edge_list_path:
        raise ConfigError("[topology] path: required for edge_list topology")
    if cfg.topology == "edge_list" and not Path(cfg.edge_list_path).exists():
        raise ConfigError(f"[topology] path: file {cfg.edge_list_path} does not exist")
    if cfg.schedule == "straggler" and cfg.straggler_node is None:
        raise ConfigError("[schedule] straggler_node: required for straggler kind")
    if cfg.proportions is not None and len(cfg.proportions) != cfg.n:
        raise ConfigError(
            f"[problem] proportions: need {cfg.n} entries, got {len(cfg.proportions)}"
        )
    if cfg.n_values == []:
        raise ConfigError("[experiment] n_values: need at least one entry")
    if cfg.n_values is not None and any(n < 1 for n in cfg.n_values):
        raise ConfigError("[experiment] n_values: need at least one node per entry")
    if not cfg.n_values:
        for key in ("eta1_values", "target_err"):
            if getattr(cfg, key) is not None:
                raise ConfigError(f"[experiment] {key}: only a sweep reads "
                                  f"it; give n_values")
    if cfg.eta1_values is not None and not all(
            0 < eta < math.inf for eta in cfg.eta1_values):
        raise ConfigError(
            "[experiment] eta1_values: step sizes must be positive and finite")
    if (cfg.eta1_values is not None and cfg.n_values is not None
            and len(cfg.eta1_values) != len(cfg.n_values)):
        raise ConfigError(
            "[experiment] eta1_values: need one entry per n_values entry"
        )


@dataclass
class ExperimentBundle:
    config: ExperimentConfig
    problem: mspbe.ProblemSpec
    graph: DirectedGraph
    spectral: mspbe.SpectralConstants


def build_problem(cfg: ExperimentConfig) -> mspbe.ProblemSpec:
    """Generate the data pipeline for the config's nodes."""
    streams = cfg.n if cfg.mode == "marl" else 1
    the_mdp = mdp.build_random_mdp(cfg.num_states, cfg.num_actions, streams,
                                   cfg.data_seed)
    policy = mdp.random_policy(cfg.num_states, cfg.num_actions, cfg.data_seed)
    traj = mdp.sample_trajectory(the_mdp, policy, cfg.m + 1, cfg.data_seed)
    features = mdp.make_feature_map(cfg.num_states, cfg.d, cfg.data_seed)
    try:
        per_node = mdp.partition_samples(traj, features, cfg.mode, cfg.n,
                                         cfg.gamma, cfg.proportions)
    except ValueError as exc:
        raise ConfigError(f"[problem] {exc}") from None
    return mspbe.ProblemSpec(per_node, cfg.rho)


def build_experiment(cfg: ExperimentConfig) -> ExperimentBundle:
    try:
        graph = generate_topology(cfg.topology, cfg.n, cfg.edge_list_path)
    except ValueError as exc:
        raise ConfigError(f"[topology] {cfg.topology}: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"[topology] path: cannot read "
                          f"{cfg.edge_list_path}: {exc.strerror}") from None
    problem = build_problem(cfg)
    if not is_strongly_connected(graph):
        raise ConfigError(f"[topology] {cfg.topology}: graph is not strongly connected")
    try:
        spectral = mspbe.spectral_constants(problem, cfg.zeta)
    except ArithmeticError as exc:
        raise ConfigError(f"[problem] {exc} (n={cfg.n})") from None
    return ExperimentBundle(config=cfg, problem=problem, graph=graph,
                            spectral=spectral)


def _solution(bundle: ExperimentBundle) -> np.ndarray:
    """The saddle point z*, which only ``run``'s error series reads."""
    try:
        return mspbe.solve_problem(bundle.problem)
    except ArithmeticError as exc:
        raise ConfigError(f"[problem] {exc} (n={bundle.config.n})") from None


def _schedule(cfg: ExperimentConfig) -> ActivationSchedule:
    try:
        # only the straggler kind sets these (validate_config)
        return ActivationSchedule(
            kind=cfg.schedule, n=cfg.n, straggler_node=cfg.straggler_node,
            straggler_factor=(1.0 if cfg.straggler_factor is None
                              else cfg.straggler_factor))
    except ValueError as exc:
        raise ConfigError(f"[schedule] {exc}") from None


def _delays(cfg: ExperimentConfig) -> DelayModel:
    try:
        return DelayModel(kind=cfg.delay_kind, d_max=cfg.d_max)
    except ValueError as exc:
        raise ConfigError(f"[schedule] {exc}") from None


def _run_trace(bundle: ExperimentBundle, max_events: int, seed: int | None,
               z_star: np.ndarray | None = None) -> simulator.EventTrace:
    cfg = bundle.config
    seed = cfg.run_seed if seed is None else seed
    try:
        return simulator.run_async(bundle.problem, bundle.graph,
                                   _schedule(cfg), _delays(cfg), cfg.eta1,
                                   cfg.eta2, seed, max_events=max_events,
                                   z_star=z_star)
    except MemoryError:
        # verify and constants run min(verify_events, max_events) events
        key = "max_events" if max_events == cfg.max_events else "verify_events"
        raise ConfigError(f"[algorithm] {key}: cannot allocate the record of "
                          f"{max_events} events") from None


_EIGHT_DIGITS = decimal.Context(prec=8, rounding=decimal.ROUND_HALF_EVEN,
                                Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)


def _sci_str(x: Decimal) -> str:
    """``x`` to 8 significant digits as mantissa, "e", exponent, with the
    mantissa's trailing zeros stripped down to one after the point:
    2.6127429e-864, 5.0e-1, 4.0e0."""
    if not x:
        return "0"
    # rounding first carries a mantissa that rounds up to 10 into the exponent
    x = _EIGHT_DIGITS.plus(x)
    sign, digits, _ = x.as_tuple()
    mantissa = "".join(map(str, digits)).rstrip("0")
    return f"{'-' * sign}{mantissa[0]}.{mantissa[1:] or '0'}e{x.adjusted()}"


def _window_constants(bundle: ExperimentBundle,
                      b: int) -> augmented.RateConstants:
    """The worst-case rate constants at the window b certified on a trace."""
    # a single node has diameter 0; the worst-case bound needs one hop
    d_g = max(1, diameter(bundle.graph))
    big_k = 2 * max(bundle.problem.m_i) - 1
    return augmented.rate_constants(bundle.config.n, b, big_k, d_g,
                                    bundle.spectral)


def constants_report(bundle: ExperimentBundle, trace: simulator.EventTrace) -> str:
    cfg = bundle.config
    spectral = bundle.spectral
    rc = _window_constants(bundle, trace.window)
    lines = [
        "constants report",
        f"n {cfg.n}",
        f"d {bundle.problem.d}",
        f"m {bundle.problem.m}",
        f"b_certified {rc.b}",
        f"diameter {rc.d_g}",
        f"K_selection {rc.big_k}",
        f"ntilde {rc.ntilde}",
        f"alpha {spectral.alpha!r}",
        f"beta {spectral.beta!r}",
        f"psi {spectral.psi!r}",
        f"zeta {cfg.zeta!r}",
        f"zeta_min {spectral.zeta_min!r}",
        f"zeta_above_threshold {cfg.zeta > spectral.zeta_min}",
        f"g_eigs_real {spectral.g_eigs_real}",
        f"spectral_valid {spectral.valid}",
        f"kappa {_sci_str(rc.kappa)}",
        f"one_minus_delta {_sci_str(rc.one_minus_delta)}",
        f"mu {_sci_str(rc.mu)}",
        f"mu_times_n_over_kappa {rc.mu_over_kappa_times_n!r}",
        f"t_tilde {_sci_str(rc.t_tilde)}",
        f"eta_max_theory {_sci_str(rc.eta_max_theory)}",
        f"eta_used {_sci_str(rc.eta_used)}",
        f"one_minus_c {_sci_str(rc.one_minus_c)}",
        f"rate_valid {rc.valid}",
        f"eta2_max_for_eta1 {augmented.eta2_range(bundle.problem.m, spectral, cfg.eta1)!r}",
    ]
    return "\n".join(lines) + "\n"


@contextmanager
def _out(action: str, path: Path) -> Iterator[Path]:
    """Report a failed ``action`` on ``path`` in --out as a bad --out."""
    try:
        yield path
    except OSError as exc:
        raise ConfigError(f"--out: cannot {action} {path}: "
                          f"{exc.strerror}") from None


def cmd_run(cfg: ExperimentConfig, out_dir: Path, seed: int | None) -> int:
    with _out("make directory", out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.n_values:
        return _cmd_run_sweep(cfg, out_dir, seed)
    bundle = build_experiment(cfg)
    trace = _run_trace(bundle, cfg.max_events, seed, _solution(bundle))
    series = trace.series
    with _out("write", out_dir / "metrics.csv") as path:
        simulator.write_metrics_csv(series, trace.node, path)
    with _out("write", out_dir / "constants.txt") as path:
        path.write_text(constants_report(bundle, trace))
    fit = None
    if series.err_max.shape[0] >= 100:
        fit = simulator.estimate_rate(series.err_max)
    print(f"events {trace.num_events}")
    print("stop max_events")
    print(f"err_max_initial {float(series.err_max[0])!r}")
    print(f"err_max_final {float(series.err_max[-1])!r}")
    if fit is not None:
        print(f"rate_c_hat {fit.c_hat!r}")
        print(f"rate_r_squared {fit.r_squared!r}")
    print(f"wrote {out_dir / 'metrics.csv'}")
    print(f"wrote {out_dir / 'constants.txt'}")
    return EXIT_OK


def _cmd_run_sweep(cfg: ExperimentConfig, out_dir: Path,
                   seed: int | None) -> int:
    """Speedup sweep: the same total data split 1:2:...:n over growing node
    counts; each n is an ordinary run of the config with n, the proportions
    and the steps (eta1 from eta1_values, eta2 at the config's ratio)
    replaced."""
    target = cfg.target_err if cfg.target_err is not None else 1e-4
    steps = cfg.eta1_values or [cfg.eta1] * len(cfg.n_values)
    rows = []
    for n, eta1 in zip(cfg.n_values, steps):
        sized = replace(
            cfg, n=n, proportions=[float(i + 1) for i in range(n)],
            eta1=eta1, eta2=eta1 * cfg.zeta)
        bundle = build_experiment(sized)
        trace = _run_trace(bundle, cfg.max_events, seed, _solution(bundle))
        below = np.nonzero(trace.series.err_max <= target)[0]
        hit = int(below[0]) if below.size else -1
        rows.append((n, hit, hit / n if hit >= 0 else -1))
        with _out("write", out_dir / f"metrics_n{n}.csv") as path:
            simulator.write_metrics_csv(trace.series, trace.node, path)
    with _out("write", out_dir / "speedup.csv") as path:
        path.write_text("n,events_to_target,per_node_evals\n" + "".join(
            f"{n},{ev},{per!r}\n" for n, ev, per in rows), encoding="utf-8")
    for n, ev, per in rows:
        print(f"n {n}: events_to_target {ev}, per_node_evals {per!r}")
    print(f"wrote {out_dir / 'speedup.csv'}")
    return EXIT_OK


def cmd_verify(cfg: ExperimentConfig, seed: int | None) -> int:
    bundle = build_experiment(cfg)
    events = min(cfg.verify_events, cfg.max_events)
    trace = _run_trace(bundle, events, seed)
    checks: list[tuple[str, bool, str]] = []

    # one pass over the replayed states, each carrying its event's matrices;
    # np.maximum keeps a nan, which fails its check
    worst_row = worst_col = dev = res = 0.0
    h_rows, h_cols = [], []
    for state in augmented.replay(trace, bundle.problem):
        dev = np.maximum(dev, augmented.check_equivalence(trace, state))
        res = np.maximum(res, augmented.tracking_residual(state))
        mats = state.mats
        if mats is None:
            continue
        row_sums, col_sums = mats.h_row.sum(axis=1), mats.h_col.sum(axis=0)
        for sums in (row_sums, col_sums):
            sums -= 1
            np.abs(sums, out=sums)
        worst_row = np.maximum(worst_row, row_sums.max())
        worst_col = np.maximum(worst_col, col_sums.max())
        if state.k <= 200:   # the products contract the first 200 events
            h_rows.append(mats.h_row)
            h_cols.append(mats.h_col)
    ok = (worst_row <= augmented.STOCHASTIC_TOL
          and worst_col <= augmented.STOCHASTIC_TOL)
    checks.append(("stochasticity", ok,
                   f"max row-sum dev {worst_row:.2e}, max col-sum dev {worst_col:.2e}"))
    checks.append(("replay_equivalence", dev <= 1e-9, f"max deviation {dev:.2e}"))
    checks.append(("tracking_identity", res <= 1e-9, f"max residual {res:.2e}"))

    rc = _window_constants(bundle, trace.window)
    dist_row = augmented.product_contraction(h_rows)
    dist_col = augmented.product_contraction(h_cols)
    first_bad = None
    for t in range(dist_row.shape[0]):
        bound = 2.0 * augmented.delta_power(rc, t)
        if dist_row[t] > bound or dist_col[t] > bound:
            first_bad = (t, max(dist_row[t], dist_col[t]), bound)
            break
    ok = first_bad is None
    detail = ("all t within bound" if ok else
              f"first failure at t={first_bad[0]}: distance {first_bad[1]:.4f} "
              f"> bound {first_bad[2]:.4f}")
    checks.append(("product_contraction_bound", ok, detail))

    failed = [name for name, ok, _ in checks if not ok]
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    print(f"certified_b {rc.b}")
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


def cmd_constants(cfg: ExperimentConfig, seed: int | None) -> int:
    bundle = build_experiment(cfg)
    events = min(cfg.verify_events, cfg.max_events)
    trace = _run_trace(bundle, events, seed)
    report = constants_report(bundle, trace)
    sys.stdout.write(report)
    return EXIT_OK


def bundled_config(name: str) -> Path:
    path = Path(__file__).parent / "configs" / f"{name}.ini"
    if not path.exists():
        raise ConfigError(f"no bundled config named {name!r}")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="asyncsag",
        description="Asynchronous push-pull averaged-gradient policy "
                    "evaluation: simulation, verification, constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "verify", "constants"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="path to an INI config, or a bundled name "
                            "(quickstart, marl9, straggler, speedup)")
        p.add_argument("--out", default=".",
                       help="output directory; only run writes there")
        p.add_argument("--seed", type=int, default=None,
                       help="override the run seed")
    args = parser.parse_args(argv)

    try:
        cfg_path = Path(args.config)
        if not cfg_path.exists() and not cfg_path.suffix:
            cfg_path = bundled_config(args.config)
        cfg = load_config(cfg_path)
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed: must be nonnegative")
        if args.command == "run":
            return cmd_run(cfg, Path(args.out), args.seed)
        if args.command == "verify":
            return cmd_verify(cfg, args.seed)
        return cmd_constants(cfg, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except AssumptionViolation as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION


if __name__ == "__main__":
    sys.exit(main())
