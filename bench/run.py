#!/usr/bin/env python3
"""Benchmark of the asyncsag command line.

    python3 bench/run.py --workload run_quickstart --seed 0 --seconds 40 --trace 0

Run from the repository root. Each workload is one ``asyncsag`` command on a
bundled config, executed through ``asyncsag.cli.main`` in a fresh child
interpreter (one client, closed loop, one child at a time, BLAS/OpenMP pinned
to one thread). Invocations repeat while the next one is expected to end
within ``--seconds``, and at least the workload's minimum count. Every
output is checked against the committed reference in ``reference.json``; an
invocation whose output differs counts as failed and its timing is
discarded.

``--trace 0`` reports the end-to-end metrics (medians over the invocations):
wall_s, cpu_s, setup_s and peak_rss_mb. ``--trace 1`` reports the per-layer
metrics of one traced invocation, from spans recorded around the calls into
each module by the benchmark's own files. The last line of standard output
is the JSON result; the lines before it describe the environment and
every invocation.

``--seed n`` selects the run seed ``pool[n mod len(pool)]`` from the
workload's reference pool; without it the config's own ``[schedule] seed``
is used. The seed reaches the program only through the CLI's ``--seed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"

# Every invocation must finish inside this many seconds after the run starts,
# which keeps a whole run, set-up samples included, under three minutes.
HARD_LIMIT_S = 165.0
# An untraced run spends this share of ``--seconds`` in set-up-only children,
# spread over the run, and takes at least MIN_SETUP_SAMPLES set-up samples.
SETUP_SHARE = 0.2
MIN_SETUP_SAMPLES = 7

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    command: str        # asyncsag subcommand
    config: str         # bundled config name or path
    min_runs: int       # least number of full calls in an untraced run


WORKLOADS = {
    "run_quickstart": Workload("run", "quickstart", min_runs=3),
    "verify_marl9": Workload("verify", "marl9", min_runs=1),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# (metric, unit); spans give <name>.s / .self_s / .calls
PER_LAYER = {
    "simulator.run_async.s": "s",
    "simulator.run_async.self_s": "s",
    "simulator.us_per_event": "us",
    "simulator.schedule_next.s": "s",
    "simulator.schedule_next.calls": "count",
    "simulator.delay_draw.s": "s",
    "simulator.delay_draw.calls": "count",
    "simulator.metrics.s": "s",
    "simulator.write_metrics_csv.s": "s",
    "simulator.estimate_rate.s": "s",
    "simulator.verify_assumption1b.s": "s",
    "simulator.events": "count",
    "simulator.messages": "count",
    "simulator.messages_consumed_frac": "ratio",
    "simulator.msg_age_mean": "events",
    "simulator.trace_mb": "MB",
    "protocol.activate.s": "s",
    "protocol.activate.calls": "count",
    "protocol.activate.us_per_call": "us",
    "protocol.on_receive.s": "s",
    "protocol.on_receive.calls": "count",
    "protocol.buffer_len_mean": "entries",
    "mspbe.saddle_gradient.s": "s",
    "mspbe.saddle_gradient.calls": "count",
    "mspbe.solve_problem.s": "s",
    "mspbe.spectral_constants.s": "s",
    "mdp.build_random_mdp.s": "s",
    "mdp.sample_trajectory.s": "s",
    "mdp.partition_samples.s": "s",
    "graph.generate_topology.s": "s",
    "graph.diameter.s": "s",
    "augmented.product_contraction.s": "s",
    "augmented.product_contraction.matrices": "count",
    "augmented.build_event_matrices.s": "s",
    "augmented.build_event_matrices.calls": "count",
    "augmented.replay.s": "s",
    "augmented.check_equivalence.s": "s",
    "augmented.tracking_residual.s": "s",
    "augmented.matrices_mb": "MB",
    "augmented.ntilde": "count",
    "augmented.certified_b": "events",
    "augmented.rate_constants.s": "s",
    "cli.build_experiment.s": "s",
    "cli.constants_report.s": "s",
    "cli.main.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
LAYERS = ("simulator", "protocol", "mspbe", "mdp", "graph", "augmented", "cli")
PER_LAYER.update({f"share.{layer}": "ratio" for layer in LAYERS})


# ---------------------------------------------------------------------------
# invocations
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def invoke(spec: dict, timeout: float) -> dict:
    """Run bench/child.py once; return its JSON result (or an error record)."""
    spec = {"src": str(SRC), **spec}
    cmd = [sys.executable, str(BENCH / "child.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=child_env(), timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"child exit {proc.returncode}: {' | '.join(tail)}"}
    return json.loads(lines[-1])


def cli_argv(workload: Workload, seed: int, out_dir: Path) -> list[str]:
    return [workload.command, "--config", workload.config,
            "--seed", str(seed), "--out", str(out_dir)]


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------

# Floating-point outputs match to a relative tolerance; the replay deviation
# is rounding noise (about 1e-20) and matches to an absolute one instead.
REL_TOL = 1e-6
ABS_TOL = {"replay_deviation": 1e-12}
VERDICT = re.compile(r"^(PASS|FAIL) (\w+): (.*)$")


def _key_values(text: str) -> dict[str, str]:
    pairs = (line.split(" ", 1) for line in text.splitlines() if " " in line)
    return {key: value.strip() for key, value in pairs}


def outputs(workload: Workload, result: dict, out_dir: Path) -> dict:
    """The checked facts of one invocation, from the CLI's own outputs."""
    observed = result["observed"]
    got: dict = {"exit_code": result["exit_code"],
                 "messages": observed.get("messages")}
    stdout = result["stdout"]
    if workload.command == "run":
        printed = _key_values(stdout)
        constants_path = out_dir / "constants.txt"
        constants = (_key_values(constants_path.read_text())
                     if constants_path.exists() else {})
        metrics_path = out_dir / "metrics.csv"
        rows = None
        if metrics_path.exists():
            with open(metrics_path, encoding="utf-8") as fh:
                rows = sum(1 for _ in fh) - 1
        got.update({
            "events": int(printed["events"]) if "events" in printed else None,
            "stop": printed.get("stop"),
            "metrics_rows": rows,
            "certified_b": int(constants.get("b_certified", -1)),
            "ntilde": int(constants.get("ntilde", -1)),
        })
        for key in ("err_max_initial", "err_max_final", "rate_c_hat"):
            got[key] = float(printed[key]) if key in printed else None
        return got
    verdicts, details = {}, {}
    for line in stdout.splitlines():
        match = VERDICT.match(line)
        if match:
            verdicts[match.group(2)] = match.group(1)
            details[match.group(2)] = match.group(3)
    deviation = re.search(r"max deviation (\S+)",
                          details.get("replay_equivalence", ""))
    first_bad = re.search(r"first failure at t=(\d+)",
                          details.get("product_contraction_bound", ""))
    got.update({
        "events": observed.get("events"),
        "certified_b": int(_key_values(stdout).get("certified_b", -1)),
        "ntilde": observed.get("ntilde"),
        "verdicts": verdicts,
        "replay_deviation": float(deviation.group(1)) if deviation else None,
        "first_failure_t": int(first_bad.group(1)) if first_bad else None,
    })
    # the verdict fails at t=0 whatever the products are, so the distances
    # themselves are checked: their count, sum and last value per sequence
    for side, digest in zip(("row", "col"), observed.get("contraction", [])):
        for key, value in digest.items():
            got[f"contraction_{side}_{key}"] = value
    return got


def mismatches(expected: dict, got: dict) -> list[str]:
    """Differences between a reference record and an invocation's facts."""
    bad = []
    for key, want in expected.items():
        have = got.get(key)
        if isinstance(want, float) and isinstance(have, float):
            same = math.isclose(have, want, rel_tol=REL_TOL,
                                abs_tol=ABS_TOL.get(key, 0.0))
        else:
            same = have == want
        if not same:
            bad.append(f"{key}: expected {want!r}, got {have!r}")
    return bad


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def per_layer_metrics(traced: dict,
                      untraced_wall: float | None) -> tuple[dict, list[str]]:
    spans, obs = traced["spans"], traced["observed"]
    notes = list(traced["notes"])

    def span(name: str, kind: str) -> float:
        return spans.get(name, {}).get(kind, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    wall = span("cli.main", "s")
    metrics: dict[str, float] = {}
    for name in PER_LAYER:
        stem, _, kind = name.rpartition(".")
        if kind in ("s", "self_s", "calls") and stem in spans:
            metrics[name] = span(stem, kind)
    events = obs.get("events") or 0
    messages = obs.get("messages") or 0
    activations = span("protocol.activate", "calls")
    metrics.update({
        "simulator.us_per_event": 1e6 * ratio(span("simulator.run_async", "s"), events),
        "simulator.events": events,
        "simulator.messages": messages,
        "simulator.messages_consumed_frac": ratio(obs.get("consumed", 0), messages),
        "simulator.msg_age_mean": ratio(obs.get("age_sum", 0), obs.get("consumed", 0)),
        "simulator.trace_mb": obs.get("trace_bytes", 0) / 2**20,
        "protocol.activate.us_per_call": 1e6 * ratio(span("protocol.activate", "s"),
                                                     activations),
        "protocol.buffer_len_mean": ratio(obs.get("buffer_len_sum", 0), activations),
        "augmented.product_contraction.matrices": sum(
            digest["steps"] for digest in obs.get("contraction", [])),
        "augmented.matrices_mb": obs.get("matrix_bytes", 0) / 2**20,
        "augmented.ntilde": obs.get("ntilde") or 0,
        "augmented.certified_b": obs.get("certified_b") or 0,
        "trace.wall_s": wall,
    })
    if untraced_wall is None:
        notes.append("trace.overhead_s: no untraced call fitted in the time limit")
        metrics["trace.overhead_s"] = 0.0
    else:
        metrics["trace.overhead_s"] = wall - untraced_wall
    for layer in LAYERS:
        busy = sum(st["self_s"] for name, st in spans.items()
                   if name.split(".", 1)[0] == layer)
        metrics[f"share.{layer}"] = ratio(busy, wall)
    missing = [name for name in PER_LAYER if name not in metrics]
    for name in missing:
        notes.append(f"{name}: not measured, no span of that name was recorded")
        metrics[name] = 0.0
    return metrics, notes


# seconds of float rounding allowed in sums of span times
SPAN_TOL = 1e-6


def trace_consistency(traced: dict) -> list[str]:
    """Problems with a traced invocation's own bookkeeping.

    The wrappers charge every interval inside ``cli.main`` to exactly one
    span, so each span's self time lies between 0 and its inclusive time, the
    self times add up to the time of ``cli.main``, and ``cli.main`` covers
    nearly all of the wall time measured around it. A wrapper that loses
    time, counts it twice or runs outside the outermost span breaks one of
    these.
    """
    problems = [f"wrapper left installed: {name}" for name in traced["unrestored"]]
    spans = traced["spans"]
    for name, st in spans.items():
        if not -SPAN_TOL <= st["self_s"] <= st["s"] + SPAN_TOL:
            problems.append(f"span {name}: self time {st['self_s']:.6f} s "
                            f"outside [0, {st['s']:.6f}] s")
    main = spans.get("cli.main", {}).get("s", 0.0)
    self_sum = sum(st["self_s"] for st in spans.values())
    if abs(self_sum - main) > SPAN_TOL:
        problems.append(f"span self times sum to {self_sum:.6f} s, not to "
                        f"the cli.main time {main:.6f} s")
    if main < 0.9 * traced["wall_s"]:
        problems.append(f"cli.main span {main:.6f} s covers less than 0.9 of "
                        f"the traced wall time {traced['wall_s']:.6f} s")
    return problems


# ---------------------------------------------------------------------------
# environment header
# ---------------------------------------------------------------------------

def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".ini"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(seed: int | None, run_seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: "1" for var in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "run_seed": run_seed,
    }


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------

def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"median {values[0]:.4f} (n=1)" if values else "no samples"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f} q1 {q1:.4f} q3 {q3:.4f} (n={len(values)})"


@dataclass
class Session:
    """The invocations of one run and what they measured."""

    workload: Workload
    run_seed: int
    expected: dict
    out_root: Path
    start: float = field(default_factory=time.perf_counter)
    good: list[dict] = field(default_factory=list)      # passing untraced calls
    setups: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    longest: float = 0.0
    setup_busy: float = 0.0     # seconds spent in set-up-only children

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.start)

    def call(self, traced: bool) -> dict | None:
        """One full CLI invocation; its result if the output check passed."""
        out_dir = self.out_root / f"call{self.attempted}"
        began = time.perf_counter()
        result = invoke({"mode": "full", "trace": traced,
                         "argv": cli_argv(self.workload, self.run_seed, out_dir)},
                        timeout=self.remaining())
        self.longest = max(self.longest, time.perf_counter() - began)
        self.attempted += 1
        if "error" in result:
            bad = [result["error"]]
        else:
            bad = mismatches(self.expected, outputs(self.workload, result, out_dir))
            if traced:
                bad += trace_consistency(result)
        shutil.rmtree(out_dir, ignore_errors=True)
        label = "traced" if traced else "run"
        if bad:
            self.failed += 1
            self.problems.extend(bad)
            print(f"{label} {self.attempted}: FAILED {'; '.join(bad)}")
            return None
        print(f"{label} {self.attempted}: wall_s {result['wall_s']:.4f} cpu_s "
              f"{result['cpu_s']:.4f} setup_s {result['setup_s']:.4f} "
              f"peak_rss_mb {result['peak_rss_mb']:.1f} ok")
        if not traced:
            self.good.append(result)
            self.setups.append(result["setup_s"])
        return result

    def setup_only(self) -> None:
        began = time.perf_counter()
        result = invoke({"mode": "setup", "trace": False,
                         "config": self.workload.config}, timeout=self.remaining())
        self.setup_busy += time.perf_counter() - began
        if "error" in result:
            self.problems.append(result["error"])
        else:
            self.setups.append(result["setup_s"])


def measure(session: Session, seconds: float, trace: bool) -> dict | None:
    """Run the invocations; return the traced call's result when tracing.

    A traced run starts with the traced call, then makes untraced calls
    within ``seconds`` (at least one) as the baseline of the tracing
    overhead. An untraced run interleaves set-up-only children with the full
    calls, keeping their time in step with the elapsed share of ``seconds``,
    so that the set-up samples spread over the run rather than share one
    phase of a machine whose speed drifts.
    """
    budget = 0.0 if trace else SETUP_SHARE * seconds

    def setup_samples(fraction: float) -> None:
        while (session.setup_busy < fraction * budget and not session.problems
               and session.remaining() > 30):
            session.setup_only()

    traced = session.call(traced=True) if trace else None
    min_runs = 1 if trace else session.workload.min_runs
    untraced = 0
    setup_samples(0.1)
    # another call starts only if it is expected to end within ``seconds``
    while (untraced < min_runs
           or time.perf_counter() - session.start + session.longest <= seconds):
        if session.attempted and session.remaining() < 1.2 * session.longest:
            if not trace and untraced < min_runs:
                session.problems.append(
                    f"time limit reached after {session.attempted} calls")
            break
        session.call(traced=False)
        untraced += 1
        setup_samples((time.perf_counter() - session.start) / seconds)
    setup_samples(1.0)
    while (not trace and not session.problems
           and len(session.setups) < MIN_SETUP_SAMPLES and session.remaining() > 30):
        session.setup_only()
    return traced


def run(name: str, seed: int | None, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    references = load_reference()["workloads"][name]["seeds"]
    pool = list(references)
    run_seed = int(pool[0] if seed is None else pool[seed % len(pool)])
    print("env " + json.dumps(environment(seed, run_seed)))

    out_root = ROOT / ".bench_out" / f"{name}-{os.getpid()}"
    out_root.mkdir(parents=True, exist_ok=True)
    session = Session(workload, run_seed, references[str(run_seed)], out_root)
    try:
        # compile the package's bytecode before anything is timed
        subprocess.run([sys.executable, "-c",
                        "import sys; sys.path.insert(0, sys.argv[1]); "
                        "import asyncsag.cli", str(SRC)],
                       cwd=ROOT, env=child_env(), check=True, timeout=30,
                       capture_output=True)
        traced = measure(session, seconds, trace)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        if out_root.parent.exists() and not any(out_root.parent.iterdir()):
            out_root.parent.rmdir()

    samples = {key: [r[key] for r in session.good]
               for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = session.setups
    for key, values in samples.items():
        print(f"{key} {quartiles(values)}")
    print(f"failed_frac {session.failed}/{session.attempted} = "
          f"{session.failed / max(session.attempted, 1):.4f}")
    for problem in session.problems:
        print(f"problem: {problem}")

    correct = session.failed == 0 and not session.problems
    if trace:
        correct = correct and traced is not None
        if traced is None:
            metrics = {name: 0.0 for name in PER_LAYER}
        else:
            baseline = (statistics.median(samples["wall_s"]) if session.good
                        else None)
            metrics, notes = per_layer_metrics(traced, baseline)
            for note in notes:
                print(f"note: {note}")
            shares = ", ".join(f"{layer} {metrics['share.' + layer]:.3f}"
                               for layer in LAYERS)
            print(f"self-time shares of traced wall_s: {shares}")
        units = PER_LAYER
    else:
        correct = correct and bool(session.good)
        metrics = {key: statistics.median(values) if values else 0.0
                   for key, values in samples.items()}
        units = END_TO_END
    return {"correct": correct, "attempted": session.attempted,
            "failed": session.failed,
            "metrics": {key: {"value": metrics[key], "unit": unit}
                        for key, unit in units.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="selects the run seed from the workload's pool")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "asyncsag" / "cli.py").is_file():
        print(f"no asyncsag sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
