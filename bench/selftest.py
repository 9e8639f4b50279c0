#!/usr/bin/env python3
"""Self-test of the benchmark on a tiny config (bench/tiny.ini).

    python3 bench/selftest.py

Takes a few seconds. Checks that

* BENCHMARK.json lists exactly the workloads and metrics, with their units,
  that bench/run.py defines;
* a traced `run` and a traced `verify` emit every per-layer metric, every
  span records at least one call on one of the two commands (a wrapper
  patched where no caller looks would read 0 s), each span's self time lies
  between 0 and its inclusive time, the self times sum to the `cli.main`
  span, which covers at least 0.9 of the traced wall time, and no wrapper is
  left installed;
* the trace consistency check rejects a span counted twice, a negative self
  time and time spent outside `cli.main`;
* patching and restoring the package in this process leaves every name
  bound to its original object;
* an untraced invocation yields every end-to-end measurement;
* the output check accepts an identical record and rejects a changed
  event count, `err_max_final` or contraction distance of `verify`;
* bench/run.py exits non-zero, printing no result, where the package's
  sources are missing.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run as bench
import tracer as tracing

TINY = bench.BENCH / "tiny.ini"
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_benchmark_json() -> None:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS),
          "BENCHMARK.json workloads match run.py")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END,
          "BENCHMARK.json end_to_end metrics and units match run.py")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER,
          "BENCHMARK.json per_layer metrics and units match run.py")


def check_traced(out_root) -> None:
    called: set[str] = set()
    for command in ("run", "verify"):
        workload = bench.Workload(command, str(TINY), min_runs=1)
        out_dir = out_root / command
        result = bench.invoke({"mode": "full", "trace": True,
                               "argv": bench.cli_argv(workload, 5, out_dir)},
                              timeout=120)
        if "error" in result:
            check(False, f"traced {command} on tiny.ini: {result['error']}")
            continue
        metrics, notes = bench.per_layer_metrics(result, result["wall_s"])
        check(set(metrics) == set(bench.PER_LAYER) and not notes,
              f"traced {command}: every per-layer metric measured {notes}")
        check(not bench.trace_consistency(result),
              f"traced {command}: wrappers removed, span times consistent "
              f"{bench.trace_consistency(result)}")
        called |= {name for name, st in result["spans"].items() if st["calls"]}
        facts = bench.outputs(workload, result, out_dir)
        if command == "verify":
            check_verify_facts(facts)
        if command == "run":
            check_bookkeeping_rejected(result)
            check(not bench.mismatches(facts, facts),
                  "output check accepts an identical record")
            changed = dict(facts, events=facts["events"] + 1)
            check(bool(bench.mismatches(changed, facts)),
                  "output check rejects a changed event count")
            near = dict(facts, err_max_final=facts["err_max_final"] * (1 + 1e-5))
            check(bool(bench.mismatches(near, facts)),
                  "output check rejects a 1e-5 relative change of err_max_final")
    spans = {name.rpartition(".")[0] for name in bench.PER_LAYER
             if name.rpartition(".")[2] in ("s", "self_s", "calls")}
    silent = sorted(spans - called)
    check(not silent, f"every span is called on run or verify {silent}")


def check_verify_facts(facts: dict) -> None:
    keys = [f"contraction_{side}_{key}" for side in ("row", "col")
            for key in ("steps", "sum", "last")]
    check(all(isinstance(facts.get(key), (int, float)) for key in keys),
          f"verify facts hold the contraction distances {keys}")
    if "contraction_col_last" in facts:
        changed = dict(facts, contraction_col_last=facts["contraction_col_last"]
                       * (1 + 1e-5))
        check(bool(bench.mismatches(changed, facts)),
              "output check rejects a 1e-5 relative change of a contraction "
              "distance")


def check_bookkeeping_rejected(result: dict) -> None:
    """trace_consistency rejects spans that lose or double-count time."""
    spans = result["spans"]
    inner = max((name for name in spans if name != "cli.main"),
                key=lambda name: spans[name]["self_s"])

    def altered(changes: dict) -> dict:
        copy = {name: dict(st) for name, st in spans.items()}
        for name, (kind, delta) in changes.items():
            copy[name][kind] += delta
        return dict(result, spans=copy)

    moved = 2 * spans[inner]["s"]
    cases = {
        "a span's time counted twice":
            altered({inner: ("self_s", spans[inner]["self_s"])}),
        "a negative self time":
            altered({inner: ("self_s", -moved), "cli.main": ("self_s", moved)}),
        "time spent outside cli.main": dict(result, wall_s=2 * result["wall_s"]),
    }
    for what, broken in cases.items():
        check(bool(bench.trace_consistency(broken)),
              f"trace consistency rejects {what}")


def check_restore_in_process() -> None:
    sys.path.insert(0, str(bench.SRC))
    from asyncsag import augmented, cli, simulator

    def bindings() -> list:
        return [cli.build_experiment, simulator.activate,
                augmented.saddle_gradient, augmented.verify_assumption1b,
                simulator.ActivationSchedule.next, simulator.DelayModel.draw]

    before = bindings()
    tracer = tracing.Tracer()
    tracing.install(tracer, full=True)
    during = bindings()
    left = tracer.restore()
    after = bindings()
    check(all(d is not b for d, b in zip(during, before)) and not left
          and all(a is b for a, b in zip(after, before)),
          "install() patches and restore() puts every original back")


def check_untraced(out_root) -> None:
    workload = bench.Workload("run", str(TINY), min_runs=1)
    result = bench.invoke({"mode": "full", "trace": False,
                           "argv": bench.cli_argv(workload, 5, out_root / "plain")},
                          timeout=120)
    values = [result.get(key) for key in bench.END_TO_END]
    check(all(isinstance(v, float) and v > 0 for v in values),
          f"untraced call measures {list(bench.END_TO_END)}: {values}")


def check_needs_sources(out_root) -> None:
    bare = out_root / "bare"
    shutil.copytree(bench.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "run_quickstart", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=120)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py fails without printing a result when src/ is missing")


def main() -> int:
    out_root = bench.ROOT / ".bench_out" / "selftest"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    try:
        check_benchmark_json()
        check_traced(out_root)
        check_restore_in_process()
        check_untraced(out_root)
        check_needs_sources(out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        if not any(out_root.parent.iterdir()):
            out_root.parent.rmdir()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
