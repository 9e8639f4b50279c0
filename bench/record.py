#!/usr/bin/env python3
"""Write the reference outputs that bench/run.py checks every invocation against.

    python3 bench/record.py --workload verify_marl9 --seeds 29 7 314

The listed run seeds become the workload's seed pool, in that order; the
first must be the config's own ``[schedule] seed``. Each seed is run once,
untraced, and its checked facts are stored in ``bench/reference.json``.
Re-record only when a change is meant to alter the program's output.

For a ``verify`` workload every seed must give the same augmented size ñ as
the first one: the dense replay costs O(ñ³) per event, so a pool that mixed
sizes would make the measured time depend on the seed rather than the code.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run as bench


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    workload = bench.WORKLOADS[args.workload]

    records = {}
    for seed in args.seeds:
        out_dir = bench.ROOT / ".bench_out" / f"record-{args.workload}-{seed}"
        try:
            result = bench.invoke({"mode": "full", "trace": False,
                                   "argv": bench.cli_argv(workload, seed, out_dir)},
                                  timeout=bench.HARD_LIMIT_S)
            if "error" in result:
                print(f"seed {seed}: {result['error']}", file=sys.stderr)
                return 1
            records[str(seed)] = bench.outputs(workload, result, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        print(f"seed {seed}: {json.dumps(records[str(seed)])}")
    if workload.command == "verify":
        sizes = {seed: rec["ntilde"] for seed, rec in records.items()}
        if len(set(sizes.values())) != 1:
            print(f"seeds give different ntilde: {sizes}", file=sys.stderr)
            return 1

    reference = (bench.load_reference() if bench.REFERENCE.exists()
                 else {"workloads": {}})
    reference["workloads"][args.workload] = {"seeds": records}
    reference["workloads"] = dict(sorted(reference["workloads"].items()))
    bench.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
