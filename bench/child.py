"""One measured asyncsag invocation, run in a fresh interpreter.

    python3 bench/child.py '<json spec>'

The spec names the package's source directory, the CLI arguments, and the
mode: ``full`` runs ``asyncsag.cli.main(argv)``; ``setup`` only imports the
package and calls ``cli.build_experiment`` once. With ``trace`` true every
layer's spans are recorded. The CLI's own standard output is captured and
returned; the last line printed here is one JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import tracer as tracing


def _ndarray_bytes(obj, seen: set[int]) -> int:
    """Bytes of the distinct ndarray buffers reachable from a trace object."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        base = obj if obj.base is None else obj.base
        if id(base) in seen or not isinstance(base, np.ndarray):
            return 0
        seen.add(id(base))
        return base.size * base.itemsize
    if isinstance(obj, (list, tuple)):
        return sum(_ndarray_bytes(item, seen) for item in obj)
    if isinstance(obj, dict):
        return sum(_ndarray_bytes(item, seen) for item in obj.values())
    fields = getattr(obj, "__dataclass_fields__", None)
    if fields is not None:
        return sum(_ndarray_bytes(getattr(obj, name), seen) for name in fields)
    return 0


def _trace_counts(trace) -> tuple[dict, list[str]]:
    """Message-level counts of a returned EventTrace, and what was missing."""
    counts: dict = {"trace_bytes": _ndarray_bytes(trace, set())}
    notes = []
    messages = getattr(trace, "messages", None)
    if messages is None or (messages and not hasattr(messages[0], "consumed_at")):
        notes.append("EventTrace has no per-message consumption record")
        return counts, notes
    consumed = [m for m in messages if m.consumed_at is not None]
    counts["consumed"] = len(consumed)
    counts["age_sum"] = sum(m.consumed_at - m.sent_at for m in consumed)
    return counts, notes


def _resolve_config(cli, name: str):
    path = Path(name)
    if not path.exists() and not path.suffix:
        path = cli.bundled_config(name)
    return cli.load_config(path)


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import asyncsag
    from asyncsag import cli
    import_s = time.perf_counter() - t0
    if not os.path.realpath(asyncsag.__file__).startswith(src + os.sep):
        print(f"asyncsag imported from {asyncsag.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tracer = tracing.Tracer()
    tracing.install(tracer, full=spec["trace"])
    out: dict = {"import_s": import_s}
    captured = io.StringIO()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    try:
        if spec["mode"] == "setup":
            cli.build_experiment(_resolve_config(cli, spec["config"]))
            out["exit_code"] = 0
        else:
            with contextlib.redirect_stdout(captured):
                out["exit_code"] = tracer.wrap("cli.main", cli.main)(spec["argv"])
    finally:
        wall = time.perf_counter() - w0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        out["unrestored"] = tracer.restore()

    out["wall_s"] = wall
    out["cpu_s"] = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    out["peak_rss_mb"] = ru1.ru_maxrss / 1024.0
    out["setup_s"] = import_s + tracer.stats["cli.build_experiment"].s
    out["stdout"] = captured.getvalue()
    out["spans"] = {name: vars(st) for name, st in tracer.stats.items()}
    observed = dict(tracer.observed)
    trace = observed.pop("trace", None)
    notes = []
    if trace is not None:
        counts, notes = _trace_counts(trace)
        observed.update(counts)
    out["observed"] = observed
    out["notes"] = notes
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
