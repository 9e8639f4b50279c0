"""Spans around the calls into asyncsag's modules, installed from outside.

Every wrapped function is replaced by a timing wrapper at the place where its
caller looks it up (a module global or a class attribute), so that no file of
the package changes. A span's self time is its duration minus the durations of
the wrapped spans it directly caused; the self times of all spans therefore
partition the time of the outermost one.

Some names are bound twice: ``saddle_gradient`` in ``protocol`` and
``augmented``, ``verify_assumption1b`` in ``simulator`` and ``augmented``.
Both bindings feed the same span name, which is named after the defining
module. ``Tracer.restore`` puts every original object back and reports any
binding that does not read back as the original.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    """Accumulated cost of one wrapped function."""

    s: float = 0.0          # inclusive busy seconds
    self_s: float = 0.0     # busy seconds minus the wrapped children
    calls: int = 0


@dataclass
class Tracer:
    stats: dict[str, SpanStats] = field(default_factory=dict)
    observed: dict = field(default_factory=dict)
    _stack: list[float] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def wrap(self, name: str, fn, before=None, after=None):
        """Timing wrapper for ``fn``.

        ``before(args)`` and ``after(args, result)`` run outside the span's
        own interval; their cost is charged to the calling span.
        """
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            stack.append(0.0)
            t0 = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats.s += dt
                stats.self_s += dt - child
                stats.calls += 1
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, return_value)
            return return_value

        return wrapper

    def patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a timing wrapper recorded as ``name``."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, before, after))

    def restore(self) -> list[str]:
        """Undo every patch; return the bindings that did not come back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        left = [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._patched
                if owner.__dict__[attr] is not original]
        self._patched.clear()
        return left


def install(tracer: Tracer, full: bool) -> None:
    """Patch the CLI's call graph.

    The probes that the output check needs are always installed: the set-up
    span (``cli.build_experiment``), the simulated trace (``run_async``), the
    certified window (``rate_constants``) and the rank-one distances that
    ``verify`` compares with its bound (``product_contraction``). Each runs
    at most twice per CLI call. With ``full`` the spans of every layer are
    added.
    """
    from asyncsag import augmented, cli, mdp, mspbe, protocol, simulator

    obs = tracer.observed

    def keep_trace(args, trace):
        obs["events"] = trace.num_events
        messages = getattr(trace, "messages", None)
        obs["messages"] = None if messages is None else len(messages)
        if full:
            obs["trace"] = trace  # analysed after the timed call

    def keep_constants(args, rc):
        obs["ntilde"] = rc.ntilde
        obs["certified_b"] = rc.b

    def keep_distances(args, dist):
        # cmd_verify contracts the h_row sequence first, then the h_col one;
        # the last distance depends on every product in the sequence
        obs.setdefault("contraction", []).append(
            {"steps": len(dist) - 1, "sum": float(dist.sum()),
             "last": float(dist[-1])})

    tracer.patch(cli, "build_experiment", "cli.build_experiment")
    tracer.patch(simulator, "run_async", "simulator.run_async", after=keep_trace)
    tracer.patch(augmented, "rate_constants", "augmented.rate_constants",
                 after=keep_constants)
    tracer.patch(augmented, "product_contraction", "augmented.product_contraction",
                 after=keep_distances)
    if not full:
        return

    def buffer_len(args):
        obs["buffer_len_sum"] = obs.get("buffer_len_sum", 0) + len(args[0].buffer)

    def matrix_bytes(args, mats):
        total = sum(getattr(mats, name).nbytes
                    for name in ("h_row", "h_col", "i_act"))
        obs["matrix_bytes"] = obs.get("matrix_bytes", 0) + total

    tracer.patch(cli, "constants_report", "cli.constants_report")
    tracer.patch(cli, "generate_topology", "graph.generate_topology")
    tracer.patch(cli, "diameter", "graph.diameter")
    tracer.patch(mdp, "build_random_mdp", "mdp.build_random_mdp")
    tracer.patch(mdp, "sample_trajectory", "mdp.sample_trajectory")
    tracer.patch(mdp, "partition_samples", "mdp.partition_samples")
    tracer.patch(mspbe, "solve_problem", "mspbe.solve_problem")
    tracer.patch(mspbe, "spectral_constants", "mspbe.spectral_constants")
    tracer.patch(protocol, "saddle_gradient", "mspbe.saddle_gradient")
    tracer.patch(augmented, "saddle_gradient", "mspbe.saddle_gradient")
    tracer.patch(simulator, "activate", "protocol.activate", before=buffer_len)
    tracer.patch(simulator, "on_receive", "protocol.on_receive")
    tracer.patch(simulator.ActivationSchedule, "next", "simulator.schedule_next")
    tracer.patch(simulator.DelayModel, "draw", "simulator.delay_draw")
    tracer.patch(simulator, "metrics", "simulator.metrics")
    tracer.patch(simulator, "write_metrics_csv", "simulator.write_metrics_csv")
    tracer.patch(simulator, "estimate_rate", "simulator.estimate_rate")
    tracer.patch(simulator, "verify_assumption1b", "simulator.verify_assumption1b")
    tracer.patch(augmented, "verify_assumption1b", "simulator.verify_assumption1b")
    tracer.patch(augmented, "build_event_matrices", "augmented.build_event_matrices",
                 after=matrix_bytes)
    tracer.patch(augmented, "replay", "augmented.replay")
    tracer.patch(augmented, "check_equivalence", "augmented.check_equivalence")
    tracer.patch(augmented, "tracking_residual", "augmented.tracking_residual")
