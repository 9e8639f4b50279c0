"""Command-line driver: config parsing and validation, exit codes, output
files, and bundled experiment definitions."""

from __future__ import annotations

import configparser
import contextlib
import dataclasses
import functools
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import unittest.mock
from decimal import Decimal
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncsag import augmented, cli, graph, mspbe, protocol, simulator
from helpers import dump_edge_list

BENCH = Path(__file__).resolve().parents[1] / "bench"

BASE_INI = """\
[problem]
num_states = 10
num_actions = 2
n = 3
d = 3
m = 24
gamma = 0.9
rho = 0.1
mode = parallel
seed = 3

[topology]
kind = ring

[algorithm]
eta1 = 0.01
eta2 = 0.1
max_events = 150
verify_events = 100

[schedule]
kind = uniform_random
delay = uniform
d_max = 2
seed = 5
"""


def write_ini(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    # a lone surrogate escape stands for a byte that is not UTF-8
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return path


def test_load_config_reads_all_sections(tmp_path):
    cfg = cli.load_config(write_ini(tmp_path, BASE_INI))
    assert cfg.num_states == 10
    assert cfg.n == 3
    assert cfg.m == 24
    assert cfg.gamma == 0.9
    assert cfg.mode == "parallel"
    assert cfg.data_seed == 3
    assert cfg.topology == "ring"
    assert cfg.eta1 == 0.01 and cfg.eta2 == 0.1
    assert cfg.zeta == pytest.approx(10.0)
    assert cfg.max_events == 150
    assert cfg.schedule == "uniform_random"
    assert cfg.d_max == 2
    assert cfg.run_seed == 5


def test_half_specified_steps_rejected(tmp_path):
    text = BASE_INI.replace("eta1 = 0.01\neta2 = 0.1", "eta1 = 0.05")
    with pytest.raises(cli.ConfigError) as err:
        cli.load_config(write_ini(tmp_path, text))
    assert "both" in str(err.value)


def test_parse_error_names_section_and_key(tmp_path):
    text = BASE_INI.replace("gamma = 0.9", "gamma = fast")
    with pytest.raises(cli.ConfigError) as err:
        cli.load_config(write_ini(tmp_path, text))
    assert "[problem] gamma" in str(err.value)
    assert "cannot parse" in str(err.value)


@pytest.mark.parametrize("swap,needle", [
    (("mode = parallel", "mode = sharded"), "unknown mode"),
    (("d = 3", "d = 11"), "feature dimension"),
    (("gamma = 0.9", "gamma = 1.5"), "gamma"),
    (("rho = 0.1", "rho = -1"), "rho"),
    (("kind = uniform_random", "kind = straggler"), "straggler_node"),
])
def test_validation_errors(tmp_path, swap, needle):
    with pytest.raises(cli.ConfigError) as err:
        cli.load_config(write_ini(tmp_path, BASE_INI.replace(*swap)))
    assert needle in str(err.value)


def test_topology_node_count_conflict(tmp_path):
    text = BASE_INI.replace("kind = ring", "kind = ring\nn = 5")
    with pytest.raises(cli.ConfigError) as err:
        cli.load_config(write_ini(tmp_path, text))
    assert "conflicts" in str(err.value)


def test_proportions_length_checked(tmp_path):
    text = BASE_INI.replace("mode = parallel",
                            "mode = parallel\nproportions = 1 2")
    with pytest.raises(cli.ConfigError) as err:
        cli.load_config(write_ini(tmp_path, text))
    assert "proportions" in str(err.value)


def test_sweep_step_list_length_checked(tmp_path):
    text = BASE_INI + "\n[experiment]\nn_values = 1 2 4\neta1_values = 0.1 0.2\n"
    with pytest.raises(cli.ConfigError) as err:
        cli.load_config(write_ini(tmp_path, text))
    assert "eta1_values" in str(err.value)


def test_bundled_configs_exist_and_load():
    for name in ("quickstart", "marl9", "straggler", "speedup"):
        cfg = cli.load_config(cli.bundled_config(name))
        assert cfg.n >= 1
    with pytest.raises(cli.ConfigError):
        cli.bundled_config("nonexistent")


def test_main_reports_bad_config_with_exit_2(tmp_path, capsys):
    bad = write_ini(tmp_path, BASE_INI.replace("gamma = 0.9", "gamma = 2.0"))
    code = cli.main(["run", "--config", str(bad), "--out", str(tmp_path)])
    assert code == cli.EXIT_BAD_CONFIG
    assert "config error" in capsys.readouterr().err
    code = cli.main(["run", "--config", "nonexistent",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_BAD_CONFIG


@pytest.mark.parametrize("swap,needles", [
    # a grid needs a perfect-square node count; BASE_INI has n = 3
    (("kind = ring", "kind = grid"),
     ("config error: [topology] grid", "perfect-square")),
    (("kind = uniform_random", "kind = bogus"),
     ("config error: [schedule]", "unknown schedule kind")),
    (("delay = uniform", "delay = bogus"),
     ("config error: [schedule]", "unknown delay kind")),
    (("d_max = 2", "d_max = -1"),
     ("config error: [schedule]", "d_max must be nonnegative")),
    (("m = 24", "m = 2"),
     ("config error: [problem]", "2 transitions cannot cover 3 nodes")),
    (("seed = 5\n", "seed = 5\n\n[experiment]\nn_values = 0 2\n"),
     ("config error: [experiment] n_values", "at least one node")),
    # a synchronous run is kind = round_robin with delay = round_barrier,
    # not a kind of its own
    (("kind = uniform_random", "kind = sync"),
     ("config error: [schedule]", "unknown schedule kind 'sync'")),
    # too few samples: an aggregate C that is not positive-definite, which
    # the spectral constants report before any command solves the saddle
    # system
    (("n = 3\nd = 3\nm = 24", "n = 1\nd = 3\nm = 2"),
     ("config error: [problem]", "C is not positive-definite")),
    # two samples in d = 3 leave C rank-deficient, with a smallest
    # eigenvalue that is rounding noise of either sign
    (("n = 3\nd = 3\nm = 24\ngamma = 0.9\nrho = 0.1\nmode = parallel\nseed = 3",
      "n = 1\nd = 3\nm = 2\ngamma = 0.9\nrho = 0.1\nmode = parallel\nseed = 2"),
     ("config error: [problem]", "C is not positive-definite")),
    (("n = 3\nd = 3\nm = 24\ngamma = 0.9\nrho = 0.1\nmode = parallel\nseed = 3",
      "n = 1\nd = 3\nm = 2\ngamma = 0.9\nrho = 0.1\nmode = parallel\nseed = 5"),
     ("config error: [problem]", "C is not positive-definite")),
    # one sample in d = 3 gives a rank-one C (and a singular saddle system)
    (("n = 3\nd = 3\nm = 24", "n = 1\nd = 3\nm = 1"),
     ("config error: [problem]", "C is not positive-definite")),
    # sizes that must be positive
    (("max_events = 150", "max_events = 0"),
     ("config error: [algorithm] max_events", "at least 1")),
    (("verify_events = 100", "verify_events = 0"),
     ("config error: [algorithm] verify_events", "at least 1")),
    # a record that cannot be allocated: 8 PB per int64 column, past the
    # address space, so the first allocation fails at once; and a length
    # that numpy refuses outright, caught before any allocation
    (("max_events = 150\nverify_events = 100",
      "max_events = 1000000000000000\nverify_events = 1000000000000000"),
     ("config error: [algorithm] max_events: cannot allocate the record of "
      "1000000000000000 events",)),
    (("max_events = 150\nverify_events = 100",
      "max_events = 10000000000000000000\n"
      "verify_events = 10000000000000000000"),
     ("config error: [algorithm] max_events: cannot allocate the record of "
      "10000000000000000000 events",)),
    (("num_actions = 2", "num_actions = 0"),
     ("config error: [problem] num_actions", "at least one action")),
    (("d = 3", "d = 0"),
     ("config error: [problem] d", "at least one feature")),
    # non-finite numbers: nan fails every comparison, so "<= 0" let it pass
    (("eta1 = 0.01", "eta1 = nan"),
     ("config error: [algorithm] eta1/eta2", "positive and finite")),
    (("eta2 = 0.1", "eta2 = inf"),
     ("config error: [algorithm] eta1/eta2", "positive and finite")),
    (("rho = 0.1", "rho = nan"),
     ("config error: [problem] rho", "positive and finite")),
    (("seed = 5\n", "seed = 5\n\n[experiment]\nn_values = 1 2\n"
                    "eta1_values = 0.01 nan\n"),
     ("config error: [experiment] eta1_values", "positive and finite")),
    (("kind = uniform_random",
      "kind = straggler\nstraggler_node = 0\nstraggler_factor = nan"),
     ("config error: [schedule]", "finite and >= 1")),
    # a chain needs two states; a rollout needs one transition
    (("num_states = 10\nnum_actions = 2\nn = 3\nd = 3",
      "num_states = 1\nnum_actions = 2\nn = 3\nd = 1"),
     ("config error: [problem] num_states", "at least 2 states")),
    (("m = 24", "m = 0"),
     ("config error: [problem] m", "at least one transition")),
    # SeedSequence takes no negative seed
    (("seed = 3", "seed = -3"),
     ("config error: [problem] seed", "nonnegative")),
    (("seed = 5\n", "seed = -5\n"),
     ("config error: [schedule] seed", "nonnegative")),
    # a nan target is never reached
    (("seed = 5\n", "seed = 5\n\n[experiment]\nn_values = 1 2\n"
                    "target_err = nan\n"),
     ("config error: [experiment] target_err", "positive and finite")),
    # a delivery slot sent + d_max must fit in int64
    (("d_max = 2", "d_max = 100000000000000000000"),
     ("config error: [schedule]", "d_max must be at most 2**62")),
    # a key or section that nothing reads is a misspelling
    (("max_events = 150", "max_event = 150"),
     ("config error: [algorithm] max_event: unknown key",)),
    (("[schedule]", "[schedul]"),
     ("config error: [schedul] kind: unknown key",)),
    (("[problem]\n", "[DEFAULT]\nsteps = 3\n\n[problem]\n"),
     ("config error: [DEFAULT] steps: unknown key",)),
    (("max_events = 150", "max_events = 150\nd_max = 4"),
     ("config error: [algorithm] d_max: unknown key",)),
    # the steps have one spelling, eta1 and eta2
    (("eta1 = 0.01\neta2 = 0.1", "eta = 0.02\nzeta = 16"),
     ("config error: [algorithm] eta: unknown key",)),
    (("eta2 = 0.1", "eta2 = 0.1\nzeta = 10"),
     ("config error: [algorithm] zeta: unknown key",)),
    # an activation refreshes one sample; there is no minibatch size
    (("max_events = 150", "max_events = 150\nbatch_size = 1"),
     ("config error: [algorithm] batch_size: unknown key",)),
    # a run is its max_events events: no tracker-norm stop, no starvation
    # guard
    (("max_events = 150", "max_events = 150\nepsilon = 0.05"),
     ("config error: [algorithm] epsilon: unknown key",)),
    (("d_max = 2", "d_max = 2\nb_max = 10"),
     ("config error: [schedule] b_max: unknown key",)),
    # only a sweep reads the step list and the target
    (("seed = 5\n", "seed = 5\n\n[experiment]\neta1_values = 0.01\n"),
     ("config error: [experiment] eta1_values:", "give n_values")),
    (("seed = 5\n", "seed = 5\n\n[experiment]\ntarget_err = 0.1\n"),
     ("config error: [experiment] target_err:", "give n_values")),
    # files that configparser cannot read
    (("d = 3\n", "d = 3\nd = 5\n"),
     ("config error: config file", "option 'd' in section 'problem' already exists")),
    (("[problem]\n", "[problem\n"),
     ("config error: config file", "File contains no section headers")),
    (("seed = 3\n", "seed = 3\n# \udcff\udcfe\n"),
     ("config error: config file", "can't decode byte 0xff")),
    # a bare % starts an interpolation that configparser cannot resolve
    (("mode = parallel", "mode = parallel%"),
     ("config error: [problem] mode", "'%' must be followed")),
    # a sweep over no sizes is not a plain run
    (("seed = 5\n", "seed = 5\n\n[experiment]\nn_values =\n"),
     ("config error: [experiment] n_values", "at least one entry")),
    # keys that only one kind or mode reads
    (("kind = uniform_random", "kind = uniform_random\nstraggler_node = 99\n"
                               "straggler_factor = nan"),
     ("config error: [schedule] straggler_node: only kind = straggler "
      "reads it",)),
    (("kind = uniform_random", "kind = round_robin\nstraggler_factor = 2"),
     ("config error: [schedule] straggler_factor: only kind = straggler "
      "reads it",)),
    (("kind = ring", "kind = ring\npath = edges.txt"),
     ("config error: [topology] path: only kind = edge_list reads it",)),
    (("mode = parallel", "mode = marl\nproportions = 1 5 1"),
     ("config error: [problem] proportions: only mode = parallel reads it",)),
    # a sweep splits the data 1:2:...:n, which marl does not read
    (("mode = parallel\nseed = 3\n",
      "mode = marl\nseed = 3\n\n[experiment]\nn_values = 1 2 3\n"),
     ("config error: [experiment] n_values: only mode = parallel reads it",)),
], ids=["grid-topology", "schedule-kind", "delay-kind", "d_max", "m-below-n",
        "n_values", "sync-kind", "c-not-positive-definite",
        "c-rank-deficient-seed-2", "c-rank-deficient-seed-5", "singular-saddle",
        "max-events-0",
        "verify-events-0", "max-events-unallocatable",
        "max-events-past-address-space", "num-actions-0", "d-0", "eta1-nan", "eta2-inf",
        "rho-nan", "eta1-values-nan", "straggler-factor-nan",
        "num-states-1", "m-0", "problem-seed-negative",
        "schedule-seed-negative", "target-err-nan", "d-max-overflow",
        "unknown-key", "unknown-section",
        "unknown-default-key", "misplaced-key", "eta-zeta-form", "zeta-key",
        "batch-size-unknown", "epsilon-unknown", "b-max-unknown",
        "eta1-values-without-sweep", "target-err-without-sweep",
        "duplicate-option",
        "broken-section-header", "not-utf-8", "bare-percent", "n-values-empty",
        "straggler-keys-without-straggler", "straggler-factor-round-robin",
        "path-without-edge-list", "proportions-without-parallel",
        "sweep-without-parallel"])
def test_main_rejects_bad_config_with_exit_2(tmp_path, capsys, swap, needles):
    text = BASE_INI.replace(*swap)
    assert text != BASE_INI
    bad = write_ini(tmp_path, text)
    for command in ("run", "verify", "constants"):
        code = cli.main([command, "--config", str(bad), "--out", str(tmp_path)])
        assert code == cli.EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        for needle in needles:
            assert needle in err
        assert "Traceback" not in err


def test_unallocatable_verify_length_names_verify_events(tmp_path, capsys):
    # verify and constants run min(verify_events, max_events) events
    text = BASE_INI.replace("max_events = 150\nverify_events = 100",
                            "max_events = 10000000000000000\n"
                            "verify_events = 1000000000000000")
    bad = write_ini(tmp_path, text)
    for command in ("verify", "constants"):
        assert cli.main([command, "--config", str(bad)]) == cli.EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err == ("config error: [algorithm] verify_events: cannot "
                       "allocate the record of 1000000000000000 events\n")


def test_oversized_transition_tensor_exits_2_before_allocating(tmp_path, capsys):
    """2**31 states make a transition tensor of 2**66 bytes, past the
    address space: refused with one line, before anything is allocated."""
    text = BASE_INI.replace("num_states = 10", f"num_states = {2**31}")
    bad = write_ini(tmp_path, text)
    for command in ("run", "verify", "constants"):
        tracemalloc.start()
        try:
            code = cli.main([command, "--config", str(bad), "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_BAD_CONFIG
        assert capsys.readouterr().err == (
            "config error: [problem] num_states: cannot allocate the transition "
            "tensor of 2147483648 states and 2 actions\n")
        assert peak < 1 << 20


def test_unrollable_trajectory_exits_2_before_allocating(tmp_path, capsys):
    """m = 10**18 transitions take 2·10**18 + 1 uniform draws, more bytes
    than an array can hold: refused with one line, at once, before the
    rollout's loop or any large allocation."""
    text = BASE_INI.replace("m = 24", f"m = {10**18}")
    bad = write_ini(tmp_path, text)
    for command in ("run", "verify", "constants"):
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code = cli.main([command, "--config", str(bad), "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_BAD_CONFIG
        assert capsys.readouterr().err == (
            "config error: [problem] cannot allocate the data of "
            "1000000000000000000 transitions in 10 states\n")
        assert peak < 1 << 20
        assert time.perf_counter() - start < 30


@pytest.mark.parametrize("target,message", [
    ("asyncsag.cli.generate_topology",
     "[topology] ring: cannot allocate the graph of 3 nodes"),
    ("asyncsag.mdp.build_random_mdp",
     "[problem] cannot allocate the data of 24 transitions in 10 states"),
])
def test_unallocatable_graph_or_data_exits_2(tmp_path, capsys, monkeypatch,
                                             target, message):
    """A graph or a data set too large for memory is a config error; the
    allocation fails by a stand-in, not by exhausting memory."""
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(target, out_of_memory)
    ini = write_ini(tmp_path, BASE_INI)
    assert cli.main(["constants", "--config", str(ini)]) == cli.EXIT_BAD_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_default_section_key_read_through_a_section_is_known(tmp_path):
    text = BASE_INI.replace("[problem]\n", "[DEFAULT]\nseed = 8\n\n[problem]\n")
    text = text.replace("seed = 3\n", "").replace("seed = 5\n", "")
    cfg = cli.load_config(write_ini(tmp_path, text))
    assert cfg.data_seed == cfg.run_seed == 8
    # a section that does not read seed cannot hold its own value of it
    text = text.replace("max_events = 150", "max_events = 150\nseed = 99")
    with pytest.raises(cli.ConfigError, match=r"\[algorithm\] seed: unknown key"):
        cli.load_config(write_ini(tmp_path, text))


def test_main_rejects_negative_seed_option_with_exit_2(tmp_path, capsys):
    ini = write_ini(tmp_path, BASE_INI)
    for command in ("run", "verify", "constants"):
        code = cli.main([command, "--config", str(ini), "--out",
                         str(tmp_path), "--seed", "-1"])
        assert code == cli.EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "config error: --seed" in err and "nonnegative" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("out", ["afile", "afile/results"])
def test_run_rejects_out_that_is_not_a_directory_with_exit_2(tmp_path, capsys,
                                                            out):
    ini = write_ini(tmp_path, BASE_INI)
    (tmp_path / "afile").write_text("kept\n")
    code = cli.main(["run", "--config", str(ini), "--out",
                     str(tmp_path / out)])
    assert code == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: --out: cannot make directory "
                          f"{tmp_path / out}: ")
    assert "Traceback" not in err
    assert (tmp_path / "afile").read_text() == "kept\n"


@pytest.mark.parametrize("sweep,name", [
    (False, "metrics.csv"), (False, "constants.txt"),
    (True, "metrics_n2.csv"), (True, "speedup.csv")])
def test_run_rejects_output_file_that_is_a_directory_with_exit_2(
        tmp_path, capsys, sweep, name):
    sizes = "\n[experiment]\nn_values = 1 2\neta1_values = 0.01 0.02\n"
    ini = write_ini(tmp_path, BASE_INI + (sizes if sweep else ""))
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    code = cli.main(["run", "--config", str(ini), "--out", str(out)])
    assert code == cli.EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: --out: cannot write {out / name}: " \
                  f"Is a directory\n"


# ---------------------------------------------------------------------------
# the exit-code contract over every key that load_config reads
# ---------------------------------------------------------------------------

# BASE_INI with the straggler schedule, so that its two keys are read
PROPERTY_INI = BASE_INI.replace(
    "kind = uniform_random",
    "kind = straggler\nstraggler_node = 0\nstraggler_factor = 2")


@functools.lru_cache(maxsize=1)
def keys_read() -> dict[tuple[str, str], type]:
    """(section, key) -> converter of every key that load_config reads."""
    read = {}
    get = cli._get

    def recording(parser, consulted, section, key, conv, default=None):
        read[(section, key)] = conv
        return get(parser, consulted, section, key, conv, default)

    with tempfile.TemporaryDirectory() as tmp, \
            unittest.mock.patch.object(cli, "_get", recording):
        cli.load_config(write_ini(Path(tmp), PROPERTY_INI))
    return read


def floats_outside(lo, hi):
    """Floats outside the open interval (lo, hi), nan and inf included."""
    return st.floats().filter(lambda x: not lo < x < hi)


def ints_outside(lo, hi=None):
    """Integers below lo, or above hi when given."""
    out = st.integers(max_value=lo - 1)
    return out if hi is None else out | st.integers(min_value=hi + 1)


def as_text(value) -> str:
    """A drawn value as config text: numbers by repr, lists space-separated."""
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return " ".join(map(repr, value))
    return repr(value)


# Values that PROPERTY_INI (n = 3, ten states, eight samples a node) accepts
# nowhere, with the other settings such a value is read under.
POSITIVE = st.floats(1e-3, 4.0)
SWEEP = {("experiment", "n_values"): "1 2"}
BAD_VALUES = {
    ("problem", "num_states"): ints_outside(2),
    ("problem", "num_actions"): ints_outside(1),
    ("problem", "n"): ints_outside(1),
    ("problem", "d"): ints_outside(1, 10),
    ("problem", "m"): ints_outside(1),
    ("problem", "gamma"): floats_outside(0, 1),
    ("problem", "rho"): floats_outside(0, math.inf),
    ("problem", "mode"): st.sampled_from(["sharded", "Parallel", "marl9"]),
    ("problem", "seed"): ints_outside(0),
    ("problem", "proportions"): (
        st.lists(POSITIVE, max_size=5).filter(lambda xs: len(xs) != 3)
        | st.tuples(POSITIVE, floats_outside(0, math.inf), POSITIVE)
        # finite entries whose sum overflows
        | st.lists(st.floats(7e307, 1.7e308), min_size=3, max_size=3)),
    ("topology", "kind"): st.sampled_from(["torus", "star", "Ring"]),
    # a missing file, and a directory
    ("topology", "path"): st.sampled_from(["no-such-edge-list.txt", "."]),
    ("topology", "n"): st.integers().filter(lambda n: n != 3),
    ("algorithm", "eta1"): floats_outside(0, math.inf),
    ("algorithm", "eta2"): floats_outside(0, math.inf),
    ("algorithm", "max_events"): ints_outside(1),
    ("algorithm", "verify_events"): ints_outside(1),
    ("schedule", "kind"): st.sampled_from(["sync", "bogus", "Round_robin"]),
    ("schedule", "delay"): st.sampled_from(["bogus", "exponential"]),
    ("schedule", "d_max"): ints_outside(0, 2**62),
    ("schedule", "straggler_node"): ints_outside(0, 2),
    ("schedule", "straggler_factor"): st.floats().filter(
        lambda x: not 1 <= x < math.inf),
    ("schedule", "seed"): ints_outside(0),
    ("experiment", "n_values"): st.lists(st.integers(), max_size=3).filter(
        lambda ns: not ns or min(ns) < 1),
    ("experiment", "eta1_values"): (
        st.lists(POSITIVE, max_size=4).filter(lambda xs: len(xs) != 2)
        | st.tuples(POSITIVE, floats_outside(0, math.inf))),
    ("experiment", "target_err"): floats_outside(0, math.inf),
}
CONTEXT = {
    ("topology", "path"): {("topology", "kind"): "edge_list"},
    ("experiment", "eta1_values"): SWEEP,
    ("experiment", "target_err"): SWEEP,
}
# text that neither int nor float parses
UNPARSEABLE = st.sampled_from(["x", "1e", "--1", "0x10", "1 2 x"])


def test_bad_values_cover_every_key_read():
    assert set(BAD_VALUES) == set(keys_read())


def test_readme_config_format_names_every_key_read():
    """Every key that load_config reads appears, as a whole word, in its
    section of the README's "Config format" block, and every ``key =`` of
    a section there is one that load_config reads in that section."""
    text = (BENCH.parent / "README.md").read_text(encoding="utf-8")
    block = text[text.index("\n### Config format\n"):]
    block = block[block.index("```ini\n") + 7:block.index("\n```\n")]
    sections: dict[str, str] = {}
    section = None
    for line in block.splitlines():
        header = re.match(r"\[(\w+)\]", line)
        if header:
            section = header.group(1)
        sections[section] = sections.get(section, "") + line + "\n"
    read = keys_read()
    missing = [(section, key) for section, key in read
               if not re.search(rf"(?<!\w){key}(?!\w)",
                                sections.get(section, ""))]
    assert missing == []
    unread = [(section, key) for section, text in sections.items()
              for key in re.findall(r"(\w+)\s*=", text)
              if (section, key) not in read]
    assert unread == []


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_bad_value_of_every_key_exits_2(data):
    """A value that cannot be parsed, or that lies out of range, of any key
    ends in exit 2 with a ``config error:`` line (an exception escaping
    ``main`` fails the test)."""
    key = data.draw(st.sampled_from(sorted(keys_read())), label="key")
    # a bare % fails interpolation, whatever the key
    values = BAD_VALUES[key] | st.just("5%")
    if keys_read()[key] is not str:
        values |= UNPARSEABLE
    edits = {**CONTEXT.get(key, {}),
             key: as_text(data.draw(values, label="value"))}
    command = data.draw(st.sampled_from(["run", "verify", "constants"]),
                        label="command")
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(PROPERTY_INI)
    for (section, name), value in edits.items():
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][name] = value
    text = io.StringIO()
    parser.write(text)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        ini = write_ini(Path(tmp), text.getvalue())
        code = cli.main([command, "--config", str(ini), "--out", tmp])
    assert code == cli.EXIT_BAD_CONFIG, (edits, err.getvalue())
    assert err.getvalue().startswith("config error: ")


def test_config_table_declares_each_key_once_with_sound_rules(tmp_path):
    """The key table on ExperimentConfig's fields: no two fields share a
    (section, key); each reader names a field and a value that the field's
    consumer accepts; each default passes its own range rule."""
    fields = dataclasses.fields(cli.ExperimentConfig)
    table = {f.name: f.metadata for f in fields}
    keys = [(meta["section"], meta["key"]) for meta in table.values()]
    assert len(set(keys)) == len(keys)
    edges = tmp_path / "edges.txt"
    dump_edge_list(graph.generate_topology("ring", 3), edges)
    # each consumer raises on a value it does not know
    accepts = {
        "mode": table["mode"]["rule"][0],
        "topology": lambda kind: graph.generate_topology(kind, 3, edges),
        "schedule": lambda kind: simulator.ActivationSchedule(kind, 3, 0, 2.0),
    }
    for f in fields:
        rule, reader = f.metadata["rule"], f.metadata["reader"]
        if rule is not None and f.default is not None:
            assert rule[0](f.default), f.name
        if reader is not None:
            selector, value = reader
            assert selector in table and accepts[selector](value), f.name
    cli.validate_config(cli.ExperimentConfig())


def test_verify_builds_each_event_matrix_once(tmp_path, monkeypatch, capsys):
    calls = []
    build = augmented.build_event_matrices

    def counting(trace, k, *args, **kwargs):
        calls.append(k)
        return build(trace, k, *args, **kwargs)

    monkeypatch.setattr(augmented, "build_event_matrices", counting)
    ini = write_ini(tmp_path, BASE_INI)
    cli.main(["verify", "--config", str(ini), "--out", str(tmp_path)])
    assert "PASS replay_equivalence" in capsys.readouterr().out
    # verify_events = 100 in BASE_INI
    assert calls == list(range(1, 101))


def test_main_run_writes_outputs_and_is_reproducible(tmp_path, capsys):
    ini = write_ini(tmp_path, BASE_INI)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(ini), "--out", str(out_a)]) == 0
    assert cli.main(["run", "--config", str(ini), "--out", str(out_b)]) == 0
    metrics_a = (out_a / "metrics.csv").read_bytes()
    assert metrics_a == (out_b / "metrics.csv").read_bytes()
    lines = metrics_a.decode().splitlines()
    assert lines[0] == "k,node,event_type,err_max,err_mean,y_norm_max"
    assert len(lines) == 150 + 2  # initial row + one per event + header
    constants = (out_a / "constants.txt").read_text()
    for key in ("b_certified", "kappa", "one_minus_c", "zeta_min",
                "eta_max_theory", "mu_times_n_over_kappa"):
        assert key in constants
    # a different seed must change the trajectory
    out_c = tmp_path / "c"
    assert cli.main(["run", "--config", str(ini), "--out", str(out_c),
                     "--seed", "99"]) == 0
    assert metrics_a != (out_c / "metrics.csv").read_bytes()
    capsys.readouterr()


def test_main_verify_multinode_reports_contraction_failure(tmp_path, capsys):
    """On multi-node runs three structural checks hold at machine precision
    while the worst-case product bound fails at t=0 (the identity is farther
    than 2 from rank one whenever the register stack is big enough)."""
    ini = write_ini(tmp_path, BASE_INI)
    code = cli.main(["verify", "--config", str(ini), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_CHECK_FAILED
    assert "PASS stochasticity" in out
    assert "PASS replay_equivalence" in out
    assert "PASS tracking_identity" in out
    assert "FAIL product_contraction_bound" in out
    assert "certified_b" in out


@pytest.mark.parametrize("config", ["quickstart", "marl9"])
def test_verify_fails_replay_on_a_biased_gradient(config, monkeypatch,
                                                  capsys):
    """A +1e-3 bias in every entry of ``mspbe.saddle_gradient``, wherever
    it is bound, shifts the fixed point. The run evaluates G_s z without
    it and the replay with it, so replay_equivalence fails."""
    gradient = mspbe.saddle_gradient
    for module in (augmented, protocol):
        monkeypatch.setattr(module, "saddle_gradient",
                            lambda *args: gradient(*args) + 1e-3)
    code = cli.main(["verify", "--config", config])
    out = capsys.readouterr().out
    assert code == cli.EXIT_CHECK_FAILED
    (line,) = [line for line in out.splitlines()
               if "replay_equivalence" in line]
    assert line.startswith("FAIL replay_equivalence")
    assert float(re.search(r"max deviation (\S+)", line).group(1)) > 1e-9


def test_verify_does_not_import_numpy_ma(tmp_path):
    """A multi-node verify, products included, in a fresh interpreter
    leaves numpy.ma unimported (np.unique without an inverse imports it)."""
    ini = write_ini(tmp_path, BASE_INI)
    probe = ("import sys\n"
             "from asyncsag import cli\n"
             f"cli.main(['verify', '--config', {str(ini)!r}])\n"
             "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "product_contraction" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "False"


def test_cli_leaves_mpmath_unimported(tmp_path):
    """The rate constants run on the standard library's decimal: importing
    the CLI and printing the constants in a fresh interpreter leaves mpmath
    out of sys.modules."""
    ini = write_ini(tmp_path, BASE_INI)
    probe = ("import sys\n"
             "import asyncsag.cli\n"
             "print('mpmath' in sys.modules)\n"
             f"asyncsag.cli.main(['constants', '--config', {str(ini)!r}])\n"
             "print('mpmath' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "one_minus_c" in proc.stdout
    assert (lines[0], lines[-1]) == ("False", "False")


def _nstr_form(value: str) -> str:
    """The mpmath form of an 8-digit report value: mp.nstr of the mantissa
    at 80 digits, "e", the decimal exponent."""
    exp = Decimal(value).adjusted()
    with mp.workdps(80):
        return mp.nstr(mp.mpf(value) / mp.mpf(10) ** exp, 8) + "e" + str(exp)


@pytest.mark.parametrize("value, text", [
    ("1", "1.0e0"), ("100", "1.0e2"), ("1e-5", "1.0e-5"),
    ("1e869", "1.0e869"), ("1e-5213", "1.0e-5213"),
    ("0.5", "5.0e-1"), ("4", "4.0e0"), ("-0.5", "-5.0e-1"),
    ("4.029726e-329", "4.029726e-329"),
    ("2.61274286543e-864", "2.6127429e-864"),
    ("7.4414459999999999999e-5213", "7.441446e-5213"),
])
def test_sci_str_writes_the_mpmath_form(value, text):
    assert cli._sci_str(Decimal(value)) == text == _nstr_form(value)


def test_sci_str_pinned_edges():
    assert cli._sci_str(Decimal(0)) == "0"
    assert cli._sci_str(Decimal("-0")) == "0"
    # a mantissa that rounds up to 10 moves to the next exponent, where
    # the mantissa form alone would read 10.0
    assert cli._sci_str(Decimal("9.99999996e3")) == "1.0e4"
    assert _nstr_form("9.99999996e3") == "10.0e3"
    assert cli._sci_str(Decimal("-9.999999951e-7")) == "-1.0e-6"
    # the eighth digit rounds half to even
    assert cli._sci_str(Decimal("1.00000005")) == "1.0e0"
    assert cli._sci_str(Decimal("1.00000015")) == "1.0000002e0"
    assert cli._sci_str(Decimal("1.000000050001")) == "1.0000001e0"


@pytest.mark.parametrize("command", ["verify", "constants"])
def test_marl9_certifies_b_once(monkeypatch, capsys, command):
    """The replay and the rate constants share one certification of b."""
    calls = []
    certify = simulator.verify_assumption1b

    def counting(trace):
        calls.append(trace)
        return certify(trace)

    monkeypatch.setattr(simulator, "verify_assumption1b", counting)
    monkeypatch.setattr(augmented, "verify_assumption1b", counting)
    cli.main([command, "--config", "marl9"])
    out = capsys.readouterr().out
    assert len(calls) == 1
    assert ("certified_b 76" if command == "verify"
            else "b_certified 76") in out.splitlines()


def test_main_verify_straggler_config(capsys):
    """The bundled straggler config (b = 158, ntilde = 1431): the three
    structural checks pass and the product bound fails at t=0, where the
    identity is sqrt(1430) from rank one."""
    code = cli.main(["verify", "--config", "straggler"])
    lines = capsys.readouterr().out.splitlines()
    assert code == cli.EXIT_CHECK_FAILED
    assert [line.split(":")[0] for line in lines[:3]] == [
        "PASS stochasticity", "PASS replay_equivalence",
        "PASS tracking_identity"]
    assert lines[3:] == [
        "FAIL product_contraction_bound: first failure at t=0: distance "
        "37.8153 > bound 2.0000",
        "certified_b 158"]


def test_main_verify_single_node_passes_everything(tmp_path, capsys):
    text = BASE_INI.replace("n = 3", "n = 1")
    ini = write_ini(tmp_path, text)
    code = cli.main(["verify", "--config", str(ini), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_main_constants_prints_report(tmp_path, capsys):
    ini = write_ini(tmp_path, BASE_INI)
    assert cli.main(["constants", "--config", str(ini),
                     "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("constants report")
    for key in ("alpha", "beta", "psi", "t_tilde", "one_minus_c",
                "rate_valid", "eta2_max_for_eta1"):
        assert key in out


@pytest.mark.parametrize("command", ["verify", "constants"])
def test_verify_and_constants_ignore_out(tmp_path, capsys, monkeypatch,
                                         command):
    """Only run writes to --out: an --out whose parent does not exist
    changes neither the exit code nor the output, and nothing is made."""
    monkeypatch.chdir(tmp_path)
    ini = write_ini(tmp_path, BASE_INI)
    code = cli.main([command, "--config", str(ini)])
    plain = capsys.readouterr()
    out = tmp_path / "missing" / "out"
    assert cli.main([command, "--config", str(ini), "--out", str(out)]) == code
    assert capsys.readouterr() == plain
    assert code == (cli.EXIT_CHECK_FAILED if command == "verify"
                    else cli.EXIT_OK)
    assert [p.name for p in tmp_path.iterdir()] == [ini.name]


@pytest.mark.parametrize("command,swap", [
    ("run", ("max_events = 150", "max_events = 1")),
    ("verify", ("verify_events = 100", "verify_events = 1")),
    ("constants", ("verify_events = 100", "verify_events = 1")),
], ids=["run", "verify", "constants"])
def test_main_assumption_violation_exits_3(tmp_path, capsys, command, swap):
    """A one-event trace of three nodes holds no update of two of them, so
    the certification of b fails."""
    ini = write_ini(tmp_path, BASE_INI.replace(*swap))
    code = cli.main([command, "--config", str(ini), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_ASSUMPTION
    assert re.fullmatch(r"assumption violation: node \d never completed an "
                        r"update in the trace\n", err)


def test_sweep_writes_speedup_table(tmp_path, capsys):
    text = BASE_INI + (
        "\n[experiment]\nn_values = 1 2\neta1_values = 0.01 0.02\n"
        "target_err = 0.1\n"
    )
    ini = write_ini(tmp_path, text)
    out = tmp_path / "sweep"
    assert cli.main(["run", "--config", str(ini), "--out", str(out)]) == 0
    capsys.readouterr()
    table = (out / "speedup.csv").read_text().splitlines()
    assert table[0] == "n,events_to_target,per_node_evals"
    rows = [line.split(",") for line in table[1:]]
    assert [int(r[0]) for r in rows] == [1, 2]
    for r in rows:
        int(r[1])
        float(r[2])
    assert (out / "metrics_n1.csv").exists()
    assert (out / "metrics_n2.csv").exists()


def test_sweep_runs_each_size_as_an_ordinary_run(tmp_path, capsys):
    """Each metrics_n{n}.csv is the metrics.csv of a plain run of the same
    config with n, proportions = 1 ... n and the steps set as the sweep sets
    them, so the sweep honours every key a plain run reads."""
    text = BASE_INI.replace("kind = uniform_random", "kind = round_robin")
    sweep = write_ini(tmp_path, text + "\n[experiment]\nn_values = 1 2\n"
                      "eta1_values = 0.01 0.02\n", name="sweep.ini")
    assert cli.main(["run", "--config", str(sweep),
                     "--out", str(tmp_path / "sweep")]) == 0
    zeta = cli.load_config(sweep).zeta
    for n, eta1 in ((1, 0.01), (2, 0.02)):
        proportions = " ".join(str(float(i + 1)) for i in range(n))
        plain = (text.replace("n = 3", f"n = {n}")
                 .replace("mode = parallel",
                          f"mode = parallel\nproportions = {proportions}")
                 .replace("eta1 = 0.01\neta2 = 0.1",
                          f"eta1 = {eta1!r}\neta2 = {eta1 * zeta!r}"))
        ini = write_ini(tmp_path, plain, name=f"plain{n}.ini")
        out = tmp_path / f"plain{n}"
        assert cli.main(["run", "--config", str(ini), "--out", str(out)]) == 0
        assert ((tmp_path / "sweep" / f"metrics_n{n}.csv").read_bytes()
                == (out / "metrics.csv").read_bytes())
    capsys.readouterr()


def test_edge_list_topology_through_config(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    dump_edge_list(graph.generate_topology("ring", 3), edges)
    text = BASE_INI.replace(
        "kind = ring", f"kind = edge_list\npath = {edges}")
    ini = write_ini(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(ini), "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "metrics.csv").exists()
    # a missing file is a config error, not a crash
    text = BASE_INI.replace(
        "kind = ring", f"kind = edge_list\npath = {tmp_path / 'missing.txt'}")
    with pytest.raises(cli.ConfigError):
        cli.load_config(write_ini(tmp_path, text, name="bad.ini"))
