"""Tests for the experiment harness, adversaries, and CLI."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import onlinecover
from onlinecover import engine, oracle
from onlinecover.allocation import ALPHA, AllocationFunction, optimal_k
from onlinecover.errors import LengthMismatch, ValidationError
from onlinecover.harness import (
    AdversaryBudget,
    ExperimentConfig,
    adaptive_adversary_vc,
    cli_main,
    parse_generator_spec,
    resolve_allocation,
    resolve_generator,
    run_experiment,
    run_ski_rental,
)
from onlinecover.instance import (
    MAX_ARRIVALS,
    RANDOM_MODES,
    SkiRentalSpec,
    parse_instance,
    serialize_instance,
    ski_rental_strategy_optimum,
)

FK = optimal_k(1e-8).func()
LIN = AllocationFunction.linear_alpha()


# ---------------------------------------------------------------- resolvers


def test_resolve_allocation_forms():
    assert resolve_allocation("linear-alpha").kind == "linear-alpha"
    assert resolve_allocation("greedy").kind == "greedy"
    assert resolve_allocation("family-k:1.3").k == 1.3
    opt = resolve_allocation("optimal")
    assert abs(opt.k - 1.19967864) < 1e-5
    with pytest.raises(ValidationError):
        resolve_allocation("cubic")


def test_resolve_generator_specs():
    assert len(resolve_generator("triangular:5")) == 10
    assert len(resolve_generator("complete:3,4")) == 7
    assert len(resolve_generator("two-phase:2")) == 8
    assert len(resolve_generator("random:9,0.5", seed=1)) == 9
    for bad in ("nonsense:5", "triangular", "complete:3", "random:5,2x"):
        with pytest.raises(ValidationError):
            parse_generator_spec(bad)


def test_random_mode_error_names_the_modes(capsys):
    modes = "general, bipartite_one_sided, bipartite_alternating"
    with pytest.raises(ValidationError, match=modes):
        ExperimentConfig(instance_source="gen:random:10,0.3,weird")
    assert cli_main(["simulate", "--gen", "random:10,0.3,weird"]) == 2
    assert "bipartite_alternating" in capsys.readouterr().err


def test_experiment_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig(instance_source="gen:warp:9")


# -------------------------------------------------------------- experiments


def test_run_experiment_random_primal_dual():
    cfg = ExperimentConfig(
        instance_source="gen:random:200,0.1",
        algo="primal-dual",
        f_spec="optimal",
        seed=7,
    )
    res = run_experiment(cfg)
    assert res.summary["cover_ratio"] <= 1.9011
    assert res.summary["matching_ratio"] >= 0.5259
    assert res.summary["max_inv1_slack"] < 1e-8
    assert res.summary["max_inv2_slack"] < 1e-8


def test_run_experiment_prefix_bound():
    cfg = ExperimentConfig(
        instance_source="gen:complete:100,1000",
        algo="waterfill",
        f_spec="linear-alpha",
        prefix_mode=True,
    )
    res = run_experiment(cfg)
    assert res.summary["cover_ratio"] <= 1.5820


def test_run_experiment_csv_reparses(tmp_path):
    out = tmp_path / "run.csv"
    cfg = ExperimentConfig(
        instance_source="gen:random:25,0.3",
        algo="primal-dual",
        f_spec="family-k:1.1996786402577338",
        seed=3,
        output=str(out),
    )
    res = run_experiment(cfg)
    text = out.read_text()
    assert text == res.csv_text
    lines = [ln for ln in text.strip().split("\n")]
    assert lines[0].startswith("step,vertex,level,")
    assert lines[-1].startswith("#summary,")
    data = [ln.split(",") for ln in lines[1:-1]]
    assert len(data) == 25
    costs = [float(r[3]) for r in data]
    assert costs == [row.cover_cost for row in res.algorithm.rows]


def test_worst_prefix_ratio_semantics():
    stream = resolve_generator("complete:10,1000")
    trace = engine.run_stream(stream, "waterfill", LIN)
    opts = oracle.prefix_optimal_values(stream)
    ratios = oracle.prefix_ratios([r.cover_cost for r in trace.rows], opts)
    worst, final = ratios.max(), ratios[-1]
    assert worst > final  # long tails of free arrivals dilute the final ratio
    assert worst <= 1.0 + ALPHA + 1e-6


def test_worst_prefix_ratio_constant_and_empty():
    stream = resolve_generator("complete:2,3")
    trace = engine.run_stream(stream, "waterfill", LIN)
    costs = [r.cover_cost for r in trace.rows]
    assert oracle.prefix_ratios(costs, [1.0] * 5).max() == max(costs)
    empty = engine.run_stream(parse_instance("offline 0\n"), "waterfill", LIN)
    with pytest.raises(LengthMismatch):
        oracle.prefix_ratios([r.cover_cost for r in empty.rows], [])


# ---------------------------------------------------------------- adversary


def test_adversary_budget_validation():
    with pytest.raises(ValidationError):
        AdversaryBudget(phases=0, offline_d=5)
    with pytest.raises(ValidationError):
        AdversaryBudget(phases=1, offline_d=5, convergence_threshold=1.5)
    assert AdversaryBudget(phases=1, offline_d=5).per_phase_cap == 100
    AdversaryBudget(phases=3, offline_d=10, per_phase_cap=(MAX_ARRIVALS - 10) // 3)
    with pytest.raises(ValidationError):
        AdversaryBudget(phases=3, offline_d=11, per_phase_cap=(MAX_ARRIVALS - 10) // 3)


ADVERSARY_CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from onlinecover.harness import cli_main
sys.exit(cli_main(["adversary", "--budget", "3,1000000000"]))
"""


def test_adversary_budget_beyond_the_arrival_cap_is_usage_error():
    """d = 10^9 and three phases of 20 d would size the engine for 6.1e10
    arrivals (454 GiB); with 1 GiB of address space the run must still end
    with a usage error, not a MemoryError."""
    src = str(Path(onlinecover.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", ADVERSARY_CAPPED],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1


def test_adversary_one_phase_hits_tight_ratio():
    budget = AdversaryBudget(phases=1, offline_d=100, per_phase_cap=400)
    out = adaptive_adversary_vc(budget, "waterfill", LIN)
    assert 1.50 <= out.ratio <= 1.0 + ALPHA + 1e-6


def test_adversary_two_phase_trend_and_floor():
    ratios = []
    for d in (30, 60, 120):
        budget = AdversaryBudget(phases=2, offline_d=d, per_phase_cap=20 * d)
        out = adaptive_adversary_vc(budget, "waterfill", FK)
        assert not out.budget_exhausted
        ratios.append(out.ratio)
    # approaches the algorithm's worst case from below as the budget grows
    assert ratios[0] >= 1.60
    assert ratios[1] >= ratios[0] - 1e-3
    assert ratios[2] >= ratios[1] - 1e-3
    assert max(ratios) <= 1.9011


def test_adversary_three_phase_runs():
    budget = AdversaryBudget(phases=3, offline_d=40, per_phase_cap=800)
    out = adaptive_adversary_vc(budget, "waterfill", FK)
    assert out.ratio >= 1.60
    assert len(out.phase_sizes) == 3


@pytest.mark.parametrize("algo", ["waterfill", "primal-dual"])
def test_adversary_transcript_replays(algo):
    budget = AdversaryBudget(phases=2, offline_d=25, per_phase_cap=250)
    out = adaptive_adversary_vc(budget, algo, FK)
    text = serialize_instance(out.transcript)
    replayed = parse_instance(text)
    trace = engine.run_stream(replayed, algo, FK)
    opts = oracle.prefix_optimal_values(replayed)
    ratio = oracle.prefix_ratios([r.cover_cost for r in trace.rows], opts).max()
    assert ratio == pytest.approx(out.ratio, abs=1e-12)
    # the adversary's steps carry the same monitored rows as a replay
    assert out.algorithm.rows == trace.rows


def test_adversary_four_phases_default_sizing():
    budget = AdversaryBudget(phases=4, offline_d=10, per_phase_cap=100)
    out = adaptive_adversary_vc(budget, "primal-dual", FK)
    assert len(out.phase_sizes) == 4
    assert 1.0 <= out.ratio <= 1.9011


def test_adversary_budget_exhaustion_is_reported():
    budget = AdversaryBudget(
        phases=2, offline_d=20, per_phase_cap=25, convergence_threshold=0.999
    )
    out = adaptive_adversary_vc(budget, "waterfill", FK)
    assert out.budget_exhausted
    assert "budget-exhausted" in out.transcript.description


# --------------------------------------------------------------- ski rental


def test_ski_rental_classical_run():
    spec = SkiRentalSpec(states=((0.0, 1.0), (100.0, 0.0)), epsilon=1.0, t_end=300.0)
    report = run_ski_rental(spec)
    assert report.worst_prefix_cover_ratio <= 1.5820
    assert report.sentinel_potential == 0.0
    assert report.reduced_optimum == pytest.approx(report.strategy_optimum, abs=1e-9)
    assert report.zero_weight_arrivals == 300


def test_ski_rental_multislope_optimum_matches_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(3):
        n = int(rng.integers(2, 5))
        buys = np.concatenate(([0.0], np.sort(rng.integers(1, 40, n - 1)))).astype(float)
        rents = np.sort(rng.integers(0, 10, n))[::-1].astype(float)
        spec = SkiRentalSpec(
            states=tuple(zip(buys, rents)),
            epsilon=1.0,
            t_end=float(rng.integers(3, 15)),
        )
        report = run_ski_rental(spec)
        assert report.reduced_optimum == pytest.approx(
            ski_rental_strategy_optimum(spec), abs=1e-9
        )


# --------------------------------------------------------------------- CLI


def test_cli_optimize_f(capsys):
    assert cli_main(["optimize-f", "--tol", "1e-6"]) == 0
    out = capsys.readouterr().out
    k = float(out.split("k = ")[1].split("\n")[0])
    beta = float(out.split("beta = ")[1].split("\n")[0])
    assert 1.1992 <= k <= 1.2002
    assert 1.9001 <= beta <= 1.9011


def test_cli_verify(capsys):
    assert cli_main(["verify", "--suite", "identities"]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_simulate(capsys, tmp_path):
    out = tmp_path / "t.csv"
    code = cli_main(
        [
            "simulate",
            "--gen",
            "triangular:50",
            "--algo",
            "primal-dual",
            "--f",
            "optimal",
            "--csv",
            str(out),
        ]
    )
    assert code == 0
    assert "#summary" in capsys.readouterr().out
    assert out.read_text().startswith("step,vertex,level")


def test_cli_usage_errors():
    assert cli_main(["simulate", "--gen", "warp:9"]) == 2
    assert cli_main(["simulate"]) == 2  # missing source
    assert cli_main(["adversary", "--budget", "xyz"]) == 2
    assert cli_main(["no-such-command"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--gen", "triangular:3", "--f", "family-k:abc"],
        ["simulate", "--gen", "triangular:3", "--f", "family-k:inf"],
        ["ski-rental", "--buy", "0,x", "--rent", "1,0", "--t-end", "3"],
        ["simulate", "--input", "{missing}"],
        ["simulate", "--gen", "triangular:3", "--csv", "{missing_dir}/run.csv"],
        ["adversary", "--budget", "3,5", "--trial-beta", "0.5"],
        ["adversary", "--budget", "3,5", "--trial-beta", "0.7071067811865475"],
        ["adversary", "--budget", "3,5", "--trial-beta", "nan"],
        ["adversary", "--budget", "3,5", "--trial-beta", "inf"],
        ["ski-rental", "--buy", "0,4", "--rent", "1,0", "--t-end", "inf"],
        ["ski-rental", "--buy", "0,4", "--rent", "1,0", "--t-end", "nan"],
        ["ski-rental", "--buy", "0,4", "--rent", "1,0", "--t-end", "3", "--step", "nan"],
        ["adversary", "--budget", "xyz"],
        ["ski-rental", "--buy", "0,4,5", "--rent", "1,0", "--t-end", "3"],
        ["adversary", "--budget", "2,5,7,99", "--algo", "waterfill", "--f", "linear-alpha"],
        ["simulate", "--input", "{overflow}"],
        ["simulate", "--gen", "random:5,0.5", "--seed", "-1"],
        ["optimize-f", "--tol", "nan"],
        ["optimize-f", "--tol", "inf"],
        ["optimize-f", "--tol", "1e-300"],  # below the 1e-9 floor
        ["simulate", "--input", "{huge}", "--algo", "waterfill", "--f", "linear-alpha"],
    ],
)
def test_cli_malformed_input_is_usage_error(argv, tmp_path, capsys):
    """Usage errors exit 2 with one `error:` line and raise nothing."""
    overflow = tmp_path / "overflow.txt"  # a neighbour id beyond int64
    overflow.write_text("offline 0\n0 1 - 0\n1 1 - 1 99999999999999999999\n")
    huge = tmp_path / "huge.txt"  # K4 of weight 1e308: its total weight is no float
    huge.write_text("offline 0\n" + "".join(
        f"{j} 1e308 - {j} {' '.join(map(str, range(j)))}\n" for j in range(4)))
    argv = [
        a.format(missing=tmp_path / "no-such-file.txt", missing_dir=tmp_path / "no-such-dir",
                 overflow=overflow, huge=huge)
        for a in argv
    ]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


# flag values: small ints, negatives, non-finite numbers, empty and junk
TOKENS = st.sampled_from(["0", "1", "2", "3", "-1", "-7", "0.5", "nan", "inf", "-inf", "", "x", ","])


def _ints(lo, hi):
    return st.one_of(st.integers(lo, hi).map(str), TOKENS)


def _numbers(*good):
    return st.one_of(st.sampled_from(good), TOKENS)


def _listed(element, size):
    return st.lists(element, min_size=1, max_size=size).map(",".join)


_GEN_SPEC = st.one_of(
    st.tuples(st.sampled_from(["triangular", "two-phase"]), _ints(-1, 20)),
    st.tuples(st.just("complete"), _listed(_ints(-1, 10), 3)),
    st.tuples(
        st.just("random"),
        st.tuples(
            _ints(-1, 20), _numbers("0.2", "0.5", "1"), st.sampled_from(RANDOM_MODES + ("x",))
        ).map(",".join),
    ),
    st.tuples(st.sampled_from(["warp", ""]), TOKENS),
).map(":".join)
_ALGO = st.sampled_from(["waterfill", "primal-dual", "greedy", "x"])
_F = st.one_of(
    st.sampled_from(["linear-alpha", "greedy", "optimal", "x"]), TOKENS.map("family-k:{}".format)
)

# per command: (required flags, optional flags); None is a flag without a
# value.  Instances stay small: n <= 20, adversary phases of at most 60
# arrivals, at most 6 ski-rental intervals (t-end <= 3, step >= 0.5)
CLI_FLAGS = {
    "simulate": (
        {"--gen": _GEN_SPEC},
        {"--prefix": st.none(), "--algo": _ALGO, "--f": _F, "--seed": _ints(-3, 5)},
    ),
    "optimize-f": ({}, {"--tol": _numbers("1e-6", "1e-3", "0.1")}),
    "verify": ({}, {"--suite": st.sampled_from(["identities", "x"])}),
    "adversary": (
        {"--budget": _listed(_ints(-1, 3), 4)},
        {
            "--threshold": _numbers("0.9", "0.5"),
            "--trial-beta": _numbers("0.753", "0.8", "1.5"),
            "--algo": _ALGO,
            "--f": _F,
        },
    ),
    "ski-rental": (
        {
            "--buy": _listed(_numbers("0", "1", "4"), 3),
            "--rent": _listed(_numbers("2", "1", "0"), 3),
            "--t-end": _numbers("1", "3"),
        },
        {"--step": _numbers("0.5", "1"), "--algo": _ALGO, "--f": _F},
    ),
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(CLI_FLAGS)))
    required, optional = CLI_FLAGS[command]
    flags = sorted(required) + draw(st.lists(st.sampled_from(sorted(optional)), unique=True))
    argv = [command]
    for flag in flags:
        argv.append(flag)
        value = draw({**required, **optional}[flag])
        if value is not None:
            argv.append(value)
    return argv


@given(argv=cli_argv())
@example(argv=["simulate", "--gen", "random:5,0.5", "--seed", "-1"])
@example(argv=["optimize-f", "--tol", "nan"])
@example(argv=["ski-rental", "--buy", "0,4", "--rent", "1,0", "--t-end", "1e9", "--step", "1e-9"])
@settings(max_examples=300, deadline=None)
def test_cli_fuzz_exit_code_contract(argv):
    """Any argv exits 0, 1 or 2 and no exception escapes ``cli_main``; a
    successful ``optimize-f`` met its own cross-check within 10 * tol."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    assert code in (0, 1, 2)
    if argv[0] == "optimize-f" and code == 0:
        tol = float(argv[2]) if len(argv) > 1 else 1e-6
        agreement = float(out.getvalue().rsplit("agreement ", 1)[1].rstrip(")\n"))
        assert agreement <= 10.0 * tol


def test_cli_module_usage_error_has_no_traceback(tmp_path):
    src = str(Path(onlinecover.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "onlinecover.harness", "simulate", "--input",
         str(tmp_path / "no-such-file.txt")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1


def test_cli_has_no_eps_option(capsys):
    # the level tolerance is the engine constant LEVEL_EPS
    for argv in (
        ["simulate", "--gen", "triangular:3"],
        ["adversary", "--budget", "2,5"],
        ["ski-rental", "--buy", "0,4", "--rent", "1,0", "--t-end", "3"],
    ):
        assert cli_main([*argv, "--eps", "1e-10"]) == 2
        assert "unrecognized arguments: --eps" in capsys.readouterr().err


def test_cli_greedy_baseline(capsys):
    assert cli_main(["simulate", "--gen", "random:40,0.2", "--algo", "greedy"]) == 0
    assert "matching_ratio" in capsys.readouterr().out


def test_cli_invariant_violation_exit_code(monkeypatch, capsys):
    import onlinecover.harness as hmod
    from onlinecover.errors import InvariantViolation

    def boom(config):
        raise InvariantViolation("synthetic failure", vertex=0, slack=1.0)

    monkeypatch.setattr(hmod, "run_experiment", boom)
    assert cli_main(["simulate", "--gen", "triangular:3"]) == 1
    assert "invariant violation" in capsys.readouterr().err


def test_cli_adversary_and_transcript(capsys, tmp_path):
    path = tmp_path / "transcript.txt"
    code = cli_main(
        [
            "adversary",
            "--budget",
            "1,30,90",
            "--algo",
            "waterfill",
            "--f",
            "linear-alpha",
            "--csv",
            str(path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("#summary,ratio=")
    replay = parse_instance(path.read_text())
    assert len(replay) == 120


def test_cli_ski_rental(capsys):
    code = cli_main(
        [
            "ski-rental",
            "--buy",
            "0,20",
            "--rent",
            "1,0",
            "--step",
            "1",
            "--t-end",
            "50",
            "--algo",
            "waterfill",
            "--f",
            "linear-alpha",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "worst_prefix_cover_ratio=" in out
    assert "sentinel_potential=0.0" in out
