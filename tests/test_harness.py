"""Tests for the experiment harness, adversaries, and CLI."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import onlinecover
from onlinecover import engine, oracle
from onlinecover.allocation import ALPHA, AllocationFunction, optimal_k
from onlinecover.errors import LengthMismatch, ValidationError
from onlinecover.harness import (
    AdversaryBudget,
    ExperimentConfig,
    adaptive_adversary_vc,
    cli_main,
    engine_algorithm,
    resolve_allocation,
    resolve_generator,
    run_experiment,
    run_ski_rental,
    validate_generator_spec,
    worst_prefix_ratio,
)
from onlinecover.instance import (
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
            validate_generator_spec(bad)


def test_experiment_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig(instance_source="gen:warp:9")
    with pytest.raises(ValidationError):
        ExperimentConfig(instance_source="gen:triangular:5", eps=-1.0)


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
    assert costs == [row.cover_cost for row in res.trace.rows]


def test_worst_prefix_ratio_semantics():
    stream = resolve_generator("complete:10,1000")
    trace = engine.run_stream(stream, "waterfill", LIN)
    opts = oracle.prefix_optimal_values(stream)
    worst = worst_prefix_ratio(trace, opts, "cover")
    final = oracle.competitive_ratio(trace, opts, "cover", "final")
    assert worst > final  # long tails of free arrivals dilute the final ratio
    assert worst <= 1.0 + ALPHA + 1e-6


def test_worst_prefix_ratio_constant_and_empty():
    stream = resolve_generator("complete:2,3")
    trace = engine.run_stream(stream, "waterfill", LIN)
    assert worst_prefix_ratio(trace, [1.0] * 5, "cover") == max(
        r.cover_cost for r in trace.rows
    )
    empty = engine.run_stream(parse_instance("offline 0\n"), "waterfill", LIN)
    with pytest.raises(LengthMismatch):
        worst_prefix_ratio(empty, [], "cover")


# ---------------------------------------------------------------- adversary


def test_adversary_budget_validation():
    with pytest.raises(ValidationError):
        AdversaryBudget(phases=0, offline_d=5)
    with pytest.raises(ValidationError):
        AdversaryBudget(phases=1, offline_d=5, convergence_threshold=1.5)
    assert AdversaryBudget(phases=1, offline_d=5).per_phase_cap == 100


def test_adversary_one_phase_hits_tight_ratio():
    budget = AdversaryBudget(phases=1, offline_d=100, per_phase_cap=400)
    out = adaptive_adversary_vc(budget, engine_algorithm("waterfill", LIN))
    assert 1.50 <= out.ratio <= 1.0 + ALPHA + 1e-6


def test_adversary_two_phase_trend_and_floor():
    ratios = []
    for d in (30, 60, 120):
        budget = AdversaryBudget(phases=2, offline_d=d, per_phase_cap=20 * d)
        out = adaptive_adversary_vc(budget, engine_algorithm("waterfill", FK))
        assert not out.budget_exhausted
        ratios.append(out.ratio)
    # approaches the algorithm's worst case from below as the budget grows
    assert ratios[0] >= 1.60
    assert ratios[1] >= ratios[0] - 1e-3
    assert ratios[2] >= ratios[1] - 1e-3
    assert max(ratios) <= 1.9011


def test_adversary_three_phase_runs():
    budget = AdversaryBudget(phases=3, offline_d=40, per_phase_cap=800)
    out = adaptive_adversary_vc(budget, engine_algorithm("waterfill", FK))
    assert out.ratio >= 1.60
    assert len(out.phase_sizes) == 3


def test_adversary_transcript_replays():
    budget = AdversaryBudget(phases=2, offline_d=25, per_phase_cap=250)
    out = adaptive_adversary_vc(budget, engine_algorithm("waterfill", FK))
    text = serialize_instance(out.transcript)
    replayed = parse_instance(text)
    trace = engine.run_stream(replayed, "waterfill", FK)
    opts = oracle.prefix_optimal_values(replayed)
    assert worst_prefix_ratio(trace, opts, "cover") == pytest.approx(out.ratio, abs=1e-12)


def test_adversary_budget_exhaustion_is_reported():
    budget = AdversaryBudget(
        phases=2, offline_d=20, per_phase_cap=25, convergence_threshold=0.999
    )
    out = adaptive_adversary_vc(budget, engine_algorithm("waterfill", FK))
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
    ],
)
def test_cli_malformed_input_is_usage_error(argv, tmp_path):
    """Usage errors exit 2 with one `error:` line, never a traceback."""
    argv = [
        a.format(missing=tmp_path / "no-such-file.txt", missing_dir=tmp_path / "no-such-dir")
        for a in argv
    ]
    src = str(Path(onlinecover.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "onlinecover.harness", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1


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
