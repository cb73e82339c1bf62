#!/usr/bin/env python3
"""onlinecover benchmark: four CLI workloads, timed end to end and per layer.

    python3 bench/run.py --workload pd-sparse-general --seed 0 --seconds 30 --trace 0

Run it from anywhere; it finds the package in ``src/`` beside this
directory and refuses to run without it.  The loop is closed with one
client: each command is a fresh interpreter running
``onlinecover.harness.cli_main`` on README-style argv (see
``bench/command.py``), started when the previous one has ended, so a
command's import, set-up and peak memory are those a researcher's shell
invocation pays.  Commands repeat until the next one would end after
``--seconds``.  End-to-end times are the run's means scaled to a nominal
host speed by a fixed reference load timed in every command
(``bench/reference.py``); per-layer figures are medians over the run's
traced commands.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates traced and untraced commands and reports the
per-layer metrics: medians over the traced commands, plus the tracing
overhead against the untraced ones.  Spans go to ``bench/out/``, beside a
results file that records the samples, the checks and the machine.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_S
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Only pd-sparse-general draws its instance from the seed; the other three
# inputs are fixed (the seed still picks the prefixes the triangular check
# re-solves from scratch).
WORKLOADS = {
    "pd-sparse-general":
        "simulate --gen random:1000,0.01 --algo primal-dual --f optimal --seed {seed}",
    "waterfill-prefix-triangular":
        "simulate --gen triangular:500 --algo waterfill --f linear-alpha --prefix",
    "ski-rental-weighted":
        "ski-rental --buy 0,40,100 --rent 2,1,0 --step 1 --t-end 200 --algo waterfill"
        " --f linear-alpha",
    "adversary-alternating": "adversary --budget 3,120 --algo primal-dual --f optimal",
}

# One BLAS thread per command keeps the run within nproc threads and its
# timings independent of the BLAS pool.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_PLAIN = 3        # untraced commands per --trace 0 run
MIN_TRACED = 2       # traced commands per --trace 1 run, compared count for count
MIN_OVERHEAD = 2     # untraced commands per --trace 1 run, for the overhead ratio
COMMAND_TIMEOUT_S = 60
SELF_SUM_TOLERANCE = 0.01  # startup + layer self times vs traced wall time


def run_command(workload: str, argv: list[str], seed: int, traced: bool, run_id: int,
                spans_path: Path, env: dict) -> dict:
    """Run one command in a fresh interpreter; return its sample."""
    spec = {"workload": workload, "argv": argv, "seed": seed, "trace": traced,
            "run_id": run_id, "spans_path": str(spans_path)}
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "command.py"), json.dumps(spec)],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=COMMAND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "failure": f"timed out after {COMMAND_TIMEOUT_S} s"}
    t_end = time.perf_counter()
    sample: dict = {"traced": traced, "elapsed_s": t_end - t_spawn}
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sample["failure"] = f"exit {proc.returncode}, no report; stderr: {proc.stderr[-2000:]}"
        return sample
    sample["report"] = report
    failed_checks = [c for c in report["checks"] if not c[1]]
    if proc.returncode != 0 or report["error"] or report["exit_code"] != 0:
        sample["failure"] = (f"exit {proc.returncode}, cli exit {report['exit_code']}: "
                             f"{report['error'] or proc.stderr[-2000:]}")
    elif not report["checks"] or failed_checks:
        sample["failure"] = f"output checks failed: {failed_checks}"
    elif report["t_first_step"] is None or report["arrivals"] < 1:
        sample["failure"] = "no arrival was stepped"
    if "failure" in sample:
        return sample
    wall = report["t_done"] - t_spawn
    setup = report["t_first_step"] - t_spawn
    sample.update(
        wall_s=wall,
        setup_s=setup,
        arrivals_per_s=report["arrivals"] / (wall - setup),
        peak_rss_mib=report["maxrss_kib"] / 1024.0,
        ref_s=report["ref_s"],
    )
    if traced:
        cli_start = report["t_cli_span"][0]
        layer = dict(report["layer"])
        layer["startup.import_s"] = cli_start - t_spawn
        accounted = layer["startup.import_s"] + sum(layer[f"{name}.self_s"] for name in LAYERS)
        layer["trace.self_sum_ratio"] = accounted / wall
        sample["layer"] = layer
    return sample


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Closed loop: start each command when the previous one has ended."""
    argv = WORKLOADS[workload].format(seed=seed).split()
    env = {**os.environ, **THREAD_ENV}
    env.pop("PYTHONPATH", None)
    spans_path = OUT / f"{workload}-seed{seed}.spans.jsonl"
    if trace:
        spans_path.unlink(missing_ok=True)
    samples: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced_n = sum(1 for s in samples if s["traced"])
        plain_n = len(samples) - traced_n
        if trace:
            done = traced_n >= MIN_TRACED and plain_n >= MIN_OVERHEAD
            traced = traced_n <= plain_n
        else:
            done = plain_n >= MIN_PLAIN
            traced = False
        if done and time.perf_counter() - start + longest > seconds:
            return samples
        samples.append(run_command(workload, argv, seed, traced, len(samples), spans_path, env))
        longest = max(longest, samples[-1].get("elapsed_s", 0.0))
        if "failure" in samples[-1] and not any("failure" not in s for s in samples):
            return samples  # the first commands all failed: do not retry for the whole run


def end_to_end(plain: list[dict]) -> dict:
    """A run's untraced commands, timed at the nominal host speed.

    On a shared host the speed of a command drifts by up to a factor of two
    over minutes, in CPU time as much as in wall time, and within seconds
    it jumps between speeds far apart.  The fixed reference load each
    command times right after itself moves with the host, so the run's mean
    times are scaled by ``NOMINAL_S`` over its mean reference time: means,
    because they weigh every speed the host ran at by the time spent at it,
    for the commands and the reference alike.
    """
    scale = NOMINAL_S / statistics.fmean(s["ref_s"] for s in plain)
    wall = statistics.fmean(s["wall_s"] for s in plain) * scale
    setup = statistics.fmean(s["setup_s"] for s in plain) * scale
    arrivals = statistics.fmean(s["report"]["arrivals"] for s in plain)
    return {
        "wall_s": wall,
        "setup_s": setup,
        "arrivals_per_s": arrivals / (wall - setup),
        "peak_rss_mib": statistics.median(s["peak_rss_mib"] for s in plain),
    }


def machine(samples: list[dict], seed: int) -> dict:
    report = next((s["report"] for s in samples if "report" in s), {})
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": report.get("numpy"),
        "scipy": report.get("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "seed": seed,
        "blas_threads": THREAD_ENV,
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        return (git / head[5:]).read_text().strip()
    except OSError:
        return None


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "onlinecover"
    if not (package / "harness.py").is_file():
        print(f"error: the onlinecover sources are missing ({package})", file=sys.stderr)
        return 2
    units = declared_metrics()[args.trace]
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(package, quiet=1)  # no command pays for byte-compiling

    samples = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    ok = [s for s in samples if "failure" not in s]
    for s in samples:
        if "failure" in s:
            print(f"command failed: {s['failure']}", file=sys.stderr)
    plain = [s for s in ok if not s["traced"]]
    traced = [s for s in ok if s["traced"]]
    run_checks = []
    if args.trace:
        # traced and untraced commands alternate; pairing neighbours keeps
        # the host's drift out of the overhead ratio
        pairs = [(a["wall_s"], b["wall_s"]) for a, b in zip(samples[::2], samples[1::2])
                 if "failure" not in a and "failure" not in b]
        if not traced or not pairs:
            print("error: no traced command succeeded next to an untraced one", file=sys.stderr)
            return 1
        metrics = {
            name: statistics.median(s["layer"][name] for s in traced)
            for name in traced[0]["layer"]
        }
        metrics["trace.overhead_ratio"] = statistics.median(a / b for a, b in pairs) - 1.0
        counts = [s["report"]["counts"] for s in traced]
        run_checks.append(["traced commands give identical counts",
                           len(counts) >= MIN_TRACED and all(c == counts[0] for c in counts)])
        worst = max(abs(s["layer"]["trace.self_sum_ratio"] - 1.0) for s in traced)
        run_checks.append([f"layer self times sum to traced wall within {SELF_SUM_TOLERANCE}",
                           worst <= SELF_SUM_TOLERANCE])
    else:
        if not plain:
            print("error: no command succeeded", file=sys.stderr)
            return 1
        metrics = end_to_end(plain)
    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)} but BENCHMARK.json declares {sorted(units)}",
              file=sys.stderr)
        return 1

    attempted, failed = len(samples), len(samples) - len(ok)
    correct = failed == 0 and all(passed for _, passed in run_checks)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": args.workload,
        "command": WORKLOADS[args.workload].format(seed=args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(samples, args.seed),
        "run_checks": run_checks,
        "samples": samples,
        "result": result,
    }
    results_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    if not args.trace:
        print(f"unscaled means: reference {statistics.fmean(s['ref_s'] for s in plain):.6g} s"
              f" (nominal {NOMINAL_S} s), "
              + ", ".join(f"{name} {statistics.fmean(s[name] for s in plain):.6g} s"
                          for name in ("wall_s", "setup_s")))
    print(f"failed_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} commands)")
    for name, passed in run_checks:
        print(f"check {'ok' if passed else 'FAILED'}: {name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
