"""Run one onlinecover CLI command in a fresh interpreter and report on it.

    python3 bench/command.py '<json spec>'

The spec gives the workload name, the CLI argv, the seed, whether to
trace, and where to append spans.  The command goes through
``onlinecover.harness.cli_main`` exactly as the console script would run
it.  Around it this file only reads the clock when the first arrival is
stepped, keeps the objects three public entry points return (for the
output checks), and, when tracing, installs the span recorder.  After the
command it times the fixed load of ``bench/reference.py``, which tells
the parent how fast the host ran just then.

The last line of standard output is a JSON report.  Its timestamps come
from ``time.perf_counter``, which on Linux reads CLOCK_MONOTONIC and so
compares across processes: the parent subtracts its own spawn time.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_package() -> SimpleNamespace:
    """The package's modules, refusing a copy installed anywhere but src/."""
    sys.path.insert(0, str(SRC))
    from onlinecover import allocation, engine, harness, oracle

    if not Path(harness.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"onlinecover imported from {harness.__file__}, not from {SRC}")
    return SimpleNamespace(allocation=allocation, engine=engine, harness=harness, oracle=oracle)


def _capture(owner, attr: str, keep):
    """Replace owner.attr by a wrapper that passes (args, kwargs, result) to keep."""
    fn = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        keep(args, kwargs, result)
        return result

    setattr(owner, attr, wrapper)


def _first_step_probe(engine, mark):
    """Record the clock at the first water-filling step, then step aside."""
    step = engine.greedy_allocation_step

    def probe(*args, **kwargs):
        mark.append(time.perf_counter())
        engine.greedy_allocation_step = step
        return step(*args, **kwargs)

    engine.greedy_allocation_step = probe


def main() -> int:
    spec = json.loads(sys.argv[1])
    pkg = _import_package()
    import numpy
    import scipy

    import checks

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, pkg.allocation, pkg.engine, pkg.harness, pkg.oracle)

    captured: dict = {}
    _capture(pkg.engine, "run_stream", lambda a, kw, r: captured.__setitem__(
        "run_stream", (a[0], a[2] if len(a) > 2 else kw.get("func"), r)))
    _capture(pkg.oracle, "prefix_optimal_values", lambda a, kw, r: captured.__setitem__(
        "prefix_optimal_values", (a[0], r)))
    _capture(pkg.harness, "adaptive_adversary_vc", lambda a, kw, r: captured.__setitem__(
        "adaptive_adversary_vc", r))
    first_step: list[float] = []
    _first_step_probe(pkg.engine, first_step)

    cli = pkg.harness.cli_main if tracer is None else tracer.span("harness.cli_main",
                                                                  pkg.harness.cli_main)
    out = io.StringIO()
    error = None
    with contextlib.redirect_stdout(out):
        try:
            exit_code = cli(spec["argv"])
        except Exception:
            exit_code, error = None, traceback.format_exc()
    t_done = time.perf_counter()
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
    import reference

    ref_s = reference.reference_s()  # the host's speed right after the command

    if "adaptive_adversary_vc" in captured:
        stream = captured["adaptive_adversary_vc"].transcript
    elif "run_stream" in captured:
        stream = captured["run_stream"][0]
    else:
        stream = None
    report = {
        "exit_code": exit_code,
        "error": error,
        "t_first_step": first_step[0] if first_step else None,
        "t_done": t_done,
        "maxrss_kib": maxrss_kib,
        "ref_s": ref_s,
        "arrivals": len(stream) if stream is not None else 0,
        "edges": stream.edge_count() if stream is not None else 0,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "checks": [],
    }
    if exit_code == 0 and error is None:
        summary = checks.parse_summary(out.getvalue())
        try:
            for name, passed, detail in checks.CHECKS[spec["workload"]](
                pkg, captured, summary, spec["seed"]
            ):
                report["checks"].append([name, bool(passed), repr(detail)])
        except Exception:
            report["error"] = "output check raised:\n" + traceback.format_exc()
    if tracer is not None:
        layer, counts = tracer.layer_figures(report["arrivals"])
        layer["instance.arrivals"] = report["arrivals"]
        layer["instance.edges"] = report["edges"]
        report["layer"], report["counts"] = layer, counts
        report["t_cli_span"] = tracer.spans[0][1:3]  # the outermost span, cli_main
        tracer.write_spans(spec["spans_path"], spec["run_id"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
