"""Experiment harness and CLI.

Subcommands: ``simulate`` (run an algorithm over a generated or loaded
instance and report ratios), ``optimize-f`` (solve for the best family
member), ``verify`` (identity/residual suite), ``adversary`` (adaptive
alternation lower-bound surrogates), ``ski-rental`` (reduction runs).

Exit codes: 0 success, 1 invariant violation or failed verification,
2 usage error (including malformed numbers and unreadable or unwritable
files).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import allocation, engine, oracle
from .allocation import AllocationFunction
from .errors import InvariantViolation, OnlineCoverError, ValidationError
from .instance import (
    MAX_ARRIVALS,
    RANDOM_MODES,
    InstanceStream,
    Side,
    SkiRentalSpec,
    VertexEvent,
    gen_complete_bipartite,
    gen_random,
    gen_triangular,
    gen_two_phase_matching_hard,
    parse_instance,
    reduce_ski_rental,
    serialize_instance,
    ski_rental_strategy_optimum,
)


# ---------------------------------------------------------------- resolvers


def resolve_allocation(f_spec: str) -> AllocationFunction:
    """Map a CLI selector to an allocation function.

    ``optimal`` solves for the best family member first.
    """
    if f_spec == "linear-alpha":
        return AllocationFunction.linear_alpha()
    if f_spec == "greedy":
        return AllocationFunction.greedy()
    if f_spec == "optimal":
        return allocation.optimal_k(1e-8).func()
    if f_spec.startswith("family-k:"):
        try:
            k = float(f_spec.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad allocation selector {f_spec!r}: k must be a number") from None
        return AllocationFunction.family(k)
    raise ValidationError(f"unknown allocation selector {f_spec!r}")


def _random_mode(text: str) -> str:
    if text not in RANDOM_MODES:
        raise ValueError(f"mode must be one of {', '.join(RANDOM_MODES)}, got {text!r}")
    return text


# name -> (builder taking the seed first, parameter types, required count)
_GENERATORS = {
    "triangular": (lambda seed, n: gen_triangular(n), (int,), 1),
    "complete": (lambda seed, d, m: gen_complete_bipartite(d, m), (int, int), 2),
    "two-phase": (lambda seed, n: gen_two_phase_matching_hard(n), (int,), 1),
    "random": (
        lambda seed, n, p, mode="general": gen_random(n, p, seed, mode),
        (int, float, _random_mode),
        2,
    ),
}


def parse_generator_spec(spec: str):
    """Parse a `name:params` --gen spec into a builder from seed to stream.

    Malformed specs raise ValidationError before anything is built.
    """
    name, _, params = spec.partition(":")
    if name not in _GENERATORS:
        raise ValidationError(f"unknown generator {name!r}")
    build, types, required = _GENERATORS[name]
    args = [p for p in params.split(",") if p]
    if not (required <= len(args) <= len(types)):
        raise ValidationError(f"generator {name!r} takes {required}..{len(types)} parameters")
    try:
        values = [convert(a) for convert, a in zip(types, args)]
    except ValueError as exc:
        raise ValidationError(f"bad generator spec {spec!r}: {exc}") from None
    return lambda seed: build(seed, *values)


def resolve_generator(spec: str, seed: int = 0) -> InstanceStream:
    """Build the stream a --gen spec names."""
    return parse_generator_spec(spec)(seed)


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one simulate run."""

    instance_source: str  # "gen:<spec>" or a file path
    algo: str = "primal-dual"
    f_spec: str = "optimal"
    seed: int = 0
    prefix_mode: bool = False
    output: str | None = None

    def __post_init__(self):
        if self.instance_source.startswith("gen:"):
            parse_generator_spec(self.instance_source[4:])

    def load(self) -> InstanceStream:
        if self.instance_source.startswith("gen:"):
            return resolve_generator(self.instance_source[4:], self.seed)
        with open(self.instance_source, encoding="utf-8") as fh:
            return parse_instance(fh.read())


# -------------------------------------------------------------- experiments


@dataclass
class ExperimentResult:
    algorithm: engine.Algorithm
    summary: dict
    csv_text: str


def _summary_row(summary: dict) -> str:
    parts = [f"{k}={v}" for k, v in summary.items()]
    return "#summary," + ",".join(parts)


def _zero_weight_arrivals(stream: InstanceStream) -> int:
    return int(np.count_nonzero(stream.weights()[stream.offline_count :] == 0.0))


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one instance through the engine and measure it against oracles."""
    stream = config.load()
    func = resolve_allocation(config.f_spec)
    if not config.prefix_mode:
        # load the final oracle's solver during set-up, not after the last arrival
        oracle.sparse_backend()
    alg = engine.run_stream(stream, config.algo, func)

    summary: dict = {
        "algo": config.algo,
        "f": alg.func.describe() if alg.func is not None else "none",
        "n": len(stream),
        "edges": stream.edge_count(),
    }
    if len(stream):
        rows = alg.rows
        if config.prefix_mode:
            opts = oracle.prefix_optimal_values(stream)
        else:
            opt = oracle.fractional_optima_general(stream).min_cover_value
            summary["opt_fractional"] = opt
            rows, opts = rows[-1:], [opt]  # the final prefix only
        cover = oracle.prefix_ratios([r.cover_cost for r in rows], opts)
        summary["cover_ratio"] = float(cover.max())
        if alg.matching is not None:
            matching = oracle.prefix_ratios([r.matching_value for r in rows], opts)
            summary["matching_ratio"] = float(matching.min())
        summary["max_inv1_slack"] = max(r.inv1_slack for r in alg.rows)
        summary["max_inv2_slack"] = max(r.inv2_slack for r in alg.rows)
        summary["feas_slack"] = alg.feas_slack
        summary["zero_weight_arrivals"] = _zero_weight_arrivals(stream)

    csv_text = alg.to_csv() + _summary_row(summary) + "\n"
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    return ExperimentResult(algorithm=alg, summary=summary, csv_text=csv_text)


# ---------------------------------------------------------------- adversary


@dataclass
class AdversaryBudget:
    """Finite surrogate for "append vertices forever" adversary phases.

    The adversary's engine is sized for offline_d + phases * per_phase_cap
    arrivals up front, so a budget above ``MAX_ARRIVALS`` is rejected.
    """

    phases: int
    offline_d: int
    per_phase_cap: int = 0  # 0 means the default 20 * offline_d
    convergence_threshold: float = 0.999

    def __post_init__(self):
        if self.per_phase_cap == 0:
            self.per_phase_cap = 20 * self.offline_d
        if self.phases < 1 or self.offline_d < 1 or self.per_phase_cap < 1:
            raise ValidationError("budget fields must be positive")
        arrivals = self.offline_d + self.phases * self.per_phase_cap
        if arrivals > MAX_ARRIVALS:
            raise ValidationError(
                f"budget allows {arrivals} arrivals, more than {MAX_ARRIVALS}"
            )
        if not (0.0 < self.convergence_threshold < 1.0):
            raise ValidationError("convergence_threshold must lie in (0, 1)")


class EngineAlgorithm(engine.Algorithm):
    """The engine's stepper as the adversary's algorithm under test.

    ``process`` only calls ``step``; its own name lets the adversary's
    steps be told apart from ``run_stream``'s when timing them.
    """

    def process(self, event: VertexEvent) -> None:
        self.step(event)


@dataclass
class AdversaryOutcome:
    ratio: float
    transcript: InstanceStream
    budget_exhausted: bool
    phase_sizes: list[int]
    prefix_ratios: np.ndarray
    algorithm: EngineAlgorithm


def adaptive_adversary_vc(
    budget: AdversaryBudget,
    algo: str,
    func: AllocationFunction | None,
    trial_beta: float | None = None,
) -> AdversaryOutcome:
    """Alternating complete-bipartite phases against a deterministic algorithm.

    Odd phases present right vertices adjacent to every current left; even
    phases present lefts adjacent to every current right.  From phase two
    on, a phase ends once the opposite side's potentials are driven past
    the convergence threshold (the executable stand-in for appending
    vertices forever) or the per-phase cap is hit, which is recorded as an
    exhausted budget.  With two phases the first has the proof-style size
    sqrt(2) d; with three or more, the first two follow beta * alpha * d
    with alpha = 1/sqrt(2 beta^2 - 1) on a trial ratio-minus-one beta
    (default 0.753; it must be finite and exceed 1/sqrt(2)).

    The algorithm under test is an ``EngineAlgorithm(algo, func)``; the
    prefix costs are read from its rows and the driven side's potentials
    from its cover, and it is returned with the outcome.  The reported
    ratio is the worst prefix cover ratio over the emitted transcript,
    which replays deterministically.
    """
    if trial_beta is not None and not (
        math.isfinite(trial_beta) and 2.0 * trial_beta * trial_beta > 1.0
    ):
        raise ValidationError(f"trial_beta must be finite and > 1/sqrt(2), got {trial_beta!r}")
    d = budget.offline_d
    k = budget.phases
    capacity = d + k * budget.per_phase_cap
    alg = EngineAlgorithm(algo, func, capacity)

    events: list[VertexEvent] = []
    lefts: list[int] = []
    rights: list[int] = []
    for i in range(d):
        ev = VertexEvent(i, 1.0, Side.LEFT, np.empty(0, np.int64))
        events.append(ev)
        alg.process(ev)
        lefts.append(i)

    # proof-style sizing for the first phase(s)
    fixed_sizes: dict[int, int] = {}
    if k == 2:
        fixed_sizes[1] = math.ceil(math.sqrt(2.0) * d)
    elif k >= 3:
        if trial_beta is None:
            trial_beta = 0.753
        alpha_t = 1.0 / math.sqrt(2.0 * trial_beta * trial_beta - 1.0)
        r1 = math.ceil(trial_beta * alpha_t * d)
        fixed_sizes[1] = r1
        fixed_sizes[2] = max(1, math.ceil(r1 / trial_beta) - d)

    budget_exhausted = False
    phase_sizes: list[int] = []
    for phase in range(1, k + 1):
        presenting_right = phase % 2 == 1
        attach_to = lefts if presenting_right else rights  # the side forced toward 1
        limit = min(fixed_sizes.get(phase, budget.per_phase_cap), budget.per_phase_cap)
        by_convergence = phase not in fixed_sizes and phase > 1
        count = 0
        for _ in range(limit):
            vid = len(events)
            side = Side.RIGHT if presenting_right else Side.LEFT
            ev = VertexEvent(vid, 1.0, side, np.asarray(attach_to, dtype=np.int64))
            events.append(ev)
            alg.process(ev)
            (rights if presenting_right else lefts).append(vid)
            count += 1
            if by_convergence and np.min(alg.cover.y[attach_to]) >= budget.convergence_threshold:
                break
        else:
            if by_convergence:
                budget_exhausted = True
        phase_sizes.append(count)

    description = (
        f"adversary k={k} d={d} cap={budget.per_phase_cap} "
        f"threshold={budget.convergence_threshold}"
        + (" budget-exhausted" if budget_exhausted else "")
    )
    transcript = InstanceStream(tuple(events), d, description=description)
    opts = oracle.prefix_optimal_values(transcript)
    ratios = oracle.prefix_ratios([row.cover_cost for row in alg.rows], opts)
    return AdversaryOutcome(
        ratio=float(ratios.max()),
        transcript=transcript,
        budget_exhausted=budget_exhausted,
        phase_sizes=phase_sizes,
        prefix_ratios=ratios,
        algorithm=alg,
    )


# --------------------------------------------------------------- ski rental


@dataclass
class SkiRentalReport:
    spec: SkiRentalSpec
    algorithm: engine.Algorithm
    worst_prefix_cover_ratio: float
    reduced_optimum: float
    strategy_optimum: float
    sentinel_potential: float
    zero_weight_arrivals: int


def run_ski_rental(
    spec: SkiRentalSpec,
    algo: str = "waterfill",
    func: AllocationFunction | None = None,
) -> SkiRentalReport:
    """Reduce, run, and measure worst-prefix cover ratio plus sanity flags.

    The sentinel left vertex should keep potential 0; anything else is
    reported rather than silently accepted.
    """
    if func is None:
        func = AllocationFunction.linear_alpha()
    stream = reduce_ski_rental(spec)
    alg = engine.run_stream(stream, algo, func)
    opts = oracle.prefix_optimal_values(stream)
    ratios = oracle.prefix_ratios([row.cover_cost for row in alg.rows], opts)
    return SkiRentalReport(
        spec=spec,
        algorithm=alg,
        worst_prefix_cover_ratio=float(ratios.max()),
        reduced_optimum=float(opts[-1]),
        strategy_optimum=ski_rental_strategy_optimum(spec),
        sentinel_potential=float(alg.cover.y[spec.n_states - 1]),
        zero_weight_arrivals=_zero_weight_arrivals(stream),
    )


# ----------------------------------------------------------------- verify


def verify_identities(out=None) -> bool:
    """Residual suite for the closed-form family; prints one line each."""
    if out is None:
        out = sys.stdout
    ok = True

    def report(name: str, value: float, bound: float):
        nonlocal ok
        good = value < bound
        ok = ok and good
        out.write(f"{name}: {value:.3e} (< {bound:.0e}) {'ok' if good else 'FAIL'}\n")

    for k in (1.0, 1.1997, 2.0):
        report(f"ode-residual k={k}", allocation.ode_residual(k, 2001, 1e-5), 1e-5)
    for k in (1.0, 1.1997, 3.0):
        report(f"product-identity k={k}", allocation.product_identity_residual(k), 1e-9)
    # the trapezoid in ratio_functional is independent of the closed-form F
    grid = np.linspace(0.0, 1.0, 10_000)
    for k in (1.05, 1.1997, 1.5):
        R = allocation.ratio_functional(AllocationFunction.family(k)(grid), grid)
        report(f"objective-spread k={k}", float(np.ptp(R)), 1e-6)
    rep1 = allocation.beta_of(AllocationFunction.family(1.0))
    report("greedy-member-ratio |beta-2|", abs(rep1.beta - 2.0), 1e-9)
    return ok


# -------------------------------------------------------------------- CLI


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--algo", default="primal-dual", choices=list(engine.ALGOS))
    p.add_argument("--f", dest="f_spec", default="optimal",
                   help="linear-alpha | family-k:<k> | greedy | optimal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="onlinecover")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one instance and report ratios")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--gen", help="triangular:n | complete:d,m | two-phase:n | random:n,p[,mode]")
    src.add_argument("--input", help="instance file path")
    p.add_argument("--prefix", action="store_true", help="worst-prefix ratios")
    _add_common(p)

    p = sub.add_parser("optimize-f", help="solve for the best family member")
    p.add_argument("--tol", type=float, default=1e-6)

    p = sub.add_parser("verify", help="identity/residual suite")
    p.add_argument("--suite", default="identities", choices=["identities"])

    p = sub.add_parser("adversary", help="adaptive alternation lower-bound surrogate")
    p.add_argument("--budget", required=True, help="k,d[,cap]")
    p.add_argument("--threshold", type=float, default=0.999)
    p.add_argument("--trial-beta", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("ski-rental", help="multislope reduction run")
    p.add_argument("--buy", required=True, help="comma-separated buy costs, first 0")
    p.add_argument("--rent", required=True, help="comma-separated rent rates")
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--t-end", type=float, required=True)
    _add_common(p)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        return _dispatch(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except (OnlineCoverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "optimize-f":
        res = allocation.optimal_k(args.tol)
        print(f"k = {res.k:.6f}")
        print(f"beta = {res.beta:.6f}")
        print(f"coth-fixed-point = {res.k_coth:.6f} (agreement {abs(res.k - res.k_coth):.2e})")
        return 0

    if args.command == "verify":
        return 0 if verify_identities() else 1

    if args.command == "simulate":
        source = f"gen:{args.gen}" if args.gen else args.input
        config = ExperimentConfig(
            instance_source=source,
            algo=args.algo,
            f_spec=args.f_spec,
            seed=args.seed,
            prefix_mode=args.prefix,
            output=args.csv,
        )
        result = run_experiment(config)
        print(_summary_row(result.summary))
        return 0

    if args.command == "adversary":
        try:
            parts = [int(x) for x in args.budget.split(",")]
        except ValueError:
            parts = []
        if not 2 <= len(parts) <= 3:
            raise ValidationError(f"--budget needs k,d[,cap], got {args.budget!r}")
        budget = AdversaryBudget(
            phases=parts[0],
            offline_d=parts[1],
            per_phase_cap=parts[2] if len(parts) > 2 else 0,
            convergence_threshold=args.threshold,
        )
        func = resolve_allocation(args.f_spec)
        outcome = adaptive_adversary_vc(budget, args.algo, func, args.trial_beta)
        print(
            f"#summary,ratio={outcome.ratio},phases={outcome.phase_sizes},"
            f"arrivals={len(outcome.transcript)},budget_exhausted={outcome.budget_exhausted}"
        )
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(serialize_instance(outcome.transcript))
        return 0

    if args.command == "ski-rental":
        try:
            buys = tuple(float(x) for x in args.buy.split(","))
            rents = tuple(float(x) for x in args.rent.split(","))
        except ValueError as exc:
            raise ValidationError(f"--buy and --rent take comma-separated numbers: {exc}") from None
        if len(buys) != len(rents):
            raise ValidationError("--buy and --rent must have equal length")
        spec = SkiRentalSpec(states=tuple(zip(buys, rents)), epsilon=args.step, t_end=args.t_end)
        func = resolve_allocation(args.f_spec)
        report = run_ski_rental(spec, args.algo, func)
        print(
            f"#summary,worst_prefix_cover_ratio={report.worst_prefix_cover_ratio},"
            f"reduced_optimum={report.reduced_optimum},"
            f"strategy_optimum={report.strategy_optimum},"
            f"sentinel_potential={report.sentinel_potential},"
            f"zero_weight_arrivals={report.zero_weight_arrivals}"
        )
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(report.algorithm.to_csv())
        return 0

    return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
