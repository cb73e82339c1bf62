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


_GENERATORS = ("triangular", "complete", "two-phase", "random")


def validate_generator_spec(spec: str) -> None:
    """Reject malformed --gen specs without building the instance."""
    name, _, params = spec.partition(":")
    if name not in _GENERATORS:
        raise ValidationError(f"unknown generator {name!r}")
    args = [p for p in params.split(",") if p] if params else []
    counts = {"triangular": (1, 1), "complete": (2, 2), "two-phase": (1, 1), "random": (2, 3)}
    lo, hi = counts[name]
    if not (lo <= len(args) <= hi):
        raise ValidationError(f"generator {name!r} takes {lo}..{hi} parameters")
    try:
        [float(a) for a in args if a not in ("general", "bipartite_one_sided", "bipartite_alternating")]
    except ValueError as exc:
        raise ValidationError(f"bad generator spec {spec!r}: {exc}") from None


def resolve_generator(spec: str, seed: int = 0) -> InstanceStream:
    """Parse `name:params` generator specs used by --gen."""
    validate_generator_spec(spec)
    name, _, params = spec.partition(":")
    args = [p for p in params.split(",") if p] if params else []
    try:
        if name == "triangular":
            return gen_triangular(int(args[0]))
        if name == "complete":
            return gen_complete_bipartite(int(args[0]), int(args[1]))
        if name == "two-phase":
            return gen_two_phase_matching_hard(int(args[0]))
        if name == "random":
            mode = args[2] if len(args) > 2 else "general"
            return gen_random(int(args[0]), float(args[1]), seed, mode)
    except (IndexError, ValueError) as exc:
        raise ValidationError(f"bad generator spec {spec!r}: {exc}") from None
    raise ValidationError(f"unknown generator {name!r}")


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one simulate run."""

    instance_source: str  # "gen:<spec>" or a file path
    algo: str = "primal-dual"
    f_spec: str = "optimal"
    seed: int = 0
    eps: float = engine.DEFAULT_EPS
    prefix_mode: bool = False
    output: str | None = None

    def __post_init__(self):
        if self.eps <= 0.0:
            raise ValidationError("eps must be > 0")
        if self.instance_source.startswith("gen:"):
            validate_generator_spec(self.instance_source[4:])

    def load(self) -> InstanceStream:
        if self.instance_source.startswith("gen:"):
            return resolve_generator(self.instance_source[4:], self.seed)
        with open(self.instance_source, encoding="utf-8") as fh:
            return parse_instance(fh.read())


# -------------------------------------------------------------- experiments


def worst_prefix_ratio(trace: engine.RunTrace, opt_per_prefix, objective: str = "cover") -> float:
    """Worst ratio over all prefixes: max for cover, min for matching."""
    return oracle.competitive_ratio(trace, opt_per_prefix, objective, "worst_prefix")


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    trace: engine.RunTrace
    summary: dict
    csv_text: str


def _summary_row(summary: dict) -> str:
    parts = [f"{k}={v}" for k, v in summary.items()]
    return "#summary," + ",".join(parts)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one instance through the engine and measure it against oracles."""
    stream = config.load()
    func = None if config.algo == "greedy" else resolve_allocation(config.f_spec)
    trace = engine.run_stream(stream, config.algo, func, eps=config.eps)

    summary: dict = {
        "algo": config.algo,
        "f": trace.func_desc,
        "n": len(stream),
        "edges": stream.edge_count(),
    }
    if len(stream):
        if config.prefix_mode:
            opts = oracle.prefix_optimal_values(stream)
            summary["cover_ratio"] = worst_prefix_ratio(trace, opts, "cover")
            if config.algo != "waterfill":
                summary["matching_ratio"] = worst_prefix_ratio(trace, opts, "matching")
        else:
            g = oracle.static_from_stream(stream)
            res = oracle.fractional_optima_general(g)
            opt = res.min_cover_value
            summary["opt_fractional"] = opt
            summary["cover_ratio"] = oracle.competitive_ratio(
                trace, _final_opts(trace, opt), "cover", "final"
            )
            if config.algo != "waterfill":
                summary["matching_ratio"] = oracle.competitive_ratio(
                    trace, _final_opts(trace, opt), "matching", "final"
                )
        summary["max_inv1_slack"] = max(r.inv1_slack for r in trace.rows)
        summary["max_inv2_slack"] = max(r.inv2_slack for r in trace.rows)
        summary["feas_slack"] = trace.feas_slack
        summary["zero_weight_arrivals"] = len(trace.zero_weight_arrivals)

    csv_text = trace.to_csv() + _summary_row(summary) + "\n"
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    return ExperimentResult(config=config, trace=trace, summary=summary, csv_text=csv_text)


def _final_opts(trace: engine.RunTrace, final_opt: float) -> list[float]:
    # competitive_ratio consumes one oracle value per prefix; final mode
    # only reads the last entry, so pad with the final optimum
    return [final_opt] * len(trace.rows)


# ---------------------------------------------------------------- adversary


@dataclass
class AdversaryBudget:
    """Finite surrogate for "append vertices forever" adversary phases."""

    phases: int
    offline_d: int
    per_phase_cap: int = 0  # 0 means the default 20 * offline_d
    convergence_threshold: float = 0.999

    def __post_init__(self):
        if self.per_phase_cap == 0:
            self.per_phase_cap = 20 * self.offline_d
        if self.phases < 1 or self.offline_d < 1 or self.per_phase_cap < 1:
            raise ValidationError("budget fields must be positive")
        if not (0.0 < self.convergence_threshold < 1.0):
            raise ValidationError("convergence_threshold must lie in (0, 1)")


class EngineAlgorithm:
    """White-box wrapper: feed events one by one, read potentials back."""

    def __init__(self, algo: str, func: AllocationFunction | None, capacity: int, eps: float = engine.DEFAULT_EPS):
        self.algo = algo
        self.func = func
        self.eps = eps
        self.cover = engine.CoverState.fresh(capacity)
        self.matching = engine.MatchingState.fresh(capacity) if algo != "waterfill" else None
        self.beta = allocation.beta_of(func).beta if algo == "primal-dual" else 0.0

    def process(self, event: VertexEvent) -> None:
        if self.algo == "waterfill":
            engine.greedy_allocation_step(self.cover, event, self.func, self.eps)
        elif self.algo == "primal-dual":
            engine.primal_dual_step(
                self.cover, self.matching, event, self.func, self.beta, self.eps
            )
        else:
            engine.greedy_baseline_step(self.cover, self.matching, event)

    @property
    def potentials(self) -> np.ndarray:
        return self.cover.y

    @property
    def cover_cost(self) -> float:
        return self.cover.total_cost


def engine_algorithm(algo: str, func: AllocationFunction | None, eps: float = engine.DEFAULT_EPS):
    """Factory usable as the adversary's algorithm-under-test argument."""

    def make(capacity: int) -> EngineAlgorithm:
        return EngineAlgorithm(algo, func, capacity, eps)

    return make


@dataclass
class AdversaryOutcome:
    ratio: float
    transcript: InstanceStream
    budget_exhausted: bool
    phase_sizes: list[int]
    prefix_ratios: np.ndarray


def adaptive_adversary_vc(
    budget: AdversaryBudget,
    algorithm_factory,
    trial_beta: float | None = None,
) -> AdversaryOutcome:
    """Alternating complete-bipartite phases against a deterministic algorithm.

    Odd phases present right vertices adjacent to every current left; even
    phases present lefts adjacent to every current right.  From phase two
    on, a phase ends once the opposite side's potentials are driven past
    the convergence threshold (the executable stand-in for appending
    vertices forever) or the per-phase cap is hit, which is recorded as an
    exhausted budget.  Phase sizes for two and three phases follow the
    proof-style sizing sqrt(2) d and beta * alpha * d with
    alpha = 1/sqrt(2 beta^2 - 1) on a trial ratio-minus-one beta.

    The reported ratio is the worst prefix cover ratio over the emitted
    transcript, which replays deterministically.
    """
    d = budget.offline_d
    k = budget.phases
    capacity = d + k * budget.per_phase_cap
    alg = algorithm_factory(capacity)

    events: list[VertexEvent] = []
    lefts: list[int] = []
    rights: list[int] = []
    costs: list[float] = []
    for i in range(d):
        ev = VertexEvent(i, 1.0, Side.LEFT, np.empty(0, np.int64))
        events.append(ev)
        alg.process(ev)
        lefts.append(i)
        costs.append(alg.cover_cost)

    # proof-style sizing for the first phase(s)
    if trial_beta is None:
        trial_beta = {2: 1.0 / math.sqrt(2.0), 3: 0.753}.get(k, 1.0 / math.sqrt(2.0))
    fixed_sizes: dict[int, int] = {}
    if k >= 2:
        if k == 2:
            fixed_sizes[1] = math.ceil(math.sqrt(2.0) * d)
        else:
            alpha_t = 1.0 / math.sqrt(2.0 * trial_beta**2 - 1.0)
            r1 = math.ceil(trial_beta * alpha_t * d)
            fixed_sizes[1] = r1
            fixed_sizes[2] = max(1, math.ceil(r1 / trial_beta) - d)

    budget_exhausted = False
    phase_sizes: list[int] = []
    for phase in range(1, k + 1):
        presenting_right = phase % 2 == 1
        attach_to = lefts if presenting_right else rights
        driven = attach_to  # the attached side is the one forced toward 1
        if not attach_to:
            phase_sizes.append(0)
            continue
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
            costs.append(alg.cover_cost)
            count += 1
            if by_convergence and driven:
                if float(np.min(alg.potentials[driven])) >= budget.convergence_threshold:
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
    costs_arr = np.asarray(costs)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(opts > 0.0, costs_arr / np.where(opts > 0, opts, 1.0), 1.0)
    return AdversaryOutcome(
        ratio=float(np.max(ratios)),
        transcript=transcript,
        budget_exhausted=budget_exhausted,
        phase_sizes=phase_sizes,
        prefix_ratios=ratios,
    )


# --------------------------------------------------------------- ski rental


@dataclass
class SkiRentalReport:
    spec: SkiRentalSpec
    trace: engine.RunTrace
    worst_prefix_cover_ratio: float
    reduced_optimum: float
    strategy_optimum: float
    sentinel_potential: float
    zero_weight_arrivals: int


def run_ski_rental(
    spec: SkiRentalSpec,
    algo: str = "waterfill",
    func: AllocationFunction | None = None,
    eps: float = engine.DEFAULT_EPS,
) -> SkiRentalReport:
    """Reduce, run, and measure worst-prefix cover ratio plus sanity flags.

    The sentinel left vertex should keep potential 0; anything else is
    reported rather than silently accepted.
    """
    if func is None:
        func = AllocationFunction.linear_alpha()
    stream = reduce_ski_rental(spec)
    trace = engine.run_stream(stream, algo, func, eps=eps)
    opts = oracle.prefix_optimal_values(stream)
    ratio = worst_prefix_ratio(trace, opts, "cover")
    reduced_opt = float(opts[-1])
    return SkiRentalReport(
        spec=spec,
        trace=trace,
        worst_prefix_cover_ratio=ratio,
        reduced_optimum=reduced_opt,
        strategy_optimum=ski_rental_strategy_optimum(spec),
        sentinel_potential=float(trace.cover.y[spec.n_states - 1]),
        zero_weight_arrivals=len(trace.zero_weight_arrivals),
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
    for k in (1.05, 1.1997, 1.5):
        rep = allocation.beta_of(AllocationFunction.family(k), 10_000)
        report(f"objective-spread k={k}", rep.spread, 1e-6)
    rep1 = allocation.beta_of(AllocationFunction.family(1.0), 10_000)
    report("greedy-member-ratio |beta-2|", abs(rep1.beta - 2.0), 1e-9)
    return ok


# -------------------------------------------------------------------- CLI


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--algo", default="primal-dual", choices=list(engine.ALGOS))
    p.add_argument("--f", dest="f_spec", default="optimal",
                   help="linear-alpha | family-k:<k> | greedy | optimal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=engine.DEFAULT_EPS)
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
            eps=args.eps,
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
        if len(parts) < 2:
            print("--budget needs k,d[,cap]", file=sys.stderr)
            return 2
        budget = AdversaryBudget(
            phases=parts[0],
            offline_d=parts[1],
            per_phase_cap=parts[2] if len(parts) > 2 else 0,
            convergence_threshold=args.threshold,
        )
        func = None if args.algo == "greedy" else resolve_allocation(args.f_spec)
        outcome = adaptive_adversary_vc(
            budget, engine_algorithm(args.algo, func, args.eps), args.trial_beta
        )
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
            print(f"error: --buy and --rent take comma-separated numbers: {exc}", file=sys.stderr)
            return 2
        if len(buys) != len(rents):
            print("--buy and --rent must have equal length", file=sys.stderr)
            return 2
        spec = SkiRentalSpec(states=tuple(zip(buys, rents)), epsilon=args.step, t_end=args.t_end)
        func = None if args.algo == "greedy" else resolve_allocation(args.f_spec)
        report = run_ski_rental(spec, args.algo, func, args.eps)
        print(
            f"#summary,worst_prefix_cover_ratio={report.worst_prefix_cover_ratio},"
            f"reduced_optimum={report.reduced_optimum},"
            f"strategy_optimum={report.strategy_optimum},"
            f"sentinel_potential={report.sentinel_potential},"
            f"zero_weight_arrivals={report.zero_weight_arrivals}"
        )
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(report.trace.to_csv())
        return 0

    return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
