"""Runners and CLI.

Subcommands: ``simulate`` (run an algorithm over a generated or loaded
instance and report ratios), ``optimize-f`` (solve for the best family
member), ``verify`` (identity/residual suite), ``adversary`` (adaptive
alternation lower-bound surrogates), ``ski-rental`` (reduction runs).

``run_experiment`` and ``run_ski_rental`` return the ``Algorithm`` they
stepped with a summary dict; ``_dispatch`` builds the adversary's summary
from its outcome, writes the ``--csv`` file if one is named, and only then
prints the summary as one ``#summary,k=v,...`` line.

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
from .errors import InvariantViolation, OnlineCoverError, ParseError, ValidationError
from .instance import (
    MAX_ARRIVALS,
    RANDOM_MODES,
    SIDE_CODES,
    InstanceStream,
    Side,
    SkiRentalSpec,
    VertexEvent,
    _offsets,
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


def resolve_generator(spec: str, seed: int = 0) -> InstanceStream:
    """Build the stream a `name:params` --gen spec names.

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
    return build(seed, *values)


# ------------------------------------------------------------------ runners


def _summary_row(summary: dict) -> str:
    return "#summary," + ",".join(f"{k}={v}" for k, v in summary.items())


def _zero_weight_arrivals(stream: InstanceStream) -> int:
    return int(np.count_nonzero(stream.weights[stream.offline_count :] == 0.0))


def run_experiment(
    stream: InstanceStream, algo: str, func: AllocationFunction | None, prefix: bool = False
) -> tuple[engine.Algorithm, dict]:
    """Run one stream through the engine and measure it against the oracles.

    The ratios are the final prefix's, or with ``prefix`` the worst over
    every prefix.
    """
    alg = engine.run_stream(stream, algo, func)

    summary: dict = {
        "algo": algo,
        "f": alg.func.describe() if alg.func is not None else "none",
        "n": len(stream),
        "edges": stream.edge_count(),
    }
    if len(stream):
        rows = alg.rows
        if prefix:
            opts = oracle.prefix_optimal_values(stream)
        else:
            opt = oracle.fractional_optima_general(stream).min_cover_value
            summary["opt_fractional"] = opt
            rows, opts = rows[-1:], [opt]  # the final prefix only
        cover = oracle.prefix_ratios(rows["cover_cost"], opts)
        summary["cover_ratio"] = float(cover.max())
        if alg.matching is not None:
            matching = oracle.prefix_ratios(rows["matching_value"], opts)
            summary["matching_ratio"] = float(matching.min())
        summary["max_inv1_slack"] = float(alg.rows["inv1_slack"].max())
        summary["max_inv2_slack"] = float(alg.rows["inv2_slack"].max())
        summary["feas_slack"] = alg.feas_slack
        summary["zero_weight_arrivals"] = _zero_weight_arrivals(stream)
    return alg, summary


# ---------------------------------------------------------------- adversary


@dataclass
class AdversaryBudget:
    """Finite surrogate for "append vertices forever" adversary phases.

    The adversary's engine is sized for offline_d + phases * per_phase_cap
    arrivals up front, so a budget above ``MAX_ARRIVALS`` is rejected.
    """

    phases: int
    offline_d: int
    per_phase_cap: int | None = None  # None means the default 20 * offline_d
    convergence_threshold: float = 0.999

    def __post_init__(self):
        if self.per_phase_cap is None:
            self.per_phase_cap = 20 * self.offline_d
        if self.phases < 1 or self.offline_d < 1 or self.per_phase_cap < 1:
            raise ValidationError("budget fields must be positive")
        arrivals = self.offline_d + self.phases * self.per_phase_cap
        if arrivals > MAX_ARRIVALS:
            raise ValidationError(f"budget allows {arrivals} arrivals, more than {MAX_ARRIVALS}")
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
    (default 0.753; it must exceed 1/sqrt(2), with 2 beta^2 finite).

    The algorithm under test is an ``EngineAlgorithm(algo, func)``; the
    prefix costs are read from its rows' ``cover_cost`` column and the
    driven side's potentials from its cover, and it is returned with the
    outcome.  It steps one event per arrival, whose neighbours are the
    phase's shared intp array.  The transcript is built as columns (unit
    weights, the side codes, the degrees' offsets, and one concatenation
    of the phase's int32 copy per arrival) and validated by
    ``InstanceStream``.  The reported ratio is the worst prefix cover ratio
    over the emitted transcript, which replays deterministically.
    """
    # a negative beta, or one whose 2 beta^2 overflows (alpha = 0), would leave phase 1 empty
    if trial_beta is not None and not (
        trial_beta > 0.0 and 1.0 < 2.0 * trial_beta * trial_beta < math.inf
    ):
        raise ValidationError(
            f"trial_beta must exceed 1/sqrt(2) with 2 trial_beta^2 finite, got {trial_beta!r}"
        )
    d = budget.offline_d
    k = budget.phases
    capacity = d + k * budget.per_phase_cap
    alg = EngineAlgorithm(algo, func, capacity)

    # the transcript's columns: a side code and a degree per arrival, and
    # the int32 neighbour array of each arrival with edges
    codes: list[int] = []
    degrees: list[int] = []
    parts: list[np.ndarray] = []
    lefts: list[int] = []
    rights: list[int] = []
    for i in range(d):
        alg.process(VertexEvent(i, 1.0, Side.LEFT, np.empty(0, np.intp)))
        codes.append(SIDE_CODES[Side.LEFT])
        degrees.append(0)
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
        # a phase's arrivals attach to the same vertices, so they share one
        # array: intp, which numpy indexes with no conversion, for the steps,
        # and int32 for the transcript
        nbrs = np.asarray(attach_to, dtype=np.intp)
        nbrs32 = nbrs.astype(np.int32)
        side = Side.RIGHT if presenting_right else Side.LEFT
        count = 0
        for _ in range(limit):
            vid = len(codes)
            alg.process(VertexEvent(vid, 1.0, side, nbrs))
            codes.append(SIDE_CODES[side])
            degrees.append(nbrs.size)
            parts.append(nbrs32)
            (rights if presenting_right else lefts).append(vid)
            count += 1
            if by_convergence and alg.cover.y[nbrs].min() >= budget.convergence_threshold:
                break
        else:
            if by_convergence:
                budget_exhausted = True
        phase_sizes.append(count)

    # one copy of the neighbours, into the stream's own column
    transcript = InstanceStream(
        np.ones(len(codes)), codes, _offsets(degrees), np.concatenate(parts), d
    )
    opts = oracle.prefix_optimal_values(transcript)
    ratios = oracle.prefix_ratios(alg.rows["cover_cost"], opts)
    return AdversaryOutcome(
        ratio=float(ratios.max()),
        transcript=transcript,
        budget_exhausted=budget_exhausted,
        phase_sizes=phase_sizes,
        prefix_ratios=ratios,
        algorithm=alg,
    )


# --------------------------------------------------------------- ski rental


def run_ski_rental(
    spec: SkiRentalSpec, algo: str, func: AllocationFunction | None
) -> tuple[engine.Algorithm, dict]:
    """Reduce, run, and measure worst-prefix cover ratio plus sanity flags.

    The sentinel left vertex should keep potential 0; anything else is
    reported rather than silently accepted.
    """
    stream = reduce_ski_rental(spec)
    alg = engine.run_stream(stream, algo, func)
    opts = oracle.prefix_optimal_values(stream)
    ratios = oracle.prefix_ratios(alg.rows["cover_cost"], opts)
    return alg, {
        "worst_prefix_cover_ratio": float(ratios.max()),
        "reduced_optimum": float(opts[-1]),
        "strategy_optimum": ski_rental_strategy_optimum(spec),
        "sentinel_potential": float(alg.cover.y[spec.n_states - 1]),
        "zero_weight_arrivals": _zero_weight_arrivals(stream),
    }


# ----------------------------------------------------------------- verify


def verify_identities() -> bool:
    """Residual suite for the closed-form family; prints one line each."""
    ok = True

    def report(name: str, value: float, bound: float):
        nonlocal ok
        good = value < bound
        ok = ok and good
        print(f"{name}: {value:.3e} (< {bound:.0e}) {'ok' if good else 'FAIL'}")

    for k in (1.0, 1.1997, 2.0):
        report(f"ode-residual k={k}", allocation.ode_residual(k), 1e-5)
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


def _add_common(p: argparse.ArgumentParser, csv_help: str):
    p.add_argument("--algo", default="primal-dual", choices=list(engine.ALGOS))
    p.add_argument("--f", dest="f_spec", default="optimal",
                   help="linear-alpha | family-k:<k> | greedy | optimal")
    p.add_argument("--csv", default=None, help=csv_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="onlinecover")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one instance and report ratios")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--gen", help="triangular:n | complete:d,m | two-phase:n | random:n,p[,mode]")
    src.add_argument("--input", help="instance file path")
    p.add_argument("--prefix", action="store_true", help="worst-prefix ratios")
    p.add_argument("--seed", type=int, default=0, help="generator seed, at least 0")
    _add_common(p, "write one CSV row per arrival, then the #summary line")

    p = sub.add_parser("optimize-f", help="solve for the best family member")
    p.add_argument("--tol", type=float, default=1e-6)

    sub.add_parser("verify", help="identity/residual suite")

    p = sub.add_parser("adversary", help="adaptive alternation lower-bound surrogate")
    p.add_argument("--budget", required=True, help="k,d[,cap]")
    p.add_argument("--threshold", type=float, default=0.999)
    p.add_argument("--trial-beta", type=float, default=None)
    _add_common(p, "write the transcript in the instance format")

    p = sub.add_parser("ski-rental", help="multislope reduction run")
    p.add_argument("--buy", required=True, help="comma-separated buy costs, first 0")
    p.add_argument("--rent", required=True, help="comma-separated rent rates")
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--t-end", type=float, required=True)
    _add_common(p, "write one CSV row per arrival of the reduced stream")
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
    except (OnlineCoverError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
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

    # each run yields its summary and a function building its --csv text
    if args.command == "simulate":
        if args.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {args.seed}")
        if args.gen:
            stream = resolve_generator(args.gen, args.seed)
        else:
            with open(args.input, "rb") as fh:
                data = fh.read()
            try:  # a leading byte-order mark is dropped
                stream = parse_instance(data.decode("utf-8-sig"))
            except UnicodeDecodeError as exc:  # named by its line, as parse_instance counts lines
                # exc.start counts from the end of the mark, in the bytes exc.object holds
                line_no = len((exc.object[: exc.start].decode("utf-8") + ".").splitlines())
                raise ParseError(line_no, f"not UTF-8 text: {exc.reason}") from None
        func = resolve_allocation(args.f_spec)
        alg, summary = run_experiment(stream, args.algo, func, args.prefix)

        def file_text():
            return alg.to_csv() + _summary_row(summary) + "\n"

    elif args.command == "adversary":
        try:
            parts = [int(x) for x in args.budget.split(",")]
        except ValueError:
            parts = []
        if not 2 <= len(parts) <= 3:
            raise ValidationError(f"--budget needs k,d[,cap], got {args.budget!r}")
        budget = AdversaryBudget(*parts, convergence_threshold=args.threshold)
        func = resolve_allocation(args.f_spec)
        outcome = adaptive_adversary_vc(budget, args.algo, func, args.trial_beta)
        summary = {
            "ratio": outcome.ratio,
            "phases": outcome.phase_sizes,
            "arrivals": len(outcome.transcript),
            "budget_exhausted": outcome.budget_exhausted,
        }

        def file_text():
            return serialize_instance(outcome.transcript)

    else:
        try:
            buys = tuple(float(x) for x in args.buy.split(","))
            rents = tuple(float(x) for x in args.rent.split(","))
        except ValueError as exc:
            raise ValidationError(f"--buy and --rent take comma-separated numbers: {exc}") from None
        if len(buys) != len(rents):
            raise ValidationError("--buy and --rent must have equal length")
        spec = SkiRentalSpec(states=tuple(zip(buys, rents)), epsilon=args.step, t_end=args.t_end)
        func = resolve_allocation(args.f_spec)
        alg, summary = run_ski_rental(spec, args.algo, func)
        file_text = alg.to_csv

    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(file_text())
    print(_summary_row(summary))
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
