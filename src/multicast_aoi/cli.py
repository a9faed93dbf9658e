"""Command-line front end: analytics, simulation, optimization, experiments.

Exit codes: 0 success, 1 validation-suite failure, 2 argument error
(including a simulation too short to give every node an update).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .analytics import (
    AgeResult,
    age_earliest_k,
    age_earliest_k_approx,
    age_preselected_k,
    age_preselected_k_approx,
    age_preselected_k_process,
    age_wait_for_all,
    optimal_alpha,
    optimal_k_closed_form,
    optimal_k_exact,
)
from .delay_models import HyperExponential, ShiftedExponential
from .experiments import (
    DEFAULT_SEED,
    SweepRow,
    rows_to_csv_text,
    rows_to_json,
    run_fig4,
    run_fig5,
    run_fig6,
    run_validation,
)
from .simulator import (
    EarliestK,
    PreSelectedK,
    SimConfig,
    SimulationError,
    WaitForAll,
    replicate,
)

_SCHEME_NAMES = {
    "wait-for-all": "wait_for_all",
    "earliest-k": "earliest_k",
    "pre-selected-k": "preselected_k",
}


class _CliError(Exception):
    """Bad arguments detected after parsing; maps to exit code 2."""


def _fnum(x: float) -> str:
    return f"{x:.12g}"


def _default_seed() -> int:
    raw = os.environ.get("AOI_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError as exc:
        raise _CliError(f"AOI_SEED must be an integer, got {raw!r}") from exc


def _parse_hyperexp(text: str) -> HyperExponential:
    try:
        rates_text, weights_text = text.split(":")
        rates = tuple(float(x) for x in rates_text.split(","))
        weights = tuple(float(x) for x in weights_text.split(","))
        return HyperExponential(rates, weights)
    except (ValueError, TypeError) as exc:
        raise _CliError(
            f"--hyperexp expects 'r1,r2,...:w1,w2,...', got {text!r} ({exc})"
        ) from exc


def _build_model(args):
    if getattr(args, "hyperexp", None):
        return _parse_hyperexp(args.hyperexp)
    if args.lam is None:
        raise _CliError("a delay model is required: give --lambda (and --shift) or --hyperexp")
    return ShiftedExponential(args.lam, args.shift)


def _emit(text: str, output) -> None:
    if output:
        with open(output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _age_block(result: AgeResult) -> dict:
    return {
        "total": result.total,
        "kind": result.kind,
        "scheme": result.scheme,
        "params": dict(result.params),
        "breakdown": dict(result.breakdown),
    }


def _age_lines(title: str, result) -> list[str]:
    if result is None:
        return [f"{title}: (none)"]
    lines = [f"{title}: {_fnum(result.total)}"]
    for name, value in result.breakdown.items():
        lines.append(f"  {name}: {_fnum(value)}")
    return lines


def _analyze(args) -> int:
    scheme = _SCHEME_NAMES[args.scheme]
    if getattr(args, "hyperexp", None):
        raise _CliError(
            "analyze evaluates shifted-exponential closed forms; "
            "--hyperexp has no analytic age (use the simulate subcommand)"
        )
    if args.lam is None:
        raise _CliError("analyze requires --lambda")
    if args.k is not None and args.alpha is not None:
        raise _CliError("--k and --alpha are mutually exclusive; give exactly one")

    exact = approx = process = None
    if scheme == "wait_for_all":
        if args.k is not None:
            raise _CliError("--k does not apply to --scheme wait-for-all")
        if args.alpha is not None:
            raise _CliError("--alpha applies only to --scheme earliest-k")
        if args.n is None:
            raise _CliError("--scheme wait-for-all requires --n")
        exact = age_wait_for_all(args.lam, args.shift, args.n)
    elif scheme == "earliest_k":
        if args.alpha is not None:
            approx = age_earliest_k_approx(args.lam, args.shift, args.alpha)
        else:
            if args.n is None or args.k is None:
                raise _CliError("--scheme earliest-k requires --n and --k (or --alpha alone)")
            if args.k > args.n:
                raise _CliError(f"--k {args.k} exceeds --n {args.n}")
            exact = age_earliest_k(args.lam, args.shift, args.n, args.k)
            if args.k < args.n:
                approx = age_earliest_k_approx(args.lam, args.shift, args.k / args.n)
    else:
        if args.alpha is not None:
            raise _CliError("--alpha applies only to --scheme earliest-k")
        if args.n is None or args.k is None:
            raise _CliError("--scheme pre-selected-k requires --n and --k")
        if args.k > args.n:
            raise _CliError(f"--k {args.k} exceeds --n {args.n}")
        exact = age_preselected_k(args.lam, args.shift, args.n, args.k)
        approx = age_preselected_k_approx(args.lam, args.shift, args.n, args.k)
        process = age_preselected_k_process(args.lam, args.shift, args.n, args.k)

    if args.format == "json":
        payload = {
            "scheme": args.scheme,
            "exact": None if exact is None else _age_block(exact),
            "approx": None if approx is None else _age_block(approx),
        }
        if scheme == "preselected_k":
            payload["process"] = _age_block(process)
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        lines = ["section,name,value"]
        for label, result in (("exact", exact), ("approx", approx), ("process", process)):
            if result is None:
                continue
            lines.append(f"{label},total,{result.total!r}")
            for name, value in result.breakdown.items():
                lines.append(f"{label},{name},{value!r}")
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"scheme: {args.scheme}"]
        lines.append(f"lambda: {_fnum(args.lam)}")
        lines.append(f"shift: {_fnum(args.shift)}")
        if args.n is not None:
            lines.append(f"n: {args.n}")
        if args.k is not None:
            lines.append(f"k: {args.k}")
        if args.alpha is not None:
            lines.append(f"alpha: {_fnum(args.alpha)}")
        lines += _age_lines("exact age", exact)
        lines += _age_lines("approximate age", approx)
        if process is not None:
            lines += _age_lines("process-exact age (matches simulation)", process)
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0


def _simulate(args) -> int:
    scheme = _SCHEME_NAMES[args.scheme]
    model = _build_model(args)
    if scheme == "wait_for_all":
        if args.k is not None:
            raise _CliError("--k does not apply to --scheme wait-for-all")
        policy = WaitForAll()
        k = args.n
    else:
        if args.k is None:
            raise _CliError(f"--scheme {args.scheme} requires --k")
        if args.k > args.n:
            raise _CliError(f"--k {args.k} exceeds --n {args.n}")
        k = args.k
        if scheme == "earliest_k":
            policy = EarliestK(k)
        else:
            policy = PreSelectedK(k, regroup=args.regroup.replace("-", "_"))

    seed = args.seed if args.seed is not None else _default_seed()
    config = SimConfig(
        n=args.n,
        policy=policy,
        model=model,
        updates=args.updates,
        warmup=args.warmup,
        seed=seed,
        replications=args.replications,
    )
    result = replicate(config)

    exact = approx = None
    kstar = False
    if isinstance(model, ShiftedExponential):
        if scheme == "wait_for_all":
            exact = age_wait_for_all(model.rate, model.shift, args.n).total
        elif scheme == "earliest_k":
            exact = age_earliest_k(model.rate, model.shift, args.n, k).total
            if k < args.n:
                approx = age_earliest_k_approx(model.rate, model.shift, k / args.n).total
        else:
            # Process-exact renewal value: this is what the simulation estimates.
            exact = age_preselected_k_process(model.rate, model.shift, args.n, k).total
            approx = age_preselected_k_approx(model.rate, model.shift, args.n, k).total
        kstar = k == optimal_k_closed_form(model.rate, model.shift, args.n)

    row = SweepRow(
        scheme=scheme,
        model=model.label(),
        lam=model.rate if isinstance(model, ShiftedExponential) else None,
        shift=model.shift if isinstance(model, ShiftedExponential) else None,
        n=args.n,
        k=k,
        sim_age=result.grand_mean,
        sim_stderr=result.std_error,
        exact_age=exact,
        approx_age=approx,
        kstar_flag=kstar,
    )

    if args.format == "csv":
        text = rows_to_csv_text([row])
    elif args.format == "json":
        payload = {
            "config": {
                "scheme": args.scheme,
                "model": model.label(),
                "n": args.n,
                "k": k,
                "updates": args.updates,
                "warmup": args.warmup,
                "seed": seed,
                "replications": args.replications,
            },
            "grand_mean": result.grand_mean,
            "std_error": result.std_error,
            "virtual_time": result.virtual_time,
            "rounds": result.rounds,
            "per_node_avg_age": [float(x) for x in result.per_node_avg_age],
            "delivery_fraction": [float(x) for x in result.delivery_fraction],
            "exact_age": exact,
            "approx_age": approx,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [
            f"scheme: {args.scheme}",
            f"model: {model.label()}",
            f"n: {args.n}  k: {k}",
            f"updates: {args.updates}  warmup: {args.warmup}  "
            f"replications: {args.replications}  seed: {seed}",
            f"grand mean age: {_fnum(result.grand_mean)}",
            f"std error: {_fnum(result.std_error)}",
            f"virtual time: {_fnum(result.virtual_time)}",
        ]
        if exact is not None:
            lines.append(f"exact age: {_fnum(exact)}")
        if approx is not None:
            lines.append(f"approximate age: {_fnum(approx)}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0


def _optimize(args) -> int:
    alpha = optimal_alpha(args.lam, args.shift)
    k_closed = optimal_k_closed_form(args.lam, args.shift, args.n)
    approx_at_alpha = (
        age_earliest_k_approx(args.lam, args.shift, alpha).total if 0.0 < alpha < 1.0 else None
    )
    exact_at_closed = age_earliest_k(args.lam, args.shift, args.n, k_closed)
    k_best, best = optimal_k_exact(args.lam, args.shift, args.n)

    if args.format == "json":
        payload = {
            "lambda": args.lam,
            "shift": args.shift,
            "n": args.n,
            "alpha_star": alpha,
            "approx_age_at_alpha_star": approx_at_alpha,
            "k_closed_form": k_closed,
            "exact_age_at_k_closed_form": exact_at_closed.total,
            "k_exhaustive": k_best,
            "exact_age_at_k_exhaustive": best.total,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        lines = ["name,value"]
        lines.append(f"alpha_star,{alpha!r}")
        lines.append(f"approx_age_at_alpha_star,{'' if approx_at_alpha is None else repr(approx_at_alpha)}")
        lines.append(f"k_closed_form,{k_closed}")
        lines.append(f"exact_age_at_k_closed_form,{exact_at_closed.total!r}")
        lines.append(f"k_exhaustive,{k_best}")
        lines.append(f"exact_age_at_k_exhaustive,{best.total!r}")
        text = "\n".join(lines) + "\n"
    else:
        lines = [
            f"lambda: {_fnum(args.lam)}  shift: {_fnum(args.shift)}  n: {args.n}",
            f"alpha*: {_fnum(alpha)}",
        ]
        if approx_at_alpha is not None:
            lines.append(f"approximate age at alpha*: {_fnum(approx_at_alpha)}")
        lines.append(f"closed-form k*: {k_closed}")
        lines.append(f"exact age at closed-form k*: {_fnum(exact_at_closed.total)}")
        lines.append(f"exhaustive k*: {k_best}")
        lines.append(f"exact age at exhaustive k*: {_fnum(best.total)}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0


def _experiment(args) -> int:
    for flag, step in (("--step", args.step), ("--n-step", args.n_step)):
        if step < 1:
            raise _CliError(f"{flag} must be >= 1, got {step}")
    seed = args.seed if args.seed is not None else _default_seed()
    if args.figure == "fig4":
        rows = run_fig4(
            k_step=args.step,
            rounds=args.rounds if args.rounds is not None else 100_000,
            warmup=args.warmup,
            replications=args.replications,
            seed=seed,
        )
    elif args.figure == "fig5":
        rows = run_fig5(
            k_step=args.step,
            rounds=args.rounds if args.rounds is not None else 100_000,
            warmup=args.warmup,
            replications=args.replications,
            seed=seed,
        )
    else:
        n_values = tuple(range(args.n_min, args.n_max + 1, args.n_step))
        rows = run_fig6(
            n_values=n_values,
            rounds=args.rounds if args.rounds is not None else 1_000_000,
            warmup=args.warmup,
            replications=args.replications,
            seed=seed,
        )
    text = rows_to_json(rows) + "\n" if args.format == "json" else rows_to_csv_text(rows)
    _emit(text, args.output)
    return 0


def _validate(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    report = run_validation(
        rounds=args.rounds, seed=seed, warmup=args.warmup, z_threshold=args.z
    )
    text = "\n".join(report.lines()) + "\n"
    _emit(text, args.output)
    return 0 if report.passed else 1


def _add_model_flags(parser) -> None:
    parser.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="rate of the (shifted) exponential delay")
    parser.add_argument("--shift", type=float, default=0.0,
                        help="constant delay floor c (default 0)")


def _add_output_flags(parser) -> None:
    parser.add_argument("--format", choices=("human", "csv", "json"), default="human")
    parser.add_argument("--output", default=None, help="write to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multicast-aoi",
        description="Average age of information for multicast status updates: "
        "closed forms, threshold optimization, and Monte Carlo simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="evaluate exact and approximate age formulas")
    p.add_argument("--scheme", required=True, choices=tuple(_SCHEME_NAMES))
    _add_model_flags(p)
    p.add_argument("--hyperexp", default=None, help="rejected here; analyze is closed-form only")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None,
                   help="threshold ratio k/n for the earliest-k approximation")
    _add_output_flags(p)
    p.set_defaults(handler=_analyze)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of the average age")
    p.add_argument("--scheme", required=True, choices=tuple(_SCHEME_NAMES))
    _add_model_flags(p)
    p.add_argument("--hyperexp", default=None,
                   help="mixture model 'r1,r2,...:w1,w2,...' instead of --lambda/--shift")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--updates", type=int, default=100_000)
    p.add_argument("--warmup", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--replications", type=int, default=1)
    p.add_argument("--regroup", choices=("per-update", "fixed"), default="per-update")
    _add_output_flags(p)
    p.set_defaults(handler=_simulate)

    p = sub.add_parser("optimize", help="age-minimizing stopping threshold")
    _add_model_flags(p)
    p.add_argument("--n", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_optimize)

    p = sub.add_parser("experiment", help="run a predefined sweep and emit its table")
    p.add_argument("figure", choices=("fig4", "fig5", "fig6"))
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--step", type=int, default=5, help="k-grid step (fig4/fig5)")
    p.add_argument("--warmup", type=int, default=1000)
    p.add_argument("--replications", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n-min", type=int, default=1, help="fig6 smallest n")
    p.add_argument("--n-max", type=int, default=200, help="fig6 largest n")
    p.add_argument("--n-step", type=int, default=1, help="fig6 n stride")
    _add_output_flags(p)
    p.set_defaults(handler=_experiment)

    p = sub.add_parser("validate", help="simulation-vs-theory agreement grid")
    p.add_argument("--rounds", type=int, default=100_000)
    p.add_argument("--warmup", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--z", type=float, default=4.0, help="failure threshold in standard errors")
    _add_output_flags(p)
    p.set_defaults(handler=_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "optimize" and args.lam is None:
            raise _CliError("optimize requires --lambda")
        return args.handler(args)
    except (_CliError, ValueError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
