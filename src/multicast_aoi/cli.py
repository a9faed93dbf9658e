"""Command-line front end: analytics, simulation, optimization, experiments.

Each command builds one record and hands it to one renderer: ``--format
json`` dumps the record, ``--format csv`` writes its table (dataclass rows
with one column per field, or the flattened results), and the human
format writes labelled lines that the command holds as data.

A call builds only its own command: when ``argv`` names one, the parser
holds that command's subparser alone, and its usage line still lists all
five by name; when it names none or an unknown one (as for ``-h``), the
parser holds all five with their flags.  Each ``ArgumentParser`` and each
``add_argument`` costs a help formatter and a terminal-size query, and
building the four commands a call does not run once took a quarter of a
cold ``optimize`` call.

Exit codes: 0 success, 1 validation-suite failure, 2 argument error
(including a simulation too short to give every node an update, and an
``--output`` path that cannot be opened, which is opened before any work).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys

import numpy as np

from .analytics import (
    AgeResult,
    age_earliest_k,
    age_earliest_k_approx,
    optimal_alpha,
    optimal_k_closed_form,
    optimal_k_exact,
)
from .delay_models import HyperExponential, ShiftedExponential, _check_count
from .experiments import (
    DEFAULT_SEED,
    SCHEMES,
    as_record,
    run_fig4,
    run_fig5,
    run_fig6,
    run_validation,
    simulate_point,
)
from .simulator import PreSelectedK, SimulationError, WaitForAll

_SCHEMES_BY_CLI_NAME = {scheme.cli_name: scheme for scheme in SCHEMES.values()}

# Each figure's sweep, called with its own flags; the defaults of those
# flags (the other figures' flags do not apply to it); and its default
# (paper) rounds per point.
_FIGURES = {
    "fig4": (lambda step, **run: run_fig4(k_step=step, **run), {"step": 5}, 100_000),
    "fig5": (lambda step, **run: run_fig5(k_step=step, **run), {"step": 5}, 100_000),
    "fig6": (lambda n_min, n_max, n_step, **run: run_fig6(
        n_values=tuple(range(n_min, n_max + 1, n_step)), **run
    ), {"n_min": 1, "n_max": 200, "n_step": 1}, 1_000_000),
}
# Each figure flag and what it sets.
_FIGURE_FLAGS = {"step": "k-grid step", "n_min": "smallest n", "n_max": "largest n",
                 "n_step": "n stride"}

_OPTIMIZE_LABELS = {
    "alpha_star": "alpha*",
    "approx_age_at_alpha_star": "approximate age at alpha*",
    "k_closed_form": "closed-form k*",
    "exact_age_at_k_closed_form": "exact age at closed-form k*",
    "k_exhaustive": "exhaustive k*",
    "exact_age_at_k_exhaustive": "exact age at exhaustive k*",
}


class _CliError(Exception):
    """Bad arguments detected after parsing; maps to exit code 2."""


def _fnum(x: float) -> str:
    return f"{x:.12g}"


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    return as_record(value)


def json_text(record) -> str:
    """The record as JSON; dataclasses become ``{column: value}`` objects."""
    return json.dumps(record, indent=2, sort_keys=True, default=_jsonable) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_text(header, rows) -> str:
    """A CSV table; missing values are empty cells, flags 1 or 0, floats in full."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(value) for value in row] for row in rows)
    return buf.getvalue()


def table(rows) -> tuple:
    """``(header, rows)`` of nonempty dataclass rows, one column per field."""
    records = [as_record(row) for row in rows]
    return tuple(records[0]), [tuple(record.values()) for record in records]


def _flatten(record, *section):
    for name, value in record.items():
        if isinstance(value, dict):
            yield from _flatten(value, *section, name)
        else:
            yield (*section, name, value)


def _flat_table(record) -> tuple:
    """``(header, rows)`` of ``name,value`` rows, under one ``section`` per nested dict."""
    rows = list(_flatten(record))
    return ("section",) * (len(rows[0]) - 2) + ("name", "value"), rows


def _human_text(value) -> str:
    if isinstance(value, AgeResult):
        return _fnum(value.total) + "".join(
            f"\n  {name}: {_fnum(term)}" for name, term in value.breakdown.items()
        )
    return _fnum(value) if isinstance(value, float) else str(value)


def _labelled(lines) -> list[str]:
    """Human lines of ``label: value`` pairs from dicts, pairs two spaces apart.

    A None value is left out, and so is a line with no value left; an age
    result shows its total, then one indented line per breakdown term.
    """
    out = []
    for line in lines:
        pairs = [f"{label}: {_human_text(value)}" for label, value in line.items()
                 if value is not None]
        if pairs:
            out.append("  ".join(pairs))
    return out


def _emit(args, record, csv_table, human=None) -> None:
    """Write a command's output in ``args.format``; without human lines, human is CSV."""
    if args.format == "json":
        text = json_text(record)
    elif args.format == "csv" or human is None:
        text = csv_text(*csv_table)
    else:
        text = "".join(line + "\n" for line in human)
    args.stream.write(text)


def _seed(args) -> int:
    """``--seed``, else the ``AOI_SEED`` environment variable, else the default."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("AOI_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError as exc:
        raise _CliError(f"AOI_SEED must be an integer, got {raw!r}") from exc


def _shift(args) -> float:
    """``--shift``, else 0: the flag's own default is unset, so that a given 0 shows."""
    return 0.0 if args.shift is None else args.shift


def _build_model(args):
    if args.hyperexp is None:
        if args.lam is None:
            raise _CliError("a delay model is required: give --lambda (and --shift) or --hyperexp")
        return ShiftedExponential(args.lam, _shift(args))
    if args.lam is not None or args.shift is not None:
        raise _CliError("--lambda and --shift do not apply with --hyperexp")
    try:
        rates_text, weights_text = args.hyperexp.split(":")
        rates = tuple(float(x) for x in rates_text.split(","))
        weights = tuple(float(x) for x in weights_text.split(","))
        return HyperExponential(rates, weights)
    except (ValueError, TypeError) as exc:
        raise _CliError(
            f"--hyperexp expects 'r1,r2,...:w1,w2,...', got {args.hyperexp!r} ({exc})"
        ) from exc


def _scheme_k(scheme, n: int, k) -> int:
    """The acknowledgement count that ``--scheme`` waits for out of ``--n``."""
    if scheme.policy is WaitForAll:
        if k is not None:
            raise _CliError(f"--k does not apply to --scheme {scheme.cli_name}")
        return n
    if k is None:
        raise _CliError(f"--scheme {scheme.cli_name} requires --k")
    if k > n:
        raise _CliError(f"--k {k} exceeds --n {n}")
    return k


def _analyze(args) -> int:
    scheme = _SCHEMES_BY_CLI_NAME[args.scheme]
    if args.hyperexp is not None:
        raise _CliError(
            "analyze evaluates shifted-exponential closed forms; "
            "--hyperexp has no analytic age (use the simulate subcommand)"
        )
    if args.lam is None:
        raise _CliError("analyze requires --lambda")
    if args.k is not None and args.alpha is not None:
        raise _CliError("--k and --alpha are mutually exclusive; give exactly one")
    shift = _shift(args)

    ages = {"exact": None, "approx": None}
    if args.alpha is not None:
        if args.scheme != "earliest-k":
            raise _CliError("--alpha applies only to --scheme earliest-k")
        if args.n is not None:
            raise _CliError("--n does not apply with --alpha; give --alpha alone")
        ages["approx"] = age_earliest_k_approx(args.lam, shift, args.alpha)
    else:
        if args.n is None:
            raise _CliError(f"--scheme {args.scheme} requires --n")
        point = (args.lam, shift, args.n, _scheme_k(scheme, args.n, args.k))
        estimated = scheme.estimated(*point)
        ages["approx"] = scheme.approx(*point)
        if scheme.published is None:
            ages["exact"] = estimated
        else:
            ages["exact"] = scheme.published(*point)
            ages["process"] = estimated

    human = [{"scheme": args.scheme}, {"lambda": args.lam}, {"shift": shift},
             {"n": args.n}, {"k": args.k}, {"alpha": args.alpha},
             {"exact age": ages["exact"] or "(none)"},
             {"approximate age": ages["approx"] or "(none)"},
             {"process-exact age (matches simulation)": ages.get("process")}]
    sections = {key: {"total": age.total, **age.breakdown}
                for key, age in ages.items() if age is not None}
    _emit(args, {"scheme": args.scheme, **ages}, _flat_table(sections), _labelled(human))
    return 0


def _simulate(args) -> int:
    scheme = _SCHEMES_BY_CLI_NAME[args.scheme]
    model = _build_model(args)
    k = _scheme_k(scheme, args.n, args.k)
    if args.regroup is None:
        policy = WaitForAll() if scheme.policy is WaitForAll else scheme.policy(k)
    elif scheme.policy is PreSelectedK:
        policy = PreSelectedK(k, args.regroup.replace("-", "_"))
    else:
        raise _CliError(f"--regroup does not apply to --scheme {scheme.cli_name}")
    seed = _seed(args)
    result, row = simulate_point(model, policy, args.n, args.updates, args.warmup, seed,
                                 args.replications)
    echo = {
        "scheme": args.scheme,
        "model": model.label(),
        "n": args.n,
        "k": k,
        "updates": args.updates,
        "warmup": args.warmup,
        "seed": seed,
        "replications": args.replications,
    }
    record = {"config": echo, **as_record(result),
              "exact_age": row.exact_age, "approx_age": row.approx_age}
    human = [{key: echo[key] for key in line} for line in (
        ("scheme",), ("model",), ("n", "k"), ("updates", "warmup", "replications", "seed")
    )]
    human += [
        {"grand mean age": result.grand_mean},
        {"std error": result.std_error},
        {"virtual time": result.virtual_time},
        {"exact age": row.exact_age},
        {"approximate age": row.approx_age},
    ]
    _emit(args, record, table([row]), _labelled(human))
    return 0


def _optimize(args) -> int:
    if args.lam is None:
        raise _CliError("optimize requires --lambda")
    shift = _shift(args)
    alpha = optimal_alpha(args.lam, shift)
    k_closed = optimal_k_closed_form(args.lam, shift, args.n)
    results = {
        "alpha_star": alpha,
        "approx_age_at_alpha_star": (
            age_earliest_k_approx(args.lam, shift, alpha).total
            if 0.0 < alpha < 1.0 else None
        ),
        "k_closed_form": k_closed,
        "exact_age_at_k_closed_form": age_earliest_k(args.lam, shift, args.n, k_closed).total,
    }
    k_best, best = optimal_k_exact(args.lam, shift, args.n)
    results.update(k_exhaustive=k_best, exact_age_at_k_exhaustive=best.total)

    inputs = {"lambda": args.lam, "shift": shift, "n": args.n}
    human = [inputs] + [{label: results[key]} for key, label in _OPTIMIZE_LABELS.items()]
    _emit(args, {**inputs, **results}, _flat_table(results), _labelled(human))
    return 0


def _experiment(args) -> int:
    run, defaults, default_rounds = _FIGURES[args.figure]
    flags = {}
    for dest in _FIGURE_FLAGS:
        flag, value = "--" + dest.replace("_", "-"), getattr(args, dest)
        if dest not in defaults:
            if value is not None:
                raise _CliError(f"{flag} does not apply to experiment {args.figure}")
            continue
        flags[dest] = defaults[dest] if value is None else value
        if dest.endswith("step"):
            _check_count(flag, flags[dest])
    rows = run(
        **flags,
        rounds=args.rounds if args.rounds is not None else default_rounds,
        warmup=args.warmup,
        replications=args.replications,
        seed=_seed(args),
    )
    _emit(args, rows, table(rows))
    return 0


def _validate(args) -> int:
    report = run_validation(
        rounds=args.rounds, seed=_seed(args), warmup=args.warmup, z_threshold=args.z
    )
    _emit(args, report.cells, table(report.cells), report.lines())
    return 0 if report.passed else 1


def _figure_help(what: str, dest: str) -> str:
    """``what`` and each figure's default for it, read from ``_FIGURES``."""
    defaults = {figure: rounds if dest == "rounds" else flags.get(dest)
                for figure, (_, flags, rounds) in _FIGURES.items()}
    return f"{what} (default " + ", ".join(
        f"{value} for {figure}" for figure, value in defaults.items() if value is not None
    ) + ")"


def _add_model_flags(parser) -> None:
    parser.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="rate of the (shifted) exponential delay")
    parser.add_argument("--shift", type=float, default=None,
                        help="constant delay floor c (default 0)")


def _add_scheme_flags(parser, hyperexp_help: str, n_required: bool) -> None:
    parser.add_argument("--scheme", required=True, choices=tuple(_SCHEMES_BY_CLI_NAME))
    _add_model_flags(parser)
    parser.add_argument("--hyperexp", default=None, help=hyperexp_help)
    parser.add_argument("--n", type=int, required=n_required)
    parser.add_argument("--k", type=int, default=None)


def _add_run_flags(parser) -> None:
    parser.add_argument("--warmup", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=None)


def _analyze_flags(parser) -> None:
    _add_scheme_flags(parser, "rejected here; analyze is closed-form only", n_required=False)
    parser.add_argument("--alpha", type=float, default=None,
                        help="threshold ratio k/n for the earliest-k approximation")


def _simulate_flags(parser) -> None:
    _add_scheme_flags(parser, "mixture model 'r1,r2,...:w1,w2,...' instead of --lambda/--shift",
                      n_required=True)
    parser.add_argument("--updates", type=int, default=100_000)
    _add_run_flags(parser)
    parser.add_argument("--replications", type=int, default=1)
    parser.add_argument("--regroup", choices=("per-update", "fixed"), default=None,
                        help="pre-selected-k only: redraw the group per update (default) "
                        "or keep nodes 0..k-1 as the group; a kept group of k < n shows no "
                        "exact or approximate age, since both describe per-update regrouping")


def _optimize_flags(parser) -> None:
    _add_model_flags(parser)
    parser.add_argument("--n", type=int, required=True)


def _experiment_flags(parser) -> None:
    parser.add_argument("figure", choices=tuple(_FIGURES))
    parser.add_argument("--rounds", type=int, default=None,
                        help=_figure_help("rounds per point", "rounds"))
    _add_run_flags(parser)
    parser.add_argument("--replications", type=int, default=1)
    for dest, what in _FIGURE_FLAGS.items():
        parser.add_argument("--" + dest.replace("_", "-"), type=int, default=None,
                            help=_figure_help(what, dest))


def _validate_flags(parser) -> None:
    parser.add_argument("--rounds", type=int, default=100_000)
    _add_run_flags(parser)
    parser.add_argument("--z", type=float, default=4.0,
                        help="failure threshold in standard errors")


# Each command's handler, its help line, and what adds its own flags (after
# the --format and --output that every command has).
_COMMANDS = {
    "analyze": (_analyze, "evaluate exact and approximate age formulas", _analyze_flags),
    "simulate": (_simulate, "Monte Carlo estimate of the average age", _simulate_flags),
    "optimize": (_optimize, "age-minimizing stopping threshold", _optimize_flags),
    "experiment": (_experiment, "run a predefined sweep and emit its table", _experiment_flags),
    "validate": (_validate, "simulation-vs-theory agreement grid", _validate_flags),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, or of every command if None.

    A one-command parser names all five in its usage line through the
    subparsers' metavar; the full build leaves the metavar unset, so that a
    missing command is still reported as "required: command".
    """
    parser = argparse.ArgumentParser(
        prog="multicast-aoi",
        description="Average age of information for multicast status updates: "
        "closed forms, threshold optimization, and Monte Carlo simulation.",
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        _, summary, add_flags = _COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        p.add_argument("--format", choices=("human", "csv", "json"), default="human")
        p.add_argument("--output", default=None,
                       help="write to this path instead of stdout (created or emptied first)")
        add_flags(p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.output:
        try:
            stream = open(args.output, "w", newline="")
        except OSError as exc:
            print(f"error: cannot write --output {args.output}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        stream = contextlib.nullcontext(sys.stdout)
    with stream as args.stream:
        try:
            return _COMMANDS[args.command][0](args)
        except (_CliError, ValueError, SimulationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
