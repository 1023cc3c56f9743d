"""Command-line interface.

Subcommands: gen, solve, dual, predict, expect, experiment, oracle.
Exit codes: 0 success, 1 infeasible (or failed oracle suite), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import arborescence as arb_mod
from . import asymptotics, dual, harness, instance as inst_mod
from .errors import AmbiguousRegimeError, CostarbError, InfeasibleBudgetError

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--c0", type=float, help="absolute budget")
    group.add_argument("--alpha", type=float, help="budget as alpha * n")
    group.add_argument("--gamma", type=float, help="budget as n ** gamma")


def _budget_spec(args) -> harness.BudgetSpec:
    if args.c0 is not None:
        return harness.BudgetSpec("absolute", args.c0)
    if args.alpha is not None:
        return harness.BudgetSpec("alpha_n", args.alpha)
    return harness.BudgetSpec("power", args.gamma)


def _emit(payload: dict, out_path) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_or_generate(args) -> inst_mod.Instance:
    if args.infile:
        # --s and --seed describe a drawn instance; a loaded one has its own
        for flag in ("s", "seed"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} draws an instance and cannot go with --in")
        return inst_mod.load(args.infile)
    return inst_mod.generate(
        args.n, 1.0 if args.s is None else args.s, 0 if args.seed is None else args.seed
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="costarb",
        description="Budget-constrained minimum spanning arborescences on random digraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["bin", "csv"], default="bin")

    for name in ("solve", "dual"):
        p = sub.add_parser(
            name,
            help="run the full pipeline" if name == "solve" else "maximise the dual only",
        )
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--n", type=int)
        source.add_argument("--in", dest="infile", help="load instance instead of generating")
        p.add_argument("--s", type=float, help="with --n only (default 1.0)")
        p.add_argument("--seed", type=int, help="with --n only (default 0)")
        _add_budget_flags(p)
        p.add_argument("--out")

    p = sub.add_parser("predict", help="closed-form regime prediction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=float, default=1.0)
    _add_budget_flags(p)
    p.add_argument("--out")

    p = sub.add_parser("expect", help="Monte Carlo check of the expected row minimum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--reps", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("experiment", help="run a trial ensemble and report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_budget_flags(p)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="path prefix; writes <out>.json and <out>.csv")
    p.add_argument("--format", choices=["json", "csv"], default="json",
                   help="what to print to stdout when --out is not given")

    p = sub.add_parser("oracle", help="exhaustive small-n cross-validation suite")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    return parser


def _cmd_gen(args) -> int:
    inst = inst_mod.generate(args.n, args.s, args.seed)
    if args.format == "bin":
        inst_mod.save(inst, args.out)
    else:
        inst_mod.export_csv(inst, args.out)
    return EXIT_OK


def _cmd_solve(args) -> int:
    inst = _load_or_generate(args)
    c0 = _budget_spec(args).resolve(inst.n)
    result = arb_mod.solve_constrained_arborescence(inst, c0)
    tree = result.arborescence.to_dict()
    _emit({**tree, "lower_bound": result.lower_bound, "trace": result.trace}, args.out)
    return EXIT_OK


def _cmd_dual(args) -> int:
    inst = _load_or_generate(args)
    c0 = _budget_spec(args).resolve(inst.n)
    opt = dual.maximize_dual(inst, c0)
    payload = {
        "lambda_star": opt.lambda_star,
        "phi_star": opt.phi_star,
        "mapping_low": {"weight": opt.mapping_low.weight, "cost": opt.mapping_low.cost},
        "mapping_high": {"weight": opt.mapping_high.weight, "cost": opt.mapping_high.cost},
        "full_evaluations": opt.full_evaluations,
        "candidate_evaluations": opt.candidate_evaluations,
        "candidate_width": opt.candidate_width,
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_predict(args) -> int:
    c0 = _budget_spec(args).resolve(args.n)
    prediction = asymptotics.predict(args.n, c0, args.s)
    _emit(prediction.to_dict(), args.out)
    if prediction.regime == "CASE3_INFEASIBLE":
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_expect(args) -> int:
    report = harness.run_expectation_check(args.n, args.lam, args.s, args.reps, args.seed)
    _emit(report.to_dict(), args.out)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    config = harness.ExperimentConfig(
        n=args.n, s=args.s, trials=args.trials, base_seed=args.seed,
        budget=_budget_spec(args), parallelism=args.workers,
    )
    report = harness.run_experiment(config)
    if args.out:
        harness.write_report(report, f"{args.out}.json", f"{args.out}.csv")
    elif args.format == "json":
        print(report.to_json())
    else:
        sys.stdout.write(report.rows_csv())
    return EXIT_OK


def _cmd_oracle(args) -> int:
    report = harness.run_oracle_suite(
        args.count, range(args.n_min, args.n_max + 1), args.seed
    )
    _emit(report.to_dict(), args.out)
    return EXIT_OK if report.passed else EXIT_INFEASIBLE


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "dual": _cmd_dual,
    "predict": _cmd_predict,
    "expect": _cmd_expect,
    "experiment": _cmd_experiment,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except InfeasibleBudgetError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except AmbiguousRegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CostarbError, ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
