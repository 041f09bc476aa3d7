"""Command line front end: run experiment plans, trace one trial, verify.

Subcommands:

* ``run``: execute a JSON experiment plan, write per-cell aggregates as CSV
  and optionally a log-log SVG plot.
* ``recover``: decode trial 0 of every cell of a JSON experiment plan,
  printing the per-iterate errors as CSV on stdout.
* ``verify``: run the oracle cross-check suites; exit 0 iff all pass.
"""

from __future__ import annotations

import argparse
import os
import sys

from .harness import (
    THREADS_CAP,
    decode_trial,
    emit_csv,
    emit_svg_loglog,
    plan_from_json,
    run_experiment,
)

__all__ = ["main"]


def _check_writable(*paths: str) -> None:
    """Open each path for appending, then remove it if this check created it.

    An unwritable ``--out`` or ``--svg`` then fails before any trial is
    drawn, and the failure leaves no file of the run behind.
    """
    for path in paths:
        existed = os.path.lexists(path)
        with open(path, "a", encoding="utf-8"):
            pass
        if not existed:
            os.remove(path)


def _read_plan(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return plan_from_json(fh.read())


def _cmd_run(args) -> int:
    plan = _read_plan(args.config)
    _check_writable(*(p for p in (args.out, args.svg) if p is not None))
    result = run_experiment(plan, threads=args.threads)
    emit_csv(plan, result.cells, args.out)
    if args.svg is not None:
        emit_svg_loglog(plan, result.cells, args.svg)
    print(f"wrote {len(result.cells)} cells of {plan.trials} trials to {args.out}")
    return 0


def _cmd_recover(args) -> int:
    plan = _read_plan(args.config)
    print("m,iter,error")
    for m, result in zip(plan.m_grid, decode_trial(plan, 0)):
        for t, err in enumerate(result.errors, start=1):
            print(f"{m},{t},{err:.12g}")
    return 0


def _cmd_verify(args) -> int:
    from .verify import SUITES, run_suite

    names = sorted(SUITES) if args.suite is None else [args.suite]
    failures = 0
    for name in names:
        for check in run_suite(name):
            status = "pass" if check.passed else "FAIL"
            print(f"[{status}] {name}.{check.name}: {check.detail}")
            failures += not check.passed
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line on stderr and exits 2; subparsers inherit it."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quantcs", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment plan from JSON")
    p_run.add_argument("--config", required=True, help="path to the plan JSON")
    p_run.add_argument("--out", required=True, help="path of the CSV to write")
    p_run.add_argument("--svg", default=None, help="optional path of a log-log SVG plot")
    p_run.add_argument(
        "--threads",
        type=int,
        default=1,
        help=f"worker threads, 1 to {THREADS_CAP} (output is identical for any value; "
        "more than one pays only with OPENBLAS_NUM_THREADS=1)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_rec = sub.add_parser("recover", help="per-iterate errors of trial 0 of every cell of a plan")
    p_rec.add_argument("--config", required=True, help="path to the plan JSON")
    p_rec.set_defaults(func=_cmd_recover)

    p_ver = sub.add_parser("verify", help="run oracle cross-check suites")
    p_ver.add_argument("--suite", default=None, help="run one suite (default: all)")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
