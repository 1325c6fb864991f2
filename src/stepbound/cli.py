"""Command line interface.

``stepbound check`` runs the bound-spec corpus and the law suite::

    stepbound check
    stepbound check --spec isort-upper --list-len 4
    stepbound check --mode ext
    stepbound check --mutate isort          # self-test: must fail
    stepbound check --json report.json

Exit status is 0 iff every requested check holds, 1 if one fails, and 2
on a usage error (unknown name, bad or oversized domain, a report path
that cannot be written) told in one line.
"""

from __future__ import annotations

import argparse
import os
import sys

from .harness import format_table, reports_to_json, run_all
from .order import OrderError
from .semantics import EvalError, EvalMode


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepbound",
        description="verify cost bounds and effect laws of the example corpus",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="run bound specs and the law suite")
    check.add_argument("--spec", help="run only the named spec (skips laws)")
    check.add_argument(
        "--mode", choices=("cost", "ext"), default="cost",
        help="cost counting, or extensional (all costs collapse to zero "
             "and every relation is checked as an equality)",
    )
    check.add_argument("--nat-max", type=int, help="top-level nat bound")
    check.add_argument("--list-len", type=int, help="max list length")
    check.add_argument("--elems", type=int,
                       help="list elements range over 0..K-1")
    check.add_argument("--state-max", type=int, help="state domain 0..N")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--trials", type=int, default=500,
                       help="trials per law")
    check.add_argument("--json", metavar="PATH",
                       help="write the JSON report to PATH")
    check.add_argument("--mutate", metavar="NAME",
                       help="zero all step charges in the named program "
                            "before verifying (a harness self-test)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    override = {}
    if args.nat_max is not None:
        override["nat_max"] = args.nat_max
    if args.list_len is not None:
        override["list_len"] = args.list_len
    if args.elems is not None:
        override["elems"] = args.elems
    if args.state_max is not None:
        override["state_max"] = args.state_max
    mode = EvalMode.COST_COUNTING if args.mode == "cost" else EvalMode.EXTENSIONAL
    try:
        reports, law_reports, code = run_all(
            mode=mode,
            spec_name=args.spec,
            domain_override=override or None,
            seed=args.seed,
            trials=args.trials,
            mutate=args.mutate,
        )
    except (ValueError, OrderError, EvalError) as e:
        print(f"stepbound: error: {e}", file=sys.stderr)
        return 2
    if args.json:
        try:
            with open(args.json, "w") as fh:
                fh.write(reports_to_json(reports, law_reports))
        except OSError as e:
            print(f"stepbound: error: cannot write the report: {e}",
                  file=sys.stderr)
            return 2
    try:
        print(format_table(reports, law_reports))
        if args.json:
            print(f"report written to {args.json}")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``stepbound check | head``).  The
        # checks ran to the end, so the exit status still reports them;
        # stdout goes to devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
