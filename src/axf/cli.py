"""Command line front end.

Subcommands: parse, eval, transform, verify, stats.  Exit codes: 0 on
success, 1 when verification finds a counterexample, 2 for input errors
(bad files, bad programs, bad flags), 3 when an internal invariant breaks.
All stdout is deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .evaluator import Universe, extend_in_stages
from .logic import AxiomProgram, LogicError
from .parser import (
    ParseError,
    format_ground_atom,
    parse_program,
    parse_state,
    print_program,
    program_to_json,
)
from .transformer import (
    compute_metrics,
    eliminate_negative_occurrences,
    merge_to_single_stratum,
    simplify_program,
)
from .verifier import TRANSFORMED_CHECKS, VerificationPlan, VerificationResult, run_checks


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not valid UTF-8 at byte offset {exc.start}") from None


def _load_program(path: str) -> AxiomProgram:
    return parse_program(_read(path), path)


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_parse(args) -> int:
    program = _load_program(args.program)
    if args.json:
        _emit_json(program_to_json(program))
    else:
        sys.stdout.write(print_program(program))
    return 0


def cmd_eval(args) -> int:
    program = _load_program(args.program)
    state = parse_state(_read(args.state), program, args.state)
    extension, tables = extend_in_stages(program, Universe(program.universe_hint), state)
    derived = {p.name for p in program.derived_predicates}
    atoms = sorted(k for k in extension.true_atoms if k[0] in derived)
    if args.json:
        payload = {"derived": [format_ground_atom(n, a) for n, a in atoms]}
        if args.stages:
            payload["stages"] = [
                {
                    "stratum": index,
                    "fixpoint": table.fixpoint_stage,
                    "atoms": {
                        format_ground_atom(n, a): s
                        for (n, a), s in sorted(table.stage.items())
                    },
                }
                for index, table in enumerate(tables)
            ]
        _emit_json(payload)
        return 0
    if args.stages:
        for index, table in enumerate(tables):
            print(f"stratum {index}")
            for (name, tup), stage in sorted(table.stage.items()):
                print(f"  {format_ground_atom(name, tup)}: {stage}")
            print(f"  f: {table.fixpoint_stage}")
    else:
        for name, tup in atoms:
            print(format_ground_atom(name, tup))
    return 0


def cmd_transform(args) -> int:
    program = _load_program(args.program)
    transformed, report = eliminate_negative_occurrences(
        program, optimize_aux=args.optimize_aux
    )
    result = merge_to_single_stratum(transformed) if args.merge else transformed
    if args.simplify:
        result = simplify_program(result)
    text = print_program(result)
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    if args.json:
        _emit_json({"program": text, "report": report.to_json()})
    elif not args.output:
        sys.stdout.write(text)
    return 0


def _print_results(result: VerificationResult, quiet: bool) -> None:
    if quiet:
        return
    for check in result.checks:
        status = "PASS" if check.passed else "FAIL"
        line = f"{status} {check.name}"
        if check.states_checked:
            line += f" states={check.states_checked}"
        if check.failures:
            line += f" failures={check.failures}"
        print(line)
        for note in check.notes:
            print(f"  note: {note}")
        if check.counterexample is not None:
            print(f"  state: {check.counterexample.state_text()}")
            print(f"  detail: {check.counterexample.detail}")


def _default_sizes(program: AxiomProgram) -> tuple[int, ...]:
    return (len(program.universe_hint),) if program.universe_hint else (2,)


def cmd_verify(args) -> int:
    program = _load_program(args.program)
    sizes = tuple(args.universe) if args.universe else _default_sizes(program)
    if args.checks != "all":
        checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    else:
        checks = TRANSFORMED_CHECKS if args.transformed else VerificationPlan().checks
    plan = VerificationPlan(
        universe_sizes=sizes,
        samples=args.samples,
        seed=args.seed,
        checks=checks,
    )
    transformed = _load_program(args.transformed) if args.transformed else None
    result = run_checks(program, plan, transformed=transformed)
    if args.json:
        _emit_json(result.to_json())
    else:
        _print_results(result, args.quiet)
    return 0 if result.passed else 1


def cmd_stats(args) -> int:
    program = _load_program(args.program)
    metrics = compute_metrics(program)
    if args.json:
        _emit_json(metrics.to_json())
        return 0
    headers = ("stratum", "members", "max-arity", "total-arity", "occurrences", "size")
    rows = [
        (
            str(index),
            str(s.members),
            str(s.max_arity),
            str(s.total_arity),
            str(s.same_stratum_occurrences),
            str(s.size),
        )
        for index, s in enumerate(metrics.strata)
    ]
    widths = [
        max(len(headers[col]), *(len(r[col]) for r in rows)) if rows else len(headers[col])
        for col in range(len(headers))
    ]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for row in rows:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    print(f"signature size: {metrics.signature_size}")
    print(f"program size: {metrics.total_size}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axf",
        description=(
            "Parse, evaluate, and transform stratified axiom programs; the "
            "transform rewrites every negative occurrence of a derived "
            "predicate into a positive stage-order test."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate a program and print its canonical form")
    p.add_argument("program", help="program file")
    p.add_argument("--json", action="store_true", help="print a JSON rendering instead")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="extend a basic state and print derived atoms")
    p.add_argument("program", help="program file")
    p.add_argument("state", help="state file")
    p.add_argument("--stages", action="store_true", help="print derivation stages per stratum")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("transform", help="eliminate negative derived occurrences")
    p.add_argument("program", help="program file")
    p.add_argument("-o", "--output", help="write the transformed program here instead of stdout")
    p.add_argument("--merge", action="store_true", help="collapse the result into a single stratum")
    p.add_argument(
        "--optimize-aux",
        action="store_true",
        help="share repeated conjuncts through auxiliary predicates",
    )
    p.add_argument(
        "--simplify",
        action="store_true",
        help="collapse double negations in the printed result",
    )
    p.add_argument("--report", help="write a JSON transformation report to this file")
    p.add_argument("--json", action="store_true", help="print program and report as JSON")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("verify", help="check the transformation against brute-force oracles")
    p.add_argument("program", help="program file")
    p.add_argument(
        "--transformed",
        help="verify this already-transformed file instead of transforming internally "
        "(checks: polarity, equivalence)",
    )
    p.add_argument(
        "--universe",
        type=int,
        nargs="+",
        metavar="N",
        help="universe sizes to sweep (default: the declared objects)",
    )
    p.add_argument(
        "--samples", type=int, help="sample this many basic states (default: every state)"
    )
    p.add_argument("--seed", default="0", help="seed for sampling (default 0)")
    p.add_argument(
        "--checks",
        default="all",
        help="comma-separated subset of " + ",".join(VerificationPlan().checks),
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("--quiet", action="store_true", help="no output, exit code only")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="print per-stratum size metrics")
    p.add_argument("program", help="program file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        for diagnostic in exc.diagnostics:
            print(str(diagnostic), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LogicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if str(exc).startswith("internal error") else 2
    except Exception as exc:  # noqa: BLE001 - last resort, map to exit code 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
