"""Command-line front end.

Exit codes: 0 means every checked conclusion holds, 1 means a mathematical
counterexample was found (the offending sets are dumped in plain text and
JSON regardless of format flags) or, for ``reproduce``, that a check row
failed (its ``[FAIL]`` row names what was found, and no set is dumped as
a counterexample), 2 means a usage or hypothesis error, a sweep over its
budget, a path that cannot be read or written, or a DP too large to hold,
which a sweep refuses before it opens ``--csv``, 3 means
an internal error, a fault in the program whose traceback goes to stderr,
so a crash never reads as a counterexample, and 141 (128 + SIGPIPE) means
the reader closed the output pipe early, as ``| head`` does, so the run
stopped without a verdict.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import nullcontext
from functools import cache

from . import bounds, reproduce
from .engine import Operator, compute_sumset
from .search import (CSV_HEADER, DEFAULT_BUDGET, EMIT_MODES, Family,
                     SearchSpace, random_probe, sweep)
from .sets import IntegerSet, common_difference, make_set
from .verify import (check_ap_iff, check_direct, check_inverse,
                     check_partial_inverse, check_prefix_decomposition,
                     check_special_direct)

def _parse_set(args: argparse.Namespace) -> IntegerSet:
    if args.set_file is not None:
        with open(args.set_file) as fh:
            raw = [int(line) for line in fh if line.strip()]
    elif args.set is not None:
        raw = [int(part) for part in args.set.split(",") if part.strip()]
    else:
        raise ValueError("provide --set or --set-file")
    return make_set(raw)


def _add_set_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--set", help="comma-separated integers")
    parser.add_argument("--set-file",
                        help="file with one integer per line")


def _finish(as_json: bool, payload: dict, lines: list[str],
            counterexamples: list[IntegerSet]) -> int:
    """Print the JSON payload or the text lines, then dump every
    counterexample in both forms; the exit code is 1 if there were any."""
    import json  # reproduce and every refusal would pay for it at import
    if as_json:
        print(json.dumps(payload))
    else:
        print("\n".join(lines))
    for a in counterexamples:
        print(f"COUNTEREXAMPLE set={a}")
        print(json.dumps({"counterexample": a.to_list()}))
    return 1 if counterexamples else 0


def cmd_sumset(args: argparse.Namespace) -> int:
    a = _parse_set(args)
    op = Operator(args.op)
    result = compute_sumset(a, args.h, op)
    lines = [f"set: {a}",
             f"operator: {op.value}  h: {args.h}",
             f"cardinality: {result.cardinality}",
             f"min: {result.min_sum}  max: {result.max_sum}"]
    if args.full:
        lines.append("sums: " + ",".join(str(x) for x in result.sums))
    return _finish(args.json,
                   result.to_dict(a, args.h, op, include_sums=args.full),
                   lines, [])


def cmd_bounds(args: argparse.Namespace) -> int:
    formulas = bounds.catalogue(args.h, args.k)
    lines = [f"{f.name:22s} {f.value:8d}  "
             f"[{'sharp' if f.sharp else 'lower bound'}]  {f.hypothesis}"
             for f in formulas]
    return _finish(args.json,
                   {"h": args.h, "k": args.k,
                    "bounds": [f.to_dict() for f in formulas]},
                   lines or [f"no bound window admits h={args.h}, k={args.k}"],
                   [])


# Each checker returns (JSON payload, text lines, A is a counterexample).

def _check_direct(a: IntegerSet, h: int) -> tuple[dict, list[str], bool]:
    report = check_direct(a, h)
    return report.to_dict(), [
        f"set: {a}  h: {h}",
        f"cardinality: {report.cardinality}  "
        f"bound {report.bound_name}: {report.bound_value}",
        f"slack: {report.slack}  equality: {report.equality}",
    ], not report.holds


def _check_inverse(a: IntegerSet, h: int) -> tuple[dict, list[str], bool]:
    verdict = check_inverse(a, h)
    report, structure = verdict.report, verdict.predicted_structure
    payload = report.to_dict(structure)
    payload["structure_matches"] = verdict.structure_matches
    return payload, [
        f"set: {a}  h: {h}  cardinality: {report.cardinality}  "
        f"bound: {report.bound_value}",
        f"equality: {verdict.equality_holds}  "
        f"structure: {structure.kind.value} d={structure.d}  "
        f"matches: {verdict.structure_matches}",
    ], verdict.equality_holds and verdict.structure_matches is False


def _check_lemma(a: IntegerSet, h: int) -> tuple[dict, list[str], bool]:
    report = check_prefix_decomposition(a, h)
    return report.to_dict(), [
        f"set: {a}  h: {h}  family: {report.family}",
        f"prefix: {report.prefix}  prefix cardinality: "
        f"{report.prefix_cardinality}  surplus t: {report.t}",
        f"asserted bound: {report.asserted_bound}  "
        f"actual: {report.cardinality}  holds: {report.holds}"
        if report.applicable else "not applicable (t < 0)",
    ], report.applicable and not report.holds


def _check_partial(a: IntegerSet, h: int) -> tuple[dict, list[str], bool]:
    checks = check_partial_inverse(a, h)
    return {"set": a.to_list(), "h": h,
            "conditions": [c.to_dict() for c in checks]}, [
        f"set: {a}  h: {h}",
        *(f"condition ({c.condition}): applicable={c.applicable}  "
          f"conclusion_verified="
          f"{'-' if c.conclusion_verified is None else c.conclusion_verified}"
          for c in checks),
    ], any(c.conclusion_verified is False for c in checks)


def _check_special(a: IntegerSet, h: int) -> tuple[dict, list[str], bool]:
    report = check_special_direct(a, h)
    return report.to_dict(), [
        f"set: {a}  h: {h}",
        f"cardinality: {report.cardinality}  bound: {report.bound_value}  "
        f"slack: {report.slack}",
    ], not report.holds


def _check_ap(a: IntegerSet, h: int) -> tuple[dict, list[str], bool]:
    if a.k != h + 1:
        raise ValueError(f"ap check requires an (h+1)-term progression, "
                         f"got k={a.k} for h={h}")
    if (d := common_difference(a.elements)) is None:
        raise ValueError("ap check requires an arithmetic progression")
    report = check_ap_iff(a.min_element, d, h)
    return report.to_dict(), [
        f"set: {a}  h: {h}  a1: {report.a1}  d: {report.d}",
        f"cardinality: {report.cardinality}  target (h+1)^2: "
        f"{report.target}  d = 2*a1: {report.d_is_twice_min}",
        f"iff holds: {report.iff_holds}",
    ], not report.holds


CHECKS = {
    "direct": _check_direct,
    "inverse": _check_inverse,
    "lemma-decomposition": _check_lemma,
    "partial-inverse": _check_partial,
    "special-direct": _check_special,
    "ap": _check_ap,
}


def cmd_check(args: argparse.Namespace) -> int:
    a = _parse_set(args)
    payload, lines, failed = CHECKS[args.theorem](a, args.h)
    return _finish(args.json, payload, lines, [a] if failed else [])


def cmd_sweep(args: argparse.Namespace) -> int:
    threads = (os.cpu_count() or 1) if args.threads is None else args.threads
    if threads < 1:
        raise ValueError(f"--threads must be at least 1, got {threads}")
    space = SearchSpace(k=args.k, h=args.h, max_element=args.max,
                        family=Family(args.family),
                        filter_id="primitive" if args.primitive_only else None)
    space.admit(args.budget)  # before the CSV path is opened
    with (nullcontext() if args.csv is None
          else nullcontext(sys.stdout) if args.csv == "-"
          else open(args.csv, "w")) as csv_fh:
        if csv_fh is not None:
            print(CSV_HEADER, file=csv_fh)
        summary = sweep(space, budget=args.budget, workers=threads,
                        emit=args.emit,
                        csv_sink=None if csv_fh is None else csv_fh.write)
    return _finish(args.json, summary.to_dict(), [
        f"visited: {summary.visited}  bound: {space.bound().value}",
        f"min cardinality: {summary.min_cardinality}",
        f"equality cases: {summary.equality_count}  "
        f"violations: {summary.violation_count}",
        *(f"  equality: {r.set}  "
          f"structure: {r.structure.kind.value} d={r.structure.d}"
          for r in summary.equality_sets),
    ], [r.set for r in summary.violations])


def cmd_probe(args: argparse.Namespace) -> int:
    space = SearchSpace(k=args.k, h=args.h, max_element=args.max,
                        family=Family(args.family))
    summary = random_probe(space, args.trials, args.seed)
    return _finish(args.json, summary.to_dict(), [
        f"trials: {summary.trials}  seed: {summary.seed}  "
        f"bound: {space.bound().value}",
        f"min slack: {summary.min_slack}  "
        f"equality cases: {summary.equality_count}  "
        f"violations: {summary.violation_count}",
    ], [r.set for r in summary.violations])


def cmd_reproduce(args: argparse.Namespace) -> int:
    rows = reproduce.run_target(args.target)
    failed = [row for row in rows if not row.passed]
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        print(f"[{status}] {row.label}  ({row.detail})")
    print(f"{len(rows) - len(failed)}/{len(rows)} checks passed")
    return 0 if not failed else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; its defaults are
    constants, and ``cmd_sweep`` reads the CPU count on each call."""
    parser = argparse.ArgumentParser(
        prog="signedsum",
        description="Sumset operators, cardinality bounds, and "
                    "verification sweeps for finite integer sets.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("sumset", help="compute one sumset")
    _add_set_arguments(p)
    p.add_argument("--h", type=int, required=True, help="fold")
    p.add_argument("--op", choices=sorted(op.value for op in Operator),
                   required=True)
    p.add_argument("--full", action="store_true",
                   help="list every sum, not just the cardinality")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("bounds", help="bound catalogue at (h, k)")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("check", help="run one theorem checker on a set")
    _add_set_arguments(p)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--theorem", choices=tuple(CHECKS), required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("sweep", help="exhaustive sweep over a search space")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--max", type=int, required=True,
                   help="largest allowed element M")
    p.add_argument("--family", choices=sorted(f.value for f in Family),
                   default="positive")
    p.add_argument("--emit", choices=EMIT_MODES, default="interesting")
    p.add_argument("--csv", help="write records as CSV to a path, or - for stdout")
    p.add_argument("--json", action="store_true")
    p.add_argument("--threads", type=int)
    p.add_argument("--primitive-only", action="store_true",
                   help="skip sets whose elements share a common factor")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="refuse spaces larger than this many sets")

    p = sub.add_parser("probe", help="seeded random sampling of a search space")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--family", choices=sorted(f.value for f in Family),
                   default="positive")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="explicit seed; there is no wall-clock default")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("reproduce", help="run a named verification target")
    p.add_argument("target", choices=sorted(reproduce.TARGETS))

    return parser


def _parse_args(parser: argparse.ArgumentParser,
                argv: list[str] | None) -> argparse.Namespace:
    """Parse the command line. argparse takes a token such as ``-3,1,4``
    for an option, so ``--set`` is joined to a next token that starts with
    a minus and a digit: ``--set -3,1,4`` reads as ``--set=-3,1,4``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] == "--set" and re.match(r"-\d", argv[i + 1]):
            argv[i:i + 2] = ["--set=" + argv[i + 1]]
    return parser.parse_args(argv)


EXIT_INTERNAL_ERROR = 3
EXIT_PIPE_CLOSED = 141


def main(argv: list[str] | None = None) -> int:
    """Run one command, by its handler ``cmd_<verb>``, looked up at each
    call."""
    args = _parse_args(build_parser(), argv)
    try:
        code = globals()["cmd_" + args.verb](args)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return code
    except BrokenPipeError:  # an OSError, so it is caught first
        # Output still buffered for the closed pipe would fail again when
        # the interpreter flushes stdout on exit; send it to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE_CLOSED
    except (ValueError, OSError) as exc:  # bad input, or a path that
        print(f"error: {exc}", file=sys.stderr)  # cannot be read or written
        return 2
    except Exception:  # a fault in the program, not a verdict
        import traceback  # every command would pay for it at import
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
