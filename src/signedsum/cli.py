"""Command-line front end.

Exit codes: 0 means every checked conclusion holds, 1 means a mathematical
counterexample was found (the offending sets are dumped in plain text and
JSON regardless of format flags), 2 means a usage or hypothesis error, and
141 (128 + SIGPIPE) means the reader closed the output pipe early, as
``| head`` does, so the run stopped without a verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bounds, reproduce
from .engine import Operator, compute_sumset
from .search import (CSV_HEADER, DEFAULT_BUDGET, Family, SearchSpace,
                     random_probe, sweep)
from .sets import IntegerSet, gaps, is_arithmetic_progression, make_set
from .verify import (check_ap_iff, check_direct, check_inverse,
                     check_partial_inverse, check_prefix_decomposition,
                     check_special_direct)

OPERATORS = {op.value: op for op in Operator}
FAMILIES = {f.value: f for f in Family}
THEOREMS = ("direct", "inverse", "lemma-decomposition", "partial-inverse",
            "special-direct", "ap")


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


def _dump_counterexamples(sets: list[IntegerSet]) -> None:
    for a in sets:
        print(f"COUNTEREXAMPLE set={a}")
        print(json.dumps({"counterexample": a.to_list()}))


def cmd_sumset(args: argparse.Namespace) -> int:
    a = _parse_set(args)
    op = OPERATORS[args.op]
    result = compute_sumset(a, args.h, op)
    if args.json:
        print(json.dumps(result.to_dict(a, args.h, op,
                                        include_sums=args.full)))
    else:
        print(f"set: {a}")
        print(f"operator: {op.value}  h: {args.h}")
        print(f"cardinality: {result.cardinality}")
        print(f"min: {result.min_sum}  max: {result.max_sum}")
        if args.full:
            print("sums: " + ",".join(str(x) for x in result.sums))
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    formulas = bounds.catalogue(args.h, args.k)
    if args.json:
        print(json.dumps({"h": args.h, "k": args.k,
                          "bounds": [f.to_dict() for f in formulas]}))
    else:
        if not formulas:
            print(f"no bound window admits h={args.h}, k={args.k}")
        for f in formulas:
            sharp = "sharp" if f.sharp else "lower bound"
            print(f"{f.name:22s} {f.value:8d}  [{sharp}]  {f.hypothesis}")
    return 0


def _check_direct(a: IntegerSet, h: int, as_json: bool) -> int:
    report = check_direct(a, h)
    if as_json:
        print(json.dumps(report.to_dict()))
    else:
        print(f"set: {a}  h: {h}")
        print(f"cardinality: {report.cardinality}  "
              f"bound {report.bound_name}: {report.bound_value}")
        print(f"slack: {report.slack}  equality: {report.equality}")
    if not report.holds:
        _dump_counterexamples([a])
        return 1
    return 0


def _check_inverse(a: IntegerSet, h: int, as_json: bool) -> int:
    verdict = check_inverse(a, h)
    report = verdict.report
    if as_json:
        out = report.to_dict(verdict.predicted_structure)
        out["structure_matches"] = verdict.structure_matches
        print(json.dumps(out))
    else:
        print(f"set: {a}  h: {h}  cardinality: {report.cardinality}  "
              f"bound: {report.bound_value}")
        print(f"equality: {verdict.equality_holds}  "
              f"structure: {verdict.predicted_structure.kind.value} "
              f"d={verdict.predicted_structure.d}  "
              f"matches: {verdict.structure_matches}")
    if verdict.equality_holds and verdict.structure_matches is False:
        _dump_counterexamples([a])
        return 1
    return 0


def _check_lemma(a: IntegerSet, h: int, as_json: bool) -> int:
    report = check_prefix_decomposition(a, h)
    if as_json:
        print(json.dumps(report.to_dict()))
    else:
        print(f"set: {a}  h: {h}  family: {report.family}")
        print(f"prefix: {report.prefix}  prefix cardinality: "
              f"{report.prefix_cardinality}  surplus t: {report.t}")
        if report.applicable:
            print(f"asserted bound: {report.asserted_bound}  "
                  f"actual: {report.cardinality}  holds: {report.holds}")
        else:
            print("not applicable (t < 0)")
    if report.applicable and not report.holds:
        _dump_counterexamples([a])
        return 1
    return 0


def _check_partial_inverse(a: IntegerSet, h: int, as_json: bool) -> int:
    checks = check_partial_inverse(a, h)
    if as_json:
        print(json.dumps({"set": a.to_list(), "h": h,
                          "conditions": [c.to_dict() for c in checks]}))
    else:
        print(f"set: {a}  h: {h}")
        for c in checks:
            verified = ("-" if c.conclusion_verified is None
                        else str(c.conclusion_verified))
            print(f"condition ({c.condition}): applicable={c.applicable}  "
                  f"conclusion_verified={verified}")
    if any(c.conclusion_verified is False for c in checks):
        _dump_counterexamples([a])
        return 1
    return 0


def _check_special(a: IntegerSet, h: int, as_json: bool) -> int:
    report = check_special_direct(a, h)
    if as_json:
        print(json.dumps(report.to_dict()))
    else:
        print(f"set: {a}  h: {h}")
        print(f"cardinality: {report.cardinality}  bound: {report.bound_value}  "
              f"slack: {report.slack}")
    if not report.holds:
        _dump_counterexamples([a])
        return 1
    return 0


def _check_ap(a: IntegerSet, h: int, as_json: bool) -> int:
    if a.k != h + 1:
        raise ValueError(f"ap check requires an (h+1)-term progression, "
                         f"got k={a.k} for h={h}")
    if not is_arithmetic_progression(a):
        raise ValueError("ap check requires an arithmetic progression")
    report = check_ap_iff(a.min_element, gaps(a)[0], h)
    if as_json:
        print(json.dumps(report.to_dict()))
    else:
        print(f"set: {a}  h: {h}  a1: {report.a1}  d: {report.d}")
        print(f"cardinality: {report.cardinality}  target (h+1)^2: "
              f"{report.target}  d = 2*a1: {report.d_is_twice_min}")
        print(f"iff holds: {report.iff_holds}")
    if not report.holds:
        _dump_counterexamples([a])
        return 1
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    a = _parse_set(args)
    dispatch = {
        "direct": _check_direct,
        "inverse": _check_inverse,
        "lemma-decomposition": _check_lemma,
        "partial-inverse": _check_partial_inverse,
        "special-direct": _check_special,
        "ap": _check_ap,
    }
    return dispatch[args.theorem](a, args.h, args.json)


def _default_budget() -> int:
    return int(os.environ.get("SUMSET_BUDGET", DEFAULT_BUDGET))


def cmd_sweep(args: argparse.Namespace) -> int:
    space = SearchSpace(k=args.k, h=args.h, max_element=args.max,
                        family=FAMILIES[args.family],
                        filter_id="primitive" if args.primitive_only else None)
    csv_fh = None
    if args.csv is not None:
        csv_fh = sys.stdout if args.csv == "-" else open(args.csv, "w")
        print(CSV_HEADER, file=csv_fh)
    try:
        summary = sweep(
            space, budget=args.budget, workers=args.threads, emit=args.emit,
            on_record=(None if csv_fh is None
                       else lambda r: print(r.to_csv_row(), file=csv_fh)))
    finally:
        if csv_fh is not None and csv_fh is not sys.stdout:
            csv_fh.close()
    if args.json:
        print(json.dumps(summary.to_dict()))
    else:
        print(f"visited: {summary.visited}  bound: {space.bound().value}")
        print(f"min cardinality: {summary.min_cardinality}")
        print(f"equality cases: {summary.equality_count}  "
              f"violations: {summary.violation_count}")
        for record in summary.equality_sets:
            print(f"  equality: {record.set}  "
                  f"structure: {record.structure.kind.value} "
                  f"d={record.structure.d}")
    if summary.violation_count > 0:
        _dump_counterexamples([r.set for r in summary.violations])
        return 1
    return 0


def cmd_probe(args: argparse.Namespace) -> int:
    space = SearchSpace(k=args.k, h=args.h, max_element=args.max,
                        family=FAMILIES[args.family])
    summary = random_probe(space, args.trials, args.seed)
    if args.json:
        print(json.dumps(summary.to_dict()))
    else:
        print(f"trials: {summary.trials}  seed: {summary.seed}  "
              f"bound: {space.bound().value}")
        print(f"min slack: {summary.min_slack}  "
              f"equality cases: {summary.equality_count}  "
              f"violations: {summary.violation_count}")
    if summary.violation_count > 0:
        _dump_counterexamples([r.set for r in summary.violations])
        return 1
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    rows = reproduce.run_target(args.target)
    failed = [row for row in rows if not row.passed]
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        print(f"[{status}] {row.label}  ({row.detail})")
    print(f"{len(rows) - len(failed)}/{len(rows)} checks passed")
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signedsum",
        description="Sumset operators, cardinality bounds, and "
                    "verification sweeps for finite integer sets.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("sumset", help="compute one sumset")
    _add_set_arguments(p)
    p.add_argument("--h", type=int, required=True, help="fold")
    p.add_argument("--op", choices=sorted(OPERATORS), required=True)
    p.add_argument("--full", action="store_true",
                   help="list every sum, not just the cardinality")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sumset)

    p = sub.add_parser("bounds", help="bound catalogue at (h, k)")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("check", help="run one theorem checker on a set")
    _add_set_arguments(p)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--theorem", choices=THEOREMS, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sweep", help="exhaustive sweep over a search space")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--max", type=int, required=True,
                   help="largest allowed element M")
    p.add_argument("--family", choices=sorted(FAMILIES), default="positive")
    p.add_argument("--emit", choices=("interesting", "all", "none"),
                   default="interesting")
    p.add_argument("--csv", help="write records as CSV to a path, or - for stdout")
    p.add_argument("--json", action="store_true")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p.add_argument("--primitive-only", action="store_true",
                   help="skip sets whose elements share a common factor")
    p.add_argument("--budget", type=int, default=_default_budget(),
                   help="refuse spaces larger than this many sets "
                        "(env SUMSET_BUDGET overrides the default)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("probe", help="seeded random sampling of a search space")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--family", choices=sorted(FAMILIES), default="positive")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="explicit seed; there is no wall-clock default")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("reproduce", help="run a named verification target")
    p.add_argument("target", choices=sorted(reproduce.TARGETS))
    p.set_defaults(func=cmd_reproduce)

    return parser


EXIT_PIPE_CLOSED = 141


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output still buffered for the closed pipe would fail again when
        # the interpreter flushes stdout on exit; send it to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE_CLOSED


if __name__ == "__main__":
    sys.exit(main())
