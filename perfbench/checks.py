"""Correctness checks for each workload's operations.

Every check compares the program's output with results computed by
``oracle`` (never by ``signedsum``) and returns a list of problems; an
empty list means the operation is correct. ``selftest.py`` feeds each
check deliberately wrong output to show that it can fail.
"""

from __future__ import annotations

import ast
import itertools
import json
import random
import re
from math import comb

import oracle

CSV_HEADER = "set;cardinality;slack;equality;structure_kind;d"


def _in_positive_space(s: tuple, k: int, m: int) -> bool:
    return (len(s) == k and 1 <= s[0]
            and all(a < b for a, b in zip(s, s[1:])) and s[-1] <= m)


def _in_zero_space(s: tuple, k: int, m: int) -> bool:
    return len(s) == k and s[0] == 0 and _in_positive_space(s[1:], k - 1, m)


def _card(elements, h: int) -> int:
    return len(oracle.signed_sums(elements, h))


# --- sweep-positive -----------------------------------------------------------

def check_sweep_positive(op: dict, params: dict, seed: int,
                         sample: int) -> list[str]:
    """Library sweep with emit='interesting': only sets at or below the bound."""
    if "error" in op:
        return [op["error"]]
    k, h, m = params["k"], params["h"], params["max_element"]
    bound = oracle.optimal_bound_positive(h, k)
    problems = []
    if op["visited"] != comb(m, k):
        problems.append(f"visited {op['visited']} != C({m},{k})")
    emitted = {}
    previous = None
    for s, card, slack, equality, kind, d in op["emitted"]:
        s = tuple(s)
        if previous is not None and not previous < s:
            problems.append(f"emitted out of order: {previous} then {s}")
        previous = s
        if not _in_positive_space(s, k, m):
            problems.append(f"{s} is outside the space")
        if card != _card(s, h):
            problems.append(f"{s}: cardinality {card} != oracle {_card(s, h)}")
        if slack != card - bound or equality != (slack == 0) or slack > 0:
            problems.append(f"{s}: slack {slack} / equality {equality} wrong "
                            f"for bound {bound}")
        if (kind, d) != oracle.structure(s):
            problems.append(f"{s}: structure {kind} d={d} != "
                            f"{oracle.structure(s)}")
        emitted[s] = card
    equalities = [s for s, c in emitted.items() if c == bound]
    violations = [s for s, c in emitted.items() if c < bound]
    if [tuple(s) for s in op["equality_sets"]] != equalities:
        problems.append("equality_sets differ from the emitted equality records")
    if [tuple(s) for s in op["violations"]] != violations:
        problems.append("violations differ from the emitted violation records")
    if (op["equality_count"], op["violation_count"]) != (
            len(equalities), len(violations)):
        problems.append("equality/violation counts do not match the records")
    for dilate in oracle.odd_dilates(k, m):
        if dilate not in equalities:
            problems.append(f"dilate {dilate} missing from the equality sets")
    expected_min = min(emitted.values()) if emitted else None
    if expected_min is not None and op["min_cardinality"] != expected_min:
        problems.append(f"min_cardinality {op['min_cardinality']} != "
                        f"least emitted {expected_min}")
    rng = random.Random(seed)
    for _ in range(sample):
        s = tuple(sorted(rng.sample(range(1, m + 1), k)))
        card = _card(s, h)
        if card <= bound and emitted.get(s) != card:
            problems.append(f"{s}: oracle {card} <= bound but not emitted")
        if card > bound and s in emitted:
            problems.append(f"{s}: oracle {card} > bound but emitted")
        if op["min_cardinality"] is None or card < op["min_cardinality"]:
            problems.append(f"{s}: oracle {card} below min_cardinality")
    return problems


# --- sweep-zero-csv ----------------------------------------------------------

def _parse_csv_row(line: str):
    s, card, slack, equality, kind, d = line.split(";")
    return (tuple(int(x) for x in s.split(",")), int(card), int(slack),
            {"true": True, "false": False}[equality], kind,
            int(d) if d else None)


def check_zero_csv(op: dict, params: dict, seed: int,
                   sample: int) -> list[str]:
    """`signedsum sweep --emit all --csv - --json` over the zero-based family."""
    if "error" in op:
        return [op["error"]]
    k, h, m = params["k"], params["h"], params["max_element"]
    primitive = params["primitive"]
    bound = oracle.optimal_bound_zero(h, k)
    lines = op["stdout"].split("\n")
    if not lines or lines[0] != CSV_HEADER:
        return ["CSV header missing"]
    end = next((i for i, line in enumerate(lines) if line.startswith("{")),
               None)
    if end is None:
        return ["JSON summary missing"]
    try:
        rows = [_parse_csv_row(line) for line in lines[1:end]]
        summary = json.loads(lines[end])
    except (ValueError, KeyError) as exc:
        return [f"unparsable output: {exc}"]
    problems = []
    if op["stderr"]:
        problems.append(f"stderr: {op['stderr'][:200]}")
    expected_visited = (oracle.primitive_subset_count(m, k - 1) if primitive
                        else comb(m, k - 1))
    if len(rows) != expected_visited:
        problems.append(f"{len(rows)} rows, expected {expected_visited}")
    for (a, *_), (b, *_) in zip(rows, rows[1:]):
        if not a < b:
            problems.append(f"rows out of order: {a} then {b}")
            break
    for s, card, slack, equality, kind, d in rows:
        if not _in_zero_space(s, k, m) or (primitive and oracle.set_gcd(s) != 1):
            problems.append(f"{s} is outside the space")
        if slack != card - bound or equality != (slack == 0):
            problems.append(f"{s}: slack {slack} / equality {equality} wrong "
                            f"for cardinality {card}, bound {bound}")
        if (kind, d) != oracle.structure(s):
            problems.append(f"{s}: structure {kind} d={d} != "
                            f"{oracle.structure(s)}")
        if len(problems) > 20:
            return problems
    equalities = [r[0] for r in rows if r[2] == 0]
    violations = [r for r in rows if r[2] < 0]
    for r in [r for r in rows if r[2] <= 0] + random.Random(seed).sample(
            rows, min(sample, len(rows))):
        if r[1] != _card(r[0], h):
            problems.append(f"{r[0]}: cardinality {r[1]} != oracle "
                            f"{_card(r[0], h)}")
    for dilate in oracle.zero_dilates(k, m):
        if (not primitive or oracle.set_gcd(dilate) == 1) and \
                dilate not in equalities:
            problems.append(f"dilate {dilate} missing from the equality rows")
    expected = {
        "space": {"k": k, "h": h, "max_element": m, "family": "zero-based",
                  "filter": "primitive" if primitive else None},
        "bound": bound, "visited": len(rows),
        "min_cardinality": min((r[1] for r in rows), default=None),
        "equality_count": len(equalities), "violation_count": len(violations),
        "equality_sets": [list(s) for s in equalities],
    }
    for key, value in expected.items():
        if summary.get(key) != value:
            problems.append(f"JSON {key} {summary.get(key)!r} != {value!r}")
    if [v["set"] for v in summary.get("violations", [])] != \
            [list(r[0]) for r in violations]:
        problems.append("JSON violations differ from the CSV rows")
    if op["exit"] != (1 if violations else 0):
        problems.append(f"exit code {op['exit']}")
    return problems


# --- verify-wide -------------------------------------------------------------

def wide_expectations(item: dict) -> dict:
    """The reports the five checkers should give on one wide set, re-derived:
    the fields of each report that carry a result, keyed as the program's
    ``to_dict`` keys them."""
    s, h = tuple(item["set"]), item["h"]
    k = len(s)
    full = oracle.signed_sums(s, h)
    card = len(full)
    bound = oracle.optimal_bound(s, h)
    equality = card == bound
    kind, d = oracle.structure(s)
    conclusion = kind == oracle.expected_kind(s)
    prefix = s[:h + 1]
    prefix_sums = oracle.signed_sums(prefix, h)
    threshold = oracle.prefix_threshold(s, h)
    t = len(prefix_sums) - threshold
    tail = s[1:]
    tail_sums = oracle.restricted_sums(tail, h)
    union = tail_sums | {-x for x in tail_sums} | prefix_sums
    applicable = {
        "a": oracle.is_ap(s),
        "b": oracle.is_ap(prefix),
        "c": len(prefix_sums) >= threshold and 4 <= h <= k - 3,
        "d": full == union and oracle.is_ap(tail),
        "e": len(prefix_sums) >= threshold and oracle.is_ap(tail),
    }
    special = None
    if item["special"]:
        special_bound = (h + 1) ** 2 + 1
        special = {"cardinality": card, "bound_value": special_bound,
                   "slack": card - special_bound,
                   "equality": card == special_bound}
    return {
        "direct": {"set": list(s), "h": h, "operator": "restricted-signed",
                   "cardinality": card, "bound_value": bound,
                   "slack": card - bound, "equality": equality},
        "inverse": {"equality_holds": equality,
                    "structure": {"kind": kind, "d": d},
                    "structure_matches": conclusion if equality else None},
        "prefix": {"set": list(s), "h": h, "prefix": list(prefix),
                   "prefix_cardinality": len(prefix_sums),
                   "threshold": threshold, "t": t, "applicable": t >= 0,
                   "asserted_bound": bound + t if t >= 0 else None,
                   "cardinality": card,
                   "holds": bound + t <= card if t >= 0 else None},
        "partial": [{"condition": c, "applicable": ok,
                     "conclusion_verified":
                         conclusion if (equality and ok) else None}
                    for c, ok in applicable.items()],
        "special": special,
    }


def check_wide_set(item: dict, op: dict) -> list[str]:
    """The five checkers' reports on one wide set against the oracle's."""
    if "error" in op:
        return [op["error"]]
    expected = wide_expectations(item)
    s = tuple(item["set"])
    problems = []
    for report in ("direct", "inverse", "prefix", "special"):
        want, got = expected[report], op[report]
        if want is None or got is None:
            if want is not got:
                problems.append(f"{s} {report}: {got!r} != {want!r}")
            continue
        for key, value in want.items():
            if got.get(key) != value:
                problems.append(f"{s} {report}.{key}: {got.get(key)!r} != "
                                f"{value!r}")
    if op["partial"] != expected["partial"]:
        problems.append(f"{s} partial inverse: {op['partial']!r} != "
                        f"{expected['partial']!r}")
    return problems


# --- reproduce-all -----------------------------------------------------------

ROW = re.compile(r"^\[(PASS|FAIL)\] (.*)  \((.*)\)$")
FIELD = re.compile(r"(?:^| )(\w+)=")
LEMMA_AUDIT_SEED = 1842  # the seed the lemma-audit target documents


def _oracle_sweep(k: int, h: int, m: int, zero: bool) -> list[tuple]:
    if zero:
        sets = [(0,) + c for c in itertools.combinations(range(1, m + 1), k - 1)]
    else:
        sets = list(itertools.combinations(range(1, m + 1), k))
    return [(s, _card(s, h)) for s in sets]


def _theorem_rows(k: int, h: int, m: int, zero: bool) -> list[tuple]:
    measured = _oracle_sweep(k, h, m, zero)
    bound = (oracle.optimal_bound_zero(h, k) if zero
             else oracle.optimal_bound_positive(h, k))
    dilates = set(oracle.zero_dilates(k, m) if zero
                  else oracle.odd_dilates(k, m))
    least = min(c for _, c in measured)
    violations = sum(c < bound for _, c in measured)
    equal = sorted(s for s, c in measured if c == bound)
    return [
        (True, {"visited": len(measured)}),
        (violations == 0, {"violations": violations}),
        (least == bound, {"min": least}),
        (set(equal) == dilates, {"equality_sets": equal}),
    ]


def _ap_iff_rows() -> list[tuple]:
    failures = []
    for a1 in range(1, 6):
        for d in range(1, 13):
            for h in range(3, 7):
                card = _card(tuple(a1 + i * d for i in range(h + 1)), h)
                target = (h + 1) ** 2
                ok = (card == target) if d == 2 * a1 else card >= target + 1
                if not ok:
                    failures.append((a1, d, h, card))
    return [(not failures, {"failures": failures})]


def _interval_rows() -> list[tuple]:
    failures = []
    for k in range(5, 11):
        for h in range(4, k):
            hi = h * k - h * (h + 1) // 2
            if oracle.signed_sums(tuple(range(k)), h) != set(range(-hi, hi + 1)):
                failures.append((k, h))
    return [(not failures, {"failures": failures})]


def _lemma_rows() -> list[tuple]:
    rng = random.Random(LEMMA_AUDIT_SEED)
    rows = []
    for zero in (False, True):
        applicable, failures = 0, []
        for _ in range(300):
            k = rng.randint(5, 8)
            h = rng.randint(3, k - 1)
            if zero:
                s = (0,) + tuple(sorted(rng.sample(range(1, 41), k - 1)))
            else:
                s = tuple(sorted(rng.sample(range(1, 41), k)))
            t = _card(s[:h + 1], h) - oracle.prefix_threshold(s, h)
            if t >= 0:
                applicable += 1
                if oracle.optimal_bound(s, h) + t > _card(s, h):
                    failures.append((list(s), h))
        rows.append((not failures,
                     {"applicable": applicable, "failures": failures}))
    return rows


def _theorem11_rows() -> list[tuple]:
    rows = []
    for h in (1, 2):
        for k in range(h, 7):
            for zero in (False, True):
                bound = oracle.general_bound(h, k, zero)
                m = 11 if zero else 12  # {0} plus [1,11], or [1,12]
                cards = [c for _, c in _oracle_sweep(k, h, m, zero)]
                violations = sum(c < bound for c in cards)
                equalities = sum(c == bound for c in cards)
                rows.append((violations == 0 and equalities >= 1,
                             {"violations": violations,
                              "equalities": equalities}))
    return rows


def reproduce_expectations(target: str) -> list[tuple]:
    """(verdict, detail fields) per row, in the target's row order."""
    if target == "thm-h4-positive":
        return _theorem_rows(5, 4, 20, zero=False)
    if target == "thm-h4-zero":
        return _theorem_rows(5, 4, 16, zero=True)
    if target == "ap-iff":
        return _ap_iff_rows()
    if target == "interval":
        return _interval_rows()
    if target == "lemma-audit":
        return _lemma_rows()
    if target == "theorem11-small":
        return _theorem11_rows()
    raise ValueError(f"unknown target {target!r}")


def _parse_detail(detail: str) -> dict:
    parts = FIELD.split(detail)
    return {parts[i]: ast.literal_eval(parts[i + 1].strip())
            for i in range(1, len(parts) - 1, 2)}


def _normalize(value):
    if isinstance(value, (list, tuple)):
        return [_normalize(v) for v in value]
    return value


def check_reproduce(target: str, op: dict, expected: list[tuple]) -> list[str]:
    """`signedsum reproduce <target>`: rows, summary line and exit code."""
    if "error" in op:
        return [op["error"]]
    lines = op["stdout"].rstrip("\n").split("\n")
    rows, problems = lines[:-1], []
    if len(rows) != len(expected):
        return [f"{target}: {len(rows)} rows, expected {len(expected)}"]
    for line, (verdict, fields) in zip(rows, expected):
        match = ROW.match(line)
        if match is None:
            problems.append(f"{target}: unparsable row {line!r}")
            continue
        status, label, detail = match.groups()
        if (status == "PASS") != verdict:
            problems.append(f"{target}: {label!r} is {status}, oracle says "
                            f"{'PASS' if verdict else 'FAIL'}")
        try:
            got = _parse_detail(detail)
        except (ValueError, SyntaxError):
            problems.append(f"{target}: unparsable detail {detail!r}")
            continue
        for key, value in fields.items():
            if _normalize(got.get(key)) != _normalize(value):
                problems.append(f"{target}: {label!r} {key}={got.get(key)!r}, "
                                f"oracle {value!r}")
    passed = sum(v for v, _ in expected)
    if lines[-1] != f"{passed}/{len(expected)} checks passed":
        problems.append(f"{target}: summary line {lines[-1]!r}")
    if op["exit"] != (0 if passed == len(expected) else 1):
        problems.append(f"{target}: exit code {op['exit']}")
    return problems
