"""Show that every correctness check in ``checks`` can fail.

Each check is fed output built from the oracle (which must pass) and then
deliberately wrong copies of it: an off-by-one cardinality, swapped rows, a
missing dilate, a wrong structure kind, a flipped verdict and so on. Every
wrong copy must be reported. Nothing here imports ``signedsum``.

    python3 perfbench/selftest.py        # exits 1 if any case misbehaves
"""

from __future__ import annotations

import copy
import itertools
import json
import sys
from math import comb

import checks
import oracle

FAILURES: list[str] = []


def expect(label: str, problems: list[str], should_fail: bool) -> None:
    ok = bool(problems) == should_fail
    verdict = "caught" if problems else "clean"
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {verdict}"
          + (f" ({problems[0][:150]})" if problems else ""))
    if not ok:
        FAILURES.append(label)


# --- sweep-positive ------------------------------------------------------------

def positive_output(params: dict) -> dict:
    k, h, m = params["k"], params["h"], params["max_element"]
    bound = oracle.optimal_bound_positive(h, k)
    rows, least = [], None
    for s in itertools.combinations(range(1, m + 1), k):
        card = len(oracle.signed_sums(s, h))
        least = card if least is None else min(least, card)
        if card <= bound:
            rows.append([list(s), card, card - bound, card == bound,
                         *oracle.structure(s)])
    return {"visited": comb(m, k),
            "min_cardinality": least,
            "equality_count": sum(r[3] for r in rows),
            "violation_count": sum(r[2] < 0 for r in rows),
            "equality_sets": [r[0] for r in rows if r[3]],
            "violations": [r[0] for r in rows if r[2] < 0],
            "emitted": rows}


def selftest_sweep_positive() -> None:
    params = {"k": 5, "h": 4, "max_element": 20}
    good = positive_output(params)

    def run(label, op, should_fail=True):
        expect("sweep-positive " + label,
               checks.check_sweep_positive(op, params, seed=3, sample=300),
               should_fail)

    run("oracle output", good, should_fail=False)
    bad = copy.deepcopy(good)
    bad["emitted"][0][1] += 1
    bad["emitted"][0][2] += 1
    bad["emitted"][0][3] = False
    run("off-by-one cardinality", bad)
    bad = copy.deepcopy(good)
    dropped = bad["emitted"].pop()
    bad["equality_sets"].remove(dropped[0])
    bad["equality_count"] -= 1
    run("missing dilate", bad)
    bad = copy.deepcopy(good)
    bad["emitted"].reverse()
    bad["equality_sets"].reverse()
    run("swapped records", bad)
    bad = copy.deepcopy(good)
    bad["visited"] -= 1
    run("visited off by one", bad)
    bad = copy.deepcopy(good)
    bad["emitted"][0][4] = oracle.GENERAL_AP
    run("wrong structure kind", bad)
    bad = copy.deepcopy(good)
    bad["min_cardinality"] += 1
    run("wrong min_cardinality", bad)


# --- sweep-zero-csv ------------------------------------------------------------

def zero_csv_output(params: dict) -> dict:
    k, h, m = params["k"], params["h"], params["max_element"]
    bound = oracle.optimal_bound_zero(h, k)
    lines, equalities, cards = [checks.CSV_HEADER], [], []
    for rest in itertools.combinations(range(1, m + 1), k - 1):
        s = (0,) + rest
        if params["primitive"] and oracle.set_gcd(s) != 1:
            continue
        card = len(oracle.signed_sums(s, h))
        kind, d = oracle.structure(s)
        cards.append(card)
        if card == bound:
            equalities.append(list(s))
        lines.append(";".join([",".join(map(str, s)), str(card),
                               str(card - bound),
                               "true" if card == bound else "false", kind,
                               "" if d is None else str(d)]))
    summary = {"space": {"k": k, "h": h, "max_element": m,
                         "family": "zero-based",
                         "filter": "primitive" if params["primitive"] else None},
               "bound": bound, "visited": len(cards),
               "min_cardinality": min(cards),
               "equality_count": len(equalities), "violation_count": 0,
               "equality_sets": equalities, "violations": []}
    lines.append(json.dumps(summary))
    return {"exit": 0, "stdout": "\n".join(lines) + "\n", "stderr": ""}


def _edit_lines(op: dict, edit) -> dict:
    lines = op["stdout"].split("\n")
    edit(lines)
    return {**op, "stdout": "\n".join(lines)}


def _bump_cardinality(lines: list[str]) -> None:
    fields = lines[5].split(";")
    fields[1] = str(int(fields[1]) + 1)
    fields[2] = str(int(fields[2]) + 1)
    lines[5] = ";".join(fields)


def selftest_zero_csv() -> None:
    params = {"k": 5, "h": 4, "max_element": 16, "primitive": True}
    good = zero_csv_output(params)

    def run(label, op, should_fail=True):
        expect("sweep-zero-csv " + label,
               checks.check_zero_csv(op, params, seed=3, sample=10_000),
               should_fail)

    run("oracle output", good, should_fail=False)
    run("off-by-one cardinality", _edit_lines(good, _bump_cardinality))

    def swap(lines):
        lines[3], lines[4] = lines[4], lines[3]
    run("swapped rows", _edit_lines(good, swap))
    run("missing row", _edit_lines(good, lambda lines: lines.pop(7)))

    def demote_dilate(lines):
        # [0,4] measured one too large and dropped from the equality sets,
        # consistently in CSV and JSON, with no oracle sample to catch it
        i = next(i for i, x in enumerate(lines) if x.startswith("0,1,2,3,4;"))
        lines[i] = lines[i].replace(";21;0;true;", ";22;1;false;")
        summary = json.loads(lines[-2])
        summary["equality_sets"].remove([0, 1, 2, 3, 4])
        summary["equality_count"] -= 1
        lines[-2] = json.dumps(summary)
    expect("sweep-zero-csv missing dilate", checks.check_zero_csv(
        _edit_lines(good, demote_dilate), params, seed=3, sample=0), True)

    def wrong_kind(lines):
        lines[2] = lines[2].replace(";NONE;", ";GENERAL_AP;")
    run("wrong structure kind", _edit_lines(good, wrong_kind))

    def summary_off(lines):
        summary = json.loads(lines[-2])
        summary["visited"] += 1
        lines[-2] = json.dumps(summary)
    run("JSON summary off by one", _edit_lines(good, summary_off))
    run("exit code 1", {**good, "exit": 1})
    run("header missing", _edit_lines(good, lambda lines: lines.pop(0)))


# --- verify-wide ---------------------------------------------------------------

def selftest_verify_wide() -> None:
    items = [
        {"set": [3, 10, 24, 51, 90, 160, 255, 400], "h": 5, "special": False},
        {"set": [7 * (2 * i + 1) for i in range(8)], "h": 5, "special": False},
        {"set": [11 * i for i in range(8)], "h": 5, "special": False},
        {"set": [40, 65, 90, 160, 255, 420], "h": 5, "special": True},
    ]
    for item in items:
        expect(f"verify-wide oracle output {item['set']}",
               checks.check_wide_set(item, checks.wide_expectations(item)), False)
    plain, dilate, _, special = items

    def mutated(item, edit):
        op = checks.wide_expectations(item)
        edit(op)
        return checks.check_wide_set(item, op)

    def bump(op):
        op["direct"]["cardinality"] += 1
    expect("verify-wide off-by-one cardinality", mutated(plain, bump), True)

    def flip_match(op):
        op["inverse"]["structure_matches"] = False
    expect("verify-wide inverse verdict flipped", mutated(dilate, flip_match),
           True)

    def prefix_t(op):
        op["prefix"]["t"] += 1
    expect("verify-wide prefix surplus off by one", mutated(plain, prefix_t),
           True)

    def flip_condition(op):
        op["partial"][0]["applicable"] = not op["partial"][0]["applicable"]
    expect("verify-wide partial inverse condition flipped",
           mutated(dilate, flip_condition), True)

    def special_slack(op):
        op["special"]["slack"] -= 1
    expect("verify-wide special slack wrong", mutated(special, special_slack),
           True)

    def stray_special(op):
        op["special"] = {"cardinality": 1}
    expect("verify-wide special report on a plain set",
           mutated(plain, stray_special), True)
    expect("verify-wide checker error",
           checks.check_wide_set(plain, {"error": "ValueError: boom"}), True)


# --- reproduce-all ---------------------------------------------------------------

def reproduce_output(expected: list[tuple]) -> dict:
    lines = []
    for i, (verdict, fields) in enumerate(expected):
        detail = " ".join(f"{key}={value!r}" for key, value in fields.items())
        lines.append(f"[{'PASS' if verdict else 'FAIL'}] row {i}  ({detail})")
    passed = sum(v for v, _ in expected)
    lines.append(f"{passed}/{len(expected)} checks passed")
    return {"exit": 0 if passed == len(expected) else 1,
            "stdout": "\n".join(lines) + "\n"}


def selftest_reproduce() -> None:
    for target in ("thm-h4-positive", "thm-h4-zero", "ap-iff", "interval",
                   "lemma-audit", "theorem11-small"):
        expected = checks.reproduce_expectations(target)
        good = reproduce_output(expected)
        expect(f"reproduce {target} oracle output",
               checks.check_reproduce(target, good, expected), False)
    target = "thm-h4-zero"
    expected = checks.reproduce_expectations(target)
    good = reproduce_output(expected)

    def run(label, op):
        expect(f"reproduce {target} {label}",
               checks.check_reproduce(target, op, expected), True)

    run("uniqueness row marked PASS",
        {**good, "stdout": good["stdout"].replace("[FAIL]", "[PASS]")})
    run("visited off by one",
        {**good, "stdout": good["stdout"].replace("visited=1820",
                                                  "visited=1821")})
    run("exit code 0", {**good, "exit": 0})
    lines = good["stdout"].split("\n")
    run("missing row", {**good, "stdout": "\n".join(lines[1:])})
    run("missing equality set", {**good, "stdout": good["stdout"].replace(
        "(0, 1, 2, 4, 6), ", "")})


def main() -> int:
    selftest_sweep_positive()
    selftest_zero_csv()
    selftest_verify_wide()
    selftest_reproduce()
    print(f"{len(FAILURES)} self-test case(s) misbehaved")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
