"""Run a fixed grid of CLI commands and print what each one did.

Usage:

    python tools/cli_grid.py SRC_ROOT > grid.jsonl

``SRC_ROOT`` is the directory that holds the ``signedsum`` package, such
as ``src`` in a checkout. Every command runs through ``signedsum.cli.main``
in this one process, and each prints one JSON line: its argv, exit code,
stdout and stderr. Run the grid on two checkouts and ``diff`` the two
outputs: identical lines mean byte-identical behaviour on every command.

The grid's 1,226 commands cover every verb: each checker on sixteen sets
at h 2 to 5, in both formats; sumsets under every operator, with h above
k on a two-element set; mixed-sign sets such as ``--set -3,1,4``, which
reach the checkers (whose hypotheses refuse them) and the sumset
operators; a few elements near 10^6 (the set-based DP's
inputs) under every operator and through the checkers; the bound
catalogue; sweeps of both families over every h, every emit mode, CSV on
stdout, JSON, two worker counts (each with CSV in every emit mode that
writes it), three workers over 55 shards, primitive counts past the
dilates by 2, spaces wide enough for the walk's floors to prune, and the
budget, window and DP-size refusals; seeded probes, one over [1, 10^6];
every reproduce target; and usage errors. No command writes a file,
and none is large enough to allocate much or run long on older
checkouts.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys

CHECK_SETS = [
    "1,3,5,7,9", "2,6,10,14,18", "1,3,5,7,9,11", "1,2,4,6,10",
    "1,2,3,4,5,6", "3,5,7,9", "1,2,4,8,16", "2,3,5,8,13",
    "0,1,2,3,4", "0,1,2,4,6", "0,2,4,8,12", "0,1,2,3,4,5,6",
    "0,3,6,9,12,15", "0,1,3,7", "1,2,3", "-1,2,3,4",
]
THEOREMS = ["direct", "inverse", "lemma-decomposition", "partial-inverse",
            "special-direct", "ap"]
OPERATORS = ["classical", "restricted", "signed", "restricted-signed"]
# "2,7" has h > k at h = 3: unrestricted sumsets, and restricted refusals
SUMSET_SETS = ["1,3,5,7,9", "0,1,2,4,6", "2,5,9", "-3,1,4", "2,7"]
WIDE_SET = "1,1000003,2000029,3000017"
WIDE_AP = "63001,189003,315005,441007,567009,693011"  # 63001 * {1,3,...,11}
WIDE_SPECIAL = "100003,155011,210029,365041,575069"  # superincreasing tail
REPRODUCE_TARGETS = ["thm-h4-positive", "thm-h4-zero", "ap-iff", "interval",
                     "lemma-audit", "theorem11-small"]


def commands() -> list[str]:
    grid = []
    for theorem, s, h, fmt in itertools.product(
            THEOREMS, CHECK_SETS, range(2, 6), ("", " --json")):
        grid.append(f"check --set {s} --h {h} --theorem {theorem}{fmt}")
    grid.append("check --set-file missing-set-file.txt --h 4 --theorem direct")
    grid.append("check --h 4 --theorem direct")
    grid.append("check --set 1,3,5,7,9 --h 4 --theorem nope")

    for op, s, h, fmt in itertools.product(
            OPERATORS, SUMSET_SETS, (1, 2, 3), ("", " --full --json")):
        grid.append(f"sumset --set {s} --h {h} --op {op}{fmt}")
    # a few elements near 10^6, which the set-based DP measures
    for op, h in itertools.product(OPERATORS, (1, 2, 3)):
        grid.append(f"sumset --set {WIDE_SET} --h {h} --op {op} --full --json")
    for theorem in THEOREMS[:4]:
        grid.append(f"check --set {WIDE_AP} --h 4 --theorem {theorem} --json")
    grid.append(f"check --set {WIDE_SPECIAL} --h 4 --theorem special-direct "
                f"--json")
    grid.append("sumset --set 1,100000000000 --h 1 --op restricted-signed")
    grid.append("sumset --set 1 --h 100000 --op classical")

    for h, k, fmt in itertools.product(range(1, 8), range(3, 7),
                                       ("", " --json")):
        grid.append(f"bounds --h {h} --k {k}{fmt}")

    for family, k in itertools.product(("positive", "zero-based"),
                                       range(4, 8)):
        for h in range(2, k + 1):
            m = k + 5
            base = f"sweep --k {k} --h {h} --max {m} --family {family}"
            grid.append(f"{base} --threads 1")
            grid.append(f"{base} --threads 1 --json --primitive-only")
            grid.append(f"{base} --threads 1 --emit all --csv - --json")
            grid.append(f"{base} --threads 1 --emit interesting --csv -")
            grid.append(f"{base} --threads 1 --emit none --csv - "
                        f"--primitive-only")
    for family in ("positive", "zero-based"):
        grid.append(f"sweep --k 6 --h 4 --max 14 --family {family} "
                    f"--threads 2 --emit all --csv - --json")
        grid.append(f"sweep --k 6 --h 4 --max 14 --family {family} "
                    f"--threads 2 --emit interesting --csv -")
        grid.append(f"sweep --k 6 --h 4 --max 14 --family {family} "
                    f"--threads 2 --primitive-only --emit all --csv -")
        grid.append(f"sweep --k 5 --h 4 --max 20 --family {family} "
                    f"--threads 2 --json")
        # M = 30 takes the primitive count past the dilates by d = 2
        grid.append(f"sweep --k 5 --h 4 --max 30 --family {family} "
                    f"--threads 1 --primitive-only --json")
        # wide enough that the Minkowski floor prunes below depth h
        grid.append(f"sweep --k 6 --h 5 --max 30 --family {family} "
                    f"--threads 1 --json")
    # 55 shards, a count that three workers do not divide
    grid.append("sweep --k 6 --h 4 --max 14 --family zero-based --threads 3 "
                "--emit all --csv -")
    grid.append("sweep --k 4 --h 3 --max 30 --threads 1 --primitive-only")
    grid += [
        "sweep --k 5 --h 4 --max 20 --threads 1 --budget 100",
        "sweep --k 5 --h 4 --max 20 --threads 1 --budget 15504",
        "sweep --k 5 --h 4 --max 20 --threads 1 --budget 15503 --csv -",
        "sweep --k 10 --h 4 --max 30 --threads 1",
        "sweep --k 4 --h 3 --max 100000000",
        "sweep --k 200 --h 3 --max 100000",
        "sweep --k 4 --h 3 --max 100000000 --budget " + str(10**40),
        "sweep --k 4 --h 3 --max 3",
        "sweep --k 4 --h 3 --max 10 --emit nope",
    ]

    for family, (k, h), seed, fmt in itertools.product(
            ("positive", "zero-based"), ((5, 3), (6, 4), (7, 5)), (1, 2, 3, 4),
            ("", " --json")):
        grid.append(f"probe --k {k} --h {h} --max 30 --family {family} "
                    f"--trials 50 --seed {seed}{fmt}")
    # draws near 10^6: each is a whole walk head of wide rows
    grid.append("probe --k 5 --h 4 --max 1000000 --trials 20 --seed 3 --json")
    grid.append("probe --k 5 --h 3 --max 30 --trials 0 --seed 1")
    grid.append("probe --k 7 --h 2 --max 20 --trials 5 --seed 1")

    grid += [f"reproduce {target}" for target in REPRODUCE_TARGETS]
    return grid


def run(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tools/cli_grid.py SRC_ROOT", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(sys.argv[1]))
    os.environ.pop("SUMSET_BUDGET", None)  # every sweep at the default budget
    from signedsum import cli

    for command in commands():
        print(json.dumps(run(cli.main, command.split())), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
