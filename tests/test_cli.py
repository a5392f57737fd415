import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from signedsum import SearchSpace, cli, reproduce, search, verify
from signedsum.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


# Stdout and exit code of each report, byte for byte: every check theorem
# in both formats, the counterexample dump, an inapplicable lemma, the
# plain sweep and probe summaries, and the bounds, sweep and probe JSON,
# whose key order a parsed comparison would not see.
PINNED = [
    ('check --set 1,2,4,6,10 --h 4 --theorem direct', 0,
     'set: {1,2,4,6,10}  h: 4\n'
     'cardinality: 34  bound optimal-positive: 25\n'
     'slack: 9  equality: False\n'
     ),
    ('check --set 1,2,4,6,10 --h 4 --theorem direct --json', 0,
     '{"set": [1, 2, 4, 6, 10], "h": 4, '
     '"operator": "restricted-signed", "cardinality": 34, '
     '"bound_name": "optimal-positive", "bound_value": 25, "slack": 9, '
     '"equality": false, "structure": null}\n'
     ),
    ('check --set 0,1,2,4,6 --h 4 --theorem inverse', 1,
     'set: {0,1,2,4,6}  h: 4  cardinality: 21  bound: 21\n'
     'equality: True  structure: NONE d=None  matches: False\n'
     'COUNTEREXAMPLE set={0,1,2,4,6}\n'
     '{"counterexample": [0, 1, 2, 4, 6]}\n'
     ),
    ('check --set 0,1,2,4,6 --h 4 --theorem inverse --json', 1,
     '{"set": [0, 1, 2, 4, 6], "h": 4, "operator": "restricted-signed", '
     '"cardinality": 21, "bound_name": "optimal-zero", '
     '"bound_value": 21, "slack": 0, "equality": true, '
     '"structure": {"kind": "NONE", "d": null}, '
     '"structure_matches": false}\n'
     'COUNTEREXAMPLE set={0,1,2,4,6}\n'
     '{"counterexample": [0, 1, 2, 4, 6]}\n'
     ),
    ('check --set 1,3,5,7,9,11 --h 4 --theorem lemma-decomposition', 0,
     'set: {1,3,5,7,9,11}  h: 4  family: positive\n'
     'prefix: {1,3,5,7,9}  prefix cardinality: 25  surplus t: 0\n'
     'asserted bound: 33  actual: 33  holds: True\n'
     ),
    ('check --set 1,3,5,7,9,11 --h 4 --theorem lemma-decomposition --json', 0,
     '{"family": "positive", "set": [1, 3, 5, 7, 9, 11], "h": 4, '
     '"prefix": [1, 3, 5, 7, 9], "prefix_cardinality": 25, '
     '"threshold": 25, "t": 0, "applicable": true, '
     '"asserted_bound": 33, "cardinality": 33, "holds": true}\n'
     ),
    ('check --set 0,1,2,4,6 --h 3 --theorem lemma-decomposition', 0,
     'set: {0,1,2,4,6}  h: 3  family: zero\n'
     'prefix: {0,1,2,4}  prefix cardinality: 12  surplus t: -1\n'
     'not applicable (t < 0)\n'
     ),
    ('check --set 0,1,2,4,6 --h 3 --theorem lemma-decomposition --json', 0,
     '{"family": "zero", "set": [0, 1, 2, 4, 6], "h": 3, "prefix": [0, '
     '1, 2, 4], "prefix_cardinality": 12, "threshold": 13, "t": -1, '
     '"applicable": false, "asserted_bound": null, "cardinality": 25, '
     '"holds": null}\n'
     ),
    ('check --set 0,2,4,6,8,10 --h 4 --theorem partial-inverse', 0,
     'set: {0,2,4,6,8,10}  h: 4\n'
     'condition (a): applicable=True  conclusion_verified=True\n'
     'condition (b): applicable=True  conclusion_verified=True\n'
     'condition (c): applicable=False  conclusion_verified=-\n'
     'condition (d): applicable=True  conclusion_verified=True\n'
     'condition (e): applicable=True  conclusion_verified=True\n'
     ),
    ('check --set 0,2,4,6,8,10 --h 4 --theorem partial-inverse --json', 0,
     '{"set": [0, 2, 4, 6, 8, 10], "h": 4, '
     '"conditions": [{"condition": "a", "applicable": true, '
     '"conclusion_verified": true}, {"condition": "b", '
     '"applicable": true, "conclusion_verified": true}, '
     '{"condition": "c", "applicable": false, '
     '"conclusion_verified": null}, {"condition": "d", '
     '"applicable": true, "conclusion_verified": true}, '
     '{"condition": "e", "applicable": true, '
     '"conclusion_verified": true}]}\n'
     ),
    ('check --set 1,5,6,11,17 --h 4 --theorem special-direct', 0,
     'set: {1,5,6,11,17}  h: 4\n'
     'cardinality: 47  bound: 26  slack: 21\n'
     ),
    ('check --set 1,5,6,11,17 --h 4 --theorem special-direct --json', 0,
     '{"set": [1, 5, 6, 11, 17], "h": 4, '
     '"operator": "restricted-signed", "cardinality": 47, '
     '"bound_name": "special-direct", "bound_value": 26, "slack": 21, '
     '"equality": false, "structure": null}\n'
     ),
    ('check --set 2,6,10,14 --h 3 --theorem ap', 0,
     'set: {2,6,10,14}  h: 3  a1: 2  d: 4\n'
     'cardinality: 16  target (h+1)^2: 16  d = 2*a1: True\n'
     'iff holds: True\n'
     ),
    ('check --set 2,6,10,14 --h 3 --theorem ap --json', 0,
     '{"a1": 2, "d": 4, "h": 3, "set": [2, 6, 10, 14], '
     '"cardinality": 16, "target": 16, "d_is_twice_min": true, '
     '"equality_observed": true, "iff_holds": true, "holds": true}\n'
     ),
    ('sweep --k 5 --h 4 --max 20 --threads 1', 0,
     'visited: 15504  bound: 25\n'
     'min cardinality: 25\n'
     'equality cases: 2  violations: 0\n'
     '  equality: {1,3,5,7,9}  structure: ODD_AP_DILATE d=1\n'
     '  equality: {2,6,10,14,18}  structure: ODD_AP_DILATE d=2\n'
     ),
    ('probe --k 5 --h 4 --max 10 --trials 300 --seed 7', 0,
     'trials: 300  seed: 7  bound: 25\n'
     'min slack: 0  equality cases: 2  violations: 0\n'
     ),
    ('bounds --h 4 --k 6 --json', 0,
     '{"h": 4, "k": 6, "bounds": [{"name": "general-positive", "value": 27, '
     '"hypothesis": "k nonnegative elements with 0 not in A, 1 <= h <= k", '
     '"sharp": false}, {"name": "general-zero", "value": 23, '
     '"hypothesis": "k nonnegative elements with 0 in A, 1 <= h <= k", '
     '"sharp": false}, {"name": "optimal-positive", "value": 33, '
     '"hypothesis": "k >= 4 positive elements, 3 <= h <= k-1", '
     '"sharp": true}, {"name": "optimal-zero", "value": 29, '
     '"hypothesis": "k >= 5 nonnegative elements with 0 in A, '
     '3 <= h <= k-1", "sharp": true}, {"name": "ap-equal-difference", '
     '"value": 33, "hypothesis": "k-term positive AP with d = 2*min(A), '
     '3 <= h <= k-1", "sharp": true}, {"name": "ap-other-difference", '
     '"value": 34, "hypothesis": "k-term positive AP with d != 2*min(A), '
     '3 <= h <= k-1", "sharp": false}, {"name": "zero-ap-interval", '
     '"value": 29, "hypothesis": "A = d * [0, k-1], 4 <= h <= k-1 '
     '(exact cardinality)", "sharp": true}]}\n'
     ),
    ('sweep --k 5 --h 4 --max 16 --family zero-based --threads 1 --json', 0,
     '{"space": {"k": 5, "h": 4, "max_element": 16, "family": "zero-based", '
     '"filter": null}, "bound": 21, "visited": 1820, "min_cardinality": 21, '
     '"equality_count": 6, "violation_count": 0, "equality_sets": '
     '[[0, 1, 2, 3, 4], [0, 1, 2, 4, 6], [0, 2, 4, 6, 8], [0, 2, 4, 8, 12], '
     '[0, 3, 6, 9, 12], [0, 4, 8, 12, 16]], "violations": []}\n'
     ),
    ('probe --k 5 --h 4 --max 10 --trials 300 --seed 7 --json', 0,
     '{"space": {"k": 5, "h": 4, "max_element": 10, "family": "positive", '
     '"filter": null}, "bound": 25, "trials": 300, "seed": 7, '
     '"min_slack": 0, "violation_count": 0, "violations": [], '
     '"equality_count": 2, "equality_sets": [[1, 3, 5, 7, 9], '
     '[1, 3, 5, 7, 9]]}\n'
     ),
]


def run_cli(capsys, *argv):
    """Invoke the CLI; returns (exit_code, stdout, stderr)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def run_sweep_process(*argv, timeout):
    """Run ``signedsum sweep`` in a fresh interpreter at the default budget."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "signedsum.cli", "sweep", *argv],
        capture_output=True, text=True, env=env, timeout=timeout)


@pytest.mark.parametrize("argv, code, stdout", PINNED,
                         ids=[argv for argv, _, _ in PINNED])
def test_report_bytes(capsys, argv, code, stdout):
    assert run_cli(capsys, *argv.split()) == (code, stdout, "")


POSITIVE_WINDOW = ("error: optimal positive bound requires k >= 4 and "
                   "3 <= h <= k-1, got h={}, k={}\n")
ZERO_WINDOW = ("error: optimal zero bound requires k >= 5 and "
               "3 <= h <= k-1, got h={}, k={}\n")

# An (h, k) outside the paper's window is refused in the words of the
# family's optimal bound, whichever verb is asked.
REFUSED = [
    ("sweep --k 7 --h 2 --max 20", POSITIVE_WINDOW.format(2, 7)),
    ("sweep --k 6 --h 6 --max 12 --family zero-based",
     ZERO_WINDOW.format(6, 6)),
    ("probe --k 7 --h 2 --max 20 --trials 5 --seed 1",
     POSITIVE_WINDOW.format(2, 7)),
    ("check --set 1,2,3,4 --h 4 --theorem lemma-decomposition",
     POSITIVE_WINDOW.format(4, 4)),
    ("check --set 0,1,2,3,4 --h 2 --theorem lemma-decomposition",
     ZERO_WINDOW.format(2, 5)),
]


@pytest.mark.parametrize("argv, stderr", REFUSED,
                         ids=[argv for argv, _ in REFUSED])
def test_window_refusal_bytes(capsys, argv, stderr):
    assert run_cli(capsys, *argv.split()) == (2, "", stderr)


# The sweep and probe counterexample dump, byte for byte, with the bound
# raised by 1 so that {1,3,5,7,9}, with 25 sums, falls below it: the text
# or JSON summary (the JSON violations nest each record's structure), then
# each counterexample in both forms.
RAISED_SPACE = ('{"space": {"k": 5, "h": 4, "max_element": 10, '
                '"family": "positive", "filter": null}, "bound": 26, ')
ODD_AP_VIOLATION = ('{"set": [1, 3, 5, 7, 9], "cardinality": 25, '
                    '"slack": -1, "equality": false, "structure": '
                    '{"kind": "ODD_AP_DILATE", "d": 1}}')
ODD_AP_DUMP = ('COUNTEREXAMPLE set={1,3,5,7,9}\n'
               '{"counterexample": [1, 3, 5, 7, 9]}\n')
DUMPED = [
    ('sweep --k 5 --h 4 --max 10 --threads 1',
     'visited: 252  bound: 26\n'
     'min cardinality: 25\n'
     'equality cases: 0  violations: 1\n' + ODD_AP_DUMP),
    ('sweep --k 5 --h 4 --max 10 --threads 1 --json',
     RAISED_SPACE + '"visited": 252, "min_cardinality": 25, '
     '"equality_count": 0, "violation_count": 1, "equality_sets": [], '
     f'"violations": [{ODD_AP_VIOLATION}]}}\n' + ODD_AP_DUMP),
    ('probe --k 5 --h 4 --max 10 --trials 300 --seed 7',
     'trials: 300  seed: 7  bound: 26\n'
     'min slack: -1  equality cases: 0  violations: 2\n' + 2 * ODD_AP_DUMP),
    ('probe --k 5 --h 4 --max 10 --trials 300 --seed 7 --json',
     RAISED_SPACE + '"trials": 300, "seed": 7, "min_slack": -1, '
     '"violation_count": 2, "violations": '
     f'[{ODD_AP_VIOLATION}, {ODD_AP_VIOLATION}], '
     '"equality_count": 0, "equality_sets": []}\n' + 2 * ODD_AP_DUMP),
]


@pytest.mark.parametrize("argv, stdout", DUMPED,
                         ids=[argv for argv, _ in DUMPED])
def test_counterexample_dump_bytes(capsys, monkeypatch, argv, stdout):
    raised = SearchSpace.bound
    monkeypatch.setattr(SearchSpace, "bound", lambda self: raised(self)
                        ._replace(value=raised(self).value + 1))
    assert run_cli(capsys, *argv.split()) == (1, stdout, "")


# A --set value that starts with a minus sign reaches its verb, as it does
# written --set=-3,1,4, and a --set with no value stays a usage error.
NEGATIVE_SET = [
    ("sumset --set -3,1,4 --h 2 --op signed", 0,
     "set: {-3,1,4}\n"
     "operator: signed  h: 2\n"
     "cardinality: 16\n"
     "min: -8  max: 8\n", ""),
    ("check --set -1,2,3,4 --h 3 --theorem direct", 2, "",
     "error: theorem hypotheses require positive elements or 0 plus "
     "positives\n"),
    ("sumset --set --h 2 --op signed", 2, "",
     "usage: signedsum sumset [-h] [--set SET] [--set-file SET_FILE] --h H "
     "--op\n"
     "                        {classical,restricted,restricted-signed,signed}\n"
     "                        [--full] [--json]\n"
     "signedsum sumset: error: argument --set: expected one argument\n"),
]


@pytest.mark.parametrize("argv, code, stdout, stderr", NEGATIVE_SET,
                         ids=[argv for argv, _, _, _ in NEGATIVE_SET])
def test_negative_set_bytes(capsys, monkeypatch, argv, code, stdout, stderr):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the width
    assert run_cli(capsys, *argv.split()) == (code, stdout, stderr)


def test_every_grid_command_reaches_its_verb(capsys):
    spec = importlib.util.spec_from_file_location(
        "cli_grid", ROOT / "tools" / "cli_grid.py")
    cli_grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_grid)
    parser = cli.build_parser()
    stopped = []
    for command in cli_grid.commands():
        try:
            cli._parse_args(parser, command.split())
        except SystemExit:  # argparse refused the command line
            stopped.append(command)
    capsys.readouterr()
    # the grid's two deliberate usage errors
    assert stopped == ["check --set 1,3,5,7,9 --h 4 --theorem nope",
                       "sweep --k 4 --h 3 --max 10 --emit nope"]


IMPORT_PROBE = """
import sys
before = set(sys.modules)
import signedsum
package = set(sys.modules) - before
import signedsum.cli
with_cli = set(sys.modules) - before
import json
print(json.dumps([sorted(package), sorted(with_cli)]))
"""


def test_cli_import_loads_no_process_pool():
    # every command pays for what the CLI imports; only a sweep's pool
    # needs the pool's modules, and it loads them when it starts. The
    # records are NamedTuples, so nothing loads dataclasses or, with it,
    # inspect. Only the modules each import adds are compared, so whatever
    # site preloads on a host cannot change the result.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    package, with_cli = map(set, json.loads(done.stdout))
    assert "signedsum" in package and "signedsum.cli" in with_cli
    unwanted = {"multiprocessing", "multiprocessing.pool",
                "concurrent.futures", "traceback", "json", "dataclasses",
                "inspect"}
    assert package & unwanted == set()
    assert with_cli & unwanted == set()


class TestSumsetCommand:
    def test_cardinality_output(self, capsys):
        code, out, _ = run_cli(capsys, "sumset", "--set", "1,3,5,7,9",
                               "--h", "4", "--op", "restricted-signed")
        assert code == 0
        assert "cardinality: 25" in out

    def test_full_listing(self, capsys):
        code, out, _ = run_cli(capsys, "sumset", "--set", "2,5,9", "--h", "1",
                               "--op", "restricted-signed", "--full")
        assert code == 0
        assert "-9,-5,-2,2,5,9" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "sumset", "--set", "1,2,3", "--h", "2",
                               "--op", "restricted-signed", "--json", "--full")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"operator": "restricted-signed", "h": 2,
                           "set": [1, 2, 3], "cardinality": 10,
                           "min": -5, "max": 5,
                           "sums": [-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]}

    def test_precondition_failure_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sumset", "--set", "1,2", "--h", "3",
                               "--op", "restricted")
        assert code == 2
        assert "h exceeds |A|" in err

    def test_set_file_input(self, tmp_path, capsys):
        path = tmp_path / "set.txt"
        path.write_text("9\n1\n5\n3\n7\n")
        code, out, _ = run_cli(capsys, "sumset", "--set-file", str(path),
                               "--h", "4", "--op", "restricted-signed")
        assert code == 0
        assert "cardinality: 25" in out

    def test_missing_set_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sumset", "--h", "2",
                               "--op", "restricted")
        assert code == 2
        assert "--set" in err

    @pytest.mark.parametrize("argv", [
        # a 2 * 10^11-bit row, and 100,001 rows of 200,001 bits
        "--set 1,100000000000 --h 1 --op restricted-signed",
        "--set 1 --h 100000 --op classical",
    ])
    def test_oversized_dp_is_refused_before_allocation(self, capsys, argv):
        assert run_cli(capsys, "sumset", *argv.split()) == (
            2, "", "error: range overflow\n")

    def test_wide_dilate_is_refused_by_its_own_bitmap(self, capsys):
        # the pass would run on {1, 2}, but the range guard sizes the set
        # as given: two rows of 4 * 10^9 + 1 bits
        assert run_cli(capsys, "sumset", "--set", "1000000000,2000000000",
                       "--h", "1", "--op", "classical") == (
            2, "", "error: range overflow\n")

    def test_wide_short_restricted_set_is_sized_by_its_largest(self, capsys):
        # the sum of all 40 elements, 1.2 * 10^9, would size 3 rows of
        # 2.4 * 10^9 bits; every sum of 2 lies within +-60,000,077
        elements = ",".join(str(30_000_000 + i) for i in range(40))
        code, out, err = run_cli(capsys, "sumset", "--set", elements,
                                 "--h", "2", "--op", "restricted-signed")
        assert (code, err) == (0, "")
        assert out.endswith("operator: restricted-signed  h: 2\n"
                            "cardinality: 232\n"
                            "min: -60000077  max: 60000077\n")


class TestBoundsCommand:
    def test_plain_listing(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--h", "4", "--k", "5")
        assert code == 0
        assert "optimal-positive" in out
        assert "25" in out

    def test_json_listing(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--h", "4", "--k", "6",
                               "--json")
        payload = json.loads(out)
        assert payload["h"] == 4 and payload["k"] == 6
        by_name = {b["name"]: b for b in payload["bounds"]}
        assert by_name["optimal-positive"]["value"] == 33
        assert by_name["zero-ap-interval"]["value"] == 29


class TestCheckCommand:
    def test_direct_equality(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--set", "0,1,2,3,4",
                               "--h", "4", "--theorem", "direct")
        assert code == 0
        assert "equality: True" in out

    def test_direct_with_slack(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--set", "1,2,4,6,10",
                               "--h", "4", "--theorem", "direct")
        assert code == 0
        assert "slack: 9" in out

    def test_direct_hypothesis_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "--set", "1,2,3", "--h", "4",
                               "--theorem", "direct")
        assert code == 2
        assert "error:" in err

    def test_missing_set_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        code, out, err = run_cli(capsys, "check", "--set-file", str(missing),
                                 "--h", "4", "--theorem", "direct")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(missing) in err
        assert "Traceback" not in err

    def test_inverse_match(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--set", "2,6,10,14,18",
                               "--h", "4", "--theorem", "inverse", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["structure"]["kind"] == "ODD_AP_DILATE"
        assert payload["structure_matches"] is True

    def test_inverse_counterexample_exits_1(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--set", "0,1,2,4,6",
                               "--h", "4", "--theorem", "inverse")
        assert code == 1
        assert "COUNTEREXAMPLE" in out
        assert '{"counterexample": [0, 1, 2, 4, 6]}' in out

    def test_inverse_measures_the_set_once(self, capsys, monkeypatch):
        calls = []
        measure = verify.check_direct

        def counted(a, h):
            calls.append(a.elements)
            return measure(a, h)

        monkeypatch.setattr(verify, "check_direct", counted)
        monkeypatch.setattr(cli, "check_direct", counted)
        code, out, _ = run_cli(capsys, "check", "--set", "0,2,4,6,8",
                               "--h", "4", "--theorem", "inverse", "--json")
        assert code == 0
        assert json.loads(out)["cardinality"] == 21
        assert calls == [(0, 2, 4, 6, 8)]

    def test_lemma_decomposition(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--set", "1,3,5,7,9,11",
                               "--h", "4", "--theorem", "lemma-decomposition")
        assert code == 0
        assert "holds: True" in out

    def test_partial_inverse(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--set", "1,3,5,7,9,11",
                               "--h", "4", "--theorem", "partial-inverse")
        assert code == 0
        assert "condition (a): applicable=True" in out

    def test_special_direct(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--set", "1,5,6,11,17",
                               "--h", "4", "--theorem", "special-direct")
        assert code == 0
        assert "bound: 26" in out

    def test_special_direct_hypothesis_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "--set", "1,2,5,6,7",
                               "--h", "4", "--theorem", "special-direct")
        assert code == 2
        assert "hypothesis not satisfied" in err

    def test_ap_theorem(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--set", "2,6,10,14",
                               "--h", "3", "--theorem", "ap")
        assert code == 0
        assert "iff holds: True" in out

    def test_ap_requires_progression(self, capsys):
        code, _, err = run_cli(capsys, "check", "--set", "1,2,4,9",
                               "--h", "3", "--theorem", "ap")
        assert code == 2
        assert "arithmetic progression" in err

    @pytest.mark.parametrize("s, h", [("5", "0"), ("1,2,4,9", "3"),
                                      ("0,2,3,6", "3")])
    def test_ap_refusal_bytes(self, capsys, s, h):
        # a singleton, and a set whose span alone fits a progression
        assert run_cli(capsys, "check", "--set", s, "--h", h,
                       "--theorem", "ap") == (
            2, "", "error: ap check requires an arithmetic progression\n")

    def test_unknown_theorem_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "check", "--set", "1,2,3", "--h", "3",
                               "--theorem", "no-such-theorem")
        assert code == 2


class TestSweepCommand:
    def test_json_summary(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--k", "5", "--h", "4",
                               "--max", "20", "--family", "positive",
                               "--threads", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["visited"] == 15504
        assert payload["min_cardinality"] == 25
        assert payload["violation_count"] == 0
        assert payload["equality_sets"] == [[1, 3, 5, 7, 9],
                                            [2, 6, 10, 14, 18]]

    def test_csv_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--k", "4", "--h", "3",
                               "--max", "12", "--family", "positive",
                               "--threads", "1", "--csv", "-")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "set;cardinality;slack;equality;structure_kind;d"
        assert "1,3,5,7;16;0;true;ODD_AP_DILATE;1" in lines

    def test_csv_to_file(self, tmp_path, capsys):
        path = tmp_path / "records.csv"
        code, _, _ = run_cli(capsys, "sweep", "--k", "4", "--h", "3",
                             "--max", "10", "--family", "positive",
                             "--threads", "1", "--csv", str(path))
        assert code == 0
        content = path.read_text().splitlines()
        assert content[0] == "set;cardinality;slack;equality;structure_kind;d"
        assert len(content) > 1

    def test_csv_stdout_does_not_depend_on_threads(self, capsys, monkeypatch):
        # two threads start their workers at the first shard
        monkeypatch.setattr(search, "WORKERS_AFTER_S", 0)
        argv = ("sweep", "--k", "6", "--h", "4", "--max", "13",
                "--family", "zero-based", "--primitive-only", "--emit", "all",
                "--csv", "-", "--json", "--threads")
        code, one, _ = run_cli(capsys, *argv, "1")
        assert code == 0
        assert len(one.splitlines()) > 100
        assert run_cli(capsys, *argv, "2") == (0, one, "")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_csv_into_closed_pipe_exits_141_quietly(self, tmp_path, threads):
        # about 650 kB of CSV, far more than a pipe buffers, so the writer
        # meets the closed pipe while it runs; two threads start their
        # workers at the first shard, so the pipe closes while they run
        command = ("import sys; from signedsum import cli, search; "
                   "search.WORKERS_AFTER_S = 0; sys.exit(cli.main())")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        err_path = tmp_path / "stderr.txt"
        with open(err_path, "w") as err:
            proc = subprocess.Popen(
                [sys.executable, "-c", command, "sweep", "--k", "6",
                 "--h", "4", "--max", "18", "--emit", "all", "--csv", "-",
                 "--threads", threads],
                stdout=subprocess.PIPE, stderr=err, env=env)
            header = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
        assert header == b"set;cardinality;slack;equality;structure_kind;d\n"
        assert code == cli.EXIT_PIPE_CLOSED == 141
        assert err_path.read_text() == ""

    def test_budget_flag(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--k", "5", "--h", "4",
                               "--max", "20", "--threads", "1",
                               "--budget", "100")
        assert code == 2
        assert "budget exceeded" in err

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_refused(self, tmp_path, capsys, threads):
        path = tmp_path / "keep.csv"
        path.write_text("kept\n")
        assert run_cli(capsys, "sweep", "--k", "5", "--h", "3", "--max", "12",
                       "--threads", threads, "--csv", str(path)) == (
            2, "", f"error: --threads must be at least 1, got {threads}\n")
        assert path.read_text() == "kept\n"

    def test_csv_file_is_closed_when_the_sweep_fails(self, tmp_path, capsys,
                                                      monkeypatch):
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        def crash(*args, **kwargs):
            raise RuntimeError("simulated fault")

        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        monkeypatch.setattr(cli, "sweep", crash)
        path = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, "sweep", "--k", "4", "--h", "3",
                               "--max", "10", "--threads", "1",
                               "--csv", str(path))
        assert (code, out) == (cli.EXIT_INTERNAL_ERROR, "")
        assert [fh.closed for fh in opened] == [True]
        assert path.read_text() == (
            "set;cardinality;slack;equality;structure_kind;d\n")

    def test_unwritable_csv_path_exits_2(self, tmp_path, capsys):
        path = tmp_path / "no-such-dir" / "out.csv"
        code, out, err = run_cli(capsys, "sweep", "--k", "4", "--h", "3",
                                 "--max", "10", "--threads", "1",
                                 "--csv", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err

    def test_refused_sweep_leaves_csv_file_alone(self, tmp_path, capsys):
        path = tmp_path / "keep.csv"
        path.write_text("earlier results\n")
        code, _, err = run_cli(capsys, "sweep", "--k", "5", "--h", "4",
                               "--max", "20", "--threads", "1",
                               "--budget", "10", "--csv", str(path))
        assert code == 2
        assert "budget exceeded" in err
        assert path.read_text() == "earlier results\n"

    def test_dp_refusal_leaves_csv_file_alone(self, tmp_path, capsys):
        # within a 10^40 budget, but 4 rows of 6 * 10^8 bits: refused by
        # the DP guard before anything is allocated or opened
        path = tmp_path / "keep.csv"
        path.write_text("earlier results\n")
        assert run_cli(capsys, "sweep", "--k", "4", "--h", "3",
                       "--max", "100000000", "--budget", str(10**40),
                       "--csv", str(path)) == (2, "", "error: range overflow\n")
        assert path.read_text() == "earlier results\n"

    def test_budget_is_checked_before_dp_size(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--k", "4", "--h", "3",
                                 "--max", "100000000")
        assert (code, out) == (2, "")
        assert err.startswith("error: budget exceeded: ")

    @pytest.mark.parametrize("k, m", [(20000, 100000), (2000000, 10000000)])
    def test_huge_space_is_refused_quickly(self, k, m):
        # C(M, k) has tens of thousands, or millions, of digits; the
        # refusal must not build it
        proc = run_sweep_process("--k", str(k), "--h", "3", "--max", str(m),
                                 timeout=5)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: budget exceeded: C({m}, {k}) "
                               f"candidate sets > budget 10000000\n")

    def test_long_sets_do_not_exhaust_the_stack(self):
        # the walk goes 1,100 elements deep, past Python's default
        # recursion limit of 1,000
        proc = run_sweep_process("--k", "1100", "--h", "3", "--max", "1101",
                                 "--threads", "1", timeout=20)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "visited: 1101  bound: 6592" in proc.stdout
        assert "min cardinality: 6595" in proc.stdout

    @pytest.mark.parametrize("value", ["50", "abc"])
    def test_budget_env_is_ignored(self, capsys, monkeypatch, value):
        monkeypatch.setenv("SUMSET_BUDGET", value)
        code, out, err = run_cli(capsys, "sweep", "--k", "5", "--h", "4",
                                 "--max", "20", "--threads", "1")
        assert (code, err) == (0, "")
        assert "visited: 15504" in out

    def test_malformed_budget_flag_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--k", "5", "--h", "4",
                                 "--max", "10", "--budget", "abc")
        assert (code, out) == (2, "")
        assert err.endswith(
            "error: argument --budget: invalid int value: 'abc'\n")

    def test_primitive_only(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--k", "5", "--h", "4",
                               "--max", "20", "--threads", "1",
                               "--primitive-only", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["equality_sets"] == [[1, 3, 5, 7, 9]]


class TestProbeCommand:
    def test_probe_runs_clean(self, capsys):
        code, out, _ = run_cli(capsys, "probe", "--k", "7", "--h", "5",
                               "--max", "40", "--trials", "100",
                               "--seed", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["violation_count"] == 0
        assert payload["seed"] == 1

    def test_zero_based_family(self, capsys):
        code, out, _ = run_cli(capsys, "probe", "--k", "6", "--h", "4",
                               "--max", "30", "--family", "zero-based",
                               "--trials", "200", "--seed", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["space"]["family"] == "zero-based"
        assert payload["violation_count"] == 0

    def test_seed_is_mandatory(self, capsys):
        code, _, err = run_cli(capsys, "probe", "--k", "7", "--h", "5",
                               "--max", "40", "--trials", "100")
        assert code == 2
        assert "--seed" in err


class TestReproduceCommand:
    def test_positive_target_passes(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "thm-h4-positive")
        assert code == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_zero_target_reports_extra_equality_sets(self, capsys):
        # the sweep finds bound-attaining sets outside d*[0,4], so the
        # uniqueness row of this target honestly fails
        code, out, _ = run_cli(capsys, "reproduce", "thm-h4-zero")
        assert code == 1
        assert "[FAIL] equality cases are exactly d*[0,4]" in out
        assert "(0, 1, 2, 4, 6)" in out
        # a failed row is not a counterexample: no set is dumped as one
        assert "COUNTEREXAMPLE" not in out
        assert out.endswith("3/4 checks passed\n")

    def test_ap_iff_target(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "ap-iff")
        assert code == 0
        assert "1/1 checks passed" in out

    def test_interval_target(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "interval")
        assert code == 0

    def test_unknown_target_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "reproduce", "no-such-target")
        assert code == 2

    def test_library_refuses_an_unknown_target(self):
        # argparse's choices keep the CLI from reaching this refusal
        with pytest.raises(ValueError, match="^unknown target 'nope'$"):
            reproduce.run_target("nope")


class TestInternalError:
    def test_crash_exits_3_with_a_traceback_and_no_counterexample(
            self, capsys, monkeypatch):
        def crash(args):
            raise RuntimeError("simulated fault")

        monkeypatch.setattr(cli, "cmd_sumset", crash)
        code, out, err = run_cli(capsys, "sumset", "--set", "1,2,3",
                                 "--h", "2", "--op", "restricted")
        assert code == cli.EXIT_INTERNAL_ERROR == 3
        assert "COUNTEREXAMPLE" not in out
        assert err.startswith("Traceback (most recent call last):")
        assert err.endswith("RuntimeError: simulated fault\n")


class TestParserCache:
    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_each_call_reads_the_cpu_count(self, capsys, monkeypatch):
        seen = []
        real = cli.sweep

        def stub(space, *, budget, workers, **kwargs):
            seen.append((budget, workers))
            return real(space, budget=budget, workers=1, **kwargs)

        monkeypatch.setattr(cli, "sweep", stub)
        for cpus in (3, 5, None):
            monkeypatch.setattr(os, "cpu_count", lambda n=cpus: n)
            code, out, err = run_cli(capsys, "sweep", "--k", "5", "--h", "4",
                                     "--max", "10")
            assert (code, err) == (0, ""), cpus
            assert "visited: 252" in out
        assert seen == [(10**7, 3), (10**7, 5), (10**7, 1)]

    def test_a_handler_patched_after_the_first_build_is_reached(
            self, capsys, monkeypatch):
        argv = ("sumset", "--set", "1,2,3", "--h", "2", "--op", "restricted")
        assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.setattr(cli, "cmd_sumset", lambda args: 7)
        assert run_cli(capsys, *argv) == (7, "", "")
