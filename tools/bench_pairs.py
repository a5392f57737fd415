"""Run the benchmark in pairs against a git revision and apply its rules.

Usage:

    python tools/bench_pairs.py REV [WORKLOAD ...]

The script extracts ``git archive REV``, the parent, into a temporary
directory and, for each named workload (every workload in
``BENCHMARK.json`` by default), runs 10 pairs: the benchmark command of
``BENCHMARK.json`` with ``--workload W --seed S --seconds <run_seconds>
--trace 0``, once in the parent's tree and once in the working tree, the
change. Both sides of pair i use seed i, and the side that runs first
alternates from pair to pair. For each end-to-end metric it prints the
parent's median and quartiles, the change's median, the change's wins out
of the pairs (by the metric's ``better``; ties count for neither side),
whether the medians differ by more than the parent's interquartile range,
whether the change's median is within the metric's ``bound``, a fraction
of the parent's median, and whether the metric is unresolved: the
parent's interquartile range is wider than ``bound`` times its median,
and not every change run beats every parent run, so the runs spread too
widely to tell. Failed runs are reported on stderr.

It exits 1 if a median is worse than the parent's by more than its
bound, or if any run fails, is not correct or reports failed operations;
0 otherwise; and 2 on a usage error or a revision ``git archive`` cannot
read.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from pairs import PAIRS, ROOT, extract, figures, order


def run(spec: dict, tree: Path, workload: str, seed: int) -> dict | None:
    """One benchmark run in ``tree``: its end-to-end metric values, or None
    when the run fails, is not correct or reports failed operations."""
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if (proc.returncode != 0 or result is None or not result["correct"]
            or result["failed"]):
        print(f"{workload} seed {seed} in {tree}: exit {proc.returncode}, "
              f"result {result}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def report(workload: str, metric: dict, pairs: list[tuple[dict, dict]]
           ) -> bool:
    """Print one metric's comparison; return whether it is within bound."""
    name, lower = metric["name"], metric["better"] == "lower"
    before = [b[name] for b, _ in pairs]
    after = [a[name] for _, a in pairs]
    fig = figures(before, after, lower)
    bound = metric["bound"]
    limit = fig.median * (1 + bound if lower else 1 - bound)
    within = fig.changed <= limit if lower else fig.changed >= limit
    apart = max(after) < min(before) if lower else min(after) > max(before)
    unresolved = fig.q3 - fig.q1 > bound * fig.median and not apart
    print(f"{workload} {name} ({metric['unit']}, {metric['better']} is "
          f"better): {fig.text()}, "
          f"within bound {bound}: {'yes' if within else 'no'}, "
          f"unresolved: {'yes' if unresolved else 'no'}")
    return within


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    args = sys.argv[1:]
    workloads = args[1:] or names
    if not args or any(a.startswith("-") for a in args) or not set(
            workloads) <= set(names):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tools/bench_pairs.py REV [WORKLOAD ...]; "
              f"workloads: {' '.join(names)}", file=sys.stderr)
        return 2
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        if not extract(args[0], tmp):
            return 2
        trees = (Path(tmp), ROOT)
        for workload in workloads:
            pairs = []
            for seed in range(1, PAIRS + 1):
                values = {side: run(spec, trees[side], workload, seed)
                          for side in order(seed - 1)}
                if None in values.values():
                    ok = False
                else:
                    pairs.append((values[0], values[1]))
            if len(pairs) < 2:  # no quartiles; the failed runs are reported
                continue
            for metric in spec["end_to_end"]:
                ok &= report(workload, metric, pairs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
