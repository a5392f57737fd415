"""Benchmark for signedsum: one workload per run, checked against an oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Set-up time is measured in fresh
interpreters; the workload itself runs in a worker process
(``worker.py``) for about ``--seconds`` seconds. Its outputs are then
checked here against ``oracle``, which never imports ``signedsum``. With
``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json,
with round and set-up times scaled to a reference machine speed (see
``calibrate.py``); with ``--trace 1`` it holds the per-layer metrics from
a traced run, and the tracing overhead. A manifest line with the raw
samples precedes the result, which is the last line of stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from math import comb
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from calibrate import REFERENCE_IMPORT_S, REFERENCE_S  # noqa: E402

SETUP_PROBES = 9
DEADLINE_S = 170.0
# Unset for every child, so that commands run as a user runs them: stdout
# block-buffered, and bytecode cached after the warm-up probe.
UNSET_ENV = ("PYTHONUNBUFFERED", "PYTHONDONTWRITEBYTECODE")


class BenchError(Exception):
    pass


def run_child(argv: list[str], deadline: float) -> str:
    """Run a child in its own session; kill the whole group on overrun."""
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[1]} overran the deadline")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{argv[1]} exited {proc.returncode}: {err[-2000:]}")
    return out


def measure_setup(name: str, seed: int,
                  deadline: float) -> tuple[list[float], list[float]]:
    """Set-up samples from fresh interpreters, each followed by a reference
    import in another; one unrecorded pair first fills the file cache and
    the bytecode cache."""
    probe = [sys.executable, str(HERE / "setup_probe.py")]
    setups, references = [], []
    for _ in range(SETUP_PROBES + 1):
        setups.append(float(run_child(probe + [name, str(seed)], deadline)))
        references.append(float(run_child(probe + ["--reference"], deadline)))
    return setups[1:], references[1:]


def setup_at_reference_speed(setups: list[float],
                             references: list[float]) -> float:
    """Median set-up scaled by REFERENCE_IMPORT_S over its paired import."""
    return statistics.median(s * REFERENCE_IMPORT_S / r
                             for s, r in zip(setups, references))


def at_reference_speed(samples: list[float], calibration: list[float],
                       reference: float) -> list[float]:
    """Scale round i by ``reference`` over the mean of calibration passes i
    and i+1, which ran just before and just after it."""
    return [x * reference * 2 / (calibration[i] + calibration[i + 1])
            for i, x in enumerate(samples)]


def sets_per_round(name: str, seed: int) -> int:
    """Sets one round measures, counted here rather than by the program."""
    if name == "sweep-positive":
        p = workloads.SWEEP_POSITIVE
        return comb(p["max_element"], p["k"])
    if name == "sweep-zero-csv":
        p = workloads.ZERO_CSV
        return oracle.primitive_subset_count(p["max_element"], p["k"] - 1)
    if name == "verify-wide":
        return len(workloads.verify_wide_batch(seed))
    return workloads.reproduce_set_count()


def check_first_round(name: str, seed: int, ops: list) -> list[list[str]]:
    """Problems with each operation of the first round."""
    sample = workloads.SAMPLE_SIZE
    if name == "sweep-positive":
        return [checks.check_sweep_positive(ops[0], workloads.SWEEP_POSITIVE,
                                            seed, sample)]
    if name == "sweep-zero-csv":
        return [checks.check_zero_csv(ops[0], workloads.ZERO_CSV, seed,
                                      sample)]
    if name == "verify-wide":
        return [checks.check_wide_set(item, op) for item, op in
                zip(workloads.verify_wide_batch(seed), ops)]
    return [checks.check_reproduce(t, op, checks.reproduce_expectations(t))
            for t, op in zip(workloads.REPRODUCE_TARGETS, ops)]


def tally(name: str, seed: int, raw: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): the first round is checked in full,
    and a later operation passes only if its output matches the first's."""
    problems = check_first_round(name, seed, raw["ops_first"])
    good_first = [not p for p in problems]
    reference = raw["ops_digests"][0]
    attempted = failed = 0
    for digests in raw["ops_digests"]:
        for i, digest in enumerate(digests):
            attempted += 1
            if not (good_first[i] and digest == reference[i]):
                failed += 1
    flat = [p for ps in problems for p in ps]
    if failed and not flat:
        flat.append("a later round's output differs from the first round's")
    return attempted, failed, flat


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = monotonic() + DEADLINE_S

    if not (ROOT / "src" / "signedsum" / "__init__.py").is_file():
        print("perfbench: src/signedsum is missing; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        setup, reference = (([], []) if args.trace else
                            measure_setup(args.workload, args.seed, deadline))
        worker = [sys.executable, str(HERE / "worker.py"),
                  "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds)]
        if args.trace:
            worker.append("--trace")
        raw = json.loads(run_child(worker, deadline).splitlines()[-1])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = tally(args.workload, args.seed, raw)
    for problem in problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    kind = workloads.CALIBRATION[args.workload]
    if args.trace:
        values = raw["layers"]
    else:
        walls = at_reference_speed(raw["wall_s"], raw["calibration_s"],
                                   REFERENCE_S[kind])
        # Only the CSV command streams records; elsewhere the output is
        # whole when the round ends.
        firsts = at_reference_speed(raw["first_record_s"],
                                    raw["calibration_s"],
                                    REFERENCE_S[kind]) or walls
        wall = statistics.median(walls)
        values = {
            "sets_per_s": sets_per_round(args.workload, args.seed) / wall,
            "wall_s": wall,
            "setup_s": setup_at_reference_speed(setup, reference),
            "peak_rss_mib": raw["peak_rss_mib"],
            "first_record_s": statistics.median(firsts),
        }
    metrics = {m["name"]: metric(values[m["name"]], m["unit"]) for m in wanted}

    manifest = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "argv": ["python3", "perfbench/run.py", *sys.argv[1:]],
        "workload": args.workload,
        "seed": args.seed,
        "parameters": workloads.parameters(args.workload, args.seed),
        "rounds": len(raw["ops_digests"]),
        "calibration": {"kind": kind, "reference_s": REFERENCE_S[kind]},
        "reference_import_s": REFERENCE_IMPORT_S,
        "raw_samples": {"wall_s": raw["wall_s"],
                        "first_record_s": raw.get("first_record_s", []),
                        "calibration_s": raw.get("calibration_s", []),
                        "setup_s": setup,
                        "reference_import_s": reference},
    }
    print(json.dumps({"manifest": manifest}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
