"""Run one workload's rounds in a process of its own and report raw figures.

Started by ``run.py``; prints one JSON object on stdout. A round is one
timed pass of the workload's body. Its operations (one sweep, one command,
one wide set or one reproduce target) are returned for the orchestrator to
check: the first round in full, every later round as digests that must
match the first.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from calibrate import calibrate  # noqa: E402


def _digest(op) -> str:
    return hashlib.sha256(json.dumps(op, sort_keys=True).encode()).hexdigest()


def _error(exc: BaseException) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def _record_row(r) -> list:
    return [list(r.set.elements), r.cardinality, r.slack, r.equality,
            r.structure.kind.value, r.structure.d]


# --- workload bodies --------------------------------------------------------
# Each body runs one round and returns (operations, wall_s). It converts
# program objects to plain data after its clock has stopped.

def sweep_positive_body():
    import signedsum  # sweep is looked up per call, so a tracer can wrap it
    p = workloads.SWEEP_POSITIVE
    space = signedsum.SearchSpace(k=p["k"], h=p["h"],
                                  max_element=p["max_element"],
                                  family=signedsum.Family(p["family"]))

    def body():
        start = perf_counter()
        emitted = []
        summary = signedsum.sweep(space, workers=p["workers"], emit=p["emit"],
                                  on_record=emitted.append)
        wall = perf_counter() - start
        op = {"visited": summary.visited,
              "min_cardinality": summary.min_cardinality,
              "equality_count": summary.equality_count,
              "violation_count": summary.violation_count,
              "equality_sets": [list(r.set.elements)
                                for r in summary.equality_sets],
              "violations": [list(r.set.elements) for r in summary.violations],
              "emitted": [_record_row(r) for r in emitted]}
        return [op], wall
    return body


def _subprocess_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def zero_csv_subprocess_body(rss_samples: list, first_samples: list):
    """The command as a subprocess. Each round adds the command's peak RSS
    and the time at which its first CSV record reached the pipe."""
    argv = [sys.executable, "-m", "signedsum.cli", *workloads.zero_csv_argv()]
    env = _subprocess_env()

    def body():
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        chunks, newlines, first = [], 0, None
        fd = proc.stdout.fileno()
        while chunk := os.read(fd, 1 << 16):
            if first is None:
                newlines += chunk.count(b"\n")
                if newlines >= 2:  # header, then the first record
                    first = perf_counter() - start
            chunks.append(chunk)
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        rss_samples.append(usage.ru_maxrss / 1024)
        first_samples.append(first if first is not None else wall)
        op = {"exit": proc.returncode, "stdout": b"".join(chunks).decode(),
              "stderr": err.decode()}
        return [op], wall
    return body


def _in_process_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main(argv) with stdout captured."""
    from signedsum import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def zero_csv_in_process_body():
    """The same command with one worker, run in this process."""
    argv = workloads.zero_csv_argv(threads=1)

    def body():
        start = perf_counter()
        code, text = _in_process_cli(argv)
        wall = perf_counter() - start
        return [{"exit": code, "stdout": text, "stderr": ""}], wall
    return body


def verify_wide_body(seed: int):
    from signedsum import make_set, verify
    batch = [(make_set(item["set"]), item["h"], item["special"])
             for item in workloads.verify_wide_batch(seed)]

    def body():
        start = perf_counter()
        results = []
        for a, h, special in batch:
            try:
                results.append((
                    verify.check_direct(a, h), verify.check_inverse(a, h),
                    verify.check_prefix_decomposition(a, h),
                    verify.check_partial_inverse(a, h),
                    verify.check_special_direct(a, h) if special else None))
            except Exception as exc:  # a failed operation, not a crash
                results.append(exc)
        wall = perf_counter() - start
        ops = []
        for r in results:
            if isinstance(r, Exception):
                ops.append(_error(r))
                continue
            direct, inverse, prefix, partial, spec = r
            ops.append({"direct": direct.to_dict(),
                        "inverse": inverse.to_dict(),
                        "prefix": prefix.to_dict(),
                        "partial": [c.to_dict() for c in partial],
                        "special": spec.to_dict() if spec else None})
        return ops, wall
    return body


def reproduce_body():
    def body():
        start = perf_counter()
        ops = []
        for target in workloads.REPRODUCE_TARGETS:
            code, text = _in_process_cli(["reproduce", target])
            ops.append({"exit": code, "stdout": text})
        return ops, perf_counter() - start
    return body


# --- rounds -----------------------------------------------------------------

class Rounds:
    """Runs rounds of one body and keeps what the orchestrator checks."""

    def __init__(self, body, ops_per_round: int) -> None:
        self.body, self.ops_per_round = body, ops_per_round
        self.walls: list[float] = []
        self.digests: list[list[str]] = []
        self.ops_first: list | None = None

    def run(self) -> tuple[list, float]:
        t0 = perf_counter()
        try:
            ops, wall = self.body()
        except Exception as exc:  # the whole round failed
            wall = perf_counter() - t0
            ops = [_error(exc)] * self.ops_per_round
        self.walls.append(wall)
        if self.ops_first is None:
            self.ops_first = ops
        self.digests.append([_digest(op) for op in ops])
        return ops, wall

    def report(self) -> dict:
        return {"wall_s": self.walls, "ops_first": self.ops_first,
                "ops_digests": self.digests}


def make_body(name: str, seed: int, rss_samples: list, first_samples: list):
    if name == "sweep-positive":
        return sweep_positive_body(), 1
    if name == "sweep-zero-csv":
        return zero_csv_subprocess_body(rss_samples, first_samples), 1
    if name == "verify-wide":
        return verify_wide_body(seed), len(workloads.verify_wide_batch(seed))
    return reproduce_body(), len(workloads.REPRODUCE_TARGETS)


def untraced(name: str, seed: int, seconds: float) -> dict:
    """Rounds while another of the last one's length fits in ``seconds``,
    with a calibration pass of the workload's kind before the first round
    and after every round."""
    rss_samples: list[float] = []
    first_samples: list[float] = []
    rounds = Rounds(*make_body(name, seed, rss_samples, first_samples))
    kind = workloads.CALIBRATION[name]
    start = perf_counter()
    calibration = [calibrate(kind)]
    while True:
        _, wall = rounds.run()
        calibration.append(calibrate(kind))
        if perf_counter() - start + wall > seconds:
            break
    if rss_samples:  # the command's own process, with its pool workers
        peak = statistics.median(rss_samples)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {**rounds.report(), "calibration_s": calibration,
            "first_record_s": first_samples, "peak_rss_mib": peak}


def _sweep_speedup(name: str) -> float:
    """Untraced sweep() wall at one worker over two, same space and emit."""
    from signedsum import Family, SearchSpace, sweep
    if name == "sweep-positive":
        p = workloads.SWEEP_POSITIVE
        space = SearchSpace(k=p["k"], h=p["h"], max_element=p["max_element"],
                            family=Family(p["family"]))
        emit = p["emit"]
    else:
        p = workloads.ZERO_CSV
        space = SearchSpace(k=p["k"], h=p["h"], max_element=p["max_element"],
                            family=Family(p["family"]), filter_id="primitive")
        emit = "all"
    walls = {1: 0.0, 2: 0.0}
    for workers in (1, 2, 2, 1):  # balanced against drift in machine speed
        t0 = perf_counter()
        sweep(space, workers=workers, emit=emit, on_record=lambda r: None)
        walls[workers] += perf_counter() - t0
    return walls[1] / walls[2]


def traced(name: str, seed: int, seconds: float) -> dict:
    """Pairs of an untraced and a traced round while another pair fits.

    Per-layer metrics are medians over the traced rounds; the sweep
    workload's CLI runs in this process with one worker so that every span
    is recorded here rather than in pool workers.
    """
    from layers import Tracer
    if name == "sweep-zero-csv":
        rounds = Rounds(zero_csv_in_process_body(), 1)
    else:
        rounds = Rounds(*make_body(name, seed, [], []))
    tracer = Tracer()
    plain_walls, traced_walls, layer_rounds = [], [], []
    start = perf_counter()
    while True:
        plain_walls.append(rounds.run()[1])
        tracer.reset()
        tracer.install()
        try:
            ops, wall = rounds.run()
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        layers = tracer.metrics(dp_s=tracer.replay_dp())
        layers["cli.csv_bytes"] = _csv_bytes(name, ops)
        layer_rounds.append(layers)
        if perf_counter() - start + plain_walls[-1] + wall > seconds:
            break
    layers = {key: statistics.median(r[key] for r in layer_rounds)
              for key in layer_rounds[0]}
    layers["search.parallel_speedup"] = (
        _sweep_speedup(name) if name.startswith("sweep-") else 0.0)
    layers["trace.overhead_s"] = (statistics.median(traced_walls)
                                  - statistics.median(plain_walls))
    return {**rounds.report(), "layers": layers}


def _csv_bytes(name: str, ops: list) -> int:
    if name != "sweep-zero-csv" or "stdout" not in ops[0]:
        return 0
    text = ops[0]["stdout"]
    return len(text[:text.rstrip("\n").rfind("\n") + 1].encode())


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    run = traced if args.trace else untraced
    result = run(args.workload, args.seed, args.seconds)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
