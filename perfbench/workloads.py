"""Workload definitions: fixed parameters and seeded inputs.

This module imports nothing from ``signedsum``, so the orchestrator, the
checks and the set-up probe can all build the same inputs from a seed.
"""

from __future__ import annotations

import random
from math import comb

# Library sweep over the positive family. Narrow DP plus per-candidate
# overhead is nearly all the work; emission and the pool do almost none.
SWEEP_POSITIVE = {"k": 7, "h": 5, "max_element": 20, "family": "positive",
                  "workers": 1, "emit": "interesting"}

# The CLI as a user runs it: every record as CSV on stdout, JSON summary
# last, two worker processes. Loads classification, CSV formatting,
# pickling through the pool, the in-order merge and records held in memory.
ZERO_CSV = {"k": 7, "h": 5, "max_element": 21, "family": "zero-based",
            "primitive": True, "threads": 2}


def zero_csv_argv(threads: int = ZERO_CSV["threads"]) -> list[str]:
    """The ``signedsum`` command line of sweep-zero-csv, built from ZERO_CSV."""
    p = ZERO_CSV
    argv = ["sweep", "--k", str(p["k"]), "--h", str(p["h"]),
            "--max", str(p["max_element"]), "--family", p["family"]]
    if p["primitive"]:
        argv.append("--primitive-only")
    return argv + ["--emit", "all", "--csv", "-", "--json",
                   "--threads", str(threads)]


REPRODUCE_TARGETS = ("thm-h4-positive", "thm-h4-zero", "ap-iff", "interval",
                     "lemma-audit", "theorem11-small")

# Wide sets. The two AP dilates and the superincreasing 6-set reach about
# 10^6, so their restricted signed bitmaps hold about 10^7 bits (1.2 MB):
# four orders of magnitude wider than a sweep candidate's, and well under a
# 2^27-bit budget. Their sumsets are small, so they decode quickly. The
# generic (jittered) 8-sets stay near 4*10^4: decoding a sumset costs its
# cardinality (about 1,800 sums here) times the bitmap width, so a generic
# 8-set at 10^6 spends about 2.5 s in check_partial_inverse. A round with
# two of those took about 5 s, and the machine's speed changed within a
# round faster than the calibration passes between rounds could follow.
WIDE_H = 5
WIDE_K = 8
WIDE_STEP = 5_000
WIDE_JITTER = 1_200

# Oracle sample size for the sweep workloads.
SAMPLE_SIZE = 1000


def _jittered(rng: random.Random, first: int, count: int) -> tuple[int, ...]:
    """``count`` increasing elements near WIDE_STEP * i; the jitter keeps each
    set generic while holding the bitmap width (the DP's cost) nearly fixed."""
    return tuple((first + i) * WIDE_STEP + rng.randint(-WIDE_JITTER, WIDE_JITTER)
                 for i in range(count))


def _superincreasing(rng: random.Random) -> tuple[int, ...]:
    a1 = rng.randint(100_000, 120_000)
    a2 = a1 + rng.randint(50_000, 60_000)
    a3 = a2 + rng.randint(50_000, 60_000)
    out = [a1, a2, a3]
    while len(out) < WIDE_H + 1:
        out.append(out[-1] + out[-2] + rng.randint(0, 20_000))
    return tuple(out)


def verify_wide_batch(seed: int) -> list[dict]:
    """One batch of wide sets, each with the checkers it is run through.

    Two jittered positive 8-sets and two jittered zero-based 8-sets, an
    odd-AP dilate and a zero-based AP dilate near 10^6 (so equality and the
    inverse conclusions are exercised), and a superincreasing 6-set near
    10^6 for the special direct bound.
    """
    rng = random.Random(seed)
    h, k = WIDE_H, WIDE_K
    sets = [_jittered(rng, 1, k) for _ in range(2)]
    sets += [(0,) + _jittered(rng, 1, k - 1) for _ in range(2)]
    d = rng.randint(62_000, 66_000)
    sets.append(tuple(d * (2 * i + 1) for i in range(k)))
    d = rng.randint(135_000, 142_000)
    sets.append(tuple(d * i for i in range(k)))
    batch = [{"set": list(s), "h": h, "special": False} for s in sets]
    batch.append({"set": list(_superincreasing(rng)), "h": h, "special": True})
    return batch


def reproduce_set_count() -> int:
    """Candidate sets the six reproduce targets measure, from their fixed
    parameters; the numerator of sets_per_s on reproduce-all."""
    thm_positive = comb(20, 5)
    thm_zero = comb(16, 4)
    ap_grid = 5 * 12 * 4
    interval = sum(k - 4 for k in range(5, 11))
    lemma = 600
    small = sum(comb(12, k) + comb(11, k - 1)
                for h in (1, 2) for k in range(h, 7))
    return thm_positive + thm_zero + ap_grid + interval + lemma + small


def parameters(name: str, seed: int) -> dict:
    """Exactly what the workload runs, for the run manifest."""
    if name == "sweep-positive":
        return {"call": "signedsum.sweep", **SWEEP_POSITIVE,
                "oracle_sample": SAMPLE_SIZE, "oracle_sample_seed": seed}
    if name == "sweep-zero-csv":
        return {"argv": ["python3", "-m", "signedsum.cli", *zero_csv_argv()],
                "oracle_sample": SAMPLE_SIZE, "oracle_sample_seed": seed}
    if name == "verify-wide":
        return {"checkers": ["check_direct", "check_inverse",
                             "check_prefix_decomposition",
                             "check_partial_inverse",
                             "check_special_direct (special sets only)"],
                "batch": verify_wide_batch(seed)}
    if name == "reproduce-all":
        return {"argv": [["python3", "-m", "signedsum.cli", "reproduce", t]
                         for t in REPRODUCE_TARGETS],
                "in_process": "signedsum.cli.main(argv[3:])",
                "sets_per_pass": reproduce_set_count()}
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("sweep-positive", "sweep-zero-csv", "verify-wide", "reproduce-all")

# The calibration pass (see calibrate.py) whose work resembles each
# workload's, so that it speeds up and slows down with the machine as the
# workload does.
CALIBRATION = {"sweep-positive": "mixed", "sweep-zero-csv": "small",
               "verify-wide": "wide", "reproduce-all": "mixed"}
