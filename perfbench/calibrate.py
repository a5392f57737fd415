"""Machine-speed calibration for the end-to-end times.

The machine these figures were taken on (2 vCPUs of a shared Xeon host)
switches between two speeds, about 1.6x apart, for seconds at a time, and
the process's CPU time moves with its wall time, so the slowdowns come
from the host rather than from scheduling. Which speed a run mostly sees
varies from run to run, and medians within a run cannot remove that. So
the worker also times ``calibrate(kind)``, a fixed piece of work written
here that never touches ``signedsum``, before the first round and after
each round. Each round's wall time is then scaled to the speed at which
that pass takes ``REFERENCE_S[kind]``:

    reported = measured * REFERENCE_S[kind] / mean of the passes around it

Kinds of work speed up by different factors in the fast phase, so each
workload is scaled by the pass that resembles its own work
(``workloads.CALIBRATION``):

- ``mixed``: small-integer bytecode, a bitset DP over small sets and shifts
  of megabit integers, for the library sweep and the reproduce targets;
- ``wide``: shifts, masks and negations of 10^7-bit integers, for the
  wide-set checkers, whose bitmaps are that wide;
- ``small``: small-integer bytecode alone, for the CSV command, whose time
  goes to per-record Python code in the pool, the merge and the CSV writer.

Set-up time has a gauge of its own. Import work is unmarshalling many
small files and loading large shared libraries, and its speed moves in
phases (0.09 s to 0.22 s for the same import) that ``calibrate`` does not
see. So each set-up probe is paired with a fresh interpreter that runs
``reference_import``, a plain ``import numpy``, and the set-up is scaled to
the speed at which that import takes ``REFERENCE_IMPORT_S``. numpy is the
largest import of the installed toolchain, so it loads the same kind of
code as ``signedsum`` does; the gauge stays the same whether or not the
program keeps importing it. The manifest prints the raw samples and the
calibration passes.
"""

from __future__ import annotations

import itertools
from time import perf_counter

# About the median of calibrate(kind) on the machine the README's figures
# come from: Intel Xeon at 2.1 GHz, 2 vCPUs, Python 3.11.7.
REFERENCE_S = {"mixed": 0.055, "wide": 0.044, "small": 0.021}
# Median of reference_import() in a fresh interpreter on the same machine.
REFERENCE_IMPORT_S = 0.085


def _small_ints() -> int:
    acc = 0
    for i in range(150_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return acc


def _bitset_dp() -> int:
    total = 0
    for c in itertools.combinations(range(1, 14), 6):
        half = sum(c)
        dp = [1 << half, 0, 0, 0, 0]
        for a in c:
            nxt = dp[:]
            for w in range(4):
                if dp[w]:
                    nxt[w + 1] |= (dp[w] << a) | (dp[w] >> a)
            dp = nxt
        total += dp[4].bit_count()
    return total


def _wide_shifts() -> int:
    big = (1 << 2_000_000) | 1
    for s in range(1, 150):
        big |= big >> s
    return big.bit_count()


def _wide_bitmap_ops() -> int:
    bits = 10_000_000
    mask = (1 << bits) - 1
    x = (1 << (bits // 2)) | 1
    for a in range(1, 30):
        x = (x | (x << a) | (x >> a)) & mask
        y = ~x & mask
    return x.bit_count() + y.bit_count()


PASSES = {"mixed": (_small_ints, _bitset_dp, _wide_shifts),
          "wide": (_wide_bitmap_ops,),
          "small": (_small_ints,)}


def calibrate(kind: str) -> float:
    """Seconds one pass of the fixed work of ``kind`` takes now."""
    t0 = perf_counter()
    for work in PASSES[kind]:
        work()
    return perf_counter() - t0


def reference_import() -> None:
    """The set-up gauge's fixed work; the caller times it."""
    import numpy  # noqa: F401
