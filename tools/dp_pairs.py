"""Time single-set DPs in pairs against a git revision.

Usage:

    python tools/dp_pairs.py REV

The script extracts the ``src`` tree of ``git archive REV``, the parent,
into a temporary directory and, for each of three batches, runs 10 pairs:
one fresh interpreter on the parent's ``src`` and one on the working
tree's, the change. The side that runs first alternates from pair to
pair. Each interpreter runs three entry points of ``signedsum.engine`` on
every set of its batch at fold h, under the restricted signed operator,
a fixed number of times over: ``sumset_cardinality``, ``prefix_sumsets``
(the two sizes) and ``compute_sumset``. It also runs
``signedsum.verify.check_partial_inverse``, the caller of
``prefix_sumsets``, on the items with 4 <= h <= k - 1. The batches are:

    verify-wide     the 21 sets of perfbench's verify-wide batches for
                    seeds 0 to 2 at h=5, which take the set-based backend
    narrow          200 seeded sets shaped as ``reproduce lemma-audit``'s:
                    k 5 to 8, h 3 to k-1, elements in [1, 40], half with
                    0; they take the packed bitset pass
    boundary-below  100 seeded sets, k 5 to 8, h 3 to k-1, positive, whose
                    packed state, (h+1)(2 half_width + 1) bits, is within
                    10% below ``engine.PACKED_BITS`` of the working tree:
                    the widest that the bitset backend runs packed
    boundary-above  as boundary-below, within 10% above it: the narrowest
                    that it runs on the row list
    wide-bitset     the 16 elements 1.2*10^6 + 1000 i at h=8, on the
                    bitset backend's row list

Each interpreter times each entry point alone, not its start-up, and
reports which backends its batch took, by ``engine._sparse``, which both
sides share: the packed pass and the row list are the one bitset backend
there. For each batch and entry point the
script prints the parent's median time and quartiles, the change's
median, the change's wins out of the pairs (the faster side of a pair wins
it) and whether the medians differ by more than the parent's interquartile
range, by the rule of ``tools/pairs.py``. It exits 1 if any output (each
count, sumset, condition check and backend) differs between the sides in
any run, 0 otherwise, and 2 on a usage error, a revision ``git archive``
cannot read or a run that fails. Neither side writes bytecode, and both
run in the temporary directory, so nothing is written inside the
repository.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile

from pairs import PAIRS, ROOT, extract, figures, order, run_json

sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))
from signedsum.engine import PACKED_BITS  # noqa: E402
from workloads import verify_wide_batch  # noqa: E402

ENTRIES = ("sumset_cardinality", "prefix_sumsets", "compute_sumset",
           "check_partial_inverse")


def batches() -> dict[str, tuple[int, list[tuple[list[int], int]]]]:
    """Each batch's name, its repeat count and its ``(set, h)`` items."""
    wide = [(item["set"], item["h"]) for seed in range(3)
            for item in verify_wide_batch(seed)]
    rng = random.Random(1842)
    narrow = []
    for i in range(200):
        k = rng.randint(5, 8)
        fixed = [0] if i % 2 else []
        narrow.append((fixed + sorted(rng.sample(range(1, 41),
                                                 k - len(fixed))),
                       rng.randint(3, k - 1)))
    return {"verify-wide": (10, wide), "narrow": (20, narrow),
            "boundary-below": (5, boundary(rng, True)),
            "boundary-above": (5, boundary(rng, False)),
            "wide-bitset": (3, [([1_200_000 + 1000 * i for i in range(16)],
                                 8)])}


def boundary(rng: random.Random, packed: bool) -> list[tuple[list[int], int]]:
    """100 sets whose packed state at fold h is within 10% below
    ``PACKED_BITS`` or, unless ``packed``, within 10% above it. The half
    width is the sum of the h largest elements, and the largest, drawn
    last, makes it up."""
    items = []
    for _ in range(100):
        k = rng.randint(5, 8)
        h = rng.randint(3, k - 1)
        edge = (PACKED_BITS // (h + 1) - 1) // 2  # the widest packed
        half_width = (rng.randint(edge * 9 // 10, edge) if packed
                      else rng.randint(edge + 1, edge * 11 // 10))
        rest = sorted(rng.sample(range(1, half_width // h), k - 1))
        items.append((rest + [half_width - sum(rest[-(h - 1):])], h))
    return items


# run as ``python -c DP SRC``, the batch as JSON on stdin: the time of
# each entry point and a digest of every output, as JSON
DP = """if True:
    import hashlib, json, sys
    from time import perf_counter
    sys.path.insert(0, sys.argv[1])
    from signedsum import engine, make_set, verify
    repeat, items = json.load(sys.stdin)
    rs = engine.Operator.RESTRICTED_SIGNED
    sets = [(make_set(s), h) for s, h in items]
    window = [(a, h) for a, h in sets if 4 <= h <= a.k - 1]
    calls = {"sumset_cardinality":
             (sets, lambda a, h: engine.sumset_cardinality(a, h, rs)),
             "prefix_sumsets": (sets, engine.prefix_sumsets),
             "compute_sumset":
             (sets, lambda a, h: engine.compute_sumset(a, h, rs)),
             "check_partial_inverse": (window, verify.check_partial_inverse)}
    seconds, digest = {}, hashlib.sha256()
    for name, (batch, call) in calls.items():
        start = perf_counter()
        for _ in range(repeat):
            out = [call(a, h) for a, h in batch]
        seconds[name] = perf_counter() - start
        digest.update(json.dumps(out).encode())
    backends = sorted({engine._sparse(a.k, h, rs,
                                      engine._check_instance(a, h, rs))
                       for a, h in sets})
    print(json.dumps({"seconds": seconds, "digest": digest.hexdigest(),
                      "backends": ["set-based" if b else "bitset"
                                   for b in backends]}))
"""


def main() -> int:
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tools/dp_pairs.py REV", file=sys.stderr)
        return 2
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        if not extract(sys.argv[1], tmp, "src"):
            return 2
        srcs = (os.path.join(tmp, "src"), str(ROOT / "src"))
        for name, batch in batches().items():
            times = {entry: ([], []) for entry in ENTRIES}
            for i in range(PAIRS):
                results = {}
                for side in order(i):
                    result = run_json(name, DP, srcs[side], cwd=tmp,
                                      stdin=json.dumps(batch))
                    if result is None:
                        return 2
                    for entry, seconds in result.pop("seconds").items():
                        times[entry][side].append(seconds)
                    results[side] = result
                if results[0] != results[1]:
                    same = False
                    print(f"{name} pair {i}: the outputs differ",
                          file=sys.stderr)
            repeat, items = batch
            print(f"{name}: {len(items)} sets x {repeat}, "
                  f"{'/'.join(results[1]['backends'])}")
            for entry in ENTRIES:
                print(f"  {entry}: {figures(*times[entry]).text('.4f', ' s')}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
