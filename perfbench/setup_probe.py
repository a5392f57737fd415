"""Time one fresh interpreter's set-up for a workload and print it in seconds.

Set-up is importing ``signedsum`` (and its CLI, for the workloads that run
commands) and building the workload's inputs from the seed. With
``--reference`` the probe times the fixed reference import instead (see
``calibrate.py``), which the orchestrator times next to each set-up.

    python3 perfbench/setup_probe.py WORKLOAD SEED
    python3 perfbench/setup_probe.py --reference
"""

import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))


def setup(name: str, seed: int) -> None:
    import signedsum
    import workloads
    if name == "sweep-positive":
        p = workloads.SWEEP_POSITIVE
        signedsum.SearchSpace(k=p["k"], h=p["h"], max_element=p["max_element"],
                              family=signedsum.Family(p["family"]))
    elif name == "verify-wide":
        for item in workloads.verify_wide_batch(seed):
            signedsum.make_set(item["set"])
    else:
        from signedsum import cli
        parser = cli.build_parser()
        if name == "sweep-zero-csv":
            parser.parse_args(workloads.zero_csv_argv())
        else:
            for target in workloads.REPRODUCE_TARGETS:
                parser.parse_args(["reproduce", target])


def main() -> None:
    t0 = perf_counter()
    if sys.argv[1] == "--reference":
        from calibrate import reference_import
        reference_import()
    else:
        setup(sys.argv[1], int(sys.argv[2]))
    print(repr(perf_counter() - t0))


if __name__ == "__main__":
    main()
