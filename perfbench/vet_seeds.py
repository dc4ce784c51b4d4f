"""List the experiment seeds on which every claim of a workload holds.

Run from the root of the repository::

    python3 perfbench/vet_seeds.py --workload analytic --candidates 24

Each candidate seed runs one pass of the workload and prints the claims
that failed on it.  The last line is the tuple of seeds that passed:
the benchmark draws its experiment seeds from these (``Workload.seeds``
in ``workloads.py``), so that no operation fails on unchanged code.
Rerun it after a change that is meant to move a claim.
"""

import argparse
import sys

from workloads import (SRC, WORKLOADS, Runner, in_fork,
                       limit_threads)

limit_threads()  # before anything imports numpy


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--candidates", type=int, default=24)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))

    runner = Runner(WORKLOADS[args.workload], 0)
    passing = []
    try:
        for seed in range(args.first, args.first + args.candidates):
            runner.exp_seed = seed
            failures = [f"{op.exp_id}: {failure}"
                        for op in in_fork(runner.run_pass)
                        for failure in op.failures]
            print(f"seed {seed}: {failures or 'ok'}", flush=True)
            if not failures:
                passing.append(seed)
    finally:
        runner.close()
    print(tuple(passing))
    return 0


if __name__ == "__main__":
    sys.exit(main())
