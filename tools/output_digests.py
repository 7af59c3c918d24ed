#!/usr/bin/env python3
"""Print the benchmark workloads' output digests for one checkout.

    python3 tools/output_digests.py SRC_DIR

SRC_DIR is the root of a strandseg checkout. The script imports that
checkout's `perfbench/workloads.py` as it is, with strandseg from its
`src/` and one BLAS thread, as `perfbench/run.py` does, and runs a fixed
set of units untimed:

  eval64   seeds 1-3, units 0-3 (all four datasets of each seed)
  maps512  seeds 1-3 and 19, units 0-4 (all five images of each seed)
  train64  seed 1, unit 0
  gradcheck16  seed 1, unit 0 (one fixture of the gradient check)

It prints one line per unit, `workload/seed/unit digest failed`, where
`digest` is the workload's fingerprint of the unit's outputs and `failed`
the number of operations its own check fails. Two checkouts that print the
same lines give byte-identical outputs on these units:

    python3 tools/output_digests.py OLD > old.txt
    python3 tools/output_digests.py NEW > new.txt
    diff old.txt new.txt
"""

import os
import sys

RUNS = (
    ("eval64", (1, 2, 3), range(4)),
    ("maps512", (1, 2, 3, 19), range(5)),
    ("train64", (1,), range(1)),
    ("gradcheck16", (1,), range(1)),
)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    perfbench = os.path.join(os.path.abspath(argv[0]), "perfbench")
    sys.path.insert(0, perfbench)
    import env

    env.pin_blas_threads()
    env.add_sources()
    from workloads import WORKLOADS

    for name, seeds, units in RUNS:
        for seed in seeds:
            workload = WORKLOADS[name](seed)
            for k in units:
                outputs = workload.unit(k).outputs
                failed, _ = workload.check(k, outputs)
                print(f"{name}/{seed}/{k} {workload.digest(outputs)} {failed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
