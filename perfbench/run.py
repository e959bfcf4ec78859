"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME --seed N``.

See README.md in this directory for the workloads and metrics.
"""

import sys

from harness import main

if __name__ == "__main__":
    sys.exit(main())
