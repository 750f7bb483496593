"""Time one set-up in a fresh interpreter: import herzlab, write a workload's inputs.

Started by run.py as ``setup_inputs.py <workload> <seed> <out-dir>`` with
``src/`` on PYTHONPATH; prints the seconds taken.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    start = time.perf_counter()
    import workloads  # imports herzlab inside the timed region

    workloads.WORKLOADS[sys.argv[1]].write_inputs(Path(sys.argv[3]), int(sys.argv[2]))
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
