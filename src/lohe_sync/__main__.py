"""The command line, `python -m lohe_sync` and the `lohe-sync` script.

It runs BLAS on one thread whatever the environment asks for: OpenBLAS
rounds a large enough matrix product differently on more threads, and a
run's bytes must depend on its scenario alone. The variables are read once,
when numpy loads, so they are set before .cli imports numpy. Library
callers keep their own threading.
"""

import os
import sys


def main(argv=None) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
