"""fedcsi benchmark entry point. Run it from the repository root:

    python3 perfbench/run.py --workload train-paper-grid --seed 1 --seconds 30 --trace 0

It pins BLAS to one thread before numpy is imported, imports the simulator
from ``src/`` of the current directory and hands over to ``bench.main``.
The last line of standard output is the JSON result; see ``bench.py``.
"""
import os
import sys
from pathlib import Path

BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS threads and put ``src/`` of the current directory first on
    the import path; call before anything imports numpy or fedcsi."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    src = Path.cwd() / "src"
    if not (src / "fedcsi" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator sources at {src / 'fedcsi'}; "
                 "run from the repository root")
    sys.path.insert(0, str(src))


def main() -> None:
    prepare()
    import bench

    bench.main(sys.argv[1:])


if __name__ == "__main__":
    main()
