"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload scene-large --seed 1 --seconds 20 --trace 0

Loads voxgs from this checkout's ``src/`` only, so it fails (exit 2, no
result line) where the library sources are absent.
"""

import os
import sys
from pathlib import Path

# One thread: the workloads are single-caller closed loops.
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(ROOT), str(SRC)]

try:
    import voxgs
except ImportError as exc:
    print(f"perfbench: cannot import voxgs from {SRC}: {exc}", file=sys.stderr)
    sys.exit(2)
if not Path(voxgs.__file__).resolve().is_relative_to(SRC):
    print(f"perfbench: voxgs loaded from {voxgs.__file__}, not {SRC}", file=sys.stderr)
    sys.exit(2)

from perfbench.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
