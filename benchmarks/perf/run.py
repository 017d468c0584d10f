"""Launcher: ``python3 benchmarks/perf/run.py ...`` from a checkout root.

Puts the checkout's ``src`` (the program) and root (this package) on
``sys.path``, so the benchmark runs from plain source without an
install or ``PYTHONPATH``; in a directory without ``src/repro`` it
exits non-zero.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"benchmarks.perf: no program to measure under {ROOT}/src")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.perf.cli import main
    sys.exit(main())
