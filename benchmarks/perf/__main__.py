"""``PYTHONPATH=src python -m benchmarks.perf`` — see :mod:`benchmarks.perf.cli`."""

import sys

from .cli import main

sys.exit(main())
