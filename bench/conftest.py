"""Let the benchmark's tests import ``refac`` from ``src`` and the
benchmark modules from this directory, as ``run.py`` does."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
