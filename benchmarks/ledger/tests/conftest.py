"""Harness tests run outside tier-1's ``testpaths``:

    PYTHONPATH=src python -m pytest benchmarks/ledger/tests -q
"""

import sys
from pathlib import Path

LEDGER = Path(__file__).resolve().parents[1]
for path in (LEDGER, LEDGER.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
