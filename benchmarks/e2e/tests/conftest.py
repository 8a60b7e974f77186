"""Harness self-tests: ``pytest benchmarks/e2e/tests`` (not part of tier-1)."""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parent.parent
for path in (E2E, E2E.parent.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
