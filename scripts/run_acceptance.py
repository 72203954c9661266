#!/usr/bin/env python3
"""Run every acceptance criterion and print one PASS/FAIL line each.

Usage: python scripts/run_acceptance.py [criterion-number ...]
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "src"))

from acceptance_checks import ALL_CHECKS  # noqa: E402


def main(argv):
    wanted = {arg.strip() for arg in argv}
    failures = 0
    for name, fn in ALL_CHECKS:
        if wanted and name.split()[0] not in wanted:
            continue
        start = time.perf_counter()
        ok, detail = fn()
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail}) [{elapsed:.1f}s]")
        failures += 0 if ok else 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
