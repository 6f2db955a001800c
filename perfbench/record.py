"""Re-record the default-seed reference outputs in ``reference.json``.

    python3 perfbench/record.py [workload ...]

Runs each gated workload once at seed 0 and stores its outputs, but
only when every cross-check passed.  Use it only for a change that is
meant to alter the program's results, and say so in that change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import gate

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv) -> int:
    for workload in argv or sorted(gate.CHECKS):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "0", "--seconds", "1", "--trace", "0"],
            capture_output=True,
            text=True,
            check=True,
        )
        detail = json.loads(out.stdout.splitlines()[-2])
        mismatched = [e for e in detail["errors"] if ": expected " not in e]
        if mismatched:
            print(f"{workload}: cross-checks failed: {mismatched}")
            return 1
        gate.record(workload, 0, detail["reference"])
        print(f"{workload}: recorded {detail['reference']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
