"""Self-test of the benchmark's output checks and call counters.

    python3 perfbench/selftest.py

1. For each workload, runs the benchmark with ``--corrupt``, which damages
   one result after its timer stops (a flipped table entry, a wrong
   inverse, a changed conversion), and confirms that exactly that job is
   counted as failed.
2. Runs the traced zeta-rings and session-warm workloads twice with one
   seed and confirms that every call count repeats exactly.

Exits 0 when every check holds.  Takes about a minute.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(workload, seed, trace, corrupt=False):
    args = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    if corrupt:
        args.append("--corrupt")
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    problems = []
    for workload in ("tables-cold", "zeta-rings", "session-warm"):
        result = bench(workload, 7, 0, corrupt=True)
        rate = result["failed"] / result["attempted"]
        print("%-13s corrupted: %d of %d jobs failed, error_rate %.4f"
              % (workload, result["failed"], result["attempted"], rate))
        if result["failed"] != 1 or result["correct"]:
            problems.append("%s: the damaged result was not counted once" % workload)
    for workload in ("zeta-rings", "session-warm"):
        runs = [bench(workload, 11, 1) for _ in range(2)]
        counts = [{name: m["value"] for name, m in r["metrics"].items()
                   if m["unit"] == "count"} for r in runs]
        same = counts[0] == counts[1]
        print("%-13s traced twice: call counts %s" % (workload, "repeat" if same else "differ"))
        if not same:
            problems.append("%s: call counts differ between runs: %s" % (workload, counts))
    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
