"""Record the reference results that the benchmark checks solves against.

    python3 perfbench/record_references.py [SEED ...]

Solves every instance of every workload once per seed (default: seed 0)
and stores, per workload and seed, one [fingerprint, solver, total_length]
row per instance in perfbench/references.json; rows for other seeds are
kept.  Record only on a commit whose solvers are trusted: later commits are
checked against these rows.
"""

from __future__ import annotations

import json
import re
import sys

import run
import workloads


def main(argv: list[str]) -> int:
    seeds = [int(arg) for arg in argv] or [0]
    try:
        with open(run.REFERENCES, encoding="utf-8") as fh:
            recorded = json.load(fh)
    except FileNotFoundError:
        recorded = {}
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            _, cli, cases = run.setup(workload, seed)
            outcome = run.run_loop(cli, cases, 0.0)
            if outcome.failed:
                print("\n".join(outcome.problems), file=sys.stderr)
                return 1
            recorded.setdefault(workload, {})[str(seed)] = [
                [run.fingerprint(case.instance.pairs), solver, length]
                for case, (solver, length) in zip(cases, outcome.results)
            ]
            print(f"{workload} seed {seed}: {len(cases)} instances")
    text = json.dumps(recorded, indent=1, sort_keys=True)
    # One row per line keeps the file readable in a diff.
    text = re.sub(r"\[\s+(\"\w+\"),\s+(\"[\w-]+\"),\s+(\d+)\s+\]", r"[\1, \2, \3]", text)
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
