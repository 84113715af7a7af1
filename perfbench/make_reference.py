"""Regenerate the stored reference records of the benchmark's chunk pool.

Usage, from the root of a source checkout::

    python3 perfbench/make_reference.py [WORKLOAD ...]

Each chunk of each named workload (all by default) is run once through
the CLI, and its records are written to ``perfbench/reference/<name>.jsonl``.
Only regenerate when a change is meant to alter results.
"""

from __future__ import annotations

import json
import sys

from run import HERE, WORKLOADS, invoke
from workloads import POOL_SIZE


def main(names: list[str]) -> int:
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        lines = []
        for chunk in range(POOL_SIZE):
            result = invoke(workload, chunk, False, f"reference-{name}-{chunk}")
            if result["exit_code"] != 0:
                print(f"{name} chunk {chunk} failed: {result['error']}",
                      file=sys.stderr)
                return 1
            problems = workload.invariants(result["records"])
            if problems:
                print(f"{name} chunk {chunk}: {problems}", file=sys.stderr)
                return 1
            lines.append(json.dumps({"chunk": chunk, "records": result["records"]},
                                    sort_keys=True))
        path = HERE / "reference" / f"{name}.jsonl"
        path.parent.mkdir(exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
        print(f"wrote {len(lines)} chunks to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
