"""Record the golden values the correctness gate compares against.

    python3 perfbench/record_golden.py

Runs one cold pass of every workload from the checkout root and writes
every table value and fig1 row it computes to perfbench/golden.json.  The
rule-batch values are not recorded: they are checked against closed forms.
Rows whose paper values conflict with the computed ones are recorded as
computed, so the gate holds the code to its own output, not to the paper.
Re-record only when a change is meant to alter computed values, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    root = Path.cwd().resolve()
    golden = {}
    for name in workloads.WORKLOADS:
        r = run.Run(root, name, workloads.DEFAULT_SEED, trace=False)
        r.tmp.mkdir(parents=True)
        try:
            result = r.spawn(r.tmp / "cache", rule_digits=False)
        finally:
            shutil.rmtree(r.tmp, ignore_errors=True)
        if result is None:
            print("\n".join(r.errors), file=sys.stderr)
            return 1
        values = {}
        for rec in result["ops"]:
            if rec["error"]:
                print(f"{name} {rec['label']}: {rec['error']}", file=sys.stderr)
                return 1
            if not rec["label"].startswith("rule"):
                values.update(rec["values"])
        golden[name] = dict(sorted(values.items()))
        print(f"{name}: {len(values)} values")
    (run.HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
