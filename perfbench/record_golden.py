"""Record the golden values of every ``golden``-checked request.

    python3 perfbench/record_golden.py

Runs each such request once (workload seed 0) through ``cnpcurv.cli.main``
with BLAS pinned to one thread and writes ``golden.json``.  The golden
values are invariants of the tuple shape, so they hold for every seed; they
were recorded at the commit that added the benchmark and are re-recorded
only when a change is meant to alter the numbers.
"""
from _env import HERE  # first: pins BLAS before numpy loads

import json
import sys
import tempfile
from pathlib import Path

import cnpcurv.cli
from checks import GOLDEN_PATH, golden_values
from client import run_request
from workloads import WORKLOADS, write_plan


def main() -> int:
    golden = {}
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        for workload in WORKLOADS:
            for req in write_plan(workload, 0, Path(tmp)):
                if req["check"] != "golden":
                    continue
                outcome, seconds, stdout, stderr = run_request(cnpcurv.cli, req)
                if outcome != 0:
                    print(f"{req['id']}: {outcome} {stderr}", file=sys.stderr)
                    return 1
                golden[req["key"]] = golden_values(req["command"], stdout)
                print(f"{workload:14s} {req['id']:36s} {seconds:7.3f} s")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
