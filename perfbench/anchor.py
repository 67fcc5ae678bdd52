"""Time the three baseline cases of ROADMAP item 1, stage by stage.

    python3 perfbench/anchor.py

Each case is one ``curvature`` request at the CLI defaults (4000 sphere
samples at r = 0.999, ``--max-n 12``), traced with the benchmark's span
recorder, BLAS on one thread.  Prints the ``run_curvature`` total and its
two largest stages, to compare with the orders of magnitude quoted in
ROADMAP.md: jordan-6/szego about 0.5 s (MC integral about 0.4 s), truncated
shift d = 2, dimH = 10, drury-arveson about 2.75 s (fd by grading about
1.8 s), zero tuple m = 3 over dirichlet at n_op = 60 about 4 s (almost all
MC integral).
"""
from _env import HERE  # first: pins BLAS before numpy loads

import sys
import tempfile
from pathlib import Path

import numpy as np

import cnpcurv.cli
import cnpcurv.formats  # noqa: F401  (imported so the tracer can patch it)
from client import run_request
from tracer import Tracer
from workloads import jordan_block, truncated_shift_ops, write_tuple

STAGES = ("curvature.curvature_integral", "fibredim.fd_by_grading", "fibredim.fd_report",
          "tuples.defect_package", "charfn.taylor", "curvature.curvature_weighted")


def main() -> int:
    cases = [
        ("jordan-6/szego", [jordan_block(6)], "szego", []),
        ("shift-d2-dim10/drury-arveson", [0.4 * m for m in truncated_shift_ops(2, 4)],
         "drury-arveson", []),
        ("zero-3/dirichlet n_op=60", [np.zeros((3, 3))], "dirichlet",
         ["--horizon", "60", "--theta-horizon", "60"]),
    ]
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        for name, ops, kernel, extra in cases:
            path = Path(tmp) / "input.json"
            write_tuple(path, ops)
            req = {"argv": ["curvature", "--input", str(path), "--kernel", kernel, *extra]}
            tracer = Tracer()
            tracer.install()
            try:
                outcome, seconds, _, stderr = run_request(cnpcurv.cli, req)
            finally:
                tracer.uninstall()
            tot = tracer.totals()
            total = tot["pipeline.run_curvature"]["s"]
            stages = sorted(((tot[s]["s"], s) for s in STAGES if s in tot), reverse=True)[:2]
            print(f"{name:30s} exit {outcome}  run_curvature {total:.3f} s  "
                  + "  ".join(f"{s.split('.')[-1]} {t:.3f} s" for t, s in stages))
            if outcome != 0:
                print(f"  {stderr}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
