"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload sphere-mc --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  It generates the workload's tuple
inputs from the seed, measures set-up time in fresh interpreters, runs the
workload's closed-loop client (client.py) in a process of its own with BLAS
pinned to one thread, checks every output, and prints the metrics, one per
line with units, then a JSON summary as the last line.  ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run.
Details (provenance, every request, spans) go to ``perfbench/.out/``.
See NOTES.md for the workloads and the metrics.
"""
from __future__ import annotations

from _env import BLAS_THREADS, HERE, SRC  # first: pins BLAS before numpy loads

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = HERE.parent
# Fresh interpreters timed for setup_s besides the client: half before the
# client runs and half after it.  setup_s is the fastest of them: the host
# switches between a fast and a slow speed every few seconds, so the median
# of a run flips between the two, while the fastest set-up does not (see
# NOTES.md).
SETUP_PROBES = 16
CLIENT_TIMEOUT_S = 150
END_TO_END_UNITS = {
    "setup_s": "s",
    "reports_per_s": "1/s",
    "report_s_p50": "s",
    "report_s_tail": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "1",
}


def _client(args: list[str], timeout: float) -> dict:
    """Run client.py in a fresh interpreter; return the JSON it prints."""
    proc = subprocess.run([sys.executable, str(HERE / "client.py"), *args], check=True,
                          timeout=timeout, stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_probes(plan_path: Path, count: int) -> list[float]:
    """Set-up seconds of `count` fresh client interpreters, one after another."""
    return [_client(["--plan", str(plan_path), "--setup-only"], 60)["setup_s"]
            for _ in range(count)]


def provenance(workload: str, seed: int, plan: list[dict]) -> dict:
    import numpy as np

    commit = None   # a checkout without .git is identified by source_sha256
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "cnpcurv").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    import cnpcurv

    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "cnpcurv_version": cnpcurv.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "workload": workload,
        "workload_seed": seed,
        "request_seeds": [int(r["argv"][r["argv"].index("--seed") + 1])
                          for r in plan if "--seed" in r["argv"]],
        "clients": 1,
        "loop": "closed",
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "cnpcurv" / "__init__.py").is_file():
        print(f"error: no cnpcurv sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    (HERE / ".work").mkdir(exist_ok=True)
    (HERE / ".out").mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = Path(tempfile.mkdtemp(prefix=tag + "-", dir=HERE / ".work"))
    try:
        plan = workloads.write_plan(args.workload, args.seed, tmp)
        plan_path = tmp / "plan.json"
        plan_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                         "requests": plan}))
        setups = _setup_probes(plan_path, SETUP_PROBES // 2)
        client_args = ["--plan", str(plan_path), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
        if args.trace:
            client_args += ["--spans", str(HERE / ".out" / f"{tag}.spans.jsonl.gz")]
        res = _client(client_args, CLIENT_TIMEOUT_S)
        setups += _setup_probes(plan_path, SETUP_PROBES - SETUP_PROBES // 2)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    setups.append(res["setup_s"])
    summ = res["summary"]
    wrong = summ["wrong"] + (res["warmup"]["wrong"] is not None)
    end_to_end = {
        "setup_s": min(setups),
        "reports_per_s": summ["reports_per_s"],
        "report_s_p50": summ["report_s_p50"],
        "report_s_tail": summ["report_s_tail"],
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": 1.0 - summ["failed_frac"],
    }
    prov = provenance(args.workload, args.seed, plan)

    print(f"workload {args.workload}  seed {args.seed}  passes {summ['passes']}  "
          f"requests {summ['attempted']}  failed {summ['failed']}  wrong numbers {wrong}")
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["layers"].items()}
        for name, m in metrics.items():
            print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in end_to_end.items()}
        for name, m in metrics.items():
            note = ""
            if name == "setup_s":
                note = (f"  (fastest of {len(setups)} fresh interpreters; "
                        f"median {statistics.median(setups):.6g} s)")
            elif name == "report_s_tail":
                note = f"  (p{summ['tail_percentile']:.1f} of {summ['tail_samples']} requests)"
            print(f"  {name:14s} {m['value']:.6g} {m['unit']}{note}")
        print(f"  {'failed_frac':14s} {summ['failed_frac']:.6g} 1  "
              f"(failed {summ['failed']} of {summ['attempted']})")
    failures = sorted({f"{r['id']}: {r['outcome']}" + (f" ({r['wrong']})" if r["wrong"] else "")
                       for r in res["records"] if not r["ok"]})
    for line in failures:
        print(f"  failed: {line}")
    print("provenance " + json.dumps(prov))

    (HERE / ".out" / f"{tag}.json").write_text(json.dumps(
        {"provenance": prov, "metrics": metrics, "end_to_end": end_to_end, "summary": summ,
         "setup_samples": setups, "warmup": res["warmup"], "records": res["records"]},
        indent=1))
    print(json.dumps({"correct": wrong == 0, "attempted": summ["attempted"],
                      "failed": summ["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
