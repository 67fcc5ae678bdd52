"""One workload's closed-loop client: a single thread sending the plan's
requests one after another through ``cnpcurv.cli.main``.

    python3 perfbench/client.py --plan PLAN --setup-only
    python3 perfbench/client.py --plan PLAN --seconds S --trace 0|1 [--spans FILE]

Set-up time runs from the first line of this file (a fresh interpreter) to
the point where ``cnpcurv`` is imported and every input tuple is loaded.
Then one untimed warm-up request runs, and the timed loop sends whole
passes over the plan, as many as fit S seconds at the seed commit
(workloads.NOMINAL_PASS_S), so each run holds the same requests.  The
outputs are checked after the timed passes.  With ``--trace 1`` the passes
for S/2 seconds run untraced and are then repeated with spans recorded
(see tracer.py); the per-layer figures are per pass.
"""
import time

T_START = time.perf_counter()

from _env import HERE, SRC  # noqa: E402  (pins BLAS before numpy loads)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# The address-space cap the client applies to itself, so that a request that
# would exhaust memory fails alone; running into it is a failed request.
AS_CAP_BYTES = 1536 * 2**20


def _setup(plan_path: Path):
    """Import the package from the checkout and load every input."""
    resource.setrlimit(resource.RLIMIT_AS, (AS_CAP_BYTES, AS_CAP_BYTES))
    import cnpcurv
    import cnpcurv.cli
    import cnpcurv.formats

    if Path(cnpcurv.__file__).resolve().parent != SRC / "cnpcurv":
        raise SystemExit(f"cnpcurv imported from {cnpcurv.__file__}, not from {SRC}")
    plan = json.loads(plan_path.read_text())
    for req in plan["requests"]:
        cnpcurv.formats.load_tuple_json(req["input"])
    return plan, time.perf_counter() - T_START


def run_request(cli, req: dict):
    """(outcome, seconds, stdout, stderr): outcome is the exit code, or the
    name of the exception that escaped the CLI."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outcome = cli.main(req["argv"])
    except SystemExit as exc:
        outcome = f"SystemExit:{exc.code}"
    except Exception as exc:  # any untyped failure is a failed request
        outcome = type(exc).__name__
    seconds = time.perf_counter() - t0
    return outcome, seconds, out.getvalue(), err.getvalue().strip()


class Loop:
    """Sends requests and keeps each one's record.  Outputs are checked
    by ``check_all`` after the timed passes, so the wall time of a pass is
    the program's, not the checks'."""

    def __init__(self, plan: dict, golden: dict) -> None:
        import cnpcurv.cli

        from checks import classify

        self.cli = cnpcurv.cli
        self.classify = classify
        self.requests = plan["requests"]
        self.golden = golden
        self.records: list[dict] = []
        self._unchecked: list[tuple[dict, dict, str]] = []

    def one(self, req: dict, record: bool = True, tracer=None) -> dict:
        if tracer is not None:
            tracer.request = len(self.records)
        outcome, seconds, stdout, stderr = run_request(self.cli, req)
        rec = {"id": req["id"], "outcome": outcome, "s": seconds, "stderr": stderr[-300:]}
        if record:
            self.records.append(rec)
        self._unchecked.append((req, rec, stdout))
        return rec

    def check_all(self) -> None:
        """Classify every request sent since the last call."""
        for req, rec, stdout in self._unchecked:
            rec["ok"], rec["wrong"] = self.classify(req, rec["outcome"], stdout, self.golden)
            if rec["ok"]:
                rec["stderr"] = ""
        self._unchecked.clear()

    def passes(self, count: int, tracer=None) -> float:
        """Send `count` whole passes over the plan; return the wall seconds."""
        t0 = time.perf_counter()
        for _ in range(count):
            for req in self.requests:
                self.one(req, tracer=tracer)
        return time.perf_counter() - t0


def summarise(records: list[dict], wall: float) -> dict:
    lat = sorted(r["s"] for r in records)
    n = len(lat)
    ok = sum(r["ok"] for r in records)
    # the highest percentile with at least ten requests beyond it
    tail_index = n - 11 if n > 10 else n - 1
    return {
        "attempted": n,
        "failed": n - ok,
        "wrong": sum(r["wrong"] is not None for r in records),
        "reports_per_s": ok / wall,
        "report_s_p50": statistics.median(lat),
        "report_s_tail": lat[tail_index],
        "tail_percentile": 100.0 * (tail_index + 1) / n if n > 10 else 100.0,
        "tail_samples": n,
        "failed_frac": (n - ok) / n,
        "wall_s": wall,
    }


def layer_metrics(tracer, passes: int, overhead_s: float, untraced_wall: float) -> dict:
    """The per-layer figures, per pass over the plan."""
    tot = tracer.totals()

    def per_pass(name, field):
        return tot[name][field] / passes

    eval_theta = tot["charfn.eval_theta"]
    return {
        "pipeline.run_curvature.s": (per_pass("pipeline.run_curvature", "s"), "s"),
        "pipeline.run_curvature.self_s": (per_pass("pipeline.run_curvature", "self_s"), "s"),
        "cli.main.self_s": (per_pass("cli.main", "self_s"), "s"),
        "formats.load_tuple_json.s": (per_pass("formats.load_tuple_json", "s"), "s"),
        "formats.dumps_json17.s": (per_pass("formats.dumps_json17", "s"), "s"),
        "kernel.preset.calls": (per_pass("kernel.preset", "calls"), "count"),
        "kernel.preset.s": (per_pass("kernel.preset", "s"), "s"),
        "kernel.weights.calls": (tracer.counts["kernel.weights"] / passes, "count"),
        "tuples.load_tuple.s": (per_pass("tuples.load_tuple", "s"), "s"),
        "tuples.nilpotency_degree.calls": (per_pass("tuples.nilpotency_degree", "calls"), "count"),
        "tuples.nilpotency_degree.s": (per_pass("tuples.nilpotency_degree", "s"), "s"),
        "tuples.defect_package.self_s": (per_pass("tuples.defect_package", "self_s"), "s"),
        "tuples.defect_package.tilde_dim_max": (
            float(tot["tuples.defect_package"]["max_size"]), "count"),
        "tuples.purity.s": (per_pass("tuples.purity", "s"), "s"),
        "charfn.eval_theta.calls": (per_pass("charfn.eval_theta", "calls"), "count"),
        "charfn.eval_theta.s": (per_pass("charfn.eval_theta", "s"), "s"),
        "charfn.eval_theta.us_per_call": (
            1e6 * eval_theta["s"] / eval_theta["calls"] if eval_theta["calls"] else 0.0, "us"),
        "charfn.taylor.s": (per_pass("charfn.taylor", "s"), "s"),
        "charfn.taylor.coeffs": (per_pass("charfn.taylor", "size_sum"), "count"),
        "curvature.curvature_integral.self_s": (
            per_pass("curvature.curvature_integral", "self_s"), "s"),
        "curvature.curvature_weighted.s": (per_pass("curvature.curvature_weighted", "s"), "s"),
        "curvature.ordering_rows.s": (per_pass("curvature.ordering_rows", "s"), "s"),
        "curvature.theta_trace_E_normalized.calls": (
            tracer.counts["curvature.theta_trace_E_normalized"] / passes, "count"),
        "curvature.reconcile.s": (per_pass("curvature.reconcile", "s"), "s"),
        "curvature.reconcile.failures": (
            tot["curvature.reconcile"]["errors"]["ReconcileFailure"] / passes, "count"),
        "fibredim.fd_report.self_s": (per_pass("fibredim.fd_report", "self_s"), "s"),
        "fibredim.fd_by_grading.s": (per_pass("fibredim.fd_by_grading", "s"), "s"),
        "fibredim.fd_by_grading.self_s": (per_pass("fibredim.fd_by_grading", "self_s"), "s"),
        "traces.multiplier_matrix.calls": (per_pass("traces.multiplier_matrix", "calls"), "count"),
        "traces.multiplier_matrix.s": (per_pass("traces.multiplier_matrix", "s"), "s"),
        # computed from the size of the largest array returned, not measured
        "traces.multiplier_matrix.max_bytes": (
            float(tot["traces.multiplier_matrix"]["max_size"]), "bytes"),
        "comb.enumerate_degree.calls": (tracer.counts["comb.enumerate_degree"] / passes, "count"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.overhead_frac": (overhead_s / (untraced_wall / passes), "1"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--plan", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, help="write the traced run's spans here (.jsonl.gz)")
    args = ap.parse_args()

    plan, setup_s = _setup(args.plan)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from checks import load_golden
    from workloads import passes_for

    loop = Loop(plan, load_golden())
    warm = loop.one(loop.requests[0], record=False)
    loop.check_all()

    result = {"setup_s": setup_s, "warmup": warm}
    if args.trace:
        from tracer import Tracer

        passes = passes_for(plan["workload"], args.seconds / 2)
        wall = loop.passes(passes)
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall = loop.passes(passes, tracer=tracer)
        finally:
            tracer.uninstall()
        overhead = (traced_wall - wall) / passes
        result["layers"] = layer_metrics(tracer, passes, overhead, wall)
        loop.check_all()
        result["summary"] = summarise(loop.records, wall + traced_wall)
        if args.spans:
            tracer.write(args.spans)
    else:
        passes = passes_for(plan["workload"], args.seconds)
        wall = loop.passes(passes)
        loop.check_all()
        result["summary"] = summarise(loop.records, wall)
    result["summary"]["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["records"] = loop.records
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
