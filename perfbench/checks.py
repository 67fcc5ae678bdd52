"""Output checks: every request's outcome against its declared one.

A request *succeeds* when it ends the way it declared: a report that
passes its check, or the typed exit code it expects.  It *fails* on an
untyped exception, a MemoryError under the client's address-space cap, an
unexpected exit code, or a report whose numbers are wrong.  Only the last
kind makes the run incorrect; the others are counted as failures.

Check kinds:

* ``jordan``   Jordan block J_k over szego: K_series = 0, k_pure = 0,
               fd = 1, Monte-Carlo estimate within 3 sigma of 1 - r^{2k}.
* ``zero``     zero tuple of size m over dirichlet: trace dPsi equals
               m * sum_{i <= n_theta} b_i to 1e-12 (b from exact
               arithmetic here, not from the package), and fd = m.
* ``pure``     pure nilpotent tuple: |K_series - (rank Delta - fd)| <= 0.05.
* ``golden``   the invariants the report states equal the values recorded
               at the seed commit (``golden.json``), to GOLDEN_RTOL.  The
               seed only conjugates these tuples by a unitary, which leaves
               the invariants unchanged.
* ``ordering`` a ``traces`` table with no recorded golden values: finite
               rows for n = 0..max_n, non-decreasing dPsi partial sums, and
               normalized E-traces above them (a theorem for the dirichlet
               table, which is non-increasing).
"""
from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_RTOL = 1e-8
MC_FLOOR = 1e-13
RADIUS = 0.999   # CLI default of `curvature --radius`


@functools.cache
def dirichlet_b_partial_sum(n: int) -> float:
    """sum_{i=1}^{n} b_i for a_j = 1/(j+1), from 1 - 1/k = sum b_i t^i in
    exact arithmetic: a_m = sum_{i=1}^{m} b_i a_{m-i}."""
    a = [Fraction(1, j + 1) for j in range(n + 1)]
    b = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        b[m] = a[m] - sum((b[i] * a[m - i] for i in range(1, m)), Fraction(0))
    return float(sum(b[1:], Fraction(0)))


def parse_traces_csv(text: str) -> list[dict]:
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    return [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]


def golden_values(command: str, stdout: str) -> dict:
    """The seed-independent invariants of a report, as recorded and compared."""
    if command == "traces":
        rows = parse_traces_csv(stdout)
        return {f"{key}[{int(r['n'])}]": r[key] for r in rows for key in r if key != "n"}
    data = json.loads(stdout)
    if command == "fd":
        out = {"fd_eval": data["fd_eval"]}
        out.update({f"graded_dims[{i}]": v for i, v in enumerate(data["graded_dims"])})
        return out
    rep = data["report"]
    out = {
        key: rep[key]
        for key in ("dim_ran_delta", "rank_d", "fd_eval", "k_series",
                    "trace_dpsi_series", "k_at_radius_exact", "n_theta", "n_op")
    }
    out["k_weighted_last"] = rep["k_weighted"][-1]
    return out


def _close(value: float, ref: float, rtol: float = GOLDEN_RTOL) -> bool:
    return abs(value - ref) <= rtol * max(1.0, abs(ref))


def check_report(req: dict, stdout: str, golden: dict) -> str | None:
    """None when the report is right, else a one-line reason."""
    kind = req["check"]
    if kind == "golden":
        ref = golden.get(req["key"])
        if ref is None:
            return "no golden values recorded for this request"
        got = golden_values(req["command"], stdout)
        if set(got) != set(ref):
            return "report fields differ from the recorded ones"
        bad = [key for key in ref if not _close(got[key], ref[key])]
        return f"{bad[0]} = {got[bad[0]]!r}, golden {ref[bad[0]]!r}" if bad else None
    if kind == "ordering":
        rows = parse_traces_csv(stdout)
        if [int(r["n"]) for r in rows] != list(range(len(rows))) or not rows:
            return "trace table rows are not n = 0..max_n"
        if not all(math.isfinite(v) for r in rows for v in r.values()):
            return "non-finite entry in the trace table"
        dp = [r["dpsi_partial"] for r in rows]
        if any(y < x - 1e-12 for x, y in zip(dp, dp[1:])):
            return "dPsi partial sums decrease"
        if any(r["trace_E_normalized"] < r["dpsi_partial"] - 1e-10 for r in rows):
            return "normalized E-trace below the dPsi partial sum"
        return None

    data = json.loads(stdout)
    rep, fd = data["report"], data["fd"]
    info = req["info"]
    if kind == "jordan":
        k = info["k"]
        est = rep["k_integral"]
        target = 1.0 - RADIUS ** (2 * k)
        if abs(rep["k_series"]) > 1e-9:
            return f"K_series = {rep['k_series']!r}, expected 0"
        if rep["k_pure"] != 0 or fd["fd_eval"] != 1:
            return f"k_pure = {rep['k_pure']}, fd = {fd['fd_eval']}, expected 0 and 1"
        if abs(est["estimate"] - target) > 3 * est["stderr"] + MC_FLOOR:
            return f"MC estimate {est['estimate']!r} not within 3 sigma of {target!r}"
        return None
    if kind == "zero":
        m = info["m"]
        target = m * dirichlet_b_partial_sum(info["n_theta"])
        if abs(rep["trace_dpsi_series"] - target) > 1e-12:
            return f"trace dPsi = {rep['trace_dpsi_series']!r}, expected {target!r}"
        if fd["fd_eval"] != m:
            return f"fd = {fd['fd_eval']}, expected {m}"
        return None
    if kind == "pure":
        gap = abs(rep["k_series"] - (rep["dim_ran_delta"] - fd["fd_eval"]))
        return None if gap <= 0.05 else f"|K_series - (rank Delta - fd)| = {gap:.3g} > 0.05"
    raise ValueError(f"unknown check kind {kind!r}")


def classify(req: dict, outcome, stdout: str, golden: dict) -> tuple[bool, str | None]:
    """(succeeded, wrong-number reason or None) for one finished request.

    outcome is the CLI exit code, or the name of the exception that escaped
    it."""
    if req["expect"] != "report":
        return outcome == req["expect"], None
    if outcome != 0:
        return False, None
    reason = check_report(req, stdout, golden)
    return reason is None, reason


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
