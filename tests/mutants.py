"""A catalogue of one-line mutations of the library, and a runner that
checks the test suite notices each of them.

Each entry names one edit: a file, an exact text that occurs in it once,
the text that replaces it, and the test files expected to fail on it.  The
runner copies the checkout to a temporary directory, applies one edit
there, runs the test files with `-x` and reports the mutant as caught (the
tests failed) or survived (they passed).  The checkout is never modified.
It exits 1 when any chosen mutant survives.

    python tests/mutants.py [--full] [NAME ...]

With no NAME every entry runs.  --full runs the whole suite under tests/
instead of each entry's own files.  A run takes a few seconds per mutant,
or about 20 s per mutant with --full, so it is run on demand, not as part
of the suite; tests/test_mutant_catalogue.py only checks that every edit
still applies.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "demos", "perfbench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


_CURV = "src/cnpcurv/curvature.py"
_GATES = ("tests/test_curvature.py",)

CATALOGUE = [
    Mutant("range-widened-to-2dim", _CURV,
           "ok=-eps_range <= val <= dim + eps_range,",
           "ok=-eps_range <= val <= 2 * dim + eps_range,", _GATES),
    Mutant("integrality-gate-0.5", _CURV,
           "if is_polynomial and abs(k_series - round(k_series)) > 0.05:",
           "if is_polynomial and abs(k_series - round(k_series)) > 0.5:", _GATES),
    Mutant("failing-only-monte-carlo", _CURV,
           "failing = [c for c in checks if c.asserted and not c.ok]",
           'failing = [c for c in checks if c.asserted and not c.ok'
           ' and c.name == "integral_vs_series_at_radius"]', _GATES),
    Mutant("weighted-vs-series-1e-3", _CURV,
           "ok=kw_gap <= 1e-9,", "ok=kw_gap <= 1e-3,", _GATES),
    Mutant("ordering-forced-ok", _CURV,
           "ok=ok if a_nonincreasing else True,", "ok=True,", _GATES),
    Mutant("monte-carlo-30-sigma", _CURV,
           "mc_tol = 3.0 * report.k_integral.stderr + floor",
           "mc_tol = 30.0 * report.k_integral.stderr + floor", _GATES),
    Mutant("monte-carlo-floor-1e-3", _CURV,
           "floor = NOISE_FLOOR * max(1.0, float(dim))",
           "floor = 1e-3 * max(1.0, float(dim))", _GATES),
    Mutant("product-rule-phases-one-short", _CURV,
           "m = degree + 1", "m = degree", _GATES),
    Mutant("product-rule-nodes-one-short", _CURV,
           "leggauss((degree + 2) // 2)", "leggauss((degree + 2) // 2 - 1)", _GATES),
    Mutant("product-rule-certification-1e-3", _CURV,
           "if abs(low - high) <= NOISE_FLOOR * max(1.0, float(pkg.rank_delta)):",
           "if abs(low - high) <= 1e-3 * max(1.0, float(pkg.rank_delta)):", _GATES),
    Mutant("radius-bound-without-r-term", _CURV,
           "radius_bound = dim * (1.0 - r ** (2 * report.n_theta)) + tol.eps_id",
           "radius_bound = dim + tol.eps_id", _GATES),
    Mutant("finite-horizon-asserted", _CURV,
           "asserted=False,", "asserted=True,", _GATES),
    Mutant("finite-horizon-without-purity-gate", _CURV,
           "if report.fd_eval is not None and report.purity_residual <= tol.eps_pure:",
           "if report.fd_eval is not None:", _GATES),
    Mutant("termination-bound-one-short", "src/cnpcurv/charfn.py",
           "if nd is None or support is None or n_theta < nd - 1 + support:",
           "if nd is None or support is None or n_theta < nd - 2 + support:",
           ("tests/test_charfn.py",)),
    Mutant("tail-certificate-without-residual-mass", "src/cnpcurv/tuples.py",
           "return known + residual_mass * rho ** (k.N + 1)", "return known",
           ("tests/test_tuples.py",)),
    Mutant("tail-certificate-skips-first-degree", "src/cnpcurv/tuples.py",
           "for n in range(n_op + 1, k.N + 1)", "for n in range(n_op + 2, k.N + 1)",
           ("tests/test_tuples.py",)),
    Mutant("sigma-walk-adjoint", "src/cnpcurv/tuples.py",
           "x = sum(ti @ x @ ti.conj().T for ti in ops)",
           "x = sum(ti.conj().T @ x @ ti for ti in ops)", ("tests/test_tuples.py",)),
    Mutant("s-n-skips-first-degree", "src/cnpcurv/tuples.py",
           "if j >= 1 and k.b[j] > 0.0:", "if j >= 2 and k.b[j] > 0.0:",
           ("tests/test_tuples.py",)),
]


def run_mutant(m: Mutant, full: bool = False) -> bool:
    """True when the tests catch the mutant (fail on the mutated copy)."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in COPIED:
            src = ROOT / part
            if src.is_dir():
                shutil.copytree(src, copy / part, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".work", ".out"))
            else:
                shutil.copy2(src, copy / part)
        target = copy / m.file
        text = target.read_text()
        if text.count(m.old) != 1:
            raise SystemExit(f"{m.name}: the old text does not occur exactly once in {m.file}")
        target.write_text(text.replace(m.old, m.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *(["tests"] if full else m.tests)],
            cwd=copy, env=env, capture_output=True, text=True,
        )
        return proc.returncode != 0


def main(argv: list[str]) -> int:
    full = "--full" in argv
    names = [a for a in argv if a != "--full"]
    unknown = set(names) - {m.name for m in CATALOGUE}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    chosen = [m for m in CATALOGUE if not names or m.name in names]
    caught = 0
    for m in chosen:
        hit = run_mutant(m, full)
        caught += hit
        print(f"{'caught' if hit else 'survived'}  {m.name}  ({m.file})", flush=True)
    print(f"score: {caught} of {len(chosen)} caught")
    return 0 if caught == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
