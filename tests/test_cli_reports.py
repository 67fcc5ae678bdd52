"""Recorded `--deterministic` CLI reports: the numbers may not drift.

Each case runs one `cnpcurv` command in-process on a fixed input and
compares its stdout with the output recorded in cli_reports.json:

* the text around the numbers (keys, labels, layout) must be identical;
* a number printed as an integer in both outputs must be equal;
* every other number must agree to 1e-12 relative.

Inputs: J_4 over szego; the truncated shift of top degree 3 in d = 2
variables, scaled by 0.4, over drury-arveson; a fixed non-nilpotent 3 x 3
operator over dirichlet at horizon 20.  Commands: `curvature` (json and
csv), `traces`, `fd` and `theta --taylor`.

Re-record only for an intended change of the printed numbers, only the
cases it moves, and say which numbers changed and why:

    PYTHONPATH=src python tests/test_cli_reports.py --record [CASE ...]

With no CASE every case is re-recorded.  Each number that differs from the
recording is printed with its case and index.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from cnpcurv.cli import main

from conftest import jordan_block, truncated_shift_ops

RECORD_PATH = Path(__file__).with_name("cli_reports.json")
RTOL = 1e-12

INPUTS = {
    "jordan-4/szego": ([jordan_block(4)], "szego", [], "0.3"),
    "shift-d2-top3x0.4/drury-arveson": (
        [0.4 * m for m in truncated_shift_ops(2, 3)], "drury-arveson", [], "0.3,0.2"
    ),
    "nonnil-d1/dirichlet": (
        [np.array([[0.5, 0.2, 0.0], [0.0, 0.3j, 0.1], [0.0, 0.0, -0.2]])],
        "dirichlet",
        ["--horizon", "20"],
        "0.3",
    ),
}

COMMANDS = {
    "curvature-json": ["curvature"],
    "curvature-csv": ["curvature", "--format", "csv"],
    "traces": ["traces"],
    "fd": ["fd"],
    "theta-taylor": ["theta", "--taylor", "2"],
}

CASES = [f"{cmd}:{name}" for name in INPUTS for cmd in COMMANDS]

# A number not glued to an identifier (keeps "t_e" or "A_0" in the text).
_NUMBER = re.compile(r"(?<![\w.])[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?![\w.])")


def _write_input(path: Path, ops) -> None:
    path.write_text(json.dumps({
        "d": len(ops),
        "dimH": ops[0].shape[0],
        "operators": [
            [[[float(complex(e).real), float(complex(e).imag)] for e in row] for row in m]
            for m in ops
        ],
    }))


def run_case(case: str, tmp_dir: Path) -> tuple[int, str]:
    cmd, name = case.split(":", 1)
    ops, kernel, extra, point = INPUTS[name]
    path = tmp_dir / "input.json"
    _write_input(path, ops)
    argv = [*COMMANDS[cmd], "--input", str(path), "--kernel", kernel, *extra, "--deterministic"]
    if cmd == "theta-taylor":
        argv += ["--point", point]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _split(text: str) -> tuple[list[str], list[str]]:
    """(text between the numbers, the numbers as printed)."""
    return _NUMBER.split(text), _NUMBER.findall(text)


def _is_int(token: str) -> bool:
    return not any(c in token for c in ".eE")


def compare(got: str, ref: str) -> str | None:
    """None when got matches ref, else the first difference."""
    got_text, got_nums = _split(got)
    ref_text, ref_nums = _split(ref)
    if got_text != ref_text:
        bad = next(
            (i for i, (a, b) in enumerate(zip(got_text, ref_text)) if a != b),
            min(len(got_text), len(ref_text)),
        )
        return f"text differs near piece {bad}"
    for i, (a, b) in enumerate(zip(got_nums, ref_nums)):
        if _is_int(a) and _is_int(b):
            if int(a) != int(b):
                return f"integer {i}: {a} != recorded {b}"
        elif abs(float(a) - float(b)) > RTOL * abs(float(b)):
            return f"number {i}: {a} vs recorded {b}"
    return None


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(RECORD_PATH.read_text())


@pytest.mark.parametrize("case", CASES)
def test_report_matches_recording(case, recorded, tmp_path):
    code, stdout = run_case(case, tmp_path)
    ref = recorded[case]
    assert code == ref["exit"]
    assert compare(stdout, ref["stdout"]) is None, compare(stdout, ref["stdout"])


def test_compare_rules():
    ref = "n,x\n3,0.25\n# k,1e-3\n"
    assert compare(ref, ref) is None
    assert compare("n,x\n3,0.25000000000000011\n# k,1e-3\n", ref) is None
    assert compare("n,x\n4,0.25\n# k,1e-3\n", ref).startswith("integer")
    assert compare("n,x\n3,0.2500001\n# k,1e-3\n", ref).startswith("number")
    assert compare("n,y\n3,0.25\n# k,1e-3\n", ref).startswith("text")
    assert _split("t_e_normalized,A_0,-2.5e-07")[1] == ["-2.5e-07"]


if __name__ == "__main__":
    import tempfile

    names = sys.argv[2:] or CASES
    if sys.argv[1:2] != ["--record"] or not set(names) <= set(CASES):
        raise SystemExit(__doc__)
    data = json.loads(RECORD_PATH.read_text()) if RECORD_PATH.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in names:
            code, stdout = run_case(case, Path(tmp))
            if case in data:
                (new_text, new_nums), (old_text, old_nums) = map(
                    _split, (stdout, data[case]["stdout"])
                )
                if new_text != old_text:
                    print(f"{case}: text changed")
                for i, (new, old) in enumerate(zip(new_nums, old_nums)):
                    if new != old:
                        print(f"{case} number {i}: recorded {old}, new {new}")
            data[case] = {"exit": code, "stdout": stdout}
    RECORD_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(names)} of {len(data)} cases in {RECORD_PATH}")
