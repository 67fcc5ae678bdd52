"""Command-line interface: subcommands, exit codes, determinism."""
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from cnpcurv.cli import EXIT_CODES, main
from cnpcurv.formats import dumps_json17, load_tuple_json
from cnpcurv.errors import ShapeError

from conftest import jordan_block, truncated_shift_ops


def write_tuple(path, ops):
    d = len(ops)
    dim = ops[0].shape[0]
    payload = {
        "d": d,
        "dimH": dim,
        "operators": [
            [[[float(e.real), float(e.imag)] for e in row] for row in op]
            for op in np.asarray(ops, dtype=complex)
        ],
    }
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def jordan3_file(tmp_path):
    return write_tuple(tmp_path / "j3.json", [jordan_block(3)])


class TestTupleSchema:
    def test_roundtrip(self, jordan3_file):
        t = load_tuple_json(jordan3_file)
        assert t.d == 1 and t.dim_h == 3

    def test_plain_numbers_accepted(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"d": 1, "dimH": 2, "operators": [[[0, 0], [1, 0]]]}))
        t = load_tuple_json(p)
        assert t.ops[0][1, 0] == 1.0

    def test_bad_shape(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"d": 1, "dimH": 2, "operators": [[[0, 0]]]}))
        with pytest.raises(ShapeError):
            load_tuple_json(p)

    def test_missing_field(self):
        with pytest.raises(ShapeError):
            load_tuple_json({"d": 1, "operators": []})


class TestIdentities:
    def test_battery_3_8(self, capsys):
        assert main(["identities", "--d-max", "3", "--n-max", "8"]) == 0
        out = capsys.readouterr().out
        assert "id2 d=3: 495 ok" in out
        assert "lemma-w: ok" in out
        assert "convolution: ok" in out
        assert "identities: PASS" in out

    def test_minimal(self, capsys):
        assert main(["identities", "--d-max", "1", "--n-max", "1"]) == 0

    def test_corrupt_kernel_file(self, tmp_path, capsys):
        bad = tmp_path / "bad_kernel.json"
        bad.write_text(json.dumps([1.0, 2.0, 1.0]))  # b_2 = -3
        rc = main(
            ["identities", "--d-max", "1", "--n-max", "2", "--kernel-file", str(bad)]
        )
        assert rc == EXIT_CODES["CNPViolation"] == 2
        assert "CNPViolation" in capsys.readouterr().err


class TestKernelCommand:
    def test_dirichlet_table(self, capsys):
        assert main(["kernel", "--kernel", "dirichlet", "-N", "5"]) == 0
        out = capsys.readouterr().out
        assert "b,1,,0.5" in out
        assert "b,2,,0.083333333333333329" in out

    def test_da_table(self, capsys):
        assert main(["kernel", "--kernel", "drury-arveson", "-N", "4", "-d", "2"]) == 0
        out = capsys.readouterr().out
        assert "b,1,,1" in out and "b,2,,0" in out

    def test_custom_non_cnp_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "k.json"
        bad.write_text(json.dumps([1, 2, 1]))
        assert main(["kernel", "--kernel-file", str(bad)]) == 2


class TestCurvatureCommand:
    def test_jordan_szego_report(self, jordan3_file, capsys):
        rc = main(
            [
                "curvature",
                "--input",
                jordan3_file,
                "--kernel",
                "szego",
                "--samples",
                "300",
                "--seed",
                "7",
            ]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        rep = data["report"]
        assert abs(rep["k_series"]) <= 1e-10
        assert rep["k_pure"] == 0
        assert rep["fd_eval"] == 1
        assert rep["is_polynomial"] is True
        assert data["innermult"]["ok"] is True

    def test_csv_format(self, jordan3_file, capsys):
        rc = main(
            [
                "curvature",
                "--input",
                jordan3_file,
                "--kernel",
                "szego",
                "--samples",
                "100",
                "--format",
                "csv",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("n,t_e_normalized,t_p_normalized,dpsi_partial,k_weighted")

    def test_not_contraction_exit_code(self, tmp_path, capsys):
        f = write_tuple(tmp_path / "big.json", [1.5 * np.eye(2)])
        rc = main(["curvature", "--input", f, "--kernel", "drury-arveson", "--horizon", "4"])
        assert rc == EXIT_CODES["NotContraction"] == 5
        assert "NotContraction" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ops, extra, name",
        [
            ([1e150 * jordan_block(3)], [], "NotContraction"),
            ([np.diag([1e150, 0.0])], ["--horizon", "3"], "TailUnbounded"),
        ],
    )
    def test_huge_norm_typed_rejection(self, tmp_path, ops, extra, name):
        # one short error line, no numpy overflow warning before it
        f = write_tuple(tmp_path / "huge.json", ops)
        proc = subprocess.run(
            [sys.executable, "-m", "cnpcurv.cli", "curvature", "--input", f,
             "--kernel", "dirichlet", *extra],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_CODES[name]
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith(f"error: {name}: ") and len(lines[0]) < 200

    @pytest.mark.parametrize(
        "entry, message",
        [(float("nan"), "must be finite"), (1e308, "out of range")],
    )
    def test_out_of_range_entry_exit_code(self, tmp_path, capsys, entry, message):
        f = write_tuple(tmp_path / "bad.json", [np.array([[0.0, 0.0], [entry, 0.0]])])
        rc = main(["curvature", "--input", f, "--kernel", "drury-arveson"])
        assert rc == EXIT_CODES["ShapeError"] == 4
        err = capsys.readouterr().err
        assert "ShapeError" in err and message in err

    def test_noncommuting_exit_code(self, tmp_path, capsys):
        t1 = np.array([[0.0, 0.4], [0.0, 0.0]])
        t2 = np.array([[0.0, 0.0], [0.4, 0.0]])
        f = write_tuple(tmp_path / "nc.json", [t1, t2])
        rc = main(["curvature", "--input", f, "--kernel", "drury-arveson"])
        assert rc == EXIT_CODES["CommutatorError"] == 3

    def test_deterministic_byte_identical(self, jordan3_file, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"rep{i}.json"
            rc = main(
                [
                    "curvature",
                    "--input",
                    jordan3_file,
                    "--kernel",
                    "szego",
                    "--samples",
                    "200",
                    "--seed",
                    "3",
                    "--deterministic",
                    "--output",
                    str(out),
                ]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "argv",
    [["curvature", "--samples", "300"], ["traces"], ["fd"], ["theta", "--point", "0.5"]],
)
def test_nilpotency_found_once_per_request(argv, jordan3_file, monkeypatch, capsys):
    import cnpcurv.tuples as tuples

    calls = []
    real = tuples.nilpotency_degree
    monkeypatch.setattr(tuples, "nilpotency_degree", lambda t: calls.append(t) or real(t))
    assert main([argv[0], "--input", jordan3_file, "--kernel", "szego", *argv[1:]]) == 0
    assert len(calls) == 1


class TestThetaCommand:
    def test_point_evaluation(self, jordan3_file, capsys):
        rc = main(
            ["theta", "--input", jordan3_file, "--kernel", "szego", "--point", "0.5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "singular values: 0.125" in out

    def test_taylor_dump(self, jordan3_file, capsys):
        rc = main(
            [
                "theta",
                "--input",
                jordan3_file,
                "--kernel",
                "szego",
                "--point",
                "0.25",
                "--taylor",
                "4",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{") :])
        assert payload["is_polynomial"] is True
        gammas = [c["gamma"] for c in payload["coefficients"]]
        assert [3] in gammas

    def test_outside_ball_exit(self, jordan3_file, capsys):
        rc = main(
            ["theta", "--input", jordan3_file, "--kernel", "szego", "--point", "1.2"]
        )
        assert rc == EXIT_CODES["OutsideBall"] == 8


class TestTracesCommand:
    def test_csv_columns(self, jordan3_file, capsys):
        rc = main(
            ["traces", "--input", jordan3_file, "--kernel", "szego", "--max-n", "6"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,trace_E,trace_E_normalized,trace_P_normalized,dpsi_partial"
        assert len(lines) == 8
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(1.0, abs=1e-12)


class TestFdCommand:
    def test_json_report(self, jordan3_file, capsys):
        rc = main(["fd", "--input", jordan3_file, "--kernel", "szego", "--max-n", "8"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fd_eval"] == 1
        assert payload["label"] == "fd (GRS proxy)"
        assert payload["graded_dims"][-1] == pytest.approx(6 / 9)

    def test_grading_size_limit_exit_code(self, tmp_path, capsys):
        # d = 3, dimH 10: grading to degree 12 needs a 4550 x 4550 factor
        f = write_tuple(tmp_path / "s3.json", [0.4 * m for m in truncated_shift_ops(3, 3)])
        start = time.perf_counter()
        rc = main(["fd", "--input", f, "--kernel", "dirichlet", "--max-n", "12"])
        assert time.perf_counter() - start < 10
        assert rc == EXIT_CODES["SizeLimitExceeded"] == 17
        assert "SizeLimitExceeded" in capsys.readouterr().err


# a unitary has Delta = 0 and D = 0: rank_delta = rank_d = 0, Ran M_theta = 0
ZERO_DEFECT = {
    "one": [np.eye(1)],
    "swap": [np.array([[0.0, 1.0], [1.0, 0.0]])],
}


@pytest.mark.parametrize("name", sorted(ZERO_DEFECT))
@pytest.mark.parametrize("command", ["fd", "curvature"])
def test_zero_defect_tuple_reports(command, name, tmp_path, capsys):
    f = write_tuple(tmp_path / f"{name}.json", ZERO_DEFECT[name])
    rc = main([command, "--input", f, "--kernel", "szego", "--horizon", "1"])
    assert rc == 0, capsys.readouterr().err
    payload = json.loads(capsys.readouterr().out)
    fd = payload if command == "fd" else payload["fd"]
    assert fd["fd_eval"] == 0
    assert fd["graded_dims"] and all(v == 0 for v in fd["graded_dims"])
    if command == "curvature":
        assert payload["report"]["fd_eval"] == 0


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        f = write_tuple(tmp_path / "j2.json", [jordan_block(2)])
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "cnpcurv.cli",
                "curvature",
                "--input",
                f,
                "--kernel",
                "szego",
                "--samples",
                "50",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert '"k_pure": 0' in proc.stdout


class TestJsonFormatting:
    def test_float_17g_and_sorted_keys(self):
        text = dumps_json17({"b": 1 / 3, "a": [1.0, 2.5e-17]})
        assert text.index('"a"') < text.index('"b"')
        assert "0.33333333333333331" in text
        assert "2.4999999999999999e-17" in text  # the exact double, 17 digits
        assert json.loads(text) == {"a": [1.0, 2.5e-17], "b": 1 / 3}


class TestThreadPlumbing:
    def test_exit_codes_are_distinct(self):
        codes = list(EXIT_CODES.values())
        assert len(codes) == len(set(codes))
        assert 0 not in codes and 1 not in codes

    def test_env_var_mirrors_threads_flag(self, monkeypatch, capsys):
        monkeypatch.setenv("CNPCURV_THREADS", "2")
        assert main(["identities", "--d-max", "1", "--n-max", "1"]) == 0
        import os

        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


class TestDemoScripts:
    @pytest.mark.parametrize(
        "name",
        [
            "01_kernel_tables.py",
            "02_defect_package.py",
            "03_characteristic_function.py",
            "04_curvature_three_ways.py",
            "05_fibre_dimension.py",
        ],
    )
    def test_demo_runs(self, name):
        from pathlib import Path

        script = Path(__file__).resolve().parents[1] / "demos" / name
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip()
