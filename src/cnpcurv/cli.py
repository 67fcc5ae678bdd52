"""The `cnpcurv` command.

Subcommands: identities, kernel, curvature, theta, traces, fd.  JSON in,
JSON/CSV out; every error maps to a distinct exit code with a one-line
machine-parsable message on stderr.  `--deterministic` pins the BLAS worker
count to one so identical configurations produce byte-identical reports.

Heavy imports happen inside the command handlers: `--threads` (or the
CNPCURV_THREADS environment variable) must take effect before the numerics
stack loads.
"""
from __future__ import annotations

import argparse
import os
import sys

EXIT_CODES = {
    "CNPViolation": 2,
    "CommutatorError": 3,
    "ShapeError": 4,
    "NotContraction": 5,
    "TailUnbounded": 6,
    "NotUnitary": 7,
    "OutsideBall": 8,
    "NearSingular": 9,
    "HorizonExceeded": 10,
    "NotPure": 11,
    "ReconcileFailure": 12,
    "IndexDegreeError": 13,
    "PresetDomainError": 14,
    "IntegerMismatch": 15,
    "CnpcurvError": 16,
    "SizeLimitExceeded": 17,
}


def _add_kernel_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--kernel",
        choices=("szego", "drury-arveson", "dirichlet"),
        default=None,
        help="kernel preset (default: drury-arveson)",
    )
    p.add_argument(
        "--kernel-file",
        default=None,
        help="JSON array of a-coefficients (overrides --kernel)",
    )


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=None, help="cap BLAS worker count")
    p.add_argument(
        "--deterministic",
        action="store_true",
        help="single-threaded reductions for byte-identical output",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cnpcurv",
        description="curvature invariants of commuting matrix tuples "
        "relative to complete Nevanlinna-Pick kernels",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identities", help="exact combinatorial identity battery")
    p.add_argument("--d-max", type=int, default=3)
    p.add_argument("--n-max", type=int, default=8)
    _add_kernel_args(p)
    _add_common_args(p)

    p = sub.add_parser("kernel", help="print coefficient tables and trends")
    _add_kernel_args(p)
    p.add_argument("-d", "--dim", type=int, default=1, help="ambient dimension")
    p.add_argument("-N", "--horizon", type=int, default=20)
    _add_common_args(p)

    p = sub.add_parser("curvature", help="full pipeline and report")
    p.add_argument("--input", required=True, help="tuple JSON file")
    _add_kernel_args(p)
    p.add_argument("--horizon", type=int, default=None, help="defect series horizon")
    p.add_argument("--theta-horizon", type=int, default=None)
    p.add_argument("--max-n", type=int, default=12)
    p.add_argument("--radius", type=float, default=0.999)
    p.add_argument("--samples", type=int, default=4000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None, help="write report here instead of stdout")
    _add_common_args(p)

    p = sub.add_parser("theta", help="evaluate the characteristic function")
    p.add_argument("--input", required=True)
    _add_kernel_args(p)
    p.add_argument("--point", required=True, help='comma-separated coordinates, e.g. "0.3,0.4"')
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--taylor", type=int, default=None, help="dump coefficients up to this degree")
    _add_common_args(p)

    p = sub.add_parser("traces", help="graded trace table of M_theta M_theta*")
    p.add_argument("--input", required=True)
    _add_kernel_args(p)
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--horizon", type=int, default=None)
    _add_common_args(p)

    p = sub.add_parser("fd", help="fibre dimension report")
    p.add_argument("--input", required=True)
    _add_kernel_args(p)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--radius", type=float, default=0.8)
    p.add_argument("--max-n", type=int, default=12)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--horizon", type=int, default=None)
    _add_common_args(p)

    return ap


def _configure_threads(args) -> None:
    threads = getattr(args, "threads", None)
    if threads is None:
        env = os.environ.get("CNPCURV_THREADS")
        threads = int(env) if env else None
    if getattr(args, "deterministic", False):
        threads = 1
    if threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(threads)


def _preset_horizon(args, *extra: int) -> int:
    candidates = [20]
    for name in ("horizon", "theta_horizon", "max_n"):
        v = getattr(args, name, None)
        if v is not None:
            candidates.append(int(v))
    candidates.extend(int(e) for e in extra if e is not None)
    return max(candidates) + 2


def _kernel_for(args, d: int, *extra: int):
    from .formats import kernel_from_args

    return kernel_from_args(
        args.kernel, args.kernel_file, d=d, horizon=_preset_horizon(args, *extra)
    )


def _setup(args, package: bool = True):
    """(tuple, kernel, defect package at --horizon or None); the kernel
    horizon also covers the nilpotency default plus dimH."""
    from .formats import load_tuple_json
    from .tuples import default_horizon, defect_package

    t = load_tuple_json(args.input)
    auto = default_horizon(t)
    k = _kernel_for(args, t.d, *([auto + t.dim_h] if auto is not None else []))
    pkg = defect_package(t, k, n_op=args.horizon) if package else None
    return t, k, pkg


# -- subcommands ------------------------------------------------------------


def cmd_identities(args) -> int:
    from fractions import Fraction

    from .comb import enumerate_up_to_degree, verify_id2
    from .formats import load_kernel_file
    from .kernel import preset, weights

    ok = True
    for d in range(1, args.d_max + 1):
        count = 0
        d_ok = True
        for n in range(args.n_max + 1):
            for beta in enumerate_up_to_degree(d, n):
                res = verify_id2(d, n, beta)
                d_ok &= res.equal
                count += 1
                if not res.equal:
                    print(f"id2 counterexample: d={d} n={n} beta={beta}")
        ok &= d_ok
        print(f"id2 d={d}: {count} ok" if d_ok else f"id2 d={d}: FAILED")

    lemma_w_ok = True
    names = ["drury-arveson", "dirichlet"]
    kernels = [preset(name, d=1, N=args.n_max) for name in names]
    kernels.append(preset("szego", d=1, N=args.n_max))
    for k in kernels:
        for n in range(args.n_max + 1):
            row = weights(k, n).w_exact
            lemma_w_ok &= sum(row, Fraction(0)) == 1
    print("lemma-w: ok" if lemma_w_ok else "lemma-w: FAILED")

    conv_ok = True
    for k in kernels:
        ae, be = k.a_exact, k.b_exact
        for n in range(1, k.N + 1):
            conv_ok &= ae[n] == sum(
                (be[j] * ae[n - j] for j in range(1, n + 1)), Fraction(0)
            )
    if args.kernel_file:
        load_kernel_file(args.kernel_file, d=1)  # raises CNPViolation if invalid
    print("convolution: ok" if conv_ok else "convolution: FAILED")

    passed = ok and lemma_w_ok and conv_ok
    print("identities: PASS" if passed else "identities: FAIL")
    return 0 if passed else 1


def cmd_kernel(args) -> int:
    from .formats import format_float17
    from .kernel import regularity

    k = _kernel_for(args, d=args.dim)
    print("table,n,i,value")
    for n in range(k.N + 1):
        print(f"a,{n},,{format_float17(k.a[n])}")
    for n in range(1, k.N + 1):
        print(f"b,{n},,{format_float17(k.b[n])}")
    from .kernel import weights as weight_rows

    for n in range(min(k.N, 10) + 1):
        row = weight_rows(k, n).w
        for i, w in enumerate(row):
            print(f"w,{n},{i},{format_float17(w)}")
    rep = regularity(k)
    print(f"regularity,b_partial_sum,,{format_float17(rep.b_partial_sum)}")
    print(f"regularity,divergence_proxy,,{format_float17(rep.divergence_proxy)}")
    print(f"regularity,cnp_flag,,{int(rep.cnp_flag)}")
    print(f"regularity,ratio_flag,,{int(rep.ratio_flag)}")
    print(f"regularity,divergence_flag,,{int(rep.divergence_flag)}")
    print(
        "# note: flags are finite-horizon trends, not certificates of the "
        "limit conditions",
        file=sys.stderr,
    )
    return 0


def cmd_curvature(args) -> int:
    from .formats import dumps_json17, format_float17
    from .pipeline import RunSettings, run_curvature

    t, k, _ = _setup(args, package=False)
    settings = RunSettings(
        n_op=args.horizon,
        n_theta=args.theta_horizon,
        n_max=args.max_n,
        radius=args.radius,
        n_samples=args.samples,
        seed=args.seed,
    )
    result = run_curvature(t, k, settings)
    report = result.report
    if args.format == "json":
        payload = {
            "kernel": {"name": k.name, "d": k.d, "N": k.N},
            "report": report,
            "innermult": result.innermult,
            "fd": result.fd,
        }
        text = dumps_json17(payload, indent=2)
    else:
        lines = ["n,t_e_normalized,t_p_normalized,dpsi_partial,k_weighted"]
        for row in report.convergence:
            n = row["n"]
            kw = report.k_weighted[n] if n < len(report.k_weighted) else float("nan")
            lines.append(
                ",".join(
                    [
                        str(n),
                        format_float17(row["t_e_normalized"]),
                        format_float17(row["t_p_normalized"]),
                        format_float17(row["dpsi_partial"]),
                        format_float17(kw),
                    ]
                )
            )
        lines.append(f"# k_series,{format_float17(report.k_series)}")
        lines.append(f"# k_integral,{format_float17(report.k_integral.estimate)}")
        lines.append(f"# k_pure,{report.k_pure}")
        text = "\n".join(lines)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_theta(args) -> int:
    import numpy as np

    from .charfn import eval_theta, taylor
    from .formats import dumps_json17, format_float17

    t, k, pkg = _setup(args)
    point = np.array([complex(part) for part in args.point.split(",")])
    if point.shape != (t.d,):
        raise ValueError(f"point needs {t.d} coordinates, got {point.shape[0]}")
    pe = eval_theta(pkg, k, point)
    print("theta entries ([re, im] per column):")
    for row in pe.theta:
        print("  " + "  ".join(f"[{format_float17(e.real)}, {format_float17(e.imag)}]" for e in row))
    print("singular values: " + " ".join(format_float17(s) for s in pe.singular_values))
    if args.taylor is not None:
        series = taylor(pkg, k, n_theta=args.taylor)
        coeffs = [
            {"gamma": list(key), "matrix": series.coeffs[key]}
            for key in sorted(series.coeffs, key=lambda key: (sum(key), key))
        ]
        print(dumps_json17({"coefficients": coeffs, "is_polynomial": series.is_polynomial}, indent=2))
    return 0


def cmd_traces(args) -> int:
    from .charfn import taylor
    from .comb import q
    from .curvature import DegreeProfile, ordering_rows
    from .formats import format_float17

    _, k, pkg = _setup(args)
    rows = ordering_rows(DegreeProfile.build(taylor(pkg, k), k, args.max_n))
    print("n,trace_E,trace_E_normalized,trace_P_normalized,dpsi_partial")
    for row in rows:
        te = row["t_e_normalized"] * q(k.d - 1, row["n"])
        print(
            ",".join(
                [
                    str(row["n"]),
                    format_float17(te),
                    format_float17(row["t_e_normalized"]),
                    format_float17(row["t_p_normalized"]),
                    format_float17(row["dpsi_partial"]),
                ]
            )
        )
    return 0


def cmd_fd(args) -> int:
    from .charfn import taylor
    from .fibredim import fd_by_grading, fd_report
    from .formats import dumps_json17
    from .tuples import purity

    t, k, pkg = _setup(args)
    pur = purity(t, k, pkg)
    rep = fd_report(
        pkg,
        k,
        n_samples=args.samples,
        radius=args.radius,
        seed=args.seed,
        purity_residual=pur.purity_residual,
    )
    series = taylor(pkg, k)
    graded = fd_by_grading(series, k, args.max_n)
    payload = {
        "fd_eval": rep.fd_eval,
        "label": rep.label,
        "attained_fraction": rep.attained_fraction,
        "graded_dims": graded,
        "purity_residual": pur.purity_residual,
    }
    print(dumps_json17(payload, indent=2))
    return 0


COMMANDS = {
    "identities": cmd_identities,
    "kernel": cmd_kernel,
    "curvature": cmd_curvature,
    "theta": cmd_theta,
    "traces": cmd_traces,
    "fd": cmd_fd,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _configure_threads(args)
    from .errors import CnpcurvError

    try:
        return COMMANDS[args.command](args)
    except CnpcurvError as exc:
        name = type(exc).__name__
        print(f"error: {name}: {exc}", file=sys.stderr)
        return EXIT_CODES.get(name, EXIT_CODES["CnpcurvError"])
    except (ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
