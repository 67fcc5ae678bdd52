"""The `cnpcurv` command.

Subcommands: identities, kernel, curvature, theta, traces, fd.  JSON in,
JSON/CSV out; every error maps to a distinct exit code with a one-line
machine-parsable message on stderr.  `--deterministic` pins the BLAS worker
count to one so identical configurations produce byte-identical reports.

`curvature`, `theta`, `traces` and `fd` print the stages of one pipeline
run (pipeline.PipelineResult), which alone orders them and builds each once.

Heavy imports happen inside the command handlers: `--threads` (or the
CNPCURV_THREADS environment variable) must take effect before the numerics
stack loads.
"""
from __future__ import annotations

import argparse
import functools
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
    """Pin the BLAS worker count; raises ValueError for a count below 1 or
    a CNPCURV_THREADS that is not an integer."""
    threads = getattr(args, "threads", None)
    if threads is None:
        env = os.environ.get("CNPCURV_THREADS")
        try:
            threads = int(env) if env else None
        except ValueError:
            raise ValueError(f"CNPCURV_THREADS must be an integer, got {env!r}") from None
    if threads is not None and threads < 1:
        raise ValueError(f"the thread count must be >= 1, got {threads}")
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


def _setup(args):
    """(tuple, kernel) from --input and the kernel options; the kernel
    horizon also covers the nilpotency default plus dimH."""
    from .formats import kernel_from_args, load_tuple_json
    from .tuples import default_horizon

    t = load_tuple_json(args.input)
    auto = default_horizon(t)
    horizon = _preset_horizon(args, *([auto + t.dim_h] if auto is not None else []))
    k = kernel_from_args(args.kernel, args.kernel_file, d=t.d, horizon=horizon)
    return t, k


def _run(args, **settings):
    """The pipeline run over _setup(args), at defect horizon --horizon."""
    from .pipeline import PipelineResult, RunSettings

    return PipelineResult(*_setup(args), RunSettings(n_op=args.horizon, **settings))


def _csv_row(n: int, *values: float) -> str:
    from .formats import format_float17

    return ",".join([str(n), *(format_float17(v) for v in values)])


# -- subcommands ------------------------------------------------------------


def cmd_identities(args) -> int:
    from fractions import Fraction

    from .comb import enumerate_up_to_degree, verify_id2
    from .formats import load_kernel_file
    from .kernel import preset, weights

    for flag, value in (("--d-max", args.d_max), ("--n-max", args.n_max)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
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
    from .formats import format_float17, kernel_from_args
    from .kernel import regularity

    k = kernel_from_args(args.kernel, args.kernel_file, d=args.dim, horizon=args.horizon)
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

    result = run_curvature(*_setup(args), RunSettings(
        n_op=args.horizon, n_theta=args.theta_horizon, n_max=args.max_n,
        radius=args.radius, n_samples=args.samples, seed=args.seed,
    ))
    report, k = result.report, result.k
    if args.format == "json":
        payload = {
            "kernel": {"name": k.name, "d": k.d, "N": k.N},
            "report": report,
            "fd": result.fd,
        }
        text = dumps_json17(payload, indent=2)
    else:
        lines = ["n,t_e_normalized,t_p_normalized,dpsi_partial,k_weighted"]
        for row, kw in zip(report.convergence, report.k_weighted, strict=True):
            values = (row["t_e_normalized"], row["t_p_normalized"], row["dpsi_partial"], kw)
            lines.append(_csv_row(row["n"], *values))
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

    from .charfn import eval_theta
    from .formats import dumps_json17, format_float17

    run = _run(args, n_theta=args.taylor)
    point = np.array([complex(part) for part in args.point.split(",")])
    pe = eval_theta(run.pkg, run.k, point)
    # built before anything is printed, so a bad --taylor leaves no output
    series = run.series if args.taylor is not None else None
    print("theta entries ([re, im] per column):")
    for row in pe.theta:
        print("  " + "  ".join(f"[{format_float17(e.real)}, {format_float17(e.imag)}]" for e in row))
    print("singular values: " + " ".join(format_float17(s) for s in pe.singular_values))
    if series is not None:
        coeffs = [
            {"gamma": list(key), "matrix": series.coeffs[key]}
            for key in sorted(series.coeffs, key=lambda key: (sum(key), key))
        ]
        print(dumps_json17({"coefficients": coeffs, "is_polynomial": series.is_polynomial}, indent=2))
    return 0


def cmd_traces(args) -> int:
    from .comb import q
    from .curvature import ordering_rows

    run = _run(args, n_max=args.max_n)
    rows = ordering_rows(run.profile)
    print("n,trace_E,trace_E_normalized,trace_P_normalized,dpsi_partial")
    for row in rows:
        te = row["t_e_normalized"] * q(run.k.d - 1, row["n"])
        print(_csv_row(row["n"], te, row["t_e_normalized"], row["t_p_normalized"], row["dpsi_partial"]))
    return 0


def cmd_fd(args) -> int:
    from .formats import dumps_json17

    run = _run(args, n_max=args.max_n)
    rep = run.fibre_dimension(args.samples, args.radius, args.seed)
    payload = {
        "fd_eval": rep.fd_eval,
        "label": rep.label,
        "attained_fraction": rep.attained_fraction,
        "graded_dims": rep.graded_dims,
        "purity_residual": run.purity.purity_residual,
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


def _glue_point(argv: list[str]) -> list[str]:
    """Write `--point V` as `--point=V` when V starts with a single '-'
    ("-0.3,0.4", "-inf"): argparse would take such a V for an option."""
    out = []
    for arg in argv:
        if out and out[-1] == "--point" and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"--point={arg}"
        else:
            out.append(arg)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call in a process and reused."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(_glue_point(sys.argv[1:] if argv is None else argv))
    from .errors import CnpcurvError

    try:
        _configure_threads(args)
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
