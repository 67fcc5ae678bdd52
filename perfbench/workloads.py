"""Request lists and tuple inputs for the four workloads, made from a seed.

Every request is one ``cnpcurv.cli.main([...])`` call on a generated tuple
JSON file.  The *shape* of each request (subcommand, dimension, dimH,
kernel, horizons) is fixed per workload, so the work per pass does not
depend on the seed.  The seed draws the random parts:

* random jointly nilpotent tuples (the pattern of ``tests/conftest.py``),
  checked by an identity that holds for every such tuple;
* a random unitary U that conjugates every structured tuple, which leaves
  each invariant the report states unchanged, so golden values recorded
  once hold for every seed;
* the ``--seed`` of the Monte-Carlo and rank sampling.

Each request declares its expected outcome (``"report"`` or a typed exit
code) and the check its output must pass (see ``checks.py``).
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("sphere-mc", "long-horizon", "graded-fd", "series-tables")

# Seconds one pass over each workload's requests took at the seed commit on
# the machine the benchmark was sized on (2 cores, BLAS on one thread).  A
# run of S seconds sends round(S / NOMINAL_PASS_S) whole passes, so every
# run of a workload sends the same requests whatever the machine's speed.
NOMINAL_PASS_S = {
    "sphere-mc": 10.0,
    "long-horizon": 7.0,
    "graded-fd": 7.0,
    "series-tables": 6.5,
}


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


# -- matrices -------------------------------------------------------------


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q_mat, r = np.linalg.qr(g)
    ph = np.diagonal(r)
    return q_mat * (ph / np.abs(ph))


def jordan_block(k: int) -> np.ndarray:
    j = np.zeros((k, k), dtype=complex)
    for i in range(k - 1):
        j[i + 1, i] = 1.0
    return j


def truncated_shift_ops(d: int, top_degree: int) -> list[np.ndarray]:
    """Coordinate multiplication compressed to polynomials of degree
    < top_degree in d variables: commuting and jointly nilpotent."""
    betas = [()]
    for _ in range(d):
        betas = [b + (e,) for b in betas for e in range(top_degree)]
    betas = sorted((b for b in betas if sum(b) < top_degree), key=lambda b: (sum(b), b))
    pos = {b: i for i, b in enumerate(betas)}
    ops = []
    for i in range(d):
        m = np.zeros((len(betas), len(betas)), dtype=complex)
        for b in betas:
            tgt = b[:i] + (b[i] + 1,) + b[i + 1 :]
            if tgt in pos:
                m[pos[tgt], pos[b]] = 1.0
        ops.append(m)
    return ops


def _rescale(ops: list[np.ndarray], rho_max: float) -> list[np.ndarray]:
    rho = sum(np.linalg.norm(m, 2) ** 2 for m in ops)
    if rho > rho_max:
        ops = [np.sqrt(rho_max / rho) * m for m in ops]
    return ops


def random_nilpotent(rng: np.random.Generator, d: int, dim_or_top: int) -> list[np.ndarray]:
    """conftest pattern: d = 1 strictly triangular of size dim_or_top, d > 1
    random mixtures of truncated shifts of top degree dim_or_top; conjugated
    by a random unitary and kept below sum ||T_i||^2 = 0.8."""
    if d == 1:
        n = dim_or_top
        ops = [np.tril(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), -1)]
    else:
        shifts = truncated_shift_ops(d, dim_or_top)
        ops = []
        for _ in range(d):
            c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            m = sum(ci * s for ci, s in zip(c, shifts))
            if rng.random() < 0.5:
                cq = rng.standard_normal() + 1j * rng.standard_normal()
                m = m + cq * (shifts[0] @ shifts[-1])
            ops.append(m)
    u = random_unitary(rng, ops[0].shape[0])
    return _rescale([u @ m @ u.conj().T for m in ops], 0.8)


def diagonalisable(shape_seed: int, d: int, n: int, rho: float) -> list[np.ndarray]:
    """A fixed commuting, non-nilpotent, non-normal d-tuple on C^n:
    R diag(lambda_i) R^-1 with a well-conditioned triangular R, scaled to
    sum ||T_i||^2 = rho.  shape_seed fixes it; the workload seed only
    conjugates it by a unitary."""
    rng = np.random.default_rng(shape_seed)
    r = np.eye(n, dtype=complex) + 0.3 * np.triu(
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1
    ) / np.sqrt(n)
    r_inv = np.linalg.inv(r)
    ops = []
    for _ in range(d):
        lam = rng.uniform(0.1, 0.6, n) * np.exp(2j * np.pi * rng.random(n))
        ops.append(r @ np.diag(lam) @ r_inv)
    rho_now = sum(np.linalg.norm(m, 2) ** 2 for m in ops)
    return [np.sqrt(rho / rho_now) * m for m in ops]


def non_normal_single(shape_seed: int, n: int, rho: float) -> list[np.ndarray]:
    """A fixed non-nilpotent single operator: random spectrum plus a
    strictly upper triangular part, scaled to ||T||^2 = rho."""
    rng = np.random.default_rng(shape_seed)
    lam = rng.uniform(0.1, 0.7, n) * np.exp(2j * np.pi * rng.random(n))
    upper = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    m = np.diag(lam) + 0.3 * upper / np.sqrt(n)
    return [np.sqrt(rho / np.linalg.norm(m, 2) ** 2) * m]


def conjugate(rng: np.random.Generator, ops: list[np.ndarray]) -> list[np.ndarray]:
    u = random_unitary(rng, ops[0].shape[0])
    return [u @ m @ u.conj().T for m in ops]


# -- request lists --------------------------------------------------------


def _req(rid, command, ops, kernel, args=(), expect="report", check="golden", **info):
    return {
        "id": rid,
        "command": command,
        "ops": ops,
        "kernel": kernel,
        "args": list(args),
        "expect": expect,
        "check": check,
        "info": info,
    }


def sphere_mc(rng: np.random.Generator) -> list[dict]:
    reqs = []
    for k in range(2, 9):
        reqs.append(_req(f"jordan-{k}/szego", "curvature", conjugate(rng, [jordan_block(k)]),
                         "szego", check="jordan", k=k))
    for i, n in enumerate(range(2, 9)):
        kern = ("szego", "drury-arveson")[i % 2]
        reqs.append(_req(f"nil-d1-dim{n}/{kern}", "curvature", random_nilpotent(rng, 1, n),
                         kern, check="pure"))
    for top, dim in ((2, 3), (3, 6)):
        for rep in range(2):
            reqs.append(_req(f"nil-d2-dim{dim}-{rep}/drury-arveson", "curvature",
                             random_nilpotent(rng, 2, top), "drury-arveson", check="pure"))
    return reqs


LONG_SAMPLES = ["--samples", "500"]


def long_horizon(rng: np.random.Generator) -> list[dict]:
    reqs = []
    for n in (3, 5):
        reqs.append(_req(f"nil-d1-dim{n}/dirichlet", "curvature", random_nilpotent(rng, 1, n),
                         "dirichlet", LONG_SAMPLES, check="pure"))
    for m in (1, 2, 3):
        reqs.append(_req(f"zero-{m}/dirichlet", "curvature", [np.zeros((m, m), dtype=complex)],
                         "dirichlet", ["--horizon", "60", "--theta-horizon", "60", *LONG_SAMPLES],
                         check="zero", m=m, n_theta=60))
    for n, h in ((4, 20), (6, 30), (8, 40)):
        reqs.append(_req(f"nonnil-d1-dim{n}-h{h}/dirichlet", "curvature",
                         conjugate(rng, non_normal_single(100 + n, n, 0.6)), "dirichlet",
                         ["--horizon", str(h), "--theta-horizon", str(h), *LONG_SAMPLES]))
    for n in (3, 4):
        reqs.append(_req(f"diag-d2-dim{n}-h10/dirichlet", "curvature",
                         conjugate(rng, diagonalisable(200 + n, 2, n, 0.6)), "dirichlet",
                         ["--horizon", "10", "--theta-horizon", "10", "--max-n", "8",
                          *LONG_SAMPLES]))
    return reqs


def graded_fd(rng: np.random.Generator) -> list[dict]:
    reqs = []
    shapes = [(2, 2, 12, "drury-arveson"), (2, 2, 12, "dirichlet"),
              (2, 3, 12, "drury-arveson"), (2, 3, 12, "dirichlet"),
              (2, 4, 10, "drury-arveson"), (2, 4, 8, "dirichlet"),
              (3, 2, 8, "drury-arveson"), (3, 2, 8, "dirichlet"),
              (3, 3, 5, "drury-arveson"), (3, 3, 5, "dirichlet")]
    for d, top, max_n, kern in shapes:
        ops = conjugate(rng, [0.4 * m for m in truncated_shift_ops(d, top)])
        reqs.append(_req(f"shift-d{d}-dim{len(ops[0])}-n{max_n}/{kern}", "fd", ops, kern,
                         ["--max-n", str(max_n)]))
    return reqs


def series_tables(rng: np.random.Generator) -> list[dict]:
    reqs = []
    for n, h in ((8, 40), (10, 45), (12, 50), (14, 50)):
        reqs.append(_req(f"nonnil-d1-dim{n}-h{h}/dirichlet", "traces",
                         conjugate(rng, non_normal_single(300 + n, n, 0.6)), "dirichlet",
                         ["--horizon", str(h)]))
    for d, n, h in ((2, 4, 12), (2, 5, 14), (2, 6, 14), (3, 3, 6), (3, 4, 8)):
        reqs.append(_req(f"diag-d{d}-dim{n}-h{h}/dirichlet", "traces",
                         conjugate(rng, diagonalisable(400 + 10 * d + n, d, n, 0.6)), "dirichlet",
                         ["--horizon", str(h)]))
    reqs.append(_req("diag-d3-dim60-h3/dirichlet", "traces",
                     conjugate(rng, diagonalisable(460, 3, 60, 0.6)), "dirichlet",
                     ["--horizon", "3", "--max-n", "3"], check="ordering"))
    return reqs


REQUEST_LISTS = {
    "sphere-mc": sphere_mc,
    "long-horizon": long_horizon,
    "graded-fd": graded_fd,
    "series-tables": series_tables,
}


# -- files ----------------------------------------------------------------


def write_tuple(path: Path, ops: list[np.ndarray]) -> None:
    """Write a tuple in the CLI's input schema, entries as [re, im] pairs."""
    path.write_text(json.dumps({
        "d": len(ops),
        "dimH": ops[0].shape[0],
        "operators": [[[[float(e.real), float(e.imag)] for e in row] for row in m] for m in ops],
    }))


def write_plan(workload: str, seed: int, out_dir: Path) -> list[dict]:
    """Generate the workload's inputs from the seed into out_dir and return
    the request plan: one entry per request with the CLI argv and the
    declared outcome."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    plan = []
    for i, req in enumerate(REQUEST_LISTS[workload](rng)):
        ops = req.pop("ops")
        path = out_dir / f"in{i:02d}.json"
        write_tuple(path, ops)
        req_seed = int(rng.integers(1, 2**31))
        argv = [req["command"], "--input", str(path), "--kernel", req["kernel"], *req["args"]]
        if req["command"] in ("curvature", "fd"):
            argv += ["--seed", str(req_seed)]
        req.update(key=f"{workload}:{req['id']}", argv=argv, input=str(path))
        plan.append(req)
    return plan
