"""The tilde side of the defect package is built on first read, once.

* Dtilde, V, rank_d and the intertwining residual equal, bit for bit, what
  the eager construction gives (tests/oracles.py:tilde_reference), with the
  tolerances the package was built with, on nilpotent and non-nilpotent
  tuples in d = 1, 2, 3 over every preset.
* The sigma walk (purity), the degree profile and `cnpcurv traces` take no
  eigendecomposition larger than dimH x dimH, and hold less memory than the
  tilde_dim x tilde_dim Gram alone would take.
* The defect package, purity, the degree profile and `cnpcurv traces` never
  enumerate the powers T^alpha behind the block row Ttilde.
* `cnpcurv curvature`, `fd` and `theta` decompose the tilde_dim x tilde_dim
  matrix exactly once per request.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import cnpcurv as cc
import cnpcurv.pipeline
import cnpcurv.tuples
from cnpcurv.cli import main
from cnpcurv.config import Tolerances
from cnpcurv.curvature import DegreeProfile

from conftest import (
    jordan_block,
    random_commuting_tuple,
    random_nilpotent_tuple,
    truncated_shift_ops,
    write_tuple,
)
from oracles import tilde_reference

PRESETS = {1: ("szego", "drury-arveson", "dirichlet"), 2: ("drury-arveson", "dirichlet"),
           3: ("drury-arveson", "dirichlet")}
STRUCTURES = {1: [("jordan", 1, None)], 2: [("shift", 2, 2), ("shift", 2, 3)], 3: [("shift", 3, 2)]}


def _tilde_built(pkg) -> bool:
    return "_tilde_side" in vars(pkg)


@pytest.fixture
def eigh_shapes(monkeypatch):
    """Shapes of every matrix handed to np.linalg.eigh or eigvalsh."""
    shapes = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def recording(h, *args, _real=real, **kwargs):
            shapes.append(np.shape(h))
            return _real(h, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return shapes


@pytest.fixture
def degree_power_calls(monkeypatch):
    """Each call of the block row's power walk tuples._degree_powers."""
    calls = []
    real = cnpcurv.tuples._degree_powers

    def recording(ops, max_degree):
        calls.append(max_degree)
        return real(ops, max_degree)

    monkeypatch.setattr(cnpcurv.tuples, "_degree_powers", recording)
    return calls


@st.composite
def packages(draw):
    """(tuple, kernel, n_op or None, tolerances)."""
    d = draw(st.sampled_from([1, 2, 3]))
    name = draw(st.sampled_from(PRESETS[d]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        t = random_nilpotent_tuple(rng, draw(st.sampled_from(STRUCTURES[d])))
        n_op = None
    else:
        t = random_commuting_tuple(rng, d, draw(st.integers(1, 5)))
        n_op = draw(st.integers(1, 3))
    tol = Tolerances(eps_rank=draw(st.sampled_from([1e-10, 1e-6, 1e-2])))
    return t, cc.preset(name, d=d, N=max(10, t.dim_h)), n_op, tol


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=packages())
def test_lazy_tilde_side_equals_eager_construction(case):
    t, k, n_op, tol = case
    pkg = cc.defect_package(t, k, n_op=n_op, tol=tol)
    assert not _tilde_built(pkg)
    d_tilde, v, rank_d, intertwine = tilde_reference(pkg, tol)
    assert np.array_equal(pkg.d_tilde, d_tilde)
    assert np.array_equal(pkg.v, v)
    assert pkg.rank_d == rank_d
    assert pkg.intertwine_residual == intertwine
    assert pkg.d_tilde is pkg.d_tilde and pkg.v is pkg.v


@pytest.mark.parametrize(
    "d,name,nilpotent",
    [(d, name, nil) for d in (1, 2, 3) for name in PRESETS[d] for nil in (True, False)],
)
def test_sigma_walk_and_profile_stay_on_dim_h(d, name, nilpotent, eigh_shapes):
    rng = np.random.default_rng(17)
    if nilpotent:
        t, n_op = random_nilpotent_tuple(rng, STRUCTURES[d][-1]), None
    else:
        t, n_op = random_commuting_tuple(rng, d, 4), 3
    k = cc.preset(name, d=d, N=10)
    pkg = cc.defect_package(t, k, n_op=n_op)
    cc.purity(pkg, k)
    DegreeProfile.build(pkg, k, n_max=6)
    assert eigh_shapes and max(max(s) for s in eigh_shapes) <= t.dim_h
    assert not _tilde_built(pkg)


@pytest.mark.parametrize(
    "d,nilpotent", [(d, nil) for d in (1, 2, 3) for nil in (True, False)]
)
def test_walk_and_profile_build_no_block_row(d, nilpotent, degree_power_calls):
    rng = np.random.default_rng(5)
    if nilpotent:
        t, n_op = random_nilpotent_tuple(rng, STRUCTURES[d][-1]), None
    else:
        t, n_op = random_commuting_tuple(rng, d, 4), 3
    k = cc.preset("dirichlet", d=d, N=10)
    pkg = cc.defect_package(t, k, n_op=n_op)
    cc.purity(pkg, k, n_traces=6)
    DegreeProfile.build(pkg, k, n_max=6)
    assert degree_power_calls == []
    assert not _tilde_built(pkg)


def test_traces_command_builds_no_block_row(tmp_path, degree_power_calls, monkeypatch, capsys):
    packages_built = []
    real = cnpcurv.pipeline.defect_package

    def keeping(*args, **kwargs):
        packages_built.append(real(*args, **kwargs))
        return packages_built[-1]

    monkeypatch.setattr(cnpcurv.pipeline, "defect_package", keeping)
    f = write_tuple(tmp_path / "t.json", [0.4 * s for s in truncated_shift_ops(2, 3)])
    assert main(["traces", "--input", f, "--kernel", "dirichlet", "--max-n", "6"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 8
    assert degree_power_calls == []
    assert len(packages_built) == 1 and not _tilde_built(packages_built[0])


def test_profile_peak_memory_below_tilde_gram():
    # d = 3, dimH 30 at n_op 3 over dirichlet: 19 blocks, tilde_dim 570
    t = random_commuting_tuple(np.random.default_rng(3), 3, 30)
    k = cc.preset("dirichlet", d=3, N=10)
    assert t.nilpotent_degree is None  # the walk's own peak is not measured
    tracemalloc.start()
    try:
        pkg = cc.defect_package(t, k, n_op=3)
        DegreeProfile.build(pkg, k, n_max=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pkg.tilde_dim == 570
    assert peak < 16 * pkg.tilde_dim**2


def test_traces_command_stays_on_dim_h(tmp_path, eigh_shapes, capsys):
    # jordan-3 over dirichlet: blocks of degree 1 and 2, tilde_dim 6
    f = write_tuple(tmp_path / "t.json", [jordan_block(3)])
    assert main(["traces", "--input", f, "--kernel", "dirichlet", "--max-n", "6"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 8
    assert eigh_shapes and max(max(s) for s in eigh_shapes) <= 3


@pytest.mark.parametrize(
    "argv",
    [["curvature", "--samples", "300"], ["fd", "--max-n", "4"],
     ["theta", "--point", "0.2,0.1", "--taylor", "3"]],
)
def test_tilde_side_built_once_per_request(argv, tmp_path, eigh_shapes, capsys):
    # 0.4-scaled d = 2 shift of top degree 3 over drury-arveson: dimH 6,
    # one block per coordinate, tilde_dim 12
    f = write_tuple(tmp_path / "t.json", [0.4 * s for s in truncated_shift_ops(2, 3)])
    assert main([argv[0], "--input", f, "--kernel", "drury-arveson", *argv[1:]]) == 0
    assert eigh_shapes.count((12, 12)) == 1
    assert max(max(s) for s in eigh_shapes) == 12
