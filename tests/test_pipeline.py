"""One run wires every report: stages are built once, on first read, and
every estimator evaluates under the tolerances the package was built with."""
from collections import Counter

import numpy as np
import pytest

import cnpcurv as cc
import cnpcurv.pipeline as pipeline
from cnpcurv.cli import main
from cnpcurv.config import Tolerances
from cnpcurv.curvature import DegreeProfile
from cnpcurv.errors import NearSingular
from cnpcurv.tuples import DefectPackage

from conftest import jordan_block, write_tuple

STAGES = ("defect_package", "purity", "taylor", "fd_report", "fd_by_grading")


@pytest.fixture
def stage_calls(monkeypatch):
    """Counts of the stage builders the run calls, by name."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in STAGES:
        monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
    counted_build = counting("profile", DegreeProfile.build)
    monkeypatch.setattr(DegreeProfile, "build", classmethod(lambda cls, *a, **kw: counted_build(*a, **kw)))
    return calls


@pytest.mark.parametrize(
    "argv,ran,not_ran",
    [
        (["curvature", "--samples", "300"],
         ("defect_package", "purity", "profile", "fd_report", "fd_by_grading"), ("taylor",)),
        (["fd"], ("defect_package", "purity", "fd_report", "fd_by_grading"),
         ("taylor", "profile")),
        (["traces"], ("defect_package", "purity", "profile"),
         ("taylor", "fd_report", "fd_by_grading")),
        (["theta", "--point", "0.5", "--taylor", "3"], ("defect_package", "taylor"),
         ("purity", "profile", "fd_report", "fd_by_grading")),
    ],
)
def test_each_stage_runs_at_most_once_per_request(argv, ran, not_ran, stage_calls, tmp_path):
    f = write_tuple(tmp_path / "j3.json", [jordan_block(3)])
    assert main([argv[0], "--input", f, "--kernel", "szego", *argv[1:]]) == 0
    assert {name: stage_calls[name] for name in ran} == dict.fromkeys(ran, 1)
    assert not any(stage_calls[name] for name in not_ran), stage_calls


def test_stages_are_built_on_first_read(stage_calls):
    run = pipeline.PipelineResult(cc.load_tuple([jordan_block(3)]), cc.preset("szego", d=1, N=16))
    assert not stage_calls
    assert run.profile is run.profile
    assert stage_calls == {"defect_package": 1, "purity": 1, "profile": 1}


def test_realization_built_once_per_run(monkeypatch):
    prop = DefectPackage.__dict__["realization"]
    builds = []
    real = prop.func
    monkeypatch.setattr(prop, "func", lambda pkg: builds.append(pkg) or real(pkg))
    t = cc.load_tuple([0.5 * jordan_block(3) + 0.1 * np.eye(3)])
    k = cc.preset("dirichlet", d=1, N=20)
    run = cc.run_curvature(t, k, cc.RunSettings(n_op=12, n_samples=200))
    # the Monte-Carlo integral and the rank sampling read it; the report
    # builds no Taylor series
    assert builds == [run.pkg]


class TestPackageTolerances:
    """A package built with near_singular_cond = 2 fails the gate wherever
    I - z J_3* has condition number above 2, with no tolerance passed."""

    @pytest.fixture
    def case(self):
        k = cc.preset("szego", d=1, N=16)
        t = cc.load_tuple([jordan_block(3)])
        return cc.defect_package(t, k, tol=Tolerances(near_singular_cond=2.0)), k

    def test_eval_theta(self, case):
        pkg, k = case
        with pytest.raises(NearSingular):
            cc.eval_theta(pkg, k, [0.9])

    def test_curvature_integral(self, case):
        with pytest.raises(NearSingular):
            cc.curvature_integral(*case)

    def test_fd_report(self, case):
        with pytest.raises(NearSingular):
            cc.fd_report(*case)

    def test_default_gate_passes(self, case):
        k = case[1]
        pkg = cc.defect_package(cc.load_tuple([jordan_block(3)]), k)
        assert cc.eval_theta(pkg, k, [0.9]).norm == pytest.approx(0.9**3)

    def test_series_records_the_package_tolerances(self, case):
        pkg, k = case
        assert cc.taylor(pkg, k).tol is pkg.tol
