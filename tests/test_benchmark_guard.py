"""The traced benchmark run patches library functions by name: every name it
lists must still resolve, or a refactor would silently break the trace.
Each size recorder it applies to a return value must also still accept
what the function returns, or the traced run would crash midway.

perfbench/tracer.py is loaded read-only from the checkout; nothing is
installed or patched here.
"""
import importlib
import importlib.util
from pathlib import Path

import cnpcurv as cc
from cnpcurv.traces import multiplier_matrix

from conftest import jordan_block

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _tracer()
    names = [(mod, fn) for mod, fn, _ in tracer.SPANNED] + list(tracer.COUNTED)
    assert names
    missing = [
        f"{mod}.{fn}" for mod, fn in names
        if not callable(getattr(importlib.import_module(mod), fn, None))
    ]
    assert not missing, f"traced names no longer in the library: {missing}"


def test_size_recorders_accept_real_results():
    t = cc.load_tuple([jordan_block(3)])
    k = cc.preset("szego", d=1, N=10)
    pkg = cc.defect_package(t, k)
    series = cc.taylor(pkg, k)
    results = {
        "cnpcurv.tuples.defect_package": pkg,
        "cnpcurv.charfn.taylor": series,
        "cnpcurv.traces.multiplier_matrix": multiplier_matrix(k, series.coeffs, 3, 3),
    }
    sized = [(f"{mod}.{fn}", sizer) for mod, fn, sizer in _tracer().SPANNED if sizer]
    assert sized
    for name, sizer in sized:
        assert name in results, f"no sample result for the sized span {name}"
        size = sizer(results[name])
        assert isinstance(size, int) and size >= 0, (name, size)


def test_defect_package_sizer_leaves_tilde_side_unbuilt():
    # the traced span of defect_package must not pay for the tilde side
    t = cc.load_tuple([jordan_block(3)])
    pkg = cc.defect_package(t, cc.preset("dirichlet", d=1, N=10))
    sizer = {f"{mod}.{fn}": s for mod, fn, s in _tracer().SPANNED}["cnpcurv.tuples.defect_package"]
    assert sizer(pkg) == pkg.tilde_dim == 6
    assert "_tilde_side" not in vars(pkg)
