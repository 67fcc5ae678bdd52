"""Span recorder for the traced run, installed from outside the program.

Each traced function is replaced, at every module binding that holds it,
by a wrapper that records a span (name, start, end, parent, request id,
exception name).  Rebinding every holder matters: ``cnpcurv.pipeline``
binds ``defect_package`` when it is imported, while the CLI handlers import
``cnpcurv.tuples.defect_package`` at call time, so patching one binding
would miss the other.  Functions called in tight loops are only counted,
because wrapping them in spans distorts their time.

Spans stay in memory; ``write`` saves them at the end of the run.
"""
from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter, defaultdict

# (module, function, sizer): sizer maps the result to a size recorded per span
SPANNED = [
    ("cnpcurv.cli", "main", None),
    ("cnpcurv.pipeline", "run_curvature", None),
    ("cnpcurv.formats", "load_tuple_json", None),
    ("cnpcurv.formats", "dumps_json17", None),
    ("cnpcurv.kernel", "preset", None),
    ("cnpcurv.tuples", "load_tuple", None),
    ("cnpcurv.tuples", "nilpotency_degree", None),
    ("cnpcurv.tuples", "defect_package", lambda pkg: pkg.tilde_dim),
    ("cnpcurv.tuples", "purity", None),
    ("cnpcurv.charfn", "eval_theta", None),
    ("cnpcurv.charfn", "taylor", lambda series: len(series.coeffs)),
    ("cnpcurv.curvature", "curvature_integral", None),
    ("cnpcurv.curvature", "curvature_weighted", None),
    ("cnpcurv.curvature", "ordering_rows", None),
    ("cnpcurv.curvature", "reconcile", None),
    ("cnpcurv.fibredim", "fd_report", None),
    ("cnpcurv.fibredim", "fd_by_grading", None),
    ("cnpcurv.traces", "multiplier_matrix", lambda m: m.nbytes),
]

COUNTED = [
    ("cnpcurv.comb", "enumerate_degree"),
    ("cnpcurv.kernel", "weights"),
    ("cnpcurv.curvature", "theta_trace_E_normalized"),
]


def _short(module: str, func: str) -> str:
    return f"{module.split('.')[-1]}.{func}"


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, request, error, size]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _spanning(self, name: str, fn, sizer):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if sizer is not None:
                span[6] = sizer(result)
            return result

        return wrapper

    def _counting(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.startswith("cnpcurv") and m]
        targets = [(mod, fn, True, sizer) for mod, fn, sizer in SPANNED]
        targets += [(mod, fn, False, None) for mod, fn in COUNTED]
        for mod_name, fn_name, spanned, sizer in targets:
            original = getattr(sys.modules[mod_name], fn_name)
            name = _short(mod_name, fn_name)
            wrapper = (self._spanning(name, original, sizer) if spanned
                       else self._counting(name, original))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- derived figures ---------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, total seconds, self seconds (duration minus
        the direct children), errors by exception name, largest and summed
        size.  Names never recorded read as zeros."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                         "errors": Counter(), "max_size": 0, "size_sum": 0})
        for i, (name, t0, t1, parent, _req, err, size) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["s"] += t1 - t0
            rec["self_s"] += t1 - t0 - child[i]
            if err:
                rec["errors"][err] += 1
            if size is not None:
                rec["max_size"] = max(rec["max_size"], size)
                rec["size_sum"] += size
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for name, t0, t1, parent, req, err, size in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, req, err, size]) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
