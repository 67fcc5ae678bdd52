"""Input parsing and deterministic report serialization.

Tuple input schema (JSON):
    {"d": int, "dimH": int, "operators": [matrix, ...]}
with each matrix a row-major list of rows and each entry either a number or
an [re, im] pair.

Kernel file schema: a JSON array of a-coefficients (numbers, or strings such
as "1/3" parsed as exact fractions).

All floating output is printed with 17 significant digits so identical runs
produce byte-identical, diff-able reports.
"""
from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import ShapeError
from .kernel import KernelSpec, from_coefficients, preset
from .tuples import OperatorTuple, load_tuple

__all__ = [
    "load_tuple_json",
    "load_kernel_file",
    "kernel_from_args",
    "dumps_json17",
    "to_jsonable",
]


def _parse_entry(e) -> complex:
    if isinstance(e, (int, float)):
        return complex(e)
    if isinstance(e, (list, tuple)) and len(e) == 2:
        return complex(float(e[0]), float(e[1]))
    raise ShapeError(f"matrix entry must be a number or [re, im] pair, got {e!r}")


def load_tuple_json(source) -> OperatorTuple:
    """Parse and validate the tuple input schema from a path, JSON string,
    or already-decoded dict."""
    if isinstance(source, (str, Path)):
        p = Path(source)
        text = p.read_text() if p.exists() else str(source)
        data = json.loads(text)
    else:
        data = source
    try:
        d = int(data["d"])
        dim_h = int(data["dimH"])
        raw_ops = data["operators"]
    except (KeyError, TypeError) as exc:
        raise ShapeError(f"tuple input missing required field: {exc}") from exc
    if len(raw_ops) != d:
        raise ShapeError(f"expected {d} operators, found {len(raw_ops)}")
    mats = []
    for op in raw_ops:
        if len(op) != dim_h or any(len(row) != dim_h for row in op):
            raise ShapeError(f"each operator must be {dim_h} x {dim_h} row-major")
        mats.append(
            np.array([[_parse_entry(e) for e in row] for row in op], dtype=complex)
        )
    return load_tuple(mats)


def load_kernel_file(path, d: int) -> KernelSpec:
    """Kernel from a JSON array of a-coefficients."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, list) or not data:
        raise ValueError("kernel file must hold a non-empty JSON array")
    coeffs = []
    for x in data:
        if isinstance(x, str):
            coeffs.append(Fraction(x))
        elif isinstance(x, int):
            coeffs.append(Fraction(x))
        elif isinstance(x, float):
            coeffs.append(x)
        else:
            raise ValueError(f"kernel coefficient must be number or string: {x!r}")
    return from_coefficients(coeffs, d=d, name=f"custom:{Path(path).name}")


def kernel_from_args(name: str | None, kernel_file, d: int, horizon: int) -> KernelSpec:
    if kernel_file is not None:
        return load_kernel_file(kernel_file, d)
    return preset(name or "drury-arveson", d=d, N=horizon)


# -- deterministic serialization -------------------------------------------


def _f17(x: float) -> str:
    if x != x:  # NaN
        return '"nan"'
    if x in (float("inf"), float("-inf")):
        return f'"{x}"'
    return format(float(x), ".17g")


def to_jsonable(obj):
    """Recursively convert report objects to plain JSON-ready structures."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.complexfloating,)):
        return [float(obj.real), float(obj.imag)]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(key): to_jsonable(v) for key, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return str(obj)


def dumps_json17(obj, indent: int = 0) -> str:
    """Deterministic JSON with floats at 17 significant digits and sorted
    keys.  Hand-rolled because the stdlib encoder offers no float format
    hook."""
    data = to_jsonable(obj)

    def render(x, level: int) -> str:
        pad = " " * (indent * (level + 1)) if indent else ""
        pad_close = " " * (indent * level) if indent else ""
        nl = "\n" if indent else ""
        sep = "," + nl
        if x is None:
            return "null"
        if isinstance(x, bool):
            return "true" if x else "false"
        if isinstance(x, int):
            return str(x)
        if isinstance(x, float):
            return _f17(x)
        if isinstance(x, str):
            return json.dumps(x)
        if isinstance(x, dict):
            if not x:
                return "{}"
            items = [
                f"{pad}{json.dumps(str(key))}: {render(v, level + 1)}"
                for key, v in sorted(x.items())
            ]
            return "{" + nl + sep.join(items) + nl + pad_close + "}"
        if isinstance(x, (list, tuple)):
            if not x:
                return "[]"
            items = [f"{pad}{render(v, level + 1)}" for v in x]
            return "[" + nl + sep.join(items) + nl + pad_close + "]"
        return json.dumps(str(x))

    return render(data, 0)


def format_float17(x: float) -> str:
    return format(float(x), ".17g")
