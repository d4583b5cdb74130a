"""File formats: graphs, graphons and theta fields as JSON.

All floats are serialized with 17 significant digits so every value
round-trips through parsing without precision loss.
"""
from __future__ import annotations

import itertools
import json
import math

import numpy as np

from .errors import ParameterError
from .fields import ThetaField
from .graphons import AnalyticGraphon, Graph, StepGraphon, analytic_from_kind


def format_float(x) -> str:
    return format(float(x), ".17g")


def _render(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_render(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, np.ndarray) and obj.dtype.kind in "iu":
        return json.dumps(obj.tolist())  # one C-level pass; ints need no float format
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_render(v) for v in obj) + "]"
    raise ParameterError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """JSON text with deterministic layout and 17-significant-digit floats."""
    return _render(obj) + "\n"


def write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_json(path, kind):
    """The JSON value of a file; text that is not JSON names the file and line."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"{kind} file {path} line {exc.lineno}: {exc.msg}") from exc


def graph_to_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": g.edges}


def graph_from_dict(data: dict) -> Graph:
    try:
        n, entries = data["n"], data["edges"]
        # numpy would read 1.5 as 1 and [true, 2] as integers: check the types
        if type(n) is not int or set(map(type, itertools.chain.from_iterable(entries))) - {int}:
            raise ValueError("the node count and node ids must be integers")
        edges = np.asarray(entries, dtype=np.intp).reshape(len(entries), 2)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"malformed graph file: {exc}") from exc
    return Graph.from_edges(n, edges)


def write_graph(path, g: Graph):
    write_text(path, dumps(graph_to_dict(g)))


def read_graph(path) -> Graph:
    return graph_from_dict(read_json(path, "graph"))


def graphon_to_dict(w) -> dict:
    if isinstance(w, StepGraphon):
        return {
            "type": "step",
            "widths": [float(v) for v in w.widths],
            "values": [[float(v) for v in row] for row in w.values],
        }
    if isinstance(w, AnalyticGraphon):
        return {"type": "analytic", "kind": w.kind, "params": w.params()}
    raise ParameterError(f"cannot serialize kernel of type {type(w).__name__}")


def _json_numbers(values) -> bool:
    # json reads true and false as bool, which float() and numpy take as 1 and
    # 0, and Infinity and NaN as floats
    values = list(values)
    return set(map(type, values)) <= {int, float} and all(map(math.isfinite, values))


def graphon_from_dict(data: dict):
    if not isinstance(data, dict):
        raise ParameterError("malformed graphon file: expected a JSON object")
    kind = data.get("type")
    try:
        if kind == "step":
            widths, values = data["widths"], data["values"]
            if not _json_numbers(itertools.chain(widths, *values)):
                raise TypeError("widths and values must be finite JSON numbers")
            return StepGraphon(np.asarray(widths), np.asarray(values))
        if kind == "analytic":
            name, params = data["kind"], data.get("params", {})
            lists = (v if type(v) is list else [v] for v in params.values())
            if not _json_numbers(itertools.chain.from_iterable(lists)):
                raise TypeError("params must be finite JSON numbers or lists of them")
            if name == "checkerboard" and type(params.get("n")) is not int:
                raise TypeError("checkerboard n must be an integer")
            return analytic_from_kind(name, params)
    # a missing key or param, params not an object, an int too large for a float
    except (AttributeError, KeyError, OverflowError, TypeError) as exc:
        raise ParameterError(f"malformed graphon file: {exc}") from exc
    raise ParameterError(f"unknown graphon file type {kind!r}")


def write_graphon(path, w):
    write_text(path, dumps(graphon_to_dict(w)))


def read_graphon(path):
    return graphon_from_dict(read_json(path, "graphon"))


def read_theta(path) -> ThetaField:
    """The `theta` rows of a JSON object, such as a solve-limit report."""
    data = read_json(path, "theta")
    if not isinstance(data, dict) or "theta" not in data:
        raise ParameterError("malformed theta file: expected a JSON object with a theta key")
    rows = data["theta"]
    try:
        if not _json_numbers(itertools.chain.from_iterable(rows)) or len(set(map(len, rows))) > 1:
            raise TypeError("theta must be equal-length rows of finite JSON numbers")
        weights = np.asarray(rows, dtype=float)
    # a row that is not a list, an int too large for a float
    except (OverflowError, TypeError) as exc:
        raise ParameterError(f"malformed theta file: {exc}") from exc
    return ThetaField(weights)
