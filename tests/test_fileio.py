import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlim import fileio
from graphlim.errors import ParameterError
from graphlim.families import complete, halfgraph
from graphlim.fields import ThetaField
from graphlim.graphons import (
    BipartiteSplitKernel,
    BlockDiagonalKernel,
    CheckerboardKernel,
    ConstantKernel,
    HalfGraphKernel,
    StepGraphon,
    step_from_graph,
)

from conftest import philox


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_float_format_round_trips(x):
    assert float(fileio.format_float(x)) == x


def test_graph_round_trip(tmp_path):
    g = halfgraph(8).graph
    path = tmp_path / "g.json"
    fileio.write_graph(path, g)
    back = fileio.read_graph(path)
    assert back == g


def test_graph_file_is_valid_json_with_one_based_edges(tmp_path):
    g = complete(3).graph
    path = tmp_path / "g.json"
    fileio.write_graph(path, g)
    data = json.loads(path.read_text())
    assert data["n"] == 3
    assert sorted(map(tuple, data["edges"])) == [(1, 2), (1, 3), (2, 3)]


def test_step_graphon_round_trip(tmp_path):
    rng = philox(4)
    vals = rng.random((3, 3))
    vals = 0.5 * (vals + vals.T)
    w = StepGraphon([0.2, 0.3, 0.5], vals)
    path = tmp_path / "w.json"
    fileio.write_graphon(path, w)
    back = fileio.read_graphon(path)
    assert np.array_equal(back.widths, w.widths)
    assert np.array_equal(back.values, w.values)


@pytest.mark.parametrize(
    "kernel",
    [
        ConstantKernel(0.5),
        HalfGraphKernel(),
        BlockDiagonalKernel([0.45, 0.35, 0.2]),
        BipartiteSplitKernel(0.3),
        CheckerboardKernel(2),
    ],
)
def test_analytic_kernel_round_trip(tmp_path, kernel):
    path = tmp_path / "k.json"
    fileio.write_graphon(path, kernel)
    back = fileio.read_graphon(path)
    assert back.kind == kernel.kind
    for x, y in [(0.1, 0.9), (0.6, 0.2), (0.35, 0.35)]:
        assert back.value(x, y) == kernel.value(x, y)


def test_unknown_graphon_type_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"type": "mystery"}')
    with pytest.raises(ParameterError):
        fileio.read_graphon(path)


def test_malformed_graph_file_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"edges": [[1, 2]]}')  # missing node count
    with pytest.raises(ParameterError):
        fileio.read_graph(path)


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 3, "edges": [[1.5, 3]]}',
        '{"n": 3, "edges": [[true, 2]]}',
        '{"n": 3, "edges": [[1, 2, 3]]}',
        '{"n": 3, "edges": [[1]]}',
        '{"n": 3.5, "edges": [[1, 2]]}',
        '{"n": true, "edges": []}',
    ],
)
def test_graph_file_needs_integer_count_and_id_pairs(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ParameterError, match="malformed graph file"):
        fileio.read_graph(path)


def test_theta_round_trip_exact(tmp_path):
    rng = philox(9)
    raw = rng.random((6, 3))
    field = ThetaField(raw / raw.sum(axis=1, keepdims=True))
    path = tmp_path / "theta.json"
    fileio.write_text(path, fileio.dumps({"theta": field.weights}))
    back = fileio.read_theta(path)
    assert np.array_equal(back.weights, field.weights)


@pytest.mark.parametrize(
    "text",
    [
        '[[0.5, 0.5], [1.0, 0.0]]',  # rows without the object around them
        '{"weights": [[0.5, 0.5], [1.0, 0.0]]}',
        '{"theta": [[0.5, 0.5], [1.0]]}',  # a short row
        '{"theta": [[0.5, 0.5], [1.0, 0.0, 0.0]]}',  # a wide row
        '{"theta": [[], []]}',  # no label column
        '{"theta": [[true, false], [0.5, 0.5]]}',
        '{"theta": [["0.5", 0.5], [0.5, 0.5]]}',
        '{"theta": [[NaN, NaN], [0.5, 0.5]]}',
        '{"theta": [[Infinity, 0.0], [0.5, 0.5]]}',
        '{"theta": [0.5, 0.5]}',  # a row that is not a list
    ],
    ids=["not-object", "no-theta", "short", "wide", "empty", "true", "string", "nan",
         "infinity", "flat"],
)
def test_theta_rejects_malformed_files(tmp_path, text):
    path = tmp_path / "theta.json"
    path.write_text(text)
    with pytest.raises(ParameterError):
        fileio.read_theta(path)


def test_write_is_byte_deterministic(tmp_path):
    w = step_from_graph(halfgraph(6).graph)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    fileio.write_graphon(p1, w)
    fileio.write_graphon(p2, w)
    assert p1.read_bytes() == p2.read_bytes()
