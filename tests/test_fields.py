import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlim.errors import ParameterError
from graphlim.fields import (
    LabelModel,
    ThetaField,
    recovery_sequence,
    theta_from_labels,
)

from conftest import philox

spin = LabelModel.spin()


def _spin_labels(theta):
    """1-based label of each cell of a field that must be 0/1-valued."""
    assert np.all((theta.weights == 0.0) | (theta.weights == 1.0))
    return (theta.weights.argmax(axis=1) + 1).tolist()


# ---------------------------------------------------------------------------
# label models


def test_spin_model_coupling():
    assert spin.n_labels == 2
    assert set(spin.labels) == {1.0, -1.0}
    plus, minus = spin.indices([1.0, -1.0])
    off = spin.coupling[plus, minus]
    assert off == 4.0
    assert spin.coupling[0, 0] == spin.coupling[1, 1] == 0.0


def test_label_model_validation():
    with pytest.raises(ParameterError):
        LabelModel((1.0, 1.0), np.zeros((2, 2)))
    with pytest.raises(ParameterError):
        LabelModel((1.0, 2.0), [[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ParameterError):
        LabelModel((1.0, 2.0), [[0.0, -1.0], [-1.0, 0.0]])


def test_unknown_label_rejected():
    with pytest.raises(ParameterError):
        theta_from_labels([1.0, 3.0], spin)
    # the vectorised map names the first unknown entry in C order
    with pytest.raises(ParameterError, match=r"unknown label .*3\.0"):
        spin.indices([[1.0, -1.0], [3.0, 5.0]])


# ---------------------------------------------------------------------------
# theta fields


def test_theta_rows_must_be_stochastic():
    with pytest.raises(ParameterError):
        ThetaField(np.array([[0.5, 0.4]]))
    with pytest.raises(ParameterError):
        ThetaField(np.array([[1.5, -0.5]]))


def test_theta_from_constant_plus():
    th = theta_from_labels(np.ones(5), spin)
    assert np.array_equal(th.weights[:, 0], np.ones(5))
    assert _spin_labels(th) == [1] * 5


def test_theta_from_alternating():
    u = np.array([1.0, -1.0, 1.0, -1.0])
    th = theta_from_labels(u, spin)
    assert np.array_equal(th.weights[:, 0], [1, 0, 1, 0])


def test_mean_field_reproduces_spin():
    rng = philox(3)
    u = np.where(rng.random(17) < 0.5, 1.0, -1.0)
    th = theta_from_labels(u, spin)
    assert np.array_equal(2 * th.weights[:, 0] - 1, u)


def test_label_round_trip():
    rng = philox(9)
    model = LabelModel.unit_cut((1.0, 2.0, 3.0))
    u = np.asarray([model.labels[int(rng.integers(3))] for _ in range(20)])
    weights = theta_from_labels(u, model).weights
    assert np.array_equal(np.asarray(model.labels)[weights.argmax(axis=1)], u)
    assert model.indices(u).tolist() == [model.labels.index(v) for v in u]


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_rows_stay_stochastic_through_operations(seed):
    rng = philox(seed)
    m = int(rng.integers(1, 12))
    raw = rng.random((m, 3)) + 1e-3
    th = ThetaField(raw / raw.sum(axis=1, keepdims=True))
    assert np.all(np.abs(th.weights.sum(axis=1) - 1.0) <= 1e-12)
    assert np.all(np.abs(th.weights.mean(axis=0).sum() - 1.0) <= 1e-12)


# ---------------------------------------------------------------------------
# recovery sequences


def test_recovery_half_half():
    th = ThetaField(np.array([[0.5, 0.5]]))
    rec = recovery_sequence(th, 4)
    assert _spin_labels(rec) == [1, 2, 1, 2]


def test_recovery_pure_label():
    th = ThetaField(np.array([[1.0, 0.0]]))
    rec = recovery_sequence(th, 4)
    assert _spin_labels(rec) == [1, 1, 1, 1]


def test_recovery_thirds():
    th = ThetaField(np.array([[1 / 3, 2 / 3]]))
    rec = recovery_sequence(th, 6)
    assert _spin_labels(rec) == [1, 2, 2, 1, 2, 2]


def test_recovery_rejects_indivisible_or_irrational():
    th = ThetaField(np.array([[0.5, 0.5]]))
    with pytest.raises(ParameterError):
        recovery_sequence(th, 3)
    golden = (np.sqrt(5) - 1) / 2
    bad = ThetaField(np.array([[golden, 1 - golden]]))
    with pytest.raises(ParameterError):
        recovery_sequence(bad, 64)


def test_recovery_window_fidelity():
    for seed in range(8):
        rng = philox(100 + seed)
        q = int(rng.choice([2, 3, 4, 6]))
        p = int(rng.integers(1, q))
        m = int(rng.choice([1, 2, 4]))
        row = [p / q, 1 - p / q]
        n = m * q * 2 ** int(rng.integers(1, 4))
        rec = recovery_sequence(ThetaField(np.tile(row, (m, 1))), n)
        means = rec.weights.reshape(m, -1, 2).mean(axis=1)
        assert np.abs(means - np.asarray(row)).max() <= q / n + 1e-12


def test_recovery_mixed_denominators_per_cell():
    th = ThetaField(np.array([[0.5, 0.5], [1 / 3, 2 / 3]]))
    rec = recovery_sequence(th, 12)
    assert _spin_labels(rec) == [1, 2, 1, 2, 1, 2, 1, 2, 2, 1, 2, 2]
    means = rec.weights.reshape(2, -1, 2).mean(axis=1)
    assert np.abs(means - th.weights).max() <= 1e-12


def test_recovery_periodic_windows_exact():
    rec = recovery_sequence(ThetaField(np.array([[0.5, 0.5]])), 16)
    means = rec.weights.reshape(4, -1, 2).mean(axis=1)
    assert np.abs(means - 0.5).max() == 0.0
