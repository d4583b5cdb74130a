import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlim.errors import InfeasibleError, ParameterError
from graphlim.families import sign_sin_field
from graphlim.fields import (
    LabelModel,
    PartitionSpec,
    ThetaField,
    recovery_sequence,
    repair_mass,
    theta_from_labels,
    window_average,
)

from conftest import philox

spin = LabelModel.spin()


# ---------------------------------------------------------------------------
# label models


def test_spin_model_coupling():
    assert spin.n_labels == 2
    assert set(spin.labels) == {1.0, -1.0}
    off = spin.coupling[spin.index_of(1.0), spin.index_of(-1.0)]
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
    # the vectorised map names the first unknown entry, as index_of would
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
    assert np.array_equal(th.weights[:, spin.plus_index], np.ones(5))
    assert th.is_spin_valued()


def test_theta_from_alternating():
    u = np.array([1.0, -1.0, 1.0, -1.0])
    th = theta_from_labels(u, spin)
    assert np.array_equal(th.weights[:, spin.plus_index], [1, 0, 1, 0])


def test_mean_field_reproduces_spin():
    rng = philox(3)
    u = np.where(rng.random(17) < 0.5, 1.0, -1.0)
    th = theta_from_labels(u, spin)
    assert np.array_equal(2 * th.weights[:, spin.plus_index] - 1, u)


def test_label_round_trip():
    rng = philox(9)
    model = LabelModel.unit_cut((1.0, 2.0, 3.0))
    u = np.asarray([model.labels[int(rng.integers(3))] for _ in range(20)])
    assert np.array_equal(theta_from_labels(u, model).labels_of(model), u)
    assert model.indices(u).tolist() == [model.index_of(v) for v in u]


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_rows_stay_stochastic_through_operations(seed):
    rng = philox(seed)
    m = int(rng.integers(1, 12))
    raw = rng.random((m, 3)) + 1e-3
    th = ThetaField(raw / raw.sum(axis=1, keepdims=True))
    assert np.all(np.abs(th.weights.sum(axis=1) - 1.0) <= 1e-12)
    assert np.all(np.abs(th.mass().sum() - 1.0) <= 1e-12)


# ---------------------------------------------------------------------------
# recovery sequences


def test_recovery_half_half():
    th = ThetaField(np.array([[0.5, 0.5]]))
    rec = recovery_sequence(th, 4)
    assert (rec.label_indices() + 1).tolist() == [1, 2, 1, 2]
    assert rec.is_spin_valued()


def test_recovery_pure_label():
    th = ThetaField(np.array([[1.0, 0.0]]))
    rec = recovery_sequence(th, 4)
    assert (rec.label_indices() + 1).tolist() == [1, 1, 1, 1]


def test_recovery_thirds():
    th = ThetaField(np.array([[1 / 3, 2 / 3]]))
    rec = recovery_sequence(th, 6)
    assert (rec.label_indices() + 1).tolist() == [1, 2, 2, 1, 2, 2]


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
        rec = recovery_sequence(ThetaField.constant(row, m), n)
        means = window_average(rec, 1.0 / m)
        assert np.abs(means - np.asarray(row)).max() <= q / n + 1e-12


def test_recovery_mixed_denominators_per_cell():
    th = ThetaField(np.array([[0.5, 0.5], [1 / 3, 2 / 3]]))
    rec = recovery_sequence(th, 12)
    assert (rec.label_indices() + 1).tolist() == [1, 2, 1, 2, 1, 2, 1, 2, 2, 1, 2, 2]
    means = window_average(rec, 0.5)
    assert np.abs(means - th.weights).max() <= 1e-12


def test_recovery_periodic_windows_exact():
    rec = recovery_sequence(ThetaField(np.array([[0.5, 0.5]])), 16)
    means = window_average(rec, 0.25)
    assert np.abs(means - 0.5).max() == 0.0


# ---------------------------------------------------------------------------
# mass repair


def test_repair_noop_when_feasible():
    u = np.array([1.0, -1.0, 1.0, -1.0])
    th = theta_from_labels(u, spin)
    out = repair_mass(th, PartitionSpec.bisection())
    assert np.array_equal(out.weights, th.weights)


def test_repair_flips_lowest_surplus_index():
    u = np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    th = theta_from_labels(u, spin)
    out = repair_mass(th, PartitionSpec.bisection())
    changed = np.nonzero(out.labels_of(spin) != u)[0]
    assert changed.tolist() == [0]
    assert out.counts().tolist() == [4, 4]


def test_repair_all_ones():
    th = theta_from_labels(np.ones(8), spin)
    out = repair_mass(th, PartitionSpec.bisection())
    assert out.labels_of(spin).tolist() == [-1, -1, -1, -1, 1, 1, 1, 1]


def test_repair_minimality_and_idempotence():
    for seed in range(10):
        rng = philox(200 + seed)
        model = LabelModel.unit_cut((1.0, 2.0, 3.0))
        m = int(rng.integers(6, 20))
        u = np.asarray([model.labels[int(rng.integers(3))] for _ in range(m)])
        th = theta_from_labels(u, model)
        sizes = PartitionSpec((1 / 3, 1 / 3, 1 / 3)).sizes_for(m)
        spec = PartitionSpec((1 / 3, 1 / 3, 1 / 3), sizes=sizes)
        out = repair_mass(th, spec)
        assert out.counts().tolist() == list(sizes)
        expected_changes = sum(
            max(0, c - s) for c, s in zip(th.counts(), sizes)
        )
        assert int((out.label_indices() != th.label_indices()).sum()) == expected_changes
        again = repair_mass(out, spec)
        assert np.array_equal(again.weights, out.weights)


def test_repair_infeasible_sizes():
    th = theta_from_labels(np.ones(4), spin)
    with pytest.raises(InfeasibleError):
        repair_mass(th, PartitionSpec((0.5, 0.5), sizes=(3, 3)))


def test_sizes_for_largest_remainder():
    spec = PartitionSpec((0.45, 0.35, 0.2))
    # remainder tie between the first two labels goes to the lower index
    assert spec.sizes_for(10) == (5, 3, 2)
    assert spec.sizes_for(20) == (9, 7, 4)
    assert sum(spec.sizes_for(7)) == 7


# ---------------------------------------------------------------------------
# window averages


def test_window_average_constant_field():
    th = ThetaField.constant([0.3, 0.7], 12)
    means = window_average(th, 0.25)
    assert np.allclose(means, [0.3, 0.7], atol=0)


def test_window_average_rejects_misaligned_width():
    th = ThetaField.constant([0.5, 0.5], 10)
    with pytest.raises(ParameterError):
        window_average(th, 0.15)
    with pytest.raises(ParameterError):
        window_average(th, 0.3)


def test_sign_sin_window_bound():
    for n in (8, 16, 64):
        u = sign_sin_field(n, 64)
        means = window_average(u, 0.25)
        assert np.abs(means).max() <= 2 / (0.25 * n) + 1e-12


def test_checkerboard_indicator_weakly_converges_to_half():
    # indicator of the alternating stripe set: window means approach 1/2
    for n in (4, 8, 16):
        theta = np.tile([1.0, 0.0], n)
        means = window_average(theta, 0.5)
        assert np.abs(means - 0.5).max() <= 1.0 / n + 1e-12
