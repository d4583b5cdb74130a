import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlim.errors import CapacityError, InfeasibleError, ParameterError
from graphlim.families import bipartite, block_family, complete, halfgraph
from graphlim.fields import LabelModel, PartitionSpec, ThetaField, theta_from_labels
from graphlim.functionals import discrete_cut_energy, limit_cut_energy
from graphlim.graphons import (
    BipartiteSplitKernel,
    BlockDiagonalKernel,
    ConstantKernel,
    HalfGraphKernel,
)
from graphlim.solvers import (
    block_vertex_minimum,
    brute_bisection,
    local_search_partition,
    minimize_limit_energy,
    project_box_mean,
    project_polytope,
    sharpen_plateau,
    swap_descent,
)

from conftest import philox, random_graph

spin = LabelModel.spin()


# ---------------------------------------------------------------------------
# exact bisection


def test_brute_bisection_k4():
    assert brute_bisection(complete(4).graph).value == 2.0


def test_brute_bisection_k22():
    assert brute_bisection(bipartite(0.5, 4).graph).value == 1.0


def test_brute_bisection_bridged_blocks():
    assert brute_bisection(block_family((0.5, 0.5), 4).graph).value == 0.5


def test_brute_bisection_value_reevaluates():
    g = random_graph(42, 10)
    rep = brute_bisection(g)
    assert rep.value == discrete_cut_energy(g, rep.labels, spin)


def test_brute_bisection_errors():
    with pytest.raises(ParameterError):
        brute_bisection(complete(5).graph)
    with pytest.raises(CapacityError):
        brute_bisection(complete(26).graph)


# ---------------------------------------------------------------------------
# swap descent


def test_swap_descent_leaves_optimum_unchanged():
    g = complete(4).graph
    rep = brute_bisection(g)
    labels, swaps = swap_descent(g, rep.labels, spin)
    assert swaps == 0
    assert np.array_equal(labels, rep.labels)


def test_swap_descent_preserves_counts_and_never_worsens():
    for seed in range(10):
        g = random_graph(100 + seed, 12)
        rng = philox(seed)
        u = np.asarray([1.0] * 6 + [-1.0] * 6)
        rng.shuffle(u)
        start_value = discrete_cut_energy(g, u, spin)
        labels, _ = swap_descent(g, u, spin)
        assert sorted(labels) == sorted(u)
        assert discrete_cut_energy(g, labels, spin) <= start_value + 1e-12


def test_local_search_complete_graph_always_optimal():
    for seed in (0, 3):
        rep = local_search_partition(
            complete(10).graph, PartitionSpec.bisection(), spin, seed=seed, restarts=2
        )
        assert rep.value == 2.0


def test_local_search_dominates_and_often_matches_brute():
    wins = 0
    for trial in range(50):
        rng = philox(9000 + trial)
        n = int(rng.choice([8, 10, 12, 14, 16]))
        p = 0.3 + 0.4 * rng.random()
        g = random_graph(12345 + trial, n, p)
        exact = brute_bisection(g).value
        local = local_search_partition(
            g, PartitionSpec.bisection(), spin, seed=trial, restarts=8
        ).value
        assert local >= exact - 1e-9
        if abs(local - exact) <= 1e-12:
            wins += 1
    assert wins >= 45  # at least 90 percent


def test_local_search_multiway_respects_sizes():
    model = LabelModel.unit_cut((1.0, 2.0, 3.0))
    g = random_graph(77, 9)
    spec = PartitionSpec((1 / 3, 1 / 3, 1 / 3))
    rep = local_search_partition(g, spec, model, seed=1, restarts=3)
    counts = {v: list(rep.labels).count(v) for v in model.labels}
    assert counts == {1.0: 3, 2.0: 3, 3.0: 3}


def test_local_search_bitwise_deterministic():
    g = random_graph(4242, 14)
    a = local_search_partition(g, PartitionSpec.bisection(), spin, seed=7, restarts=4)
    b = local_search_partition(g, PartitionSpec.bisection(), spin, seed=7, restarts=4)
    assert a == b


def test_local_search_infeasible_spec():
    with pytest.raises(InfeasibleError):
        local_search_partition(
            complete(4).graph,
            PartitionSpec((0.5, 0.5), sizes=(3, 3)),
            spin,
        )


# ---------------------------------------------------------------------------
# projections


def test_projection_feasibility_and_idempotence():
    for trial in range(100):
        rng = philox(40 + trial)
        m = int(rng.integers(2, 40))
        y = rng.normal(size=m) * 3
        mass = float(rng.random())
        x = project_box_mean(y, mass)
        assert abs(x.mean() - mass) <= 1e-12
        assert np.all(x >= -1e-15) and np.all(x <= 1 + 1e-15)
        assert np.abs(project_box_mean(x, mass) - x).max() <= 1e-12


def _bisection_box_mean(y, mean, lo, hi):
    # reference: 64 halvings of the shift bracket, below double resolution
    low, high = lo - float(y.max()), hi - float(y.min())
    for _ in range(64):
        mid = 0.5 * (low + high)
        if float(np.clip(y + mid, lo, hi).mean()) < mean:
            low = mid
        else:
            high = mid
    return np.clip(y + 0.5 * (low + high), lo, hi)


@st.composite
def box_mean_inputs(draw):
    m = draw(st.integers(1, 40))
    scale = 10.0 ** draw(st.integers(-3, 3))
    # a few fixed values make ties between entries common
    entry = st.floats(-1.0, 1.0) | st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
    y = scale * np.asarray(draw(st.lists(entry, min_size=m, max_size=m)))
    lo = draw(st.floats(-2.0, 1.0))
    hi = lo + draw(st.floats(0.0, 3.0))
    where = draw(st.sampled_from(["lo", "hi", "inside"]))
    mean = {"lo": lo, "hi": hi}.get(where)
    if mean is None:
        mean = min(lo + draw(st.floats(0.0, 1.0)) * (hi - lo), hi)
    return y, mean, lo, hi


@given(box_mean_inputs())
@settings(max_examples=300, deadline=None)
def test_projection_box_mean_properties(case):
    y, mean, lo, hi = case
    x = project_box_mean(y, mean, lo, hi)
    scale = max(1.0, float(np.abs(y).max()))
    assert np.all(x >= lo) and np.all(x <= hi)
    assert abs(x.mean() - mean) <= 1e-12
    assert np.abs(project_box_mean(x, mean, lo, hi) - x).max() <= 1e-12
    # KKT: one shift tau on the free coordinates; clipped ones sit past the box
    tol = 1e-12 * scale
    at_lo = x == lo
    at_hi = (x == hi) & ~at_lo  # a zero-width box counts every entry at lo
    free = ~(at_lo | at_hi)
    if free.any():
        shifts = (x - y)[free]
        tau_lo = tau_hi = float(np.median(shifts))
        assert np.abs(shifts - tau_lo).max() <= tol
    else:
        # any tau in [tau_lo, tau_hi] certifies the clipped coordinates
        tau_lo = hi - float(y[at_hi].min(initial=np.inf))
        tau_hi = lo - float(y[at_lo].max(initial=-np.inf))
        assert tau_lo <= tau_hi + tol
    assert np.all(y[at_lo] + tau_lo <= lo + tol)
    assert np.all(y[at_hi] + tau_hi >= hi - tol)
    reference = _bisection_box_mean(y, mean, lo, hi)
    assert np.abs(x - reference).max() <= 1e-9 * scale


def test_projection_polytope_feasibility():
    rng = philox(5)
    masses = np.array([0.2, 0.3, 0.5])
    x = project_polytope(rng.normal(size=(15, 3)), masses)
    assert np.abs(x.sum(axis=1) - 1.0).max() <= 1e-9
    assert np.abs(x.mean(axis=0) - masses).max() <= 1e-9
    assert x.min() >= -1e-9


# ---------------------------------------------------------------------------
# continuum minimization


def test_minimize_constant_kernel_value_two():
    for seed in (0, 3):
        rep = minimize_limit_energy(
            ConstantKernel(1.0), spin, (0.5, 0.5), 16, seed=seed, restarts=3
        )
        assert rep.value == pytest.approx(2.0, abs=1e-12)


def test_minimize_bipartite_half():
    rep = minimize_limit_energy(
        BipartiteSplitKernel(0.5), spin, (0.5, 0.5), 16, seed=0, restarts=8
    )
    assert rep.value == pytest.approx(1.0, abs=1e-6)
    group1 = rep.theta.weights[: 8, 0].sum() / 16
    assert group1 == pytest.approx(0.25, abs=1e-6)


def test_minimize_halfgraph_reaches_third():
    rep = minimize_limit_energy(
        HalfGraphKernel(), spin, (0.5, 0.5), 48, seed=0, restarts=20
    )
    assert rep.value <= 1 / 3 + 1e-3


def test_minimize_is_deterministic():
    kwargs = dict(masses=(0.5, 0.5), m=24, seed=3, restarts=5)
    a = minimize_limit_energy(HalfGraphKernel(), spin, **kwargs)
    b = minimize_limit_energy(HalfGraphKernel(), spin, **kwargs)
    assert a.value == b.value
    assert np.array_equal(a.theta.weights, b.theta.weights)
    assert a.iterations == b.iterations and a.residual == b.residual


def test_minimize_reports_feasible_fields():
    for method in ("pgd", "frank_wolfe"):
        rep = minimize_limit_energy(
            HalfGraphKernel(), spin, (0.5, 0.5), 24, method=method, seed=1, restarts=3
        )
        w = rep.theta.weights
        assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12
        assert abs(w[:, 0].mean() - 0.5) <= 1e-9
        assert rep.value == pytest.approx(
            limit_cut_energy(HalfGraphKernel(), rep.theta, spin), abs=1e-12
        )


def test_minimize_value_never_beats_vertex_oracle():
    for trial in range(5):
        rng = philox(300 + trial)
        nb = int(rng.integers(2, 5))
        raw = rng.random(nb) + 0.3
        snapped = np.round(raw / raw.sum() * 24).astype(int)
        while snapped.sum() != 24:
            snapped[0] += 1 if snapped.sum() < 24 else -1
        lams = tuple(snapped / 24)
        oracle = block_vertex_minimum(lams, 0.5).value
        rep = minimize_limit_energy(
            BlockDiagonalKernel(lams), spin, (0.5, 0.5), 24, seed=trial, restarts=10
        )
        assert rep.value >= oracle - 1e-9


def test_minimize_three_labels_both_methods():
    model = LabelModel.unit_cut((1.0, 2.0, 3.0))
    for method in ("pgd", "frank_wolfe"):
        rep = minimize_limit_energy(
            BlockDiagonalKernel((1 / 3, 1 / 3, 1 / 3)),
            model,
            (1 / 3, 1 / 3, 1 / 3),
            12,
            method=method,
            seed=1,
            restarts=2,
            max_iters=300,
        )
        w = rep.theta.weights
        assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-9
        assert np.abs(w.mean(axis=0) - 1 / 3).max() <= 1e-9
        assert rep.value == pytest.approx(0.0, abs=1e-6)


def test_minimize_rejects_bad_masses_and_method():
    with pytest.raises(InfeasibleError):
        minimize_limit_energy(ConstantKernel(1.0), spin, (0.7, 0.7), 8)
    with pytest.raises(ParameterError):
        minimize_limit_energy(ConstantKernel(1.0), spin, (0.5, 0.5), 8, method="anneal")
    with pytest.raises(ParameterError):
        minimize_limit_energy(ConstantKernel(1.0), spin, (0.5, 0.5), 8, restarts=0)


def test_pgd_monotone_descent_trace():
    from graphlim.solvers import _energy_n2, _grad_n2
    from graphlim.functionals import cell_averages

    kernel = cell_averages(HalfGraphKernel(), 24).matrix
    rng = philox(8)
    x = project_box_mean(rng.random(24), 0.5)
    energies = [_energy_n2(kernel, spin.coupling, x, 24)]
    step = 24 / (16.0 * np.abs(kernel).max())
    for _ in range(60):
        g = _grad_n2(kernel, spin.coupling, x, 24)
        x = project_box_mean(x - step * g, 0.5)
        energies.append(_energy_n2(kernel, spin.coupling, x, 24))
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


# ---------------------------------------------------------------------------
# vertex enumeration


def test_vertex_minimum_dumbbell():
    res = block_vertex_minimum((0.45, 0.35, 0.2), 0.5)
    assert res.value == pytest.approx(0.06, abs=1e-12)
    mins = sorted(tuple(np.round(v, 9)) for v in res.minimizers)
    assert mins == [(0.0, 0.35, 0.15), (0.45, 0.0, 0.05)]


def test_vertex_minimum_equal_halves_zero():
    assert block_vertex_minimum((0.5, 0.5), 0.5).value == 0.0


def test_vertex_minimum_thirds():
    res = block_vertex_minimum((1 / 3, 1 / 3, 1 / 3), 0.5)
    assert res.value == pytest.approx(2 / 9, abs=1e-12)
    best = res.minimizers[0]
    assert sorted(np.round(best, 9)) == pytest.approx([0.0, 1 / 6, 1 / 3], abs=1e-9)


def test_vertex_minimum_infeasible_mass():
    with pytest.raises(InfeasibleError):
        block_vertex_minimum((0.5, 0.5), 1.2)


def test_vertex_enumeration_matches_subset_sum_oracle():
    from fractions import Fraction
    import itertools

    for trial in range(50):
        rng = philox(50000 + trial)
        nlab = int(rng.integers(2, 9))
        denom = max(int(rng.choice([8, 10, 12, 16, 20])), nlab + 2)
        cuts = sorted(rng.choice(np.arange(1, denom), size=nlab - 1, replace=False).tolist())
        parts = np.diff([0] + cuts + [denom])
        fracs = [Fraction(int(p), denom) for p in parts]
        lams = [float(f) for f in fracs]
        value = block_vertex_minimum(lams, 0.5).value
        subset_hit = any(
            sum(combo) == Fraction(1, 2)
            for r in range(nlab + 1)
            for combo in itertools.combinations(fracs, r)
        )
        assert (value <= 1e-12) == subset_hit


# ---------------------------------------------------------------------------
# plateau sharpening


def _plateau_field():
    # plus on [0,1/6) and [1/2,2/3); half-valued on [1/6,1/3) and [2/3,5/6)
    x = np.zeros(12)
    x[0:2] = 1.0
    x[6:8] = 1.0
    x[2:4] = 0.5
    x[8:10] = 0.5
    return ThetaField(np.column_stack((x, 1 - x)))


def test_sharpen_noop_without_plateau():
    th = theta_from_labels(np.array([1.0, -1.0, 1.0, -1.0]), spin)
    res = sharpen_plateau(th)
    assert not res.changed
    assert np.array_equal(res.field.weights, th.weights)


def test_sharpen_strictly_improves_half_plateau():
    th = _plateau_field()
    before = limit_cut_energy(HalfGraphKernel(), th, spin)
    res = sharpen_plateau(th)
    after = limit_cut_energy(HalfGraphKernel(), res.field, spin)
    assert res.changed
    assert after < before - 1e-12
    assert res.field.is_spin_valued(tol=1e-12)


def test_sharpen_preserves_mass():
    th = _plateau_field()
    res = sharpen_plateau(th)
    assert np.abs(res.field.mass() - th.mass()).max() <= 1e-12


def test_sharpen_without_grid_refinement():
    # a three-cell run splits at 2/3 on the original grid
    x = np.zeros(12)
    x[9:12] = 1.0
    x[6:9] = 0.5
    x[0:3] = 0.5
    th = ThetaField(np.column_stack((x, 1 - x)))
    before = limit_cut_energy(HalfGraphKernel(), th, spin)
    res = sharpen_plateau(th)
    after = limit_cut_energy(HalfGraphKernel(), res.field, spin)
    assert res.field.m == 12
    assert after < before - 1e-12
    assert np.abs(res.field.mass() - th.mass()).max() <= 1e-12


def test_sharpen_rejects_unmirrored_plateau():
    x = np.zeros(12)
    x[2:4] = 0.5  # only in the first half
    x[6:] = 1.0
    th = ThetaField(np.column_stack((x, 1 - x)))
    with pytest.raises(ParameterError):
        sharpen_plateau(th)


def test_optimum_is_spin_after_one_sharpen_pass():
    for m in (24, 48):
        rep = minimize_limit_energy(
            HalfGraphKernel(), spin, (0.5, 0.5), m, seed=0, restarts=20
        )
        res = sharpen_plateau(rep.theta)
        w = res.field.weights
        assert np.minimum(np.abs(w), np.abs(w - 1)).max() <= 1e-3


# ---------------------------------------------------------------------------
# report serialization shape


def test_report_dict_fields():
    rep = brute_bisection(complete(4).graph)
    data = rep.to_dict()
    assert set(data) == {
        "value",
        "method",
        "seed",
        "restarts",
        "iterations",
        "residual",
        "labels",
    }
    rep2 = minimize_limit_energy(ConstantKernel(1.0), spin, (0.5, 0.5), 4)
    assert "theta" in rep2.to_dict()
