import numpy as np
import pytest

from graphlim.errors import InfeasibleError, ParameterError
from graphlim.families import complete, halfgraph
from graphlim.fields import LabelModel, ThetaField, theta_from_labels
from graphlim.functionals import (
    block_reduce,
    cell_averages,
    discrete_cut_energy,
    halfgraph_profile_energy,
    halfgraph_profiles,
    kkt_residual,
    limit_cut_energy,
    limit_energy_gradient,
    spin_energy_gradient,
)
from graphlim.graphons import (
    BlockDiagonalKernel,
    ConstantKernel,
    HalfGraphKernel,
    StepGraphon,
    step_from_graph,
)
from graphlim.solvers import project_box_mean

from conftest import philox, random_graph, random_step_graphon

spin = LabelModel.spin()


def optimal_halfgraph_field(m=12):
    """Plus on [0,1/6) and [1/2,5/6), minus elsewhere, on an aligned grid."""
    x = np.zeros(m)
    x[: m // 6] = 1.0
    x[m // 2 : 5 * m // 6] = 1.0
    return ThetaField(np.column_stack((x, 1.0 - x)))


# ---------------------------------------------------------------------------
# quadrature kernels


def test_cell_averages_step_alignment_error():
    w = StepGraphon([1 / 3, 2 / 3], np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ParameterError):
        cell_averages(w, 4)
    k = cell_averages(w, 6)
    assert k.matrix[0, 0] == 1.0 and k.matrix[0, 3] == 0.0


@pytest.mark.parametrize("m", [0, -2])
def test_grid_without_cells_rejected(m):
    for w in (StepGraphon([1.0], [[0.5]]), HalfGraphKernel()):
        with pytest.raises(ParameterError):
            cell_averages(w, m)
    with pytest.raises(ParameterError):
        HalfGraphKernel().step_on(m)


def test_cell_averages_halfgraph_exact():
    k = cell_averages(HalfGraphKernel(), 4)
    # cell pair ((0,.25),(0.5,.75)) straddles the band boundary: half covered
    assert k.matrix[0, 2] == pytest.approx(0.5, abs=1e-15)
    assert k.matrix[0, 3] == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(k.matrix, k.matrix.T)


# ---------------------------------------------------------------------------
# discrete energy


def test_discrete_energy_constant_labeling_is_zero():
    g = random_graph(1, 8)
    assert discrete_cut_energy(g, np.ones(8), spin) == 0.0


def test_discrete_energy_k4_balanced():
    g = complete(4).graph
    assert discrete_cut_energy(g, [1.0, 1.0, -1.0, -1.0], spin) == 2.0


def test_bisection_identity_factor_eight():
    for seed in range(25):
        rng = philox(500 + seed)
        n = int(rng.integers(2, 12))
        g = random_graph(900 + seed, n)
        u = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        plus = set(np.nonzero(u > 0)[0] + 1)
        cut_edges = sum(1 for i, j in g.edges if (i in plus) != (j in plus))
        assert discrete_cut_energy(g, u, spin) == 8.0 * cut_edges / n**2


def test_identification_discrete_equals_limit_exactly():
    models = [spin, LabelModel.unit_cut((1.0, 2.0, 3.0))]
    for seed in range(30):
        rng = philox(600 + seed)
        n = int(rng.integers(2, 11))
        g = random_graph(1200 + seed, n)
        model = models[seed % 2]
        u = np.asarray([model.labels[int(rng.integers(model.n_labels))] for _ in range(n)])
        lhs = discrete_cut_energy(g, u, model)
        rhs = limit_cut_energy(step_from_graph(g), theta_from_labels(u, model), model)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# continuum energy


def test_limit_energy_constant_kernel_balanced_spin():
    rng = philox(77)
    for _ in range(5):
        x = project_box_mean(rng.random(16), 0.5)
        th = ThetaField(np.column_stack((x, 1 - x)))
        val = limit_cut_energy(ConstantKernel(1.0), th, spin)
        assert val == pytest.approx(2.0, abs=1e-12)


def test_limit_energy_single_label_zero():
    th = theta_from_labels(np.ones(6), spin)
    assert limit_cut_energy(HalfGraphKernel(), th, spin) == 0.0


def test_limit_energy_halfgraph_optimal_partition():
    val = limit_cut_energy(HalfGraphKernel(), optimal_halfgraph_field(), spin)
    assert val == pytest.approx(1 / 3, abs=1e-9)


def test_halfgraph_partition_against_fine_grid_quadrature():
    # independent midpoint quadrature of the region integral
    n = 1200
    pts = (np.arange(n) + 0.5) / n
    theta = np.where((pts < 1 / 6) | ((pts >= 0.5) & (pts < 5 / 6)), 1.0, 0.0)
    total = 0.0
    for i, p in enumerate(pts):
        mask = (pts <= p - 0.5) | (pts >= p + 0.5)
        total += theta[i] * (1.0 - theta[mask]).sum()
    approx = 8.0 * total / n**2
    assert approx == pytest.approx(1 / 3, abs=5e-3)


def test_limit_energy_spin_reduction_formula():
    # two-label quadratic-difference coupling collapses to
    # 8/m^2 * sum_ab Wbar_ab x_a (1 - x_b)
    for seed in range(6):
        rng = philox(1400 + seed)
        m = int(rng.integers(2, 12))
        x = rng.random(m)
        th = ThetaField(np.column_stack((x, 1 - x)))
        base = random_step_graphon(seed, m)
        w = StepGraphon(np.full(m, 1.0 / m), base.values)
        kernel = cell_averages(w, m).matrix
        reduced = 8.0 / (m * m) * float(x @ kernel @ (1.0 - x))
        assert limit_cut_energy(w, th, spin) == pytest.approx(reduced, abs=1e-12)


def test_limit_energy_label_swap_symmetry():
    for seed in range(8):
        rng = philox(1500 + seed)
        m = int(rng.integers(2, 10))
        x = rng.random(m)
        th = ThetaField(np.column_stack((x, 1 - x)))
        sw = ThetaField(np.column_stack((1 - x, x)))
        base = random_step_graphon(seed, m)
        w = StepGraphon(np.full(m, 1.0 / m), base.values)
        a = limit_cut_energy(w, th, spin)
        b = limit_cut_energy(w, sw, spin)
        assert a == pytest.approx(b, abs=1e-12)


def test_limit_energy_nonnegative_and_zero_iff_no_interaction():
    lams = (0.5, 0.5)
    x = np.concatenate((np.ones(6), np.zeros(6)))
    th = ThetaField(np.column_stack((x, 1 - x)))
    val = limit_cut_energy(BlockDiagonalKernel(lams), th, spin)
    assert val == pytest.approx(0.0, abs=1e-12)
    for seed in range(6):
        rng = philox(1600 + seed)
        x = rng.random(12)
        th = ThetaField(np.column_stack((x, 1 - x)))
        assert limit_cut_energy(BlockDiagonalKernel(lams), th, spin) >= -1e-15


# ---------------------------------------------------------------------------
# gradients


def test_gradient_matches_central_differences():
    h = 1e-6
    for seed in range(20):
        rng = philox(1700 + seed)
        m = int(rng.integers(3, 9))
        nlab = int(rng.choice([2, 3]))
        model = spin if nlab == 2 else LabelModel.unit_cut((1.0, 2.0, 3.0))
        raw = rng.random((m, nlab))
        weights = raw / raw.sum(axis=1, keepdims=True)
        w = random_step_graphon(1800 + seed, m)
        w = StepGraphon(np.full(m, 1.0 / m), w.values)
        grad = limit_energy_gradient(w, weights, model)
        for _ in range(3):
            a = int(rng.integers(m))
            k = int(rng.integers(nlab))
            wp = weights.copy()
            wp[a, k] += h
            wm = weights.copy()
            wm[a, k] -= h
            fd = (limit_cut_energy(w, wp, model) - limit_cut_energy(w, wm, model)) / (2 * h)
            assert abs(fd - grad[a, k]) / max(1.0, abs(grad[a, k])) <= 1e-7


def test_spin_gradient_zero_at_half():
    th = ThetaField(np.full((10, 2), 0.5))
    g = spin_energy_gradient(HalfGraphKernel(), th)
    assert np.abs(g).max() == 0.0


def test_spin_gradient_at_zero_field_tracks_cell_degree():
    m = 12
    th = ThetaField(np.column_stack((np.zeros(m), np.ones(m))))
    g = spin_energy_gradient(HalfGraphKernel(), th)
    kernel = cell_averages(HalfGraphKernel(), m)
    degrees = kernel.matrix.mean(axis=1)
    assert np.allclose(g, 8.0 * degrees / m, atol=1e-15)
    # matches the tied central difference
    h = 1e-6
    for a in (0, 5, 11):
        xp = np.zeros(m)
        xp[a] += h
        xm = np.zeros(m)
        xm[a] -= h
        up = ThetaField.constant([0.0, 1.0], m).weights.copy()
        up[:, 0] = xp
        up[:, 1] = 1 - xp
        um = up.copy()
        um[:, 0] = xm
        um[:, 1] = 1 - xm
        fd = (
            limit_cut_energy(HalfGraphKernel(), up, spin)
            - limit_cut_energy(HalfGraphKernel(), um, spin)
        ) / (2 * h)
        assert abs(fd - g[a]) <= 1e-7 * max(1.0, abs(g[a]))


def test_spin_gradient_random_finite_difference():
    h = 1e-6
    for seed in range(5):
        rng = philox(3 + seed)
        m = 8
        x = rng.random(m)
        w = random_step_graphon(2300 + seed, 1)
        kernel = ConstantKernel(float(w.values[0, 0]))
        th = np.column_stack((x, 1 - x))
        g = spin_energy_gradient(kernel, th)
        a = int(rng.integers(m))
        xp = x.copy()
        xp[a] += h
        xm = x.copy()
        xm[a] -= h
        fd = (
            limit_cut_energy(kernel, np.column_stack((xp, 1 - xp)), spin)
            - limit_cut_energy(kernel, np.column_stack((xm, 1 - xm)), spin)
        ) / (2 * h)
        assert abs(fd - g[a]) / max(1.0, abs(g[a])) <= 1e-7


# ---------------------------------------------------------------------------
# stationarity diagnostics


def test_kkt_half_constant_field():
    th = ThetaField(np.full((12, 2), 0.5))
    rep = kkt_residual(HalfGraphKernel(), th)
    assert np.abs(rep.phi).max() == 0.0
    assert rep.residual == 0.0
    assert not rep.vacuous


def test_kkt_spin_optimum_is_vacuous():
    rep = kkt_residual(HalfGraphKernel(), optimal_halfgraph_field())
    assert rep.vacuous
    assert rep.residual == 0.0


def test_kkt_interior_nonconstant_has_positive_residual():
    m = 12
    x = (np.arange(m) + 0.5) / m
    th = ThetaField(np.column_stack((x, 1 - x)))
    rep = kkt_residual(HalfGraphKernel(), th)
    assert not rep.vacuous
    assert rep.residual > 0.0


# ---------------------------------------------------------------------------
# block reduction


def test_block_reduce_indicator_of_first_block():
    lams = (0.5, 0.5)
    x = np.concatenate((np.ones(6), np.zeros(6)))
    th = ThetaField(np.column_stack((x, 1 - x)))
    red = block_reduce(lams, th)
    assert np.allclose(red.masses, [0.5, 0.0], atol=1e-12)
    assert red.energy == pytest.approx(0.0, abs=1e-12)


def test_block_reduce_dumbbell_vertex_identities():
    lams = (0.45, 0.35, 0.2)

    def g_of(a1, a2):
        a = np.array([a1, a2, 0.5 - a1 - a2])
        return float((a * (np.array(lams) - a)).sum())

    g_a = g_of(0.5 - lams[2], 0.0)
    g_d = g_of(0.5 - lams[1], lams[1])
    assert g_a == pytest.approx(g_d, abs=1e-12)


def test_block_reduce_matches_limit_energy():
    lams = (0.45, 0.35, 0.2)
    m = 20
    for seed in range(5):
        rng = philox(2000 + seed)
        x = np.round(rng.random(m))
        th = ThetaField(np.column_stack((x, 1 - x)))
        red = block_reduce(lams, th)
        direct = limit_cut_energy(BlockDiagonalKernel(lams), th, spin)
        assert red.energy == pytest.approx(direct, abs=1e-12)


def test_block_reduce_example_value():
    lams = (0.45, 0.35, 0.2)
    m = 20
    # A = (0.45, 0, 0.05): all of block 1 (cells 0..8), one cell of block 3
    x = np.zeros(m)
    x[:9] = 1.0
    x[16] = 1.0
    th = ThetaField(np.column_stack((x, 1 - x)))
    red = block_reduce(lams, th)
    assert np.allclose(red.masses, [0.45, 0.0, 0.05], atol=1e-12)
    assert red.energy == pytest.approx(0.06, abs=1e-12)


def test_block_reduce_misalignment_error():
    th = ThetaField.constant([0.5, 0.5], 7)
    with pytest.raises(ParameterError):
        block_reduce((0.45, 0.35, 0.2), th)


# ---------------------------------------------------------------------------
# profile reformulation


def test_profile_integral_zero_field():
    from graphlim.functionals import profile_energy_integral

    zeros = np.zeros(7)
    assert profile_energy_integral(zeros, zeros) == pytest.approx(0.0, abs=1e-12)


def test_profile_energy_half_constant():
    th = ThetaField(np.full((12, 2), 0.5))
    w1, w2 = halfgraph_profiles(th)
    assert halfgraph_profile_energy(w1, w2) == pytest.approx(0.5, abs=1e-12)


def test_profile_energy_optimal_partition():
    th = optimal_halfgraph_field()
    w1, w2 = halfgraph_profiles(th)
    assert halfgraph_profile_energy(w1, w2) == pytest.approx(1 / 3, abs=1e-9)


def test_profile_energy_matches_limit_energy_on_random_fields():
    for seed in range(20):
        rng = philox(2100 + seed)
        m = 24
        x = project_box_mean(rng.random(m), 0.5)
        th = ThetaField(np.column_stack((x, 1 - x)))
        direct = limit_cut_energy(HalfGraphKernel(), th, spin)
        via_profiles = halfgraph_profile_energy(*halfgraph_profiles(th))
        assert direct == pytest.approx(via_profiles, abs=1e-9)


def test_profile_energy_boundary_violations():
    k = 4
    good = np.linspace(0, 0.25, k + 1)
    with pytest.raises(InfeasibleError):
        halfgraph_profile_energy(good + 0.1, good)  # does not start at 0
    short = np.linspace(0, 0.1, k + 1)
    with pytest.raises(InfeasibleError):
        halfgraph_profile_energy(good, short)  # endpoints sum to 0.35, not 1/2
    steep = np.linspace(0, 0.6, k + 1)
    fill = np.linspace(0, -0.1, k + 1)
    with pytest.raises(InfeasibleError):
        halfgraph_profile_energy(steep, fill)  # slopes leave [0,1]
