import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlim.errors import ParameterError
from graphlim.families import complete, halfgraph
from graphlim.fields import LabelModel, ThetaField, theta_from_labels
from graphlim.functionals import (
    cell_averages,
    discrete_cut_energy,
    kkt_residual,
    limit_cut_energy,
    limit_energy_gradient,
)
from graphlim.graphons import (
    BlockDiagonalKernel,
    ConstantKernel,
    HalfGraphKernel,
    StepGraphon,
    StepKernel,
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
# cell averages


def _is_grid_step(k, m):
    return isinstance(k, StepGraphon) and k.block_count == m and k.equal_width()


def test_cell_averages_step_alignment_error():
    w = StepGraphon([1 / 3, 2 / 3], np.array([[1.0, 0.0], [0.0, 0.25]]))
    with pytest.raises(ParameterError):
        cell_averages(w, 4)
    k = cell_averages(w, 6)
    assert k.values[0, 0] == 1.0 and k.values[0, 3] == 0.0
    # the block lookup: each block's value spread over its 2 and 4 cells
    spread = np.repeat(np.repeat(w.values, [2, 4], axis=0), [2, 4], axis=1)
    assert _is_grid_step(k, 6) and k.values.tobytes() == spread.tobytes()
    # a step graphon on m equal cells is its own cell averages, on that grid
    # and when it is averaged again
    assert cell_averages(k, 6) is k
    grid = StepGraphon(np.full(5, 0.2), random_step_graphon(3, 5).values)
    assert cell_averages(grid, 5) is grid
    finer = cell_averages(grid, 10)
    assert finer.values.tobytes() == np.repeat(np.repeat(grid.values, 2, 0), 2, 1).tobytes()


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
    assert k.values[0, 2] == pytest.approx(0.5, abs=1e-15)
    assert k.values[0, 3] == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(k.values, k.values.T)
    assert _is_grid_step(k, 4)
    assert k.values.tobytes() == HalfGraphKernel().step_on(4).values.tobytes()


@pytest.mark.parametrize(
    "w, m",
    [
        (HalfGraphKernel(), 7),
        (BlockDiagonalKernel([0.5, 0.25, 0.25]), 8),
        (StepGraphon([0.25, 0.75], [[0.0, 1.0], [1.0, 0.5]]), 8),
        (StepGraphon(np.full(6, 1 / 6), random_step_graphon(11, 6, signed=True).values), 6),
    ],
)
def test_cell_averages_stand_in_for_their_kernel(w, m):
    # energies, gradients and the KKT report read only the cell averages
    k = cell_averages(w, m)
    assert _is_grid_step(k, m)
    rng = philox(m)
    three = LabelModel([0, 1, 2], [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    raw = rng.random((3, m, 3))
    fields = [(raw / raw.sum(axis=2, keepdims=True), three)]
    x = rng.random((3, m))
    fields.append((np.stack((x, 1.0 - x), axis=-1), spin))
    for theta, model in fields:
        for f in (limit_cut_energy, limit_energy_gradient):
            assert np.asarray(f(w, theta, model)).tobytes() == np.asarray(
                f(k, theta, model)
            ).tobytes()
    for row in x:
        th = ThetaField(np.column_stack((row, 1.0 - row)))
        a, b = kkt_residual(w, th), kkt_residual(k, th)
        assert a.phi.tobytes() == b.phi.tobytes()
        assert (a.multiplier, a.residual, a.vacuous) == (b.multiplier, b.residual, b.vacuous)


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


@pytest.mark.parametrize("evaluate", [limit_cut_energy, limit_energy_gradient])
def test_energy_and_gradient_reject_a_label_count_mismatch(evaluate):
    # a two-label field under a three-label model: the shared check names the
    # mismatch before any matrix product
    with pytest.raises(ParameterError, match="disagree on the number of labels"):
        evaluate(HalfGraphKernel(), np.full((4, 2), 0.5), LabelModel.unit_cut((1.0, 2.0, 3.0)))


def test_limit_energy_halfgraph_optimal_partition():
    val = limit_cut_energy(HalfGraphKernel(), optimal_halfgraph_field(), spin)
    assert val == pytest.approx(1 / 3, abs=1e-9)


def test_profile_energy_half_constant():
    # the half-constant field pays 8 * 1/4 * (integral of W) = 2 * 1/4
    th = ThetaField(np.full((12, 2), 0.5))
    assert limit_cut_energy(HalfGraphKernel(), th, spin) == pytest.approx(0.5, abs=1e-12)


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
        kernel = cell_averages(w, m).values
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


def _spin_gradient(w, theta):
    # moving the plus weight moves the minus weight against it
    grad = limit_energy_gradient(w, theta, spin)
    return grad[..., 0] - grad[..., 1]


def test_spin_gradient_zero_at_half():
    th = ThetaField(np.full((10, 2), 0.5))
    g = _spin_gradient(HalfGraphKernel(), th)
    assert np.abs(g).max() == 0.0


def test_spin_gradient_at_zero_field_tracks_cell_degree():
    m = 12
    th = ThetaField(np.column_stack((np.zeros(m), np.ones(m))))
    g = _spin_gradient(HalfGraphKernel(), th)
    kernel = cell_averages(HalfGraphKernel(), m)
    degrees = kernel.values.mean(axis=1)
    assert np.allclose(g, 8.0 * degrees / m, atol=1e-15)
    # matches the tied central difference
    h = 1e-6
    for a in (0, 5, 11):
        xp = np.zeros(m)
        xp[a] += h
        xm = np.zeros(m)
        xm[a] -= h
        up = np.tile([0.0, 1.0], (m, 1))
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
        g = _spin_gradient(kernel, th)
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


@pytest.mark.parametrize(
    "diagnostic", [lambda th: kkt_residual(HalfGraphKernel(), th)], ids=["kkt"]
)
def test_spin_diagnostics_reject_three_label_fields(diagnostic):
    th = ThetaField(np.tile([0.5, 0.25, 0.25], (12, 1)))
    with pytest.raises(ParameterError, match="two-label"):
        diagnostic(th)


# ---------------------------------------------------------------------------
# block reduction


def _block_masses(lams, x):
    # plus mass of each block of a field on a grid that refines the blocks
    m = x.size
    starts = np.round(np.concatenate(([0.0], np.cumsum(lams)[:-1])) * m).astype(int)
    return np.add.reduceat(x, starts) / m


def test_block_reduce_indicator_of_first_block():
    lams = (0.45, 0.35, 0.2)
    # plus on whole blocks only: block 2 alone, then blocks 1 and 3
    for plus in (range(9, 16), list(range(9)) + list(range(16, 20))):
        x = np.zeros(20)
        x[list(plus)] = 1.0
        th = ThetaField(np.column_stack((x, 1 - x)))
        a = _block_masses(lams, x)
        assert np.allclose(a * (np.array(lams) - a), 0.0, atol=1e-12)
        val = limit_cut_energy(BlockDiagonalKernel(lams), th, spin)
        assert val == pytest.approx(0.0, abs=1e-12)


def test_block_reduce_matches_limit_energy():
    # on a block-diagonal kernel the spin energy is 8 sum_i a_i (lambda_i - a_i)
    lams = (0.45, 0.35, 0.2)
    m = 20
    for seed in range(5):
        rng = philox(2000 + seed)
        x = np.round(rng.random(m))
        th = ThetaField(np.column_stack((x, 1 - x)))
        a = _block_masses(lams, x)
        reduced = 8.0 * float((a * (np.array(lams) - a)).sum())
        direct = limit_cut_energy(BlockDiagonalKernel(lams), th, spin)
        assert reduced == pytest.approx(direct, abs=1e-12)


def test_block_reduce_example_value():
    lams = (0.45, 0.35, 0.2)
    m = 20
    # A = (0.45, 0, 0.05): all of block 1 (cells 0..8), one cell of block 3
    x = np.zeros(m)
    x[:9] = 1.0
    x[16] = 1.0
    th = ThetaField(np.column_stack((x, 1 - x)))
    assert np.allclose(_block_masses(lams, x), [0.45, 0.0, 0.05], atol=1e-12)
    val = limit_cut_energy(BlockDiagonalKernel(lams), th, spin)
    assert val == pytest.approx(0.06, abs=1e-12)


def test_block_reduce_dumbbell_vertex_identities():
    lams = (0.45, 0.35, 0.2)

    def g_of(a1, a2):
        a = np.array([a1, a2, 0.5 - a1 - a2])
        return float((a * (np.array(lams) - a)).sum())

    g_a = g_of(0.5 - lams[2], 0.0)
    g_d = g_of(0.5 - lams[1], lams[1])
    assert g_a == pytest.approx(g_d, abs=1e-12)


# ---------------------------------------------------------------------------
# the grid rule: one test of "these blocks sit on the m-cell grid"


@st.composite
def near_grid_partitions(draw):
    """(m, boundaries, offsets): 1-5 blocks, each inner boundary k/m + delta."""
    m = draw(st.integers(1, 40))
    cuts = sorted(draw(st.sets(st.integers(1, m - 1), max_size=4))) if m > 1 else []
    offsets = [
        draw(st.sampled_from((0.0, 0.3e-9 / m, -0.3e-9 / m, 5e-10, -5e-10, 3e-9, -3e-9)))
        for _ in cuts
    ]
    inner = [k / m + d for k, d in zip(cuts, offsets)]
    return m, np.asarray([0.0, *inner, 1.0]), offsets


def _accepts(call):
    try:
        call()
    except ParameterError:
        return False
    return True


@given(near_grid_partitions())
@settings(max_examples=300, deadline=None)
def test_grid_rule_shared_by_cell_averages_kernels_and_block_reduce(case):
    m, boundaries, offsets = case
    widths = np.diff(boundaries)
    values = np.eye(widths.size)
    step = StepGraphon(widths, values)
    on_grid = StepKernel(boundaries, values).is_step_on(m)
    assert step.is_step_on(m) == on_grid
    assert _accepts(lambda: cell_averages(step, m)) == on_grid
    # away from the rule's own edge the answer is known: |delta| m <= 1e-9
    scaled = [abs(d) * m for d in offsets]
    if all(s < 0.5e-9 for s in scaled):
        assert on_grid
    if any(s > 1.5e-9 for s in scaled):
        assert not on_grid


def test_analytic_kernels_sit_on_no_grid():
    for m in (1, 2, 12):
        assert not HalfGraphKernel().is_step_on(m)
    assert ConstantKernel(0.5).is_step_on(7)
    assert BlockDiagonalKernel((0.45, 0.35, 0.2)).is_step_on(20)
    assert not BlockDiagonalKernel((0.45, 0.35, 0.2)).is_step_on(10)
