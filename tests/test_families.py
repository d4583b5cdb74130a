import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphlim.errors import ParameterError
from graphlim.experiments import family_bisection, family_instance, labeled_gap
from graphlim.families import (
    _FLOOR_GUARD,
    _block_bounds,
    bipartite,
    block_bisection,
    block_family,
    checkerboard,
    complete,
    halfgraph,
    halfgraph_bisection,
    w_random,
)
from graphlim.fields import LabelModel
from graphlim.functionals import discrete_cut_energy
from graphlim.solvers import brute_bisection
from graphlim.graphons import (
    BipartiteSplitKernel,
    BlockDiagonalKernel,
    CheckerboardKernel,
    ConstantKernel,
    Graph,
    HalfGraphKernel,
    StepGraphon,
    cut_norm,
)

from conftest import random_step_graphon


# ---------------------------------------------------------------------------
# generators and exact edge counts


def test_complete_counts():
    assert complete(4).graph.edge_count == 6
    assert complete(2).graph.edges.tolist() == [[1, 2]]


@given(st.integers(1, 30))
@settings(max_examples=25, deadline=None)
def test_complete_edge_count_closed_form(n):
    assert complete(n).graph.edge_count == n * (n - 1) // 2


def test_block_family_two_halves_n4():
    g = block_family((0.5, 0.5), 4).graph
    assert g.edges.tolist() == [[1, 2], [2, 3], [3, 4]]


def test_block_family_single_block_is_complete():
    g = block_family((1.0,), 5).graph
    assert g.edge_count == 10


def test_block_family_floor_bounds():
    bounds = _block_bounds((0.45, 0.35, 0.2), 10)
    assert bounds == [0, 4, 8, 10]
    # block k is a clique on the 1-based nodes bounds[k] + 1 .. bounds[k + 1]
    a = block_family((0.45, 0.35, 0.2), 10).graph.adjacency()
    for lo, hi in zip(bounds, bounds[1:]):
        assert a[lo:hi, lo:hi].sum() == (hi - lo) * (hi - lo - 1)


def test_block_family_empty_block_rejected():
    with pytest.raises(ParameterError):
        block_family((0.05, 0.95), 5)


def test_block_family_edge_count_closed_form():
    # complete blocks plus one bridge per adjacent pair
    g = block_family((0.45, 0.35, 0.2), 20).graph
    bounds = _block_bounds((0.45, 0.35, 0.2), 20)
    sizes = [b - a for a, b in zip(bounds, bounds[1:])]
    assert sizes == [9, 7, 4]
    expected = sum(s * (s - 1) // 2 for s in sizes) + 2
    assert g.edge_count == expected


def test_bipartite_counts():
    assert bipartite(0.5, 4).graph.edge_count == 4
    assert bipartite(0.5, 12).graph.edge_count == 36
    assert bipartite(0.3, 10).graph.edge_count == 21


def test_bipartite_degenerate_groups_rejected():
    with pytest.raises(ParameterError):
        bipartite(0.05, 4)
    with pytest.raises(ParameterError):
        bipartite(1.2, 10)


def test_halfgraph_counts():
    assert halfgraph(4).graph.edges.tolist() == [[1, 3], [1, 4], [2, 4]]
    for n in (2, 4, 8, 16):
        k = n // 2
        assert halfgraph(n).graph.edge_count == k * (k + 1) // 2
    with pytest.raises(ParameterError):
        halfgraph(5)


def test_generated_graphs_are_simple():
    for inst in (complete(7), bipartite(0.4, 9), halfgraph(10), block_family((0.5, 0.5), 6)):
        g = inst.graph
        for i, j in g.edges:
            assert 1 <= i < j <= g.n


# ---------------------------------------------------------------------------
# exact balanced bisections


def _routine_value(family, n, gamma=0.5, lambdas=()):
    """The routine's labeling, checked balanced, and brute force's value."""
    graph = family_instance(family, n, gamma, lambdas).graph
    labels = family_bisection(family, n, gamma, lambdas)
    assert labels.shape == (n,) and set(labels) <= {-1.0, 1.0} and labels.sum() == 0
    return discrete_cut_energy(graph, labels, LabelModel.spin()), brute_bisection(graph).value


@given(
    st.integers(1, 10).map(lambda k: 2 * k),
    st.floats(0.01, 0.99),
    st.lists(st.floats(1e-3, 1.0 - 1e-3), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_family_bisections_equal_brute_force(n, gamma, uniforms):
    # Dirichlet(1, ..., 1) fractions from uniforms, every block nonempty at n
    weights = -np.log(uniforms)
    lambdas = tuple(weights / weights.sum())
    bounds = _block_bounds(lambdas, n)
    assume(all(hi > lo for lo, hi in zip(bounds, bounds[1:])))
    assume(1 <= np.floor(n * gamma + _FLOOR_GUARD) <= n - 1)
    for family in ("complete", "blocks", "bipartite", "halfgraph"):
        value, brute = _routine_value(family, n, gamma, lambdas)
        assert value == brute, family


@pytest.mark.parametrize(
    "family, gamma, lambdas, expected",
    [
        ("complete", 0.5, (), 2.0),
        ("blocks", 0.5, (0.3, 0.3, 0.4), 0.12244897959183673),
        ("bipartite", 0.3, (), 0.81632653061224492),
        ("halfgraph", 0.5, (), 5 / 14),
    ],
)
def test_family_bisections_at_the_brute_force_cap(family, gamma, lambdas, expected):
    value, brute = _routine_value(family, 28, gamma, lambdas)
    assert value == brute == expected


def _cut_edges(graph, labels):
    i, j = graph.edges.T - 1
    return int(np.count_nonzero(labels[i] != labels[j]))


def test_halfgraph_bisection_matches_the_checked_pattern():
    # ceil(n(n+2)/24) is a pattern checked over this range, not a proven formula
    for n in range(2, 301, 2):
        labels = halfgraph_bisection(n)
        assert labels.sum() == 0
        assert _cut_edges(halfgraph(n).graph, labels) == -(-n * (n + 2) // 24), n


@pytest.mark.parametrize(
    "lambdas, n, expected",
    [((0.3, 0.3, 0.4), 48, 0.1388888888888889), ((0.45, 0.35, 0.2), 140, 0.060408163265306125)],
)
def test_block_bisection_above_the_brute_force_cap(lambdas, n, expected):
    labels = block_bisection(lambdas, n)
    graph = block_family(lambdas, n).graph
    assert labels.sum() == 0
    assert discrete_cut_energy(graph, labels, LabelModel.spin()) == expected


def test_bisections_reject_an_odd_n():
    for family in ("complete", "blocks", "bipartite", "halfgraph"):
        with pytest.raises(ParameterError):
            family_bisection(family, 9, 0.5, (0.5, 0.5))


# ---------------------------------------------------------------------------
# checkerboard


def test_checkerboard_order_one():
    cb = checkerboard(1)
    assert np.array_equal(cb.values, [[0.0, 1.0], [1.0, 0.0]])


def test_checkerboard_total_mass_half():
    for n in (1, 2, 3, 5):
        cb = checkerboard(n)
        assert cb.rect_integral(0, 1, 0, 1) == pytest.approx(0.5, abs=1e-12)


def test_checkerboard_stays_far_from_half_in_cut_norm():
    for n in (1, 2, 3):
        assert cut_norm(checkerboard(n) - 0.5).value >= 0.125 - 1e-12


# ---------------------------------------------------------------------------
# sampled graphs


def test_w_random_constant_extremes():
    assert w_random(ConstantKernel(1.0), 7, seed=3).edge_count == 21
    assert w_random(ConstantKernel(0.0), 7, seed=3).edge_count == 0


def test_w_random_density_concentrates():
    g = w_random(ConstantKernel(0.5), 2000, seed=0)
    density = g.edge_count / (2000 * 1999 / 2)
    assert abs(density - 0.5) < 0.02


def test_w_random_deterministic_per_seed():
    a = w_random(ConstantKernel(0.4), 40, seed=11)
    b = w_random(ConstantKernel(0.4), 40, seed=11)
    c = w_random(ConstantKernel(0.4), 40, seed=12)
    assert a == b
    assert a != c


def test_w_random_rejects_signed_kernel():
    signed = StepGraphon([0.5, 0.5], [[-0.2, 0.5], [0.5, -0.2]])
    with pytest.raises(ParameterError):
        w_random(signed, 5, seed=0)


def _w_random_pair_loop(w, n, seed):
    # reference: one scalar value call per node pair, in the order of the draws
    rng = np.random.Generator(np.random.Philox(seed))
    xs = rng.random(n)
    draws = rng.random(n * (n - 1) // 2)
    edges = []
    pos = 0
    for i in range(n):
        for j in range(i + 1, n):
            if draws[pos] < w.value(xs[i], xs[j]):
                edges.append((i + 1, j + 1))
            pos += 1
    return Graph.from_edges(n, edges)


@pytest.mark.parametrize(
    "kernel",
    [
        ConstantKernel(0.37),
        HalfGraphKernel(),
        BlockDiagonalKernel([0.45, 0.35, 0.2]),
        BipartiteSplitKernel(0.3),
        CheckerboardKernel(3),
        random_step_graphon(17, 5),
    ],
)
def test_w_random_matches_pair_loop(kernel):
    cases = [(n, seed) for n in (1, 2, 3, 16, 61) for seed in (0, 1, 2)] + [(300, 5)]
    for n, seed in cases:
        assert w_random(kernel, n, seed) == _w_random_pair_loop(kernel, n, seed)


# ---------------------------------------------------------------------------
# labeled cut-norm convergence toward the limit kernel


FAMILIES = {
    "complete": lambda n: complete(n),
    "blocks": lambda n: block_family((0.45, 0.35, 0.2), n),
    "bipartite": lambda n: bipartite(0.5, n),
    "halfgraph": lambda n: halfgraph(n),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_labeled_convergence_bound_and_monotone(name):
    gaps = []
    for n in (8, 16, 32, 64):
        inst = FAMILIES[name](n)
        value, _ = labeled_gap(inst.graph, inst.limit, restarts=16, seed=n)
        assert value <= 2.0 / n + 1e-12
        gaps.append(value)
    assert all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_dense_sequence_ratio_bounded(name):
    for n in (8, 16, 32, 64):
        g = FAMILIES[name](n).graph
        assert n * n / g.edge_count <= 16.0


def test_exactness_flag_complete_vs_halfgraph():
    inst = complete(8)
    _, exact = labeled_gap(inst.graph, inst.limit, restarts=4, seed=0)
    assert exact
    inst = halfgraph(8)
    _, exact = labeled_gap(inst.graph, inst.limit, restarts=4, seed=0)
    assert not exact
