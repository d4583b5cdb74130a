import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlim.errors import CapacityError, ParameterError
from graphlim.families import complete, halfgraph
from graphlim.graphons import (
    BipartiteSplitKernel,
    BlockDiagonalKernel,
    CheckerboardKernel,
    ConstantKernel,
    Graph,
    HalfGraphKernel,
    StepGraphon,
    cut_distance_blocks,
    cut_norm,
    cut_norm_forms,
    degree,
    hom_density_graph,
    hom_density_graphon,
    motif_edge,
    motif_path3,
    motif_triangle,
    step_from_graph,
)

from conftest import philox, random_graph, random_step_graphon


# ---------------------------------------------------------------------------
# construction and validation


def test_step_graphon_rejects_bad_widths():
    with pytest.raises(ParameterError):
        StepGraphon([0.5, 0.6], np.zeros((2, 2)))
    with pytest.raises(ParameterError):
        StepGraphon([0.5, -0.5, 1.0], np.zeros((3, 3)))


def test_step_graphon_rejects_asymmetric_values():
    with pytest.raises(ParameterError):
        StepGraphon([0.5, 0.5], [[0.0, 1.0], [0.5, 0.0]])


def test_w0_constructor_enforces_range():
    with pytest.raises(ParameterError):
        StepGraphon.w0([1.0], [[-0.5]])
    StepGraphon.w0([1.0], [[0.5]])


def test_graph_rejects_loops_and_out_of_range():
    with pytest.raises(ParameterError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ParameterError):
        Graph.from_edges(3, [(1, 4)])


def test_from_graph_k2():
    w = step_from_graph(complete(2).graph)
    assert np.array_equal(w.widths, [0.5, 0.5])
    assert np.array_equal(w.values, [[0.0, 1.0], [1.0, 0.0]])


def test_from_graph_empty_three_nodes():
    w = step_from_graph(Graph.from_edges(3, []))
    assert np.array_equal(w.values, np.zeros((3, 3)))


def test_from_graph_path():
    w = step_from_graph(Graph.from_edges(3, [(1, 2), (2, 3)]))
    assert np.array_equal(w.values, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


# ---------------------------------------------------------------------------
# degree


def test_degree_constant_full():
    assert degree(ConstantKernel(1.0), 0.7) == 1.0


def test_degree_halfgraph_quarter():
    assert degree(HalfGraphKernel(), 0.25) == pytest.approx(0.25, abs=1e-12)


def test_degree_k2_step():
    w = step_from_graph(complete(2).graph)
    assert degree(w, 0.25) == pytest.approx(0.5, abs=1e-12)


def test_degree_rejects_outside_unit_interval():
    with pytest.raises(ParameterError):
        degree(ConstantKernel(1.0), 1.5)


@given(st.integers(0, 10**6), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_pointwise_symmetry(seed, x, y):
    kernels = [
        random_step_graphon(seed, 1 + seed % 5),
        HalfGraphKernel(),
        BipartiteSplitKernel(0.3),
        BlockDiagonalKernel([0.45, 0.35, 0.2]),
        CheckerboardKernel(2),
        ConstantKernel(0.6),
    ]
    for w in kernels:
        assert w.value(x, y) == w.value(y, x)


# ---------------------------------------------------------------------------
# exact rectangle integrals of the closed-form kernels


def test_total_masses_are_exact():
    assert HalfGraphKernel().rect_integral(0, 1, 0, 1) == pytest.approx(0.25, abs=1e-15)
    assert BipartiteSplitKernel(0.3).rect_integral(0, 1, 0, 1) == pytest.approx(
        2 * 0.3 * 0.7, abs=1e-12
    )
    lams = [0.45, 0.35, 0.2]
    assert BlockDiagonalKernel(lams).rect_integral(0, 1, 0, 1) == pytest.approx(
        sum(v * v for v in lams), abs=1e-12
    )
    for n in (1, 2, 5):
        assert CheckerboardKernel(n).rect_integral(0, 1, 0, 1) == pytest.approx(
            0.5, abs=1e-12
        )


@pytest.mark.parametrize(
    "kernel",
    [
        HalfGraphKernel(),
        BipartiteSplitKernel(0.37),
        BlockDiagonalKernel([0.5, 0.3, 0.2]),
        CheckerboardKernel(3),
    ],
)
def test_rect_integral_matches_midpoint_refinement(kernel):
    rng = philox(11)
    for _ in range(4):
        x0, y0 = rng.random(2) * 0.6
        x1 = x0 + 0.05 + rng.random() * (1 - x0 - 0.05)
        y1 = y0 + 0.05 + rng.random() * (1 - y0 - 0.05)
        exact = kernel.rect_integral(x0, x1, y0, y1)
        n = 400
        xs = x0 + (np.arange(n) + 0.5) / n * (x1 - x0)
        ys = y0 + (np.arange(n) + 0.5) / n * (y1 - y0)
        approx = sum(
            kernel.slice_integral(x, y0, y1) for x in xs
        ) * (x1 - x0) / n
        assert exact == pytest.approx(approx, abs=5e-3)
        grid = np.asarray([[kernel.value(x, y) for y in ys] for x in xs])
        approx2 = grid.mean() * (x1 - x0) * (y1 - y0)
        assert exact == pytest.approx(approx2, abs=5e-3)


def test_slice_integral_consistent_with_degree():
    w = HalfGraphKernel()
    assert degree(w, 0.8) == pytest.approx(0.3, abs=1e-12)
    assert degree(BipartiteSplitKernel(0.3), 0.1) == pytest.approx(0.7, abs=1e-12)


# ---------------------------------------------------------------------------
# cut norm


def test_cut_norm_constant_one():
    res = cut_norm(StepGraphon([1.0], [[1.0]]))
    assert res.value == 1.0
    assert res.s.tolist() == [1.0] and res.t.tolist() == [1.0]


def test_cut_norm_k2_half():
    res = cut_norm(step_from_graph(complete(2).graph))
    assert res.value == 0.5


def test_cut_norm_checkerboard_counterexample():
    from graphlim.families import checkerboard

    res = cut_norm(checkerboard(1) - 0.5)
    assert res.value == 0.125
    # the witness pair reproduces the value: a single stripe against itself
    w = checkerboard(1) - 0.5
    measure_s = res.s * w.widths
    measure_t = res.t * w.widths
    assert abs(measure_s @ w.values @ measure_t) == pytest.approx(
        res.value, abs=1e-12
    )


def test_cut_norm_capacity_and_mode_errors():
    big = StepGraphon(np.full(23, 1 / 23), np.zeros((23, 23)))
    with pytest.raises(CapacityError):
        cut_norm(big)
    w = StepGraphon([1.0], [[1.0]])
    with pytest.raises(ParameterError):
        cut_norm(w, mode="heuristic", restarts=0)
    with pytest.raises(ParameterError):
        cut_norm(w, mode="nope")


def test_witness_reproduces_value_on_random_instances():
    instances = [
        random_step_graphon(seed, 2 + seed % 5, signed=bool(seed % 2))
        for seed in range(10)
    ]
    # signed instances on which the witness's sign sums, summed in another
    # order, can miss the enumerated value by an ulp
    instances += [
        random_step_graphon(seed, 2 + seed % 12, signed=True) for seed in range(300)
    ]
    for w in instances:
        res = cut_norm(w)
        measure_s = res.s * w.widths
        measure_t = res.t * w.widths
        assert abs(measure_s @ w.values @ measure_t) == pytest.approx(
            res.value, abs=1e-12
        )


def test_heuristic_is_sound_and_matches_exact_with_restarts():
    for seed in range(12):
        w = random_step_graphon(1000 + seed, 2 + seed % 5, signed=bool(seed % 2))
        exact = cut_norm(w).value
        lower = cut_norm(w, mode="heuristic", restarts=32, seed=seed).value
        assert lower <= exact + 1e-12
        assert lower == pytest.approx(exact, abs=1e-12)


def test_heuristic_fewer_restarts_still_lower_bound():
    for seed in range(6):
        w = random_step_graphon(2000 + seed, 6, signed=True)
        exact = cut_norm(w).value
        lower = cut_norm(w, mode="heuristic", restarts=2, seed=seed).value
        assert lower <= exact + 1e-12


def test_cut_norm_l1_bound():
    for seed in range(8):
        w = random_step_graphon(3000 + seed, 2 + seed % 5, signed=True)
        assert cut_norm(w).value <= w.l1_norm() + 1e-12


def test_complete_graph_convergence_is_exactly_one_over_n():
    for n in (2, 4, 8, 16):
        inst = complete(n)
        diff = step_from_graph(inst.graph) - inst.limit.step_on(n)
        assert cut_norm(diff).value == 1.0 / n


# ---------------------------------------------------------------------------
# the four definitional forms


def test_forms_zero_graphon():
    f = cut_norm_forms(StepGraphon([0.4, 0.6], np.zeros((2, 2))))
    assert f.two_set == f.complement == f.disjoint == f.functional == 0.0


def test_forms_constant_one():
    f = cut_norm_forms(StepGraphon([1.0], [[1.0]]))
    assert f.two_set == pytest.approx(1.0, abs=1e-12)
    assert f.functional == pytest.approx(1.0, abs=1e-12)
    assert f.complement == pytest.approx(0.25, abs=1e-12)
    assert f.disjoint == pytest.approx(0.25, abs=1e-12)


def test_forms_random_three_block_seed7():
    w = random_step_graphon(7, 3)
    f = cut_norm_forms(w)
    assert f.two_set == pytest.approx(f.functional, abs=1e-12)
    assert f.complement == pytest.approx(f.disjoint, abs=1e-12)


def test_forms_pair_equalities_on_w0_instances():
    for seed in range(20):
        w = random_step_graphon(4000 + seed, 1 + seed % 6)
        f = cut_norm_forms(w)
        assert f.two_set == pytest.approx(f.functional, abs=1e-12)
        assert f.complement == pytest.approx(f.disjoint, abs=1e-12)


def test_two_set_equals_functional_even_for_signed_kernels():
    for seed in range(10):
        w = random_step_graphon(4500 + seed, 1 + seed % 5, signed=True)
        f = cut_norm_forms(w)
        assert f.two_set == pytest.approx(f.functional, abs=1e-12)


def test_forms_capacity():
    with pytest.raises(CapacityError):
        cut_norm_forms(StepGraphon(np.full(11, 1 / 11), np.zeros((11, 11))))


# ---------------------------------------------------------------------------
# cut distance over block permutations


def test_cut_distance_identity_zero():
    w = random_step_graphon(5, 4)
    widths = np.full(4, 0.25)
    w = StepGraphon(widths, w.values)
    assert cut_distance_blocks(w, w) == 0.0


def test_cut_distance_swap_example():
    a = StepGraphon([0.5, 0.5], [[1.0, 0.0], [0.0, 0.0]])
    b = StepGraphon([0.5, 0.5], [[0.0, 0.0], [0.0, 1.0]])
    assert cut_distance_blocks(a, b) == 0.0


def test_cut_distance_k2_vs_zero():
    k2 = step_from_graph(complete(2).graph)
    zero = StepGraphon([0.5, 0.5], np.zeros((2, 2)))
    assert cut_distance_blocks(k2, zero) == 0.5


def test_cut_distance_upper_bounded_by_cut_norm():
    for seed in range(6):
        rng = philox(7000 + seed)
        m = int(rng.integers(2, 5))
        widths = np.full(m, 1.0 / m)
        u = StepGraphon(widths, random_step_graphon(seed, m).values)
        w = StepGraphon(widths, random_step_graphon(seed + 50, m).values)
        assert cut_distance_blocks(u, w) <= cut_norm(u - w).value + 1e-12


def test_cut_distance_errors():
    a = StepGraphon([0.5, 0.5], np.zeros((2, 2)))
    b = StepGraphon(np.full(3, 1 / 3), np.zeros((3, 3)))
    with pytest.raises(ParameterError):
        cut_distance_blocks(a, b)
    unequal = StepGraphon([0.3, 0.7], np.zeros((2, 2)))
    with pytest.raises(ParameterError):
        cut_distance_blocks(unequal, unequal)
    big = StepGraphon(np.full(9, 1 / 9), np.zeros((9, 9)))
    with pytest.raises(CapacityError):
        cut_distance_blocks(big, big)


# ---------------------------------------------------------------------------
# homomorphism densities


def test_hom_density_edge_empty():
    assert hom_density_graph(motif_edge(), Graph.from_edges(4, [])) == 0


def test_hom_density_edge_triangle():
    assert hom_density_graph(motif_edge(), complete(3).graph) == Fraction(2, 3)


def test_hom_density_triangle_k3():
    assert hom_density_graph(motif_triangle(), complete(3).graph) == Fraction(2, 9)


def test_hom_density_graphon_constant():
    assert hom_density_graphon(motif_edge(), StepGraphon([1.0], [[1.0]])) == 1.0
    p = 0.37
    assert hom_density_graphon(
        motif_triangle(), StepGraphon([1.0], [[p]])
    ) == pytest.approx(p**3, abs=1e-12)


def test_hom_density_graph_graphon_agreement_k3():
    val = hom_density_graphon(motif_edge(), step_from_graph(complete(3).graph))
    assert val == pytest.approx(2 / 3, abs=1e-12)


@pytest.mark.parametrize("motif", [motif_edge(), motif_path3(), motif_triangle()])
def test_consistency_identity_random_graphs(motif):
    for seed in range(12):
        g = random_graph(8000 + seed, 4 + seed % 5)
        exact = hom_density_graph(motif, g)
        approx = hom_density_graphon(motif, step_from_graph(g))
        assert float(exact) == pytest.approx(approx, abs=1e-12)


def test_hom_density_capacity_errors():
    big_motif = complete(6).graph
    with pytest.raises(CapacityError):
        hom_density_graph(big_motif, complete(4).graph)
    with pytest.raises(CapacityError):
        hom_density_graph(motif_edge(), complete(13).graph)
    wide = StepGraphon(np.full(30, 1 / 30), np.zeros((30, 30)))
    with pytest.raises(CapacityError):
        hom_density_graphon(complete(5).graph, wide)


def test_cycle4_motif_density():
    from graphlim.graphons import motif_cycle4

    # homomorphisms of the 4-cycle into K_3: closed walks of length 4
    val = hom_density_graph(motif_cycle4(), complete(3).graph)
    assert val == Fraction(18, 81)
    kernel_val = hom_density_graphon(motif_cycle4(), step_from_graph(complete(3).graph))
    assert float(val) == pytest.approx(kernel_val, abs=1e-12)


def test_halfgraph_edge_count_examples():
    assert halfgraph(4).graph.edge_list() == [(1, 3), (1, 4), (2, 4)]
    assert halfgraph(2).graph.edge_list() == [(1, 2)]
