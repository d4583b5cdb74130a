import numpy as np
import pytest
from fractions import Fraction
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphlim import graphons
from graphlim.errors import CapacityError, ParameterError
from graphlim.families import bipartite, block_family, complete, halfgraph
from graphlim.graphons import (
    BipartiteSplitKernel,
    BlockDiagonalKernel,
    CheckerboardKernel,
    ConstantKernel,
    Graph,
    HalfGraphKernel,
    StepGraphon,
    _exact_cut_norm,
    _pattern_chunk,
    cut_norm,
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
    for widths in ([0.5, np.nan], [np.inf, 0.5]):
        with pytest.raises(ParameterError):
            StepGraphon(widths, np.zeros((2, 2)))


@pytest.mark.parametrize("lams", [(0.5, np.nan), (np.nan,), (np.inf, 0.5), (0.5, 0.5, -np.inf)])
def test_block_kernel_rejects_non_finite_fractions(lams):
    with pytest.raises(ParameterError, match="block fractions"):
        BlockDiagonalKernel(lams)


def test_step_graphon_rejects_asymmetric_values():
    with pytest.raises(ParameterError):
        StepGraphon([0.5, 0.5], [[0.0, 1.0], [0.5, 0.0]])


def test_graph_rejects_loops_and_out_of_range():
    with pytest.raises(ParameterError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ParameterError):
        Graph.from_edges(3, [(1, 4)])


def test_graph_names_first_bad_edge():
    with pytest.raises(ParameterError, match=r"edge \(1, 4\) out of range for n=3"):
        Graph(3, [(1, 2), (1, 4)])
    with pytest.raises(ParameterError, match=r"edge \(3, 2\) out of range for n=3"):
        Graph(3, [(1, 2), (3, 2)])
    # several bad edges: the first in input order
    with pytest.raises(ParameterError, match=r"edge \(3, 5\) out of range for n=3"):
        Graph(3, [(1, 2), (2, 3), (3, 5), (0, 1), (2, 1)])


@st.composite
def _pair_lists(draw):
    n = draw(st.integers(2, 30))
    pair = st.tuples(st.integers(1, n), st.integers(1, n - 1)).map(
        lambda t: (t[0], (t[0] + t[1] - 1) % n + 1)  # never a loop, either orientation
    )
    return n, draw(st.lists(pair, max_size=80))


@given(_pair_lists())
@settings(max_examples=200, deadline=None)
def test_from_edges_matches_sorted_pair_set(case):
    n, pairs = case
    reference = sorted({(min(a, b), max(a, b)) for a, b in pairs})
    g = Graph.from_edges(n, pairs)
    assert g.edges.tolist() == [list(p) for p in reference]
    assert g.edges.dtype == np.intp and g.edges.shape == (len(reference), 2)
    assert not g.edges.flags.writeable
    flipped = Graph.from_edges(n, [(b, a) for a, b in reversed(pairs)] + pairs[:3])
    assert g == flipped and hash(g) == hash(flipped)
    assert g == Graph(n, reference) and g != Graph(n + 1, reference)
    if reference:
        assert g != Graph(n, reference[1:])


def test_graph_node_count_bounds():
    big = graphons.GRAPH_MAX_NODES
    g = Graph.from_edges(big, [(big, big - 1), (1, big)])
    assert g.edges.tolist() == [[1, big], [big - 1, big]]
    for n in (0, big + 1):
        with pytest.raises(ParameterError, match=f"graph needs 1 to {big} nodes"):
            Graph(n, [])


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
    assert ConstantKernel(1.0).slice_integral(0.7, 0.0, 1.0) == 1.0


def test_degree_halfgraph_quarter():
    assert HalfGraphKernel().slice_integral(0.25, 0.0, 1.0) == pytest.approx(0.25, abs=1e-12)


def test_degree_k2_step():
    w = step_from_graph(complete(2).graph)
    assert w.slice_integral(0.25, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)


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
        grid = kernel.value(xs[:, None], ys[None, :])
        approx2 = grid.mean() * (x1 - x0) * (y1 - y0)
        assert exact == pytest.approx(approx2, abs=5e-3)


def _kernel_case(choice, seed):
    # the five analytic kernels with drawn parameters, then a step graphon
    rng = philox(seed)
    if choice == 0:
        return ConstantKernel(rng.random())
    if choice == 1:
        return HalfGraphKernel()
    if choice == 2:
        raw = rng.random(1 + seed % 5) + 0.2
        return BlockDiagonalKernel(raw / raw.sum())
    if choice == 3:
        return BipartiteSplitKernel(0.05 + 0.9 * rng.random())
    if choice == 4:
        return CheckerboardKernel(1 + seed % 4)
    return random_step_graphon(seed, 1 + seed % 6, signed=seed % 2 == 1)


def _step_on_cells(kernel, m):
    # reference: one scalar rect_integral per cell pair of the upper triangle
    edges = np.arange(m + 1) / m
    vals = np.empty((m, m))
    for a in range(m):
        for b in range(a, m):
            v = kernel.rect_integral(edges[a], edges[a + 1], edges[b], edges[b + 1])
            vals[a, b] = vals[b, a] = v * m * m
    return vals


@given(st.integers(0, 5), st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_kernels_on_arrays_match_scalar_calls(choice, seed):
    w = _kernel_case(choice, seed)
    rng = philox(seed + 1)
    xs = np.concatenate((rng.random(6), [0.0, 1.0], getattr(w, "boundaries", [])))
    ys = np.concatenate((rng.random(5), [0.0, 1.0]))
    grid = w.value(xs[:, None], ys[None, :])
    assert grid.shape == (xs.size, ys.size)
    assert np.array_equal(grid, [[w.value(x, y) for y in ys] for x in xs])
    (x0, y0), (x1, y1) = np.sort(rng.random((2, 2, 12)), axis=0)
    ref = [
        [w.rect_integral(a0, a1, b0, b1) for b0, b1 in zip(y0, y1)]
        for a0, a1 in zip(x0, x1)
    ]
    outer = w.rect_integral(x0[:, None], x1[:, None], y0[None, :], y1[None, :])
    assert outer.shape == (12, 12)
    assert np.array_equal(outer, ref)
    assert np.array_equal(w.rect_integral(x0, x1, y0, y1), np.diag(ref))
    strips = w.slice_integral(xs[:, None], y0[None, :], y1[None, :])
    assert np.array_equal(
        strips, [[w.slice_integral(x, b0, b1) for b0, b1 in zip(y0, y1)] for x in xs]
    )


@given(st.integers(0, 4), st.integers(0, 10**6), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_step_on_matches_cell_loop(choice, seed, m):
    w = _kernel_case(choice, seed)
    vals = w.step_on(m).values
    assert np.array_equal(vals, _step_on_cells(w, m))
    assert np.array_equal(vals, vals.T)


@given(st.sampled_from([0, 2, 3, 4, 5]), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_value_at_internal_boundary_takes_left_block(choice, seed):
    w = _kernel_case(choice, seed)
    b = w.boundaries
    k = b.size - 1
    assert np.array_equal(w.block_index(b), [0, *range(k)])
    left_mids = 0.5 * (b[:-2] + b[1:-1])
    ys = np.concatenate((0.5 * (b[:-1] + b[1:]), b))
    assert np.array_equal(
        w.value(b[1:-1, None], ys[None, :]), w.value(left_mids[:, None], ys[None, :])
    )


def test_slice_integral_consistent_with_degree():
    w = HalfGraphKernel()
    assert w.slice_integral(0.8, 0.0, 1.0) == pytest.approx(0.3, abs=1e-12)
    bip = BipartiteSplitKernel(0.3)
    assert bip.slice_integral(0.1, 0.0, 1.0) == pytest.approx(0.7, abs=1e-12)


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


def _exact_cut_norm_single_matmul(w):
    # reference: every pattern's column sums from one matmul, scored as the
    # larger of the positive and the negative part
    m = w.block_count
    p = np.arange(1 << m)[:, None]
    pats = ((p >> np.arange(m - 1, -1, -1)[None, :]) & 1).astype(float)
    cols = pats @ (w.values * w.widths[:, None] * w.widths[None, :])
    return float(np.maximum(np.maximum(cols, 0.0).sum(1), np.maximum(-cols, 0.0).sum(1)).max())


@given(st.integers(0, 10**6), st.integers(1, 12), st.booleans())
@settings(max_examples=150, deadline=None)
def test_exact_cut_norm_matches_single_matmul_and_witness(seed, m, signed):
    w = random_step_graphon(seed, m, signed=signed)
    res = cut_norm(w)
    assert res.value == pytest.approx(_exact_cut_norm_single_matmul(w), abs=1e-12)
    witness = (res.s * w.widths) @ w.values @ (res.t * w.widths)
    assert abs(witness) == pytest.approx(res.value, abs=1e-12)


def _exact_cut_norm_unpruned(widths, values):
    # reference: the split-in-half loop without the bound, every hi row in
    # ascending order, the first maximal pattern winning
    m = widths.size
    contrib = values * widths[:, None] * widths[None, :]
    h = m // 2
    hi = _pattern_chunk(0, 1 << (m - h), m - h) @ contrib[: m - h]
    lo = _pattern_chunk(0, 1 << h, h) @ contrib[m - h :]
    hi_sum = hi.sum(axis=1)
    lo_sum = lo.sum(axis=1)
    ones = np.ones(m)
    rows = max(1, graphons._CUT_NORM_BLOCK_ENTRIES // (lo.shape[0] * m))
    buf = np.empty((rows, lo.shape[0], m))
    best = -1.0
    best_p = 0
    for a0 in range(0, hi.shape[0], rows):
        a1 = min(a0 + rows, hi.shape[0])
        cols = buf[: a1 - a0]
        np.add(hi[a0:a1, None, :], lo[None, :, :], out=cols)
        np.abs(cols, out=cols)
        vals = cols.reshape(-1, m) @ ones
        vals += np.abs(hi_sum[a0:a1, None] + lo_sum[None, :]).ravel()
        vals *= 0.5
        k = int(np.argmax(vals))
        if vals[k] > best:
            best = float(vals[k])
            best_p = (a0 << h) + k
    s = _pattern_chunk(best_p, best_p + 1, m)[0]
    cols = s @ contrib
    plus_val = float(np.maximum(cols, 0.0).sum())
    minus_val = float(np.maximum(-cols, 0.0).sum())
    t_plus = (cols > 0.0).astype(float)
    t_minus = (cols < 0.0).astype(float)
    if plus_val == minus_val:
        t = t_plus if tuple(t_plus) <= tuple(t_minus) else t_minus
    elif plus_val > minus_val:
        t = t_plus
    else:
        t = t_minus
    return best, s, t


def _symmetric(upper):
    return np.triu(upper) + np.triu(upper, 1).T


def _cut_norm_case(kind, m, seed):
    if kind in ("random", "signed"):
        w = random_step_graphon(seed, m, signed=kind == "signed")
        return w.widths, w.values
    rng = philox(seed)
    widths = np.full(m, 1.0 / m)
    if kind == "ties":
        return widths, _symmetric(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(m, m)))
    if kind == "zero":
        return widths, np.zeros((m, m))
    # a signed permutation: many patterns score alike up to the noise, which
    # moves scores and bounds by an ulp
    perm = np.eye(m)[rng.permutation(m)]
    signs = _symmetric(rng.choice([-1.0, 1.0], size=(m, m)))
    noise = _symmetric(rng.choice([-1e-17, 0.0, 1e-17], size=(m, m)))
    return widths, np.maximum(perm, perm.T) * signs + noise


def _assert_same_cut_norm(widths, values):
    value, s, t = _exact_cut_norm(widths, values)
    ref_value, ref_s, ref_t = _exact_cut_norm_unpruned(widths, values)
    assert value == ref_value
    assert np.array_equal(s, ref_s)
    assert np.array_equal(t, ref_t)


@given(
    st.sampled_from(["random", "signed", "ties", "zero", "permutation"]),
    st.integers(1, 14),
    st.integers(0, 10**6),
    st.booleans(),
)
# inputs on which a zero rounding margin, or ties going to the larger
# pattern, change the witness
@example("permutation", 7, 7, True)
@example("permutation", 7, 15, True)
@example("permutation", 7, 20, True)
@settings(max_examples=300, deadline=None)
def test_pruned_cut_norm_equals_unpruned(kind, m, seed, row_chunks):
    # below m = 12 every hi row fits in one chunk and nothing is pruned;
    # row_chunks makes each hi row its own chunk, in both enumerations
    with pytest.MonkeyPatch.context() as mp:
        if row_chunks:
            mp.setattr(graphons, "_CUT_NORM_BLOCK_ENTRIES", 1)
        _assert_same_cut_norm(*_cut_norm_case(kind, m, seed))


def test_pruned_cut_norm_equals_unpruned_on_converge_differences():
    instances = [halfgraph(n) for n in range(6, 23, 2)]
    for n in range(6, 23):
        instances += [
            complete(n),
            block_family((0.45, 0.35, 0.2), n),
            block_family((0.5, 0.5), n),
            bipartite(0.5, n),
        ]
    for inst in instances:
        diff = step_from_graph(inst.graph) - inst.limit.step_on(inst.graph.n)
        _assert_same_cut_norm(diff.widths, diff.values)


def test_cut_norm_l1_bound():
    for seed in range(8):
        w = random_step_graphon(3000 + seed, 2 + seed % 5, signed=True)
        l1 = float(np.abs(w.values) @ w.widths @ w.widths)
        assert cut_norm(w).value <= l1 + 1e-12


@pytest.mark.parametrize(
    "kernel",
    [
        ConstantKernel(0.5),
        HalfGraphKernel(),
        BlockDiagonalKernel([0.45, 0.35, 0.2]),
        BipartiteSplitKernel(0.3),
        CheckerboardKernel(2),
    ],
    ids=lambda k: k.kind,
)
def test_step_minus_analytic_averages_on_the_step_grid(kernel):
    for k in (1, 4, 7, 20):
        vals = philox(k).random((k, k)).round()
        step = StepGraphon(np.full(k, 1.0 / k), np.maximum(vals, vals.T))
        diff = step - kernel
        ref = step - kernel.step_on(k)
        assert diff.widths.tobytes() == ref.widths.tobytes()
        assert diff.values.tobytes() == ref.values.tobytes()
    with pytest.raises(ParameterError, match="equal-width step grid"):
        StepGraphon([0.25, 0.75], np.eye(2)) - kernel


def test_complete_graph_convergence_is_exactly_one_over_n():
    for n in (2, 4, 8, 16):
        inst = complete(n)
        diff = step_from_graph(inst.graph) - inst.limit.step_on(n)
        assert cut_norm(diff).value == 1.0 / n


def test_forms_zero_graphon():
    res = cut_norm(StepGraphon([0.4, 0.6], np.zeros((2, 2))))
    assert res.value == 0.0
    assert res.exact


def test_forms_constant_one():
    res = cut_norm(StepGraphon([1.0], [[1.0]]))
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.s.tolist() == res.t.tolist() == [1.0]


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


def _boolean_hom_count(motif, g):
    # reference: mark the adjacency-preserving maps in an n^k boolean tensor
    k, n = motif.n, g.n
    adj = g.adjacency()
    ok = np.ones((n,) * k, dtype=bool)
    for i, j in motif.edges:
        u, v = i - 1, j - 1
        axes = tuple(d for d in range(k) if d not in (u, v))
        ok &= np.expand_dims(adj, axis=axes)
    return int(ok.sum())


def test_hom_density_graph_matches_boolean_count():
    from graphlim.graphons import motif_cycle4

    motifs = [
        motif_edge(),
        motif_path3(),
        motif_triangle(),
        motif_cycle4(),
        Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)]),
        Graph.from_edges(3, [(1, 2)]),
        complete(5).graph,
    ]
    for n in range(1, 13):
        g = random_graph(9100 + n, n)
        for motif in motifs:
            expected = Fraction(_boolean_hom_count(motif, g), n**motif.n)
            assert hom_density_graph(motif, g) == expected


def test_hom_density_capacity_errors():
    big_motif = complete(6).graph
    with pytest.raises(CapacityError):
        hom_density_graph(big_motif, complete(4).graph)
    # 26^5 vertex assignments exceed the 10^7 cap of the exact summation
    with pytest.raises(CapacityError):
        hom_density_graph(complete(5).graph, Graph.from_edges(26, []))
    assert hom_density_graph(complete(5).graph, Graph.from_edges(25, [])) == 0
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
    assert halfgraph(4).graph.edges.tolist() == [[1, 3], [1, 4], [2, 4]]
    assert halfgraph(2).graph.edges.tolist() == [[1, 2]]
