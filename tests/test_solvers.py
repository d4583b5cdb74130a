import dataclasses
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from graphlim import fileio, functionals, graphons, solvers
from graphlim.errors import CapacityError, InfeasibleError, ParameterError
from graphlim.families import bipartite, block_family, complete, halfgraph, w_random
from graphlim.fields import LabelModel
from graphlim.functionals import (
    cell_averages,
    discrete_cut_energy,
    limit_cut_energy,
    limit_energy_gradient,
)
from graphlim.graphons import (
    BipartiteSplitKernel,
    BlockDiagonalKernel,
    CheckerboardKernel,
    ConstantKernel,
    HalfGraphKernel,
    StepGraphon,
    StepKernel,
    cut_norm,
)
from graphlim.solvers import (
    block_vertex_minimum,
    brute_bisection,
    local_search_partition,
    minimize_limit_energy,
    project_box_mean,
    project_polytope,
    project_rows_simplex,
    step_limit_minimum,
    swap_descent,
    transport_lmo,
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
        brute_bisection(complete(30).graph)


def _brute_bisection_combinations(g):
    # reference: the per-combination loop the split-in-half tables replaced;
    # the first minimum over lexicographic member tuples wins
    n = g.n
    adjacency = g.adjacency()
    best = None
    evaluated = 0
    for combo in itertools.combinations(range(2, n + 1), n // 2 - 1):
        members = np.zeros(n, dtype=bool)
        members[[0, *(v - 1 for v in combo)]] = True
        cut = int(adjacency[members][:, ~members].sum())
        evaluated += 1
        if best is None or cut < best[0]:
            best = (cut, members)
    labels = np.where(best[1], 1.0, -1.0)
    return tuple(labels), evaluated, discrete_cut_energy(g, labels, spin)


@given(
    st.integers(0, 10**6),
    st.integers(1, 7),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
)
@settings(max_examples=150, deadline=None)
def test_brute_bisection_matches_combinations(seed, half, p):
    # p = 0 and p = 1 give the edgeless and complete graphs, where every
    # balanced set ties
    g = random_graph(seed, 2 * half, p)
    rep = brute_bisection(g)
    labels, evaluated, value = _brute_bisection_combinations(g)
    assert rep.labels == labels
    assert rep.iterations == evaluated
    assert rep.value == value


def test_brute_bisection_complete_graph_at_the_cap():
    rep = brute_bisection(complete(28).graph)
    assert rep.value == 2.0
    assert rep.labels == (1.0,) * 14 + (-1.0,) * 14


@pytest.mark.parametrize("n", [24, 26, 28])
def test_brute_bisection_half_graph_at_the_cap(n):
    # the half graph's minimum cut is ceil(n(n+2)/24): 13/36, 62/169 and 5/14
    rep = brute_bisection(halfgraph(n).graph)
    assert rep.value == 8 * math.ceil(n * (n + 2) / 24) / n**2
    assert rep.iterations == math.comb(n - 1, n // 2 - 1)


@pytest.mark.parametrize("p, value", [(0.0, 0.0), (1.0, 2.0)])
def test_brute_bisection_ties_at_26_nodes_go_to_the_first_member_tuple(p, value):
    # edgeless and complete: every balanced set ties, so nodes 1..13 win
    rep = brute_bisection(random_graph(26, 26, p))
    assert rep.value == value
    assert rep.labels == (1.0,) * 13 + (-1.0,) * 13
    assert rep.iterations == math.comb(25, 12)


@pytest.mark.parametrize("n, mib", [(24, 2.5), (28, 10.0)])
def test_brute_bisection_traced_peak(n, mib):
    # blocks of 2^14 float32 cuts on int32 pattern tables trace 1.1 and
    # 4.8 MiB with numpy 2.4
    g = halfgraph(n).graph
    tracemalloc.start()
    try:
        brute_bisection(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= mib * 2**20


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


def _swap_descent_pair_scan(g, labels, model):
    # reference: the pair-by-pair first-improvement scan the gain matrix replaced
    n = g.n
    idx = model.indices(labels)
    f = model.coupling
    adj = [[] for _ in range(n + 1)]
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    adj = [np.asarray(a, dtype=int) for a in adj]
    is_adjacent = g.adjacency()
    swaps = 0
    improved = True
    while improved:
        improved = False
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                a, b = idx[i - 1], idx[j - 1]
                if a == b:
                    continue
                di = f[b, idx[adj[i] - 1]].sum() - f[a, idx[adj[i] - 1]].sum()
                dj = f[a, idx[adj[j] - 1]].sum() - f[b, idx[adj[j] - 1]].sum()
                if is_adjacent[i - 1, j - 1]:
                    di -= f[b, b] - f[a, b]
                    dj -= f[a, a] - f[b, a]
                delta = 2.0 * (di + dj)
                if delta < -1e-9:
                    idx[i - 1], idx[j - 1] = b, a
                    swaps += 1
                    improved = True
                    break
            if improved:
                break
    return np.asarray([model.labels[k] for k in idx]), swaps


three_labels = LabelModel.unit_cut((1.0, 2.0, 3.0))
descent_cases = st.tuples(
    st.integers(0, 10**6),
    st.integers(1, 16),
    st.floats(0.1, 0.9),
    st.sampled_from([spin, three_labels]),
    st.integers(0, 10**6),
)


def _descent_case(seed, n, p, model, start_seed):
    g = random_graph(seed, n, p)
    start = np.asarray(model.labels)[philox(start_seed).integers(0, model.n_labels, n)]
    return g, start


@given(descent_cases)
@settings(max_examples=200, deadline=None)
def test_swap_descent_matches_pair_scan(case):
    g, start = _descent_case(*case)
    model = case[3]
    labels, swaps = swap_descent(g, start, model)
    ref_labels, ref_swaps = _swap_descent_pair_scan(g, start, model)
    assert np.array_equal(labels, ref_labels)
    assert swaps == ref_swaps


def _swap_descent_gain_scan(g, labels, model):
    # reference: the gain-matrix scan that scored di and dj apart and rebuilt
    # the pair masks on every scan, before dj became the transpose of di
    n = g.n
    idx = model.indices(labels)
    f = model.coupling
    adjacency = g.adjacency().astype(float)
    counts = adjacency @ (idx[:, None] == np.arange(model.n_labels)).astype(float)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    swaps = 0
    while True:
        gain = counts @ f.T
        own = gain[np.arange(n), idx]
        cross = gain[:, idx]
        pair = f[idx[:, None], idx[None, :]]
        diag = np.diag(f)[idx]
        di = cross - own[:, None] - adjacency * (diag[None, :] - pair)
        dj = cross.T - own[None, :] - adjacency * (diag[:, None] - pair.T)
        delta = 2.0 * (di + dj)
        hits = np.flatnonzero(upper & (idx[:, None] != idx[None, :]) & (delta < -1e-9))
        if hits.size == 0:
            break
        i, j = divmod(int(hits[0]), n)
        a, b = idx[i], idx[j]
        moved = adjacency[:, i] - adjacency[:, j]
        counts[:, a] -= moved
        counts[:, b] += moved
        idx[i], idx[j] = b, a
        swaps += 1
    return np.asarray(model.labels)[idx], swaps


def _random_coupling_model(k, seed):
    # k labels with a random non-integer symmetric coupling
    raw = philox(seed).random((k, k)) * 3.0
    return LabelModel(tuple(float(v) for v in range(1, k + 1)), raw + raw.T)


@given(
    st.integers(0, 10**6), st.integers(1, 40), st.floats(0.1, 0.9),
    st.sampled_from([spin, three_labels])
    | st.builds(_random_coupling_model, st.integers(2, 4), st.integers(0, 10**6)),
    st.integers(0, 10**6),
)
@settings(max_examples=150, deadline=None)
def test_swap_descent_matches_gain_scan(seed, n, p, model, start_seed):
    g, start = _descent_case(seed, n, p, model, start_seed)
    labels, swaps = swap_descent(g, start, model)
    ref_labels, ref_swaps = _swap_descent_gain_scan(g, start, model)
    assert labels.tobytes() == ref_labels.tobytes()
    assert swaps == ref_swaps


def test_swap_descent_rejects_wrong_label_count():
    with pytest.raises(ParameterError, match="one label per node"):
        swap_descent(complete(6).graph, [1, -1, 1], spin)
    with pytest.raises(ParameterError, match="one label per node"):
        swap_descent(complete(2).graph, [[1, -1]], spin)


@given(descent_cases)
@settings(max_examples=100, deadline=None)
def test_swap_descent_ends_at_local_minimum(case):
    g, start = _descent_case(*case)
    model = case[3]
    labels, _ = swap_descent(g, start, model)
    value = discrete_cut_energy(g, labels, model)
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if labels[i] != labels[j]:
                swapped = labels.copy()
                swapped[[i, j]] = labels[[j, i]]
                assert discrete_cut_energy(g, swapped, model) >= value - 1e-12


def test_local_search_complete_graph_always_optimal():
    for seed in (0, 3):
        rep = local_search_partition(complete(10).graph, (5, 5), spin, seed=seed, restarts=2)
        assert rep.value == 2.0


def test_local_search_dominates_and_often_matches_brute():
    wins = 0
    for trial in range(50):
        rng = philox(9000 + trial)
        n = int(rng.choice([8, 10, 12, 14, 16]))
        p = 0.3 + 0.4 * rng.random()
        g = random_graph(12345 + trial, n, p)
        exact = brute_bisection(g).value
        local = local_search_partition(g, (n // 2, n // 2), spin, seed=trial, restarts=8).value
        assert local >= exact - 1e-9
        if abs(local - exact) <= 1e-12:
            wins += 1
    assert wins >= 45  # at least 90 percent


@given(st.integers(0, 10**6), st.sampled_from([2, 4, 6, 8, 10, 12]))
@settings(max_examples=100, deadline=None)
def test_local_search_never_beats_exact_bisection(seed, n):
    g = random_graph(seed, n)
    local = local_search_partition(g, (n // 2, n // 2), spin, seed=seed, restarts=2)
    assert local.value >= brute_bisection(g).value - 1e-12


def test_local_search_multiway_respects_sizes():
    model = LabelModel.unit_cut((1.0, 2.0, 3.0))
    g = random_graph(77, 9)
    rep = local_search_partition(g, (3, 3, 3), model, seed=1, restarts=3)
    counts = {v: list(rep.labels).count(v) for v in model.labels}
    assert counts == {1.0: 3, 2.0: 3, 3.0: 3}


def test_local_search_bitwise_deterministic():
    g = random_graph(4242, 14)
    a = local_search_partition(g, (7, 7), spin, seed=7, restarts=4)
    b = local_search_partition(g, (7, 7), spin, seed=7, restarts=4)
    assert a == b


def test_local_search_infeasible_spec():
    # sizes must be one nonnegative count per label, summing to n
    for sizes in [(3, 3), (5, -1), (4,), (2, 1, 1)]:
        with pytest.raises(InfeasibleError):
            local_search_partition(complete(4).graph, sizes, spin)


def test_local_search_sizes_must_be_integral():
    # 2.5 + 2.5 nodes is no partition of 4; integral floats and numpy
    # integers count as the sizes they equal
    g = complete(4).graph
    for sizes in [(2.5, 2.5), (1.5, 2.5), (float("nan"), 2)]:
        with pytest.raises(InfeasibleError, match="nonnegative counts"):
            local_search_partition(g, sizes, spin)
    want = local_search_partition(g, (2, 2), spin, seed=3)
    assert local_search_partition(g, (2.0, 2.0), spin, seed=3) == want
    assert local_search_partition(g, np.array([2, 2]), spin, seed=3) == want


@pytest.mark.parametrize(
    "call",
    [
        lambda s: minimize_limit_energy(HalfGraphKernel(), spin, (0.5, 0.5), 8, seed=s).to_dict(),
        lambda s: local_search_partition(complete(4).graph, (2, 2), spin, seed=s).to_dict(),
        lambda s: dataclasses.asdict(
            cut_norm(StepGraphon(np.full(3, 1 / 3), np.eye(3)), mode="heuristic", seed=s)
        ),
        lambda s: fileio.graph_to_dict(w_random(ConstantKernel(0.5), 5, s)),
    ],
    ids=["minimize_limit_energy", "local_search_partition", "cut_norm", "w_random"],
)
def test_seed_must_be_a_non_negative_integer(call):
    for seed in (-1, -3, 1.5, "2"):
        with pytest.raises(ParameterError, match="seed"):
            call(seed)
    assert fileio.dumps(call(np.int64(2))) == fileio.dumps(call(2))


def test_restart_generators_follow_the_seed_rule():
    # restart r of seed s draws what Philox(s + r) draws
    for seed, r in [(0, 0), (5, 2), (np.int64(7), 3)]:
        want = np.random.Generator(np.random.Philox(int(seed) + r)).random(6)
        assert np.array_equal(graphons._rng(seed, r).random(6), want)


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


def _bisection_box_mean(y, mean):
    # reference: 64 halvings of the shift bracket, below double resolution
    low, high = 0.0 - float(y.max()), 1.0 - float(y.min())
    for _ in range(64):
        mid = 0.5 * (low + high)
        if float(np.clip(y + mid, 0.0, 1.0).mean()) < mean:
            low = mid
        else:
            high = mid
    return np.clip(y + 0.5 * (low + high), 0.0, 1.0)


@st.composite
def box_mean_inputs(draw, max_m=40, max_rows=4):
    """y is one vector (rows = 0) or a stack of rows sharing the mean."""
    m = draw(st.integers(1, max_m))
    rows = draw(st.integers(0, max_rows))
    scale = 10.0 ** draw(st.integers(-3, 3))
    # a few fixed values make ties between entries common
    entry = st.floats(-1.0, 1.0) | st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
    size = m * max(rows, 1)
    y = scale * np.asarray(draw(st.lists(entry, min_size=size, max_size=size)))
    y = y.reshape(rows, m) if rows else y
    # the mean sits on either end of [0, 1] or inside it
    mean = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return y, mean


@given(box_mean_inputs())
@settings(max_examples=300, deadline=None)
def test_projection_box_mean_properties(case):
    y_in, mean = case
    x_out = project_box_mean(y_in, mean)
    assert x_out.shape == y_in.shape
    for y, x in zip(np.atleast_2d(y_in), np.atleast_2d(x_out)):
        _check_box_mean_row(y, x, mean)


def _check_box_mean_row(y, x, mean):
    scale = max(1.0, float(np.abs(y).max()))
    assert np.all(x >= 0.0) and np.all(x <= 1.0)
    assert abs(x.mean() - mean) <= 1e-12
    assert np.abs(project_box_mean(x, mean) - x).max() <= 1e-12
    # KKT: one shift tau on the free coordinates; clipped ones sit past the box
    tol = 1e-12 * scale
    at_lo = x == 0.0
    at_hi = x == 1.0
    free = ~(at_lo | at_hi)
    if free.any():
        shifts = (x - y)[free]
        tau_lo = tau_hi = float(np.median(shifts))
        assert np.abs(shifts - tau_lo).max() <= tol
    else:
        # any tau in [tau_lo, tau_hi] certifies the clipped coordinates
        tau_lo = 1.0 - float(y[at_hi].min(initial=np.inf))
        tau_hi = 0.0 - float(y[at_lo].max(initial=-np.inf))
        assert tau_lo <= tau_hi + tol
    assert np.all(y[at_lo] + tau_lo <= 0.0 + tol)
    assert np.all(y[at_hi] + tau_hi >= 1.0 - tol)
    reference = _bisection_box_mean(y, mean)
    assert np.abs(x - reference).max() <= 1e-9 * scale


@given(box_mean_inputs(max_m=80, max_rows=8))
@settings(max_examples=150, deadline=None)
def test_projection_box_mean_rows_match_single_calls(case):
    # a stacked call is the one-row call applied to each row, bit for bit
    y, mean = case
    rows = np.atleast_2d(y)
    stacked = project_box_mean(rows, mean)
    for row, out in zip(rows, stacked):
        assert project_box_mean(row, mean).tobytes() == out.tobytes()


def test_projection_polytope_feasibility():
    rng = philox(5)
    masses = np.array([0.2, 0.3, 0.5])
    x = project_polytope(rng.normal(size=(15, 3)), masses)
    assert np.abs(x.sum(axis=1) - 1.0).max() <= 1e-9
    assert np.abs(x.mean(axis=0) - masses).max() <= 1e-9
    assert x.min() >= -1e-9


def test_projection_polytope_is_the_projection():
    # two labels reduce to the box-mean projection of (y0 - y1 + 1) / 2,
    # which puts label 0 at (0.005, 0.255); (0.08, 0.18) is feasible but
    # farther from y
    y = np.array([[-1.6, -0.3], [-1.0, -0.2]])
    x = project_polytope(y, (0.13, 0.87))
    assert np.abs(x[:, 0] - [0.005, 0.255]).max() <= 1e-12
    assert np.abs(x[:, 1] - [0.995, 0.745]).max() <= 1e-12


# masses within the projection's stopping test of zero
_SMALL_MASS = st.sampled_from([0.0, 1e-12, 1e-16, 5e-324]) | st.floats(0.0, 1e-12)


def _random_masses(draw, nlab):
    # up to nlab - 1 labels get a small mass and the others share the rest
    small = draw(st.lists(_SMALL_MASS, max_size=nlab - 1))
    at = draw(st.permutations(range(nlab)))[: len(small)]
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=nlab, max_size=nlab))
    raw = np.asarray(raw)
    raw[at] = 0.0
    if raw.sum() == 0.0:
        raw[np.setdiff1d(np.arange(nlab), at)[0]] = 1.0
    masses = raw / raw.sum() * (1.0 - sum(small))
    masses[at] = small
    return masses


@st.composite
def polytope_inputs(draw):
    m = draw(st.integers(1, 40))
    nlab = draw(st.integers(2, 5))
    scale = 10.0 ** draw(st.floats(-1.0, 1.0))
    y = scale * philox(draw(st.integers(0, 10**6))).normal(size=(m, nlab))
    return y, _random_masses(draw, nlab), scale


# kept in the Newton loop, the zero-mass column loses its last active entry
# at step 6; the rounding left in the other columns' residual sum then drives
# long steps that wake it again, and the line search stalls until the step
# cap.  The same holds for a mass of 1e-16 in its place.
_STALLED_SCALE = 6.152654101490373
_STALLED_MASSES = np.array(
    [0.44970414201183434, 0.4378698224852071, 0.11242603550295859, 0.0]
)
_STALLED_Y = _STALLED_SCALE * philox(1).normal(size=(4, 4))


@given(polytope_inputs())
@example((_STALLED_Y, _STALLED_MASSES, _STALLED_SCALE))
@settings(max_examples=300, deadline=None)
def test_projection_polytope_properties(case):
    y, masses, scale = case
    m = y.shape[0]
    x = project_polytope(y, masses)
    assert np.abs(x.sum(axis=1) - 1.0).max() <= 1e-12
    assert x.min() >= 0.0
    assert np.abs(x.mean(axis=0) - masses).max() <= 1e-12
    assert np.abs(project_polytope(x, masses) - x).max() <= 1e-12
    # optimality: y - x lies in the normal cone, <x - y, v - x> >= 0 on the
    # polytope, and the exact oracle finds the smallest left-hand side
    v = transport_lmo(x - y, m * masses)
    assert float(np.vdot(x - y, v - x)) >= -1e-9 * scale


@given(polytope_inputs())
@example((_STALLED_Y, _STALLED_MASSES, _STALLED_SCALE))
@example((_STALLED_Y, _STALLED_MASSES + [0.0, 0.0, -1e-16, 1e-16], _STALLED_SCALE))
@settings(max_examples=300, deadline=None)
def test_projection_polytope_cuts_small_masses(case):
    # a label with a small mass is cut: its column is its mass in every row,
    # exactly 0.0 for a zero mass, and the other labels make a problem of
    # their own with rows summing to the rest
    y, masses, _ = case
    m = y.shape[0]
    x = project_polytope(y, masses)
    cut = np.abs(m * masses) <= 1e-12 * m
    assert np.all(x[:, cut] == masses[cut])
    assert np.all(x[:, masses == 0.0] == 0.0)
    rest = 1.0 - masses[cut].sum()
    reduced = rest * project_polytope(y[:, ~cut] / rest, masses[~cut] / rest)
    assert np.ascontiguousarray(x[:, ~cut]).tobytes() == reduced.tobytes()
    assert np.abs(x.sum(axis=0) - m * masses).max() <= 1e-12 * m


@pytest.mark.parametrize("masses", [(0.0, 0.0, 0.0), (1e-12, 0.0, 5e-13), (-1e-12, 1e-300)])
def test_projection_polytope_rejects_masses_all_cut(masses):
    with pytest.raises(InfeasibleError):
        project_polytope(np.zeros((4, len(masses))), masses)


def test_projection_polytope_rejects_unreachable_means():
    with pytest.raises(InfeasibleError):
        project_polytope(np.zeros((4, 3)), (0.5, 0.5, 0.5))


@st.composite
def polytope_stacks(draw):
    rows = draw(st.integers(1, 8))
    m = draw(st.integers(1, 12))
    nlab = draw(st.integers(2, 5))
    scale = 10.0 ** draw(st.floats(-1.0, 1.0))
    y = scale * philox(draw(st.integers(0, 10**6))).normal(size=(rows, m, nlab))
    return y, _random_masses(draw, nlab)


@given(polytope_stacks())
@settings(max_examples=150, deadline=None)
def test_projection_polytope_stack_matches_single_calls(case):
    # every problem of a stack takes exactly the steps it takes alone
    y, masses = case
    stacked = project_polytope(y, masses)
    assert stacked.shape == y.shape
    for one, out in zip(y, stacked):
        assert project_polytope(one, masses).tobytes() == out.tobytes()
    rows = project_rows_simplex(y)
    for one, out in zip(y, rows):
        assert project_rows_simplex(one).tobytes() == out.tobytes()
        for row, row_out in zip(one, out):
            assert project_rows_simplex(row).tobytes() == row_out.tobytes()


def _rows_simplex_reference(y):
    # reference: the sort-based projection with the threshold read off the
    # cumulative sums by take_along_axis
    n = y.shape[-1]
    srt = np.sort(y, axis=-1)[..., ::-1]
    cums = np.cumsum(srt, axis=-1) - 1.0
    cond = srt - cums / np.arange(1, n + 1) > 0
    rho = n - 1 - np.argmax(cond[..., ::-1], axis=-1, keepdims=True)
    tau = np.take_along_axis(cums, rho, axis=-1) / (rho + 1.0)
    return np.maximum(y - tau, 0.0)


@given(
    st.lists(st.integers(1, 4), max_size=2),
    st.integers(1, 6),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_project_rows_simplex_matches_reference(lead, n, data):
    # bit for bit, ties and signed zeros included
    size = int(np.prod(lead)) * n
    entry = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 1e-300])
    y = np.array(data.draw(st.lists(entry, min_size=size, max_size=size))).reshape(*lead, n)
    assert project_rows_simplex(y).tobytes() == _rows_simplex_reference(y).tobytes()


def _check_polytope_point(y, x, masses, scale):
    # the checks of test_projection_polytope_properties, for x = P(y); an
    # entry of x is a difference of numbers of size scale, so row sums and
    # a second projection move by up to its rounding, eps * scale
    m = y.shape[0]
    rounding = 1e-12 + np.finfo(float).eps * scale
    assert np.abs(x.sum(axis=1) - 1.0).max() <= rounding
    assert x.min() >= 0.0
    assert np.abs(x.mean(axis=0) - masses).max() <= 1e-12
    assert np.abs(project_polytope(x, masses) - x).max() <= rounding
    v = transport_lmo(x - y, m * masses)
    assert float(np.vdot(x - y, v - x)) >= -1e-9 * scale


def test_projection_polytope_raises_only_infeasible_error():
    # entries of 1e6 make Newton systems singular in floating point: such
    # inputs end in InfeasibleError, never in numpy's LinAlgError, and what
    # is returned is the projection
    returned = 0
    for seed in range(200):
        rng = philox(seed)
        m, nlab = rng.integers(2, 30), rng.integers(2, 5)
        masses = rng.dirichlet(np.ones(nlab))
        y = 1e6 * rng.normal(size=(m, nlab))
        try:
            x = project_polytope(y, masses)
        except InfeasibleError:
            continue
        _check_polytope_point(y, x, masses, 1e6)
        returned += 1
    assert returned > 0


@st.composite
def pgd_steps(draw):
    """A feasible stack x, a direction g, fresh rows and trial steps."""
    rows = draw(st.integers(1, 4))
    m = draw(st.integers(1, 12))
    nlab = draw(st.integers(2, 5))
    masses = _random_masses(draw, nlab)
    rng = philox(draw(st.integers(0, 10**6)))
    x = project_polytope(rng.normal(size=(rows, m, nlab)), masses)
    g = 10.0 ** draw(st.floats(-2.0, 2.0)) * rng.normal(size=x.shape)
    fresh = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    # t = 1 or a line-search trial 2^-k / L, L the unit-cut step constant
    # of _pgd for a kernel bounded by 1
    lip = 2.0 * nlab * (nlab - 1) / m
    ks = draw(st.lists(st.none() | st.integers(0, 59), min_size=rows, max_size=rows))
    trial = np.array([1.0 if k is None else 2.0**-k / lip for k in ks])
    return x, g, fresh, trial, masses


@given(pgd_steps())
@settings(max_examples=150, deadline=None)
def test_pgd_step_is_the_projection_of_each_point(case):
    # a round's points are the stop-test points x - g of the fresh rows and
    # every row's trial x - t g; Newton starts at the tangent dual, and the
    # points come out as projections, each row's as it would alone
    x, g, fresh, trial, masses = case
    rows, m, _ = x.shape
    row = np.concatenate((np.flatnonzero(fresh), np.arange(rows)))
    t = np.concatenate((np.ones(np.count_nonzero(fresh)), trial))
    feasible = solvers._TransportSet(masses, m)
    points = feasible.step(x, g, fresh, trial)
    assert points.shape == (row.size, m, masses.size)
    for r, tp, point in zip(row, t, points):
        y = x[r] - tp * g[r]
        scale = max(1.0, float(np.abs(y).max()))
        _check_polytope_point(y, point, masses, scale)
        assert np.abs(point - project_polytope(y, masses)).max() <= 1e-9 * scale
    for r in range(rows):
        one = feasible.step(x[r : r + 1], g[r : r + 1], fresh[r : r + 1], trial[r : r + 1])
        assert one.tobytes() == points[row == r].tobytes()
    # two labels: the label-0 weight, projected by project_box_mean
    spin_x, spin_g = x[..., 0], g[..., 0]
    box = solvers._BoxMeanSet(np.array([masses[0], 1.0 - masses[0]]), m)
    for r, tp, point in zip(row, t, box.step(spin_x, spin_g, fresh, trial)):
        one = project_box_mean(spin_x[r] - tp * spin_g[r], masses[0])
        assert point.tobytes() == one.tobytes()


# ---------------------------------------------------------------------------
# transportation oracle


def _linprog_transport(g, caps):
    # reference: the dense (m + N) x mN equality LP, solved by HiGHS
    m, nlab = g.shape
    a_eq = np.zeros((m + nlab, m * nlab))
    b_eq = np.zeros(m + nlab)
    for i in range(m):
        a_eq[i, i * nlab : (i + 1) * nlab] = 1.0
        b_eq[i] = 1.0
    for k in range(nlab):
        a_eq[m + k, k::nlab] = 1.0
        b_eq[m + k] = caps[k]
    res = linprog(g.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0.0, 1.0), method="highs")
    assert res.success
    return res.x.reshape(m, nlab)


@st.composite
def transport_inputs(draw):
    m = draw(st.integers(1, 30))
    nlab = draw(st.integers(2, 5))
    rng = philox(draw(st.integers(0, 10**6)))
    scale = 10.0 ** draw(st.floats(-1.0, 1.0))
    # few decimals make tied costs and tied vertices common
    g = np.round(scale * rng.normal(size=(m, nlab)), draw(st.integers(0, 2)))
    # HiGHS reads a capacity below its 1e-7 feasibility tolerance as zero, so
    # the masses are ratios of small integers: exact zeros, never near-zeros
    parts = draw(st.lists(st.integers(0, 12), min_size=nlab, max_size=nlab))
    parts[0] += sum(parts) == 0
    masses = np.asarray(parts) / sum(parts)
    if draw(st.booleans()):
        caps = rng.multinomial(m, masses).astype(float)
    else:
        caps = m * masses
    return g, caps, max(1.0, float(np.abs(g).max()))


@given(transport_inputs())
@settings(max_examples=300, deadline=None)
def test_transport_lmo_matches_linprog(case):
    g, caps, scale = case
    v = transport_lmo(g, caps)
    assert v.min() >= 0.0
    assert np.abs(v.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.abs(v.sum(axis=0) - caps).max() <= 1e-12
    reference = _linprog_transport(g, caps)
    assert abs(float(np.vdot(g, v)) - float(np.vdot(g, reference))) <= 1e-12 * scale


@st.composite
def transport_stacks(draw):
    rows = draw(st.integers(1, 8))
    m = draw(st.integers(1, 12))
    nlab = draw(st.integers(2, 5))
    rng = philox(draw(st.integers(0, 10**6)))
    scale = 10.0 ** draw(st.floats(-1.0, 1.0))
    # few decimals make tied costs and tied paths common
    g = np.round(scale * rng.normal(size=(rows, m, nlab)), draw(st.integers(0, 2)))
    parts = draw(st.lists(st.integers(0, 12), min_size=nlab, max_size=nlab))
    parts[0] += sum(parts) == 0
    masses = np.asarray(parts) / sum(parts)
    if draw(st.booleans()):
        caps = rng.multinomial(m, masses).astype(float)
    else:
        caps = m * masses
    return g, caps


@given(transport_stacks())
@settings(max_examples=150, deadline=None)
def test_transport_lmo_stack_matches_single_calls(case):
    g, caps = case
    stacked = transport_lmo(g, caps)
    assert stacked.shape == g.shape
    for one, out in zip(g, stacked):
        assert transport_lmo(one, caps).tobytes() == out.tobytes()
    with pytest.raises(InfeasibleError):
        transport_lmo(g, caps + 0.5)


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


def test_minimize_takes_finite_steps_on_a_subnormal_kernel():
    # 1/L overflowed to inf here, and inf * 0 raised "invalid value"
    for method in ("pgd", "frank_wolfe"):
        rep = minimize_limit_energy(ConstantKernel(1e-310), spin, (0.5, 0.5), 12, method=method)
        assert rep.value == limit_cut_energy(ConstantKernel(1e-310), rep.theta, spin)


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


MODELS = {
    "spin": spin,
    "unit_cut_2": LabelModel.unit_cut((0.0, 1.0)),
    "unit_cut_3": LabelModel.unit_cut((1.0, 2.0, 3.0)),
}


@st.composite
def grid_problems(draw):
    """A symmetric step graphon on k equal blocks, a grid m = k * r and masses."""
    k = draw(st.integers(1, 3))
    r = draw(st.integers(1, 3))
    rng = philox(draw(st.integers(0, 10**6)))
    vals = rng.random((k, k))
    w = StepGraphon(np.full(k, 1.0 / k), 0.5 * (vals + vals.T))
    model = MODELS[draw(st.sampled_from(sorted(MODELS)))]
    raw = rng.random(model.n_labels) + 0.1
    return w, k * r, model, raw / raw.sum()


@given(
    grid_problems(),
    st.sampled_from(["pgd", "frank_wolfe"]),
    st.integers(0, 1000),
)
@settings(max_examples=150, deadline=None)
def test_report_matches_its_own_field(problem, method, seed):
    w, m, model, masses = problem
    rep = minimize_limit_energy(
        w, model, masses, m, method=method, seed=seed, restarts=2, max_iters=40
    )
    assert abs(rep.value - limit_cut_energy(w, rep.theta, model)) <= 1e-12
    weights = rep.theta.weights
    assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-9
    assert np.abs(weights.mean(axis=0) - masses).max() <= 1e-9


@given(
    grid_problems(),
    st.sampled_from(["pgd", "frank_wolfe"]),
    st.integers(0, 1000),
    st.integers(1, 4),
    st.sampled_from([4, 40]),
)
@settings(max_examples=80, deadline=None)
def test_restarts_reduce_to_best_single_restart(problem, method, seed, restarts, iters):
    # restart r is the one-restart solve with seed + r; the best value wins,
    # then the lexicographically smallest field.  Few iterations keep the
    # fields apart, more let rows stop at different steps.
    w, m, model, masses = problem
    solve = dict(w=w, model=model, masses=masses, m=m, method=method, max_iters=iters)
    rep = minimize_limit_energy(seed=seed, restarts=restarts, **solve)
    singles = [
        minimize_limit_energy(seed=seed + r, restarts=1, **solve) for r in range(restarts)
    ]
    best = min(singles, key=lambda s: (s.value, tuple(s.theta.weights.ravel())))
    assert rep.value == best.value
    assert rep.theta.weights.tobytes() == best.theta.weights.tobytes()
    assert rep.iterations == best.iterations


def _pgd_lockstep(kernel_q, model, feasible, x, max_iters, tol):
    # reference: the loop that kept every row in step, with one stop-test
    # projection per outer iteration and then halvings until the slowest
    # row's line search ends.  Its points go through the same step calls
    # as _pgd's, so each starts its projection as it would there.
    kernel_max = float(np.abs(kernel_q.values).max())
    lip = 2.0 * float(np.abs(model.coupling).sum()) * kernel_max / kernel_q.block_count
    step = 1.0 / lip if lip > 0 else 1.0
    energy = limit_cut_energy(kernel_q, feasible.weights(x), model)
    iters = np.zeros(len(x), dtype=int)
    live = np.arange(len(x))
    for _ in range(max_iters):
        if live.size == 0:
            break
        xl = x[live]
        g = feasible.reduce(limit_energy_gradient(kernel_q, feasible.weights(xl), model))
        stop = feasible.step(xl, g, np.zeros(live.size, dtype=bool), np.ones(live.size))
        go = ~(solvers._row_max(np.abs(xl - stop)) <= tol)
        live, xl, g, el = live[go], xl[go], g[go], energy[live[go]]
        trial = np.full(live.size, step)
        xn = np.empty_like(xl)
        en = np.empty(live.size)
        pending = np.ones(live.size, dtype=bool)
        for _ in range(60):
            p = np.flatnonzero(pending)
            if p.size == 0:
                break
            xn[p] = feasible.step(xl[p], g[p], np.zeros(p.size, dtype=bool), trial[p])
            en[p] = limit_cut_energy(kernel_q, feasible.weights(xn[p]), model)
            pending[p] = ~(en[p] <= el[p])
            trial[pending] *= 0.5
        go = ~pending & ~(solvers._row_max(np.abs(xn - xl)) <= 1e-15)
        live = live[go]
        x[live], energy[live] = xn[go], en[go]
        iters[live] += 1
    return x, energy, iters


def _pgd_start(w, model, masses, m, seed, restarts):
    # the kernel, feasible set and projected starts of minimize_limit_energy
    sets = solvers._BoxMeanSet, solvers._TransportSet
    feasible = sets[model.n_labels > 2](np.asarray(masses, dtype=float), m)
    starts = np.stack([philox(seed + r).random(feasible.shape) for r in range(restarts)])
    return cell_averages(w, m), feasible, feasible.project(starts)


# half graph, three labels: with seed 0 and two restarts the rows run 1033
# and 1019 iterations, and their line searches halve in different rounds
_HALF_THREE = (HalfGraphKernel(), 6, MODELS["unit_cut_3"], np.array([0.4, 0.3, 0.3]))


@given(
    grid_problems(),
    st.integers(0, 1000),
    st.integers(1, 6),
    st.sampled_from([0, 1, 2, 4, 40]),
)
@example(_HALF_THREE, 0, 2, 5000)
@settings(max_examples=100, deadline=None)
def test_pgd_rows_match_lockstep_loop(problem, seed, restarts, max_iters):
    # each row keeps its own sequence of points and tests, so the rounds
    # change only the number of calls, never a bit of the result
    w, m, model, masses = problem
    kernel_q, feasible, x = _pgd_start(w, model, masses, m, seed, restarts)
    got = solvers._pgd(kernel_q, model, feasible, x.copy(), max_iters, 1e-10)
    ref = _pgd_lockstep(kernel_q, model, feasible, x.copy(), max_iters, 1e-10)
    for r in range(restarts):
        assert got[0][r].tobytes() == ref[0][r].tobytes()
        assert got[1][r].tobytes() == ref[1][r].tobytes()
        assert got[2][r] == ref[2][r]


def test_pgd_one_projection_per_energy_call(monkeypatch):
    # the PGD solve of the benchmark's three-label workload: at every round
    # one stacked projection, then one energy call over the trials
    calls = []

    def logged(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    # the starts and the residual are projections of the feasible set, the
    # rounds its steps
    for name in ("project", "step"):
        method = getattr(solvers._TransportSet, name)
        monkeypatch.setattr(solvers._TransportSet, name, logged("P", method))
    # the loop evaluates on the checked cell averages, the report through the public function
    monkeypatch.setattr(solvers, "_grid_energy", logged("E", solvers._grid_energy))
    monkeypatch.setattr(solvers, "limit_cut_energy", logged("E", limit_cut_energy))
    model = LabelModel.unit_cut((1.0, 2.0, 3.0))
    minimize_limit_energy(
        BlockDiagonalKernel((0.5, 0.5)), model, (0.5, 0.25, 0.25), 4, seed=7000, restarts=6
    )
    # starts, start energy, the rounds, then the value and the residual
    rounds = (len(calls) - 4) // 2
    assert "".join(calls) == "PE" + "PE" * rounds + "EP"
    assert calls.count("P") <= 80


@pytest.mark.parametrize("method", solvers.METHODS)
@pytest.mark.parametrize(
    "model, masses",
    [(spin, (0.5, 0.5)), (LabelModel.unit_cut((1.0, 2.0, 3.0)), (0.4, 0.3, 0.3))],
    ids=["spin", "three-label"],
)
def test_kernel_checked_once_per_solve(monkeypatch, method, model, masses):
    # the loops read the checked cell-average matrix; the kernel goes through
    # cell_averages only for the solve, the reported value and the residual
    calls = []

    def counted(w, m):
        calls.append(m)
        return cell_averages(w, m)

    monkeypatch.setattr(functionals, "cell_averages", counted)
    monkeypatch.setattr(solvers, "cell_averages", counted)
    counts, iterations = [], []
    for max_iters in (3, 400):
        calls.clear()
        rep = minimize_limit_energy(
            HalfGraphKernel(), model, masses, 6, method=method, restarts=2, max_iters=max_iters
        )
        counts.append(len(calls))
        iterations.append(rep.iterations)
    assert iterations[1] > iterations[0]
    assert counts == [3, 3]


@pytest.mark.parametrize(
    "model",
    [LabelModel((1.0, -1.0), [[0, 1], [1, 0]]), LabelModel((-1.0, 1.0), [[0, 4], [4, 0]])],
    ids=["coupling-1", "minus-first"],
)
def test_only_the_spin_model_is_spin(model):
    # spin means LabelModel.spin(); any other two-label model gets the
    # projected residual max|x - P(x - g)| of the unit_cut path
    assert spin.is_spin and not model.is_spin
    w = HalfGraphKernel()
    rep = minimize_limit_energy(w, model, (0.5, 0.5), 8, restarts=2)
    x = rep.theta.weights[:, 0]
    g = limit_energy_gradient(w, rep.theta, model)
    projected = project_box_mean((x - (g[:, 0] - g[:, 1]))[None], 0.5)[0]
    assert rep.residual == float(np.abs(x - projected).max())


def test_frank_wolfe_bipartite_reaches_minimum_early():
    rep = minimize_limit_energy(
        BipartiteSplitKernel(0.5), spin, (0.5, 0.5), 48, method="frank_wolfe", seed=0
    )
    assert abs(rep.value - 1.0) <= 1e-12
    assert rep.iterations < 5000


def test_frank_wolfe_halfgraph_reaches_third():
    rep = minimize_limit_energy(
        HalfGraphKernel(), spin, (0.5, 0.5), 48, method="frank_wolfe", seed=0, restarts=4
    )
    assert rep.value <= 1 / 3 + 1e-9


def test_minimize_rejects_bad_masses_and_method():
    for masses in ((0.7, 0.7), (0.5, np.nan), (np.inf, -np.inf)):
        with pytest.raises(InfeasibleError, match="probability vector"):
            minimize_limit_energy(ConstantKernel(1.0), spin, masses, 8)
    with pytest.raises(ParameterError):
        minimize_limit_energy(ConstantKernel(1.0), spin, (0.5, 0.5), 8, method="anneal")
    with pytest.raises(ParameterError):
        minimize_limit_energy(ConstantKernel(1.0), spin, (0.5, 0.5), 8, restarts=0)


def test_pgd_monotone_descent_trace():
    kernel_q = cell_averages(HalfGraphKernel(), 24)
    rng = philox(8)
    x = project_box_mean(rng.random(24), 0.5)

    def energy(x):
        return limit_cut_energy(kernel_q, np.column_stack((x, 1.0 - x)), spin)

    energies = [energy(x)]
    step = 24 / (16.0 * np.abs(kernel_q.values).max())
    for _ in range(60):
        full = limit_energy_gradient(kernel_q, np.column_stack((x, 1.0 - x)), spin)
        x = project_box_mean(x - step * (full[:, 0] - full[:, 1]), 0.5)
        energies.append(energy(x))
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
    with pytest.raises(InfeasibleError):
        block_vertex_minimum((0.5, 0.5), np.nan)


@pytest.mark.parametrize("lams", [(0.5, np.nan), (0.5, np.inf), (0.5, 0.0)])
def test_vertex_minimum_rejects_non_finite_or_empty_blocks(lams):
    with pytest.raises(ParameterError, match="block fractions"):
        block_vertex_minimum(lams, 0.5)


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


def _check_vertex_minimizers(res, lams, mass):
    assert res.minimizers
    for a in res.minimizers:
        assert np.all(a >= 0.0) and np.all(a <= lams)
        assert abs(a.sum() - mass) <= 1e-12
        assert abs(8.0 * float((a * (lams - a)).sum()) - res.value) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=12),
    st.floats(0.0, 1.0),
)
@example(lams=[1.0, 0.5], where=1e-12)  # scores of the size of the old 1e-12 tie tolerance
def test_vertex_minimizers_are_feasible_and_give_the_value(lams, where):
    lams = np.asarray(lams)
    mass = where * float(lams.sum())
    _check_vertex_minimizers(block_vertex_minimum(lams, mass), lams, mass)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=8),
    st.integers(1, 24),
    st.floats(0.0, 1.0),
)
def test_vertex_minimum_equals_exact_vertex_enumeration(parts, den, where):
    from fractions import Fraction

    fracs = [Fraction(p, den) for p in parts]
    mass = Fraction(round(where * sum(parts)), den)
    lams = np.asarray([float(f) for f in fracs])
    res = block_vertex_minimum(lams, float(mass))
    _check_vertex_minimizers(res, lams, float(mass))
    # a vertex puts every block but at most one (j) at 0 or lambda
    best = None
    for code in range(1 << len(fracs)):
        rest = mass - sum(f for k, f in enumerate(fracs) if code >> k & 1)
        for j, f in enumerate(fracs):
            if not code >> j & 1 and 0 <= rest <= f:
                g = 8 * rest * (f - rest)
                best = g if best is None else min(best, g)
    assert abs(res.value - float(best)) <= 1e-12


# ---------------------------------------------------------------------------
# exact grid minimum of step kernels


@st.composite
def grid_step_kernels(draw):
    m = draw(st.sampled_from([12, 24]))
    k = draw(st.integers(1, 5))
    cuts = draw(st.lists(st.integers(1, m - 1), min_size=k - 1, max_size=k - 1, unique=True))
    pairs = k * (k + 1) // 2
    upper = draw(st.lists(st.floats(0.0, 1.0), min_size=pairs, max_size=pairs))
    values = np.zeros((k, k))
    values[np.triu_indices(k)] = upper
    values += np.triu(values, 1).T
    return StepKernel(np.array([0, *sorted(cuts), m]) / m, values), m


@settings(max_examples=40, deadline=None)
@given(grid_step_kernels())
def test_step_limit_minimum_is_a_feasible_field_never_above_pgd(case):
    kernel, m = case
    res = step_limit_minimum(kernel, m)
    plus = res.theta.weights[:, 0]
    assert res.theta.m == m and np.all((plus >= 0.0) & (plus <= 1.0))
    assert abs(plus.mean() - 0.5) <= 1e-12
    assert res.value == limit_cut_energy(kernel, res.theta, spin)
    pgd = minimize_limit_energy(kernel, spin, (0.5, 0.5), m, seed=m, restarts=16)
    assert res.value <= pgd.value + 1e-12


@pytest.mark.parametrize(
    "lams, m",
    [((0.45, 0.35, 0.2), 20), ((0.3, 0.3, 0.4), 20), ((0.5, 0.5), 8),
     ((1 / 3, 1 / 3, 1 / 3), 12), ((0.1, 0.2, 0.3, 0.4), 10)],
)
def test_step_limit_minimum_equals_the_vertex_minimum_on_block_kernels(lams, m):
    value = step_limit_minimum(BlockDiagonalKernel(lams), m).value
    assert abs(value - block_vertex_minimum(lams, 0.5).value) <= 1e-12


@pytest.mark.parametrize("gamma, m", [(0.5, 48), (0.3, 20), (0.25, 8), (0.75, 16)])
def test_step_limit_minimum_on_the_bipartite_kernel(gamma, m):
    value = step_limit_minimum(BipartiteSplitKernel(gamma), m).value
    assert abs(value - 4.0 * gamma * (1.0 - gamma)) <= 1e-12


@pytest.mark.parametrize("m", [2, 16, 48])
def test_step_limit_minimum_on_the_complete_kernel_is_two(m):
    assert step_limit_minimum(ConstantKernel(1.0), m).value == 2.0


@pytest.mark.parametrize(
    "lams, plus, value",
    [
        ((0.45, 0.35, 0.2), [1.0] * 9 + [0.0] * 7 + [0.2499999999999998] * 4, 0.05999999999999995),
        ((0.3, 0.3, 0.4), [0.6666666666666666] * 6 + [1.0] * 6 + [0.0] * 8, 0.16),
    ],
)
def test_step_limit_minimum_returns_the_first_face_point_of_least_value(lams, plus, value):
    # pins the field, not only its value: the face order picks one minimizer
    res = step_limit_minimum(BlockDiagonalKernel(lams), 20)
    assert res.theta.weights[:, 0].tolist() == plus
    assert res.value == value


def test_step_limit_minimum_needs_a_step_kernel_on_the_grid_within_the_cap():
    for kernel in (BipartiteSplitKernel(0.3), HalfGraphKernel()):
        with pytest.raises(ParameterError):
            step_limit_minimum(kernel, 16)
    with pytest.raises(CapacityError):
        step_limit_minimum(CheckerboardKernel(6), 12)


def _all_face_points(widths, values, mass):
    # the enumerator before second-order pruning: every free set gets its solve
    m = widths.size
    cvec = values @ widths
    for free_bits in range(1 << m):
        free = [i for i in range(m) if (free_bits >> i) & 1]
        rest = [i for i in range(m) if not (free_bits >> i) & 1]
        digits = (np.arange(1 << len(rest))[:, None] >> np.arange(len(rest))) & 1
        s_all = np.zeros((digits.shape[0], m))
        s_all[:, rest] = widths[rest] * digits
        if not free:
            s_all = s_all[np.abs(s_all.sum(axis=1) - mass) <= 1e-12]
        else:
            k = len(free)
            a_mat = np.block(
                [
                    [2.0 * values[np.ix_(free, free)], np.ones((k, 1))],
                    [np.ones((1, k)), np.zeros((1, 1))],
                ]
            )
            rhs = np.vstack(
                (
                    cvec[free][:, None] - 2.0 * (values[free, :] @ s_all.T),
                    mass - s_all.sum(axis=1)[None, :],
                )
            )
            sol, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
            ok = np.max(np.abs(a_mat @ sol - rhs), axis=0) <= 1e-8 * (
                1.0 + np.max(np.abs(rhs), axis=0)
            )
            sol = sol[:k]
            ok &= np.all(sol >= -1e-12, axis=0)
            ok &= np.all(sol <= widths[free][:, None] + 1e-12, axis=0)
            if not np.any(ok):
                continue
            s_all = s_all[ok]
            s_all[:, free] = np.clip(sol[:, ok].T, 0.0, widths[free])
        if s_all.shape[0]:
            yield s_all, s_all @ cvec - np.einsum("bi,ij,bj->b", s_all, values, s_all)


@st.composite
def grid_cell_averages(draw):
    m = draw(st.integers(1, 7))
    if draw(st.booleans()):
        return cell_averages(HalfGraphKernel(), m), m
    entry = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0]))
    upper = draw(st.lists(entry, min_size=m * (m + 1) // 2, max_size=m * (m + 1) // 2))
    values = np.zeros((m, m))
    values[np.triu_indices(m)] = upper
    values += np.triu(values, 1).T
    return cell_averages(StepGraphon(np.full(m, 1.0 / m), values), m), m


# the unpruned run's first least point on these equal blocks is a rounding
# copy, on a skipped face, of a kept point: it undercuts the kept minimizers
# by 3e-17 and gives another field of the same value
_ROUNDING_TIE = np.array(
    [[0.0, 0.0, 0.0, 1e-15], [0.0, 1.0, 0.5, 1.0], [0.0, 0.5, 1.0, 0.5], [1e-15, 1.0, 0.5, 0.0]]
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(grid_step_kernels(), grid_cell_averages()))
@example((StepGraphon(np.full(4, 0.25), _ROUNDING_TIE), 4))
def test_pruned_faces_keep_the_minimum_of_every_kernel(case):
    kernel, m = case
    idx = kernel.block_index((np.arange(m) + 0.5) / m)
    widths = np.bincount(idx, minlength=kernel.block_count) / m
    full = list(_all_face_points(widths, kernel.values, 0.5))
    kept = list(solvers._face_points(widths, kernel.values, 0.5))
    # the kept faces are solved as before: their groups, bit for bit and in order
    groups = iter(full)
    for points, q in kept:
        assert any(np.array_equal(points, p) and np.array_equal(q, f) for p, f in groups)
    least = min(q.min() for _, q in full)
    assert min(q.min() for _, q in kept) - least <= 1e-12
    res = step_limit_minimum(kernel, m)
    with mock.patch.object(solvers, "_face_points", _all_face_points):
        oracle = step_limit_minimum(kernel, m)
    # the same field and value, unless the first least point lies on a skipped
    # face: there it ties a kept point to rounding (_ROUNDING_TIE)
    first = next(p[np.argmin(q)] for p, q in full if q.min() == least)
    if any(np.any(np.all(points == first, axis=1)) for points, _ in kept):
        assert res.theta.weights.tolist() == oracle.theta.weights.tolist()
        assert res.value == oracle.value
    assert abs(res.value - oracle.value) <= 1e-12


def test_face_points_solve_only_the_faces_where_q_curves_upward(monkeypatch):
    lstsq, solves = np.linalg.lstsq, []

    def counted(a_mat, rhs, **kwargs):
        solves.append(a_mat.shape[0] - 1)  # the size of the free set
        return lstsq(a_mat, rhs, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    # the half graph's cell averages on 6 cells: 27 of the 63 nonempty free sets
    assert step_limit_minimum(cell_averages(HalfGraphKernel(), 6), 6).value == 0.33333333333333337
    assert len(solves) == 27 and solves.count(1) == 6


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
