"""Discrete minimal-cut solvers and continuum energy minimizers.

Exact solvers (subset enumeration, polytope vertex enumeration) double as
oracles for the heuristics: swap descent for graphs, projected gradient and
Frank-Wolfe for the grid-discretized continuum problem.  Everything is
deterministic given (inputs, seed); restart reductions are order-independent
(best value, then lexicographically smallest argument).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InfeasibleError, ParameterError
from .fields import LabelModel, ThetaField
from .functionals import (
    _grid_energy,
    _grid_gradient,
    cell_averages,
    discrete_cut_energy,
    kkt_residual,
    limit_cut_energy,
    limit_energy_gradient,
)
from .graphons import Graph, _pattern_chunk, _rng

BRUTE_BISECTION_MAX_NODES = 28
METHODS = ("pgd", "frank_wolfe")  # continuum solver methods
VERTEX_ENUM_MAX_BLOCKS = 20
STEP_MINIMUM_MAX_BLOCKS = 10
# cuts per float32 block in brute_bisection (64 KiB): with at most 16 terms
# per cut a block's GEMM has M*N*K <= 2^18, which OpenBLAS runs on one thread
_BISECTION_BLOCK_ENTRIES = 1 << 14

_TIE_TOL = 1e-12
# a minimize_limit_energy restart stops once max|x - P(x - g)| (PGD) or the
# Frank-Wolfe gap is at most this
_LIMIT_STOP_TOL = 1e-10


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solver run; value always re-evaluates the argument."""

    value: float
    method: str
    seed: int
    restarts: int
    iterations: int
    labels: tuple = None
    theta: ThetaField = None
    residual: float = None

    def to_dict(self):
        out = {
            "value": self.value,
            "method": self.method,
            "seed": self.seed,
            "restarts": self.restarts,
            "iterations": self.iterations,
            "residual": self.residual,
        }
        if self.labels is not None:
            out["labels"] = list(self.labels)
        if self.theta is not None:
            out["theta"] = [list(row) for row in self.theta.weights]
        return out


# ---------------------------------------------------------------------------
# discrete solvers


def brute_bisection(g: Graph) -> SolveReport:
    """Exact balanced-bisection minimum of the spin cut energy.

    Evaluates the C(n-1, n/2-1) balanced sets S containing node 1 and reports
    the lexicographically smallest minimizer.  The enumeration is split in
    half (Horowitz-Sahni 1974): lo holds nodes 1..h with node 1 always in S,
    hi the other nodes.  With cut(S) = sum of degrees - 2 e(S) and e(S) =
    e(S_lo) + e(S_hi) + x_lo' A[lo, hi] x_hi, each half pattern gets an
    integer base (degree sum less twice its internal edge count), and each
    cut is the product [x_lo' A[lo, hi] | base_lo | 1] @ [-2 x_hi ; 1 ;
    base_hi].  The halves are paired one lo popcount at a time, in blocks of
    at most _BISECTION_BLOCK_ENTRIES cuts, each one float32 GEMM.  Every
    factor entry is an integer and at 28 nodes every partial sum is below
    2^11 in magnitude, far inside float32's 2^24, so every cut is exact in
    any summation order.  Rows and columns run in descending membership code
    (node 2 as the most significant bit), so the first minimum in row-major
    order is the largest code, which is the lexicographically smallest
    member tuple.
    """
    n = g.n
    if n % 2 != 0:
        raise ParameterError("bisection needs an even node count")
    if n > BRUTE_BISECTION_MAX_NODES:
        raise CapacityError(
            f"exact bisection capped at {BRUTE_BISECTION_MAX_NODES} nodes, got {n}"
        )
    adjacency = g.adjacency().astype(np.int32)
    degrees = adjacency.sum(axis=1)
    h = 1 + (n - 1) // 2
    # lo patterns over nodes 1..h with the leading bit (node 1) set
    lo_pats = _pattern_chunk(1 << (h - 1), 1 << h, h, np.int32)
    hi_pats = _pattern_chunk(0, 1 << (n - h), n - h, np.int32)
    # degree sum minus twice the internal edge count of each half pattern
    lo_base = lo_pats @ degrees[:h] - ((lo_pats @ adjacency[:h, :h]) * lo_pats).sum(1)
    hi_base = hi_pats @ degrees[h:] - ((hi_pats @ adjacency[h:, h:]) * hi_pats).sum(1)
    # cut = left[a] @ right[:, b] with left = [x_lo' A[lo, hi] | base_lo | 1]
    # and right = [-2 x_hi' ; 1 ; base_hi]
    left = np.column_stack((lo_pats @ adjacency[:h, h:], lo_base, np.ones_like(lo_base)))
    left = left.astype(np.float32)
    right = np.vstack((-2 * hi_pats.T, np.ones_like(hi_base), hi_base), dtype=np.float32)
    lo_groups = _popcount_groups(lo_pats[:, 1:])
    hi_groups = _popcount_groups(hi_pats)
    need = n // 2 - 1
    best_cut = None
    best_code = None
    evaluated = 0
    # the lo popcounts c run over 0..h-1 and the h + 1 hi groups over 0..h,
    # so every c has its partner group need - c
    for c, ia in enumerate(lo_groups):
        ib = hi_groups[need - c]
        lo_c = left[ia]
        hi_c = right.take(ib, axis=1)  # row-major: a column-major right factor is slower
        rows = max(1, _BISECTION_BLOCK_ENTRIES // ib.size)
        for r0 in range(0, ia.size, rows):
            cuts = lo_c[r0 : r0 + rows] @ hi_c
            evaluated += cuts.size
            k = int(np.argmin(cuts))
            cut = cuts.flat[k]
            a, b = divmod(k, ib.size)
            code = (int(ia[r0 + a]) << (n - h)) | int(ib[b])
            # smallest cut, then largest code
            if best_cut is None or (cut, -code) < (best_cut, -best_code):
                best_cut, best_code = cut, code
    code = best_code | 1 << (n - 1)  # node 1 in front
    labels = np.where(_pattern_chunk(code, code + 1, n)[0] > 0, 1.0, -1.0)
    value = discrete_cut_energy(g, labels, LabelModel.spin())
    return SolveReport(
        value=value,
        method="brute_bisection",
        seed=0,
        restarts=0,
        iterations=evaluated,
        labels=tuple(labels),
    )


def _popcount_groups(pats):
    # row indices of each popcount, in descending pattern code
    counts = pats.sum(axis=1).astype(int)
    order = np.arange(pats.shape[0])[::-1]
    return [order[counts[order] == c] for c in range(pats.shape[1] + 1)]


def swap_descent(g: Graph, labels, model: LabelModel):
    """First-improvement pairwise-swap descent preserving label counts.

    Swapping the labels a of node i and b of node j (a != b) changes the cut
    energy by 2·(di + dj)/n², where di = gain[i, b] - gain[i, a], less the
    bond term f[b, b] - f[a, b] when i and j are adjacent, dj is its mirror
    image, and gain[v, c] = Σ over neighbours u of v of f[c, label(u)].  As
    in the gain bookkeeping of Kernighan-Lin (1970) and Fiduccia-Mattheyses
    (1982), the gain matrix comes from the neighbour label counts
    counts[v, k], which a swap updates from two adjacency columns.

    The adjacency is symmetric, so the n×n matrix of the dj is the transpose
    of that of the di, float operation for float operation.  Each scan
    therefore gathers one half-delta, dj (rows of the gain matrix less the
    bond term), and swaps the first pair, in row-major order, whose change
    2·(dj + dj.T) is below -1e-9; the scan repeats until no pair improves.
    Pairs with equal labels and the diagonal score exactly 0 and the sum is
    symmetric, so the first hit of the whole matrix is the first improving
    pair i < j, found by argmax without a pair mask.  The bond term is kept
    as an n×n array whose two swapped rows and columns follow each swap.
    The labeling and swap count equal those of scoring di and dj apart for
    every symmetric coupling, and for integer-valued couplings every sum is
    exact, so they equal those of scanning the pairs one by one.  Returns
    (labels, accepted swap count).
    """
    n = g.n
    labels = np.asarray(labels, dtype=float)
    if labels.shape != (n,):
        raise ParameterError(f"need one label per node ({n}), got shape {labels.shape}")
    idx = model.indices(labels)
    f = model.coupling
    adjacency = g.adjacency().astype(float)
    counts = adjacency @ (idx[:, None] == np.arange(model.n_labels)).astype(float)
    nodes = np.arange(n)
    bond_of = np.diag(f)[:, None] - f  # bond_of[a, b] = f[a, a] - f[a, b]
    bond = adjacency * bond_of[idx[:, None], idx]
    swaps = 0
    while True:
        gain = counts @ f.T
        gain -= gain[nodes, idx, None]
        dj = gain.T[idx]  # dj[i, j] = gain[j, a] - gain[j, b], a = idx[i], b = idx[j]
        dj -= bond
        # delta = 2·(dj + dj.T), and doubling is exact
        hit = dj + dj.T < -0.5e-9
        k = int(np.argmax(hit))
        if not hit.flat[k]:
            break
        i, j = divmod(k, n)
        a, b = idx[i], idx[j]
        moved = adjacency[:, i] - adjacency[:, j]
        counts[:, a] -= moved
        counts[:, b] += moved
        idx[i], idx[j] = b, a
        for v in (i, j):
            bond[v] = adjacency[v] * bond_of[idx[v], idx]
            bond[:, v] = adjacency[:, v] * bond_of[idx, idx[v]]
        swaps += 1
    return np.asarray(model.labels)[idx], swaps


def local_search_partition(g: Graph, sizes, model: LabelModel, seed=0, restarts=8) -> SolveReport:
    """Multi-restart swap descent for partitions with sizes[k] nodes on label k."""
    if restarts < 1:
        raise ParameterError("need at least one restart")
    # integral floats and numpy integers count as sizes; 2.5 nodes do not
    sizes = tuple(int(v) if float(v).is_integer() else v for v in sizes)
    counts = all(type(v) is int and v >= 0 for v in sizes)
    if len(sizes) != model.n_labels or not counts or sum(sizes) != g.n:
        raise InfeasibleError(
            f"sizes {sizes} are not {model.n_labels} nonnegative counts summing to n={g.n}"
        )
    best = None
    for r in range(restarts):
        perm = _rng(seed, r).permutation(g.n)
        start = np.empty(g.n)
        start[perm] = np.repeat(model.labels, sizes)
        labels, swaps = swap_descent(g, start, model)
        value = discrete_cut_energy(g, labels, model)
        key = (value, tuple(labels))
        if best is None or key < (best[0], best[1]):
            best = (value, tuple(labels), swaps)
    return SolveReport(
        value=best[0],
        method="local_search",
        seed=seed,
        restarts=restarts,
        iterations=best[2],
        labels=best[1],
    )


# ---------------------------------------------------------------------------
# feasible-set projections


def project_box_mean(y, mean):
    """Euclidean projection onto {x in [0,1]^m : mean(x) = mean}.

    Works along the last axis: y is one vector or a stack (..., m) of rows,
    each projected on its own, and a row of a stack comes out exactly as it
    would alone.  The projection is clip(y + tau) for a scalar shift tau per
    row.  The clipped sum S(tau) = sum_i clip(y_i + tau, 0, 1) is
    piecewise linear and nondecreasing, with breakpoints 0 - y_i and
    1 - y_i (Held, Wolfe and Crowder 1974; Condat 2016).  After one sort
    of the breakpoints, S at each of them follows from the slope of S, the
    number of free coordinates, which grows by one past each 0 - y_i and
    falls by one past each 1 - y_i.  The count of breakpoints where S is
    below the target m * mean brackets the target between two neighbours.
    On that piece the set of free coordinates (strictly inside the box) is
    fixed, and tau is solved from it in closed form, so the mean of the
    result is exact up to rounding.  Cost O(m log m) per row.
    """
    y = np.asarray(y, dtype=float)
    m = y.shape[-1]
    if not 0.0 <= mean <= 1.0:
        raise InfeasibleError("target mean outside the box range")
    target = m * mean
    breaks = np.concatenate((0.0 - y, 1.0 - y), axis=-1)
    order = np.argsort(breaks, axis=-1)
    taus = np.take_along_axis(breaks, order, axis=-1)
    slope = np.cumsum(np.where(order < m, 1.0, -1.0), axis=-1)
    rise = np.cumsum(slope[..., :-1] * np.diff(taus, axis=-1), axis=-1)
    # S is 0 at the first breakpoint and rise after it
    below = (0.0 < target) + (rise < target).sum(axis=-1, keepdims=True)
    # S reaches the target on [taus[k-1], taus[k]]; the clip covers
    # mean == 0 and mean == 1, where the piece next to the end is used
    k = np.clip(below, 1, 2 * m - 1)
    ends = np.take_along_axis(taus, np.concatenate((k - 1, k), axis=-1), axis=-1)
    inner = y + 0.5 * (ends[..., :1] + ends[..., 1:])
    at_lo = inner <= 0.0
    at_hi = inner >= 1.0
    free = ~(at_lo | at_hi)
    n_free = free.sum(axis=-1, keepdims=True)
    # coordinates clipped to 0 add nothing, those clipped to 1 add one each
    rest = (
        target
        - at_hi.sum(axis=-1, keepdims=True)
        - np.where(free, y, 0.0).sum(axis=-1, keepdims=True)
    )
    # with no free coordinate S is flat on the piece (tied breakpoints) and
    # its end already lands on the target
    tau = np.where(n_free > 0, rest / np.maximum(n_free, 1), ends[..., 1:])
    return np.clip(y + tau, 0.0, 1.0)


def project_rows_simplex(y):
    """Euclidean projection of each row (last axis) onto the probability simplex."""
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    srt = np.sort(y, axis=-1)[..., ::-1]
    # avg_j = (sum of the j largest - 1) / j, and tau is avg at the last j
    # with srt_j > avg_j
    avg = (np.cumsum(srt, axis=-1) - 1.0) / np.arange(1.0, n + 1.0)
    rho = n - 1 - np.argmax((srt > avg)[..., ::-1], axis=-1)
    tau = avg.reshape(-1, n)[np.arange(rho.size), rho.reshape(-1)]
    return np.maximum(y - tau.reshape(rho.shape + (1,)), 0.0)


def project_polytope(y, masses):
    """Euclidean projection onto {rows in the simplex, column means = masses}.

    y is one m x N matrix or a stack (..., m, N) of them, each projected on
    its own, and a problem of a stack comes out exactly as it would alone.
    Row i of the projection is project_rows_simplex(y_i - mu) for the dual
    vector mu that maximizes the concave, piecewise quadratic dual, whose
    gradient is r = colsum(x) - m * masses.  Newton steps start at mu = 0
    and solve (L + max|r| / (ptp(y) + 1) I) step = r, with L = sum_i (D_i -
    a_i a_i' / |A_i|) the Laplacian of the active entries (x_ik > 0).  Rows
    with one active label add no curvature; the shift keeps steps along
    such flat directions about as long as the spread of y, and vanishes
    with r.

    A label whose target m * mass is within the stopping test is cut: every
    row gives it its mass, clipped at 0, and the other labels make a problem
    of their own on rows that sum to the rest s, solved as s times the
    projection of y / s.  A zero mass is cut to an exactly zero column with
    s = 1, and that is the projection itself: on the feasible set its column
    is zero, so ||x - y||^2 splits into the column's squared norm and the
    distance over the other labels.  Raises InfeasibleError when no label
    is left.

    The projected-gradient solver of `minimize_limit_energy` starts its
    projections of x - t g at the step's tangent dual instead; this
    function, the solver's starts and its reported residual start at 0.

    A step is halved until the dual still rises at its end, <r, step> >= 0,
    a test on residuals that rounding of the dual value cannot upset.  All
    problems take their steps together; each returns once every column sum
    is within 1e-12 * m of its target.  Raises InfeasibleError when 100
    steps do not get a problem there, or when a Newton system is singular.
    """
    y = np.asarray(y, dtype=float)
    return _TransportSet(np.asarray(masses, dtype=float), y.shape[-2]).project(y)


def _active_laplacian(a):
    # sum_i (D_i - a_i a_i' / |A_i|) over the rows of each stacked 0/1 mask
    share = (a / a.sum(axis=2, keepdims=True)).swapaxes(1, 2) @ a
    return a.sum(axis=1)[:, :, None] * np.eye(a.shape[2]) - share


def _flat_projector(lap):
    # the orthogonal projector onto the null space of each stacked Laplacian:
    # labels that share a row with both active are linked, and L is flat
    # along the indicator of each linked component
    nlab = lap.shape[-1]
    reach = (lap != 0.0) | np.eye(nlab, dtype=bool)
    for _ in range((nlab - 2).bit_length()):
        reach = reach @ reach
    return reach / reach.sum(axis=-1, keepdims=True)


def _tangent_dual(active, g):
    # a step x - t g that keeps every row's active set moves column k by
    # -t b_k - (L mu)_k, b_k = sum_i a_ik (g_ik - mean of g_i over A_i), so
    # mu = t nu with L nu = -b keeps the column sums.  b sums to zero over
    # each linked component, and nu is the solution with zero component
    # sums, of (L + P) nu = -b for the projector P onto the flat directions;
    # L + P is positive definite, so there is no singular case.
    a = active.astype(float)
    mean = (a * g).sum(axis=2, keepdims=True) / a.sum(axis=2, keepdims=True)
    b = (a * (g - mean)).sum(axis=1)
    lap = _active_laplacian(a)
    return np.linalg.solve(lap + _flat_projector(lap), -b[..., None])[..., 0]


def _polytope_newton(ys, target, mu, tol):
    # damped Newton on the dual of every problem of the stack ys (P, m, N),
    # each from its start in mu (P, N), or cold from 0 when mu is None;
    # returns the projections.  A problem leaves the stack once it is done.
    # The shift damps every direction from a cold start, and only the flat
    # ones from a warm start, so that there a step that keeps the active
    # sets lands on the column sums.
    warm = mu is not None
    eye = np.eye(target.size)
    if not warm:
        mu = np.zeros((len(ys), target.size))
    spread = np.ptp(ys, axis=(1, 2)) + 1.0
    out = np.empty_like(ys)

    def at(live, mu):
        x = project_rows_simplex(ys[live] - mu[:, None, :])
        return x, x.sum(axis=1) - target

    def accepted(resid, step):
        rise = (resid[:, None, :] @ step[:, :, None])[:, 0, 0]
        return (_row_max(np.abs(resid)) <= tol) | (rise >= 0.0)

    live = np.arange(len(ys))
    x, resid = at(live, mu)
    for _ in range(100):
        done = _row_max(np.abs(resid)) <= tol
        if done.all():
            out[live] = x
            return out
        if done.any():
            out[live[done]] = x[done]
            live, mu, x, resid = live[~done], mu[~done], x[~done], resid[~done]
        shift = _row_max(np.abs(resid)) / spread[live]
        lap = _active_laplacian((x > 0.0).astype(float))
        lhs = lap + shift[:, None, None] * (_flat_projector(lap) if warm else eye)
        try:
            step = np.linalg.solve(lhs, resid[..., None])[..., 0]
        except np.linalg.LinAlgError:
            raise InfeasibleError(
                "polytope projection failed: a Newton step met a singular system"
            ) from None
        # a constant shift of mu leaves every row unchanged
        step -= step.mean(axis=1, keepdims=True)
        t = np.ones(live.size)
        xt, rt = at(live, mu + step)
        pending = ~accepted(rt, step)
        for _ in range(59):
            p = np.flatnonzero(pending)
            if p.size == 0:
                break
            t[p] *= 0.5
            xt[p], rt[p] = at(live[p], mu[p] + t[p, None] * step[p])
            pending[p] = ~accepted(rt[p], step[p])
        if pending.any():
            break
        mu = mu + t[:, None] * step
        x, resid = xt, rt
    raise InfeasibleError(
        "polytope projection did not reach the column means; check the masses"
    )


def transport_lmo(g, caps):
    """Minimize <g, v> over {v >= 0 : rows sum to 1, column sums = caps}.

    g is one m x N cost matrix or a stack (..., m, N) of them, each solved on
    its own, and a problem of a stack comes out exactly as it would alone.
    Successive shortest paths (Ahuja, Magnanti and Orlin 1993, ch. 9): rows
    enter one at a time with one unit each.  Weight of a row j moves from
    label k to label l at cost g[j, l] - g[j, k] while v[j, k] > 0;
    Bellman-Ford over the labels, from the entering row's costs, finds the
    cheapest path to a label with capacity left, and the unit flows along it
    as far as the path allows.  Each augmentation round runs Bellman-Ford
    and the path walk for all problems still placing weight at once.  Every
    augmentation keeps the partial flow optimal, so the result is exact for
    real capacities.  Ties go to the lowest label and row; a path is only
    replaced by one cheaper by more than 1e-14 times the cost scale.
    """
    g = np.asarray(g, dtype=float)
    m, nlab = g.shape[-2:]
    gs = g.reshape(-1, m, nlab)
    rem = np.array(np.broadcast_to(caps, g.shape[:-2] + (nlab,)), dtype=float)
    rem = rem.reshape(-1, nlab)
    if np.any(np.abs(rem.sum(axis=1) - m) > 1e-12 * m):
        raise InfeasibleError("capacities must sum to the row count")
    v = np.zeros_like(gs)
    tol = 1e-14 * (1.0 + np.abs(gs).max(axis=(1, 2)))
    # moves[p, j, k, l]: in problem p, row j from label k to label l
    moves = gs[:, :, None, :] - gs[:, :, :, None]
    for i in range(m):
        left = np.ones(len(gs))
        while True:
            # a shortfall of the capacities by rounding stays unplaced
            p = np.flatnonzero((left > 0.0) & np.any(rem > 0.0, axis=1))
            if p.size == 0:
                break
            cost = np.where((v[p] > 0.0)[..., None], moves[p], np.inf)
            via, hop = cost.argmin(axis=1), cost.min(axis=1)
            dist, prev = gs[p, i], np.full((p.size, nlab), -1)
            for _ in range(nlab - 1):
                cand = dist[:, :, None] + hop
                best = cand.min(axis=1)
                better = best < dist - tol[p, None]
                if not better.any():
                    break
                prev[better] = cand.argmin(axis=1)[better]
                dist[better] = best[better]
            sink = np.argmin(np.where(rem[p] > 0.0, dist, np.inf), axis=1)
            amount = np.minimum(left[p], rem[p, sink])
            node, hops = sink.copy(), []
            # a path has at most nlab - 1 hops, even if rounding closed a cycle
            for _ in range(nlab - 1):
                w = np.flatnonzero(prev[np.arange(p.size), node] >= 0)
                if w.size == 0:
                    break
                k, l = prev[w, node[w]], node[w]
                j = via[w, k, l]
                hops.append((p[w], j, k, l, w))
                amount[w] = np.minimum(amount[w], v[p[w], j, k])
                node[w] = k
            v[p, i, node] += amount
            for q, j, k, l, w in hops:
                v[q, j, k] -= amount[w]
                v[q, j, l] += amount[w]
            rem[p, sink] -= amount
            left[p] -= amount
    return v.reshape(g.shape)


# ---------------------------------------------------------------------------
# continuum minimization


class _BoxMeanSet:
    """Two labels: the iterate is the label-0 weight x with mean(x) fixed.

    Every method takes a stack (R, m) of iterates, one row per restart.
    """

    def __init__(self, masses, m):
        self.mass0 = masses[0]
        self.m = m
        self.shape = (m,)

    def weights(self, x):
        return np.stack((x, 1.0 - x), axis=-1)

    def reduce(self, g):
        # moving x moves the label-1 weight the other way
        return g[..., 0] - g[..., 1]

    def project(self, y):
        return project_box_mean(y, self.mass0)

    def step(self, x, g, fresh, trial):
        return self.project(_step_points(x, g, fresh, trial))

    def lmo(self, g):
        """Minimize <g, v> over the box with sum(v) = m * mass0, by greedy fill."""
        total = self.m * self.mass0
        fill = np.zeros(self.m)
        full = int(np.floor(total + 1e-9))
        fill[:full] = 1.0
        rem = total - full
        if rem > 1e-12 and full < self.m:
            fill[full] = rem
        v = np.empty_like(g)
        order = np.argsort(g, axis=-1, kind="stable")
        np.put_along_axis(v, order, np.broadcast_to(fill, g.shape), axis=-1)
        return v


class _TransportSet:
    """Other label counts: the iterate is the full m x N weight matrix.

    Every method takes a stack (R, m, N) of iterates, one problem per restart.
    """

    def __init__(self, masses, m):
        self.masses = masses
        self.m = m
        self.shape = (m, masses.size)
        # the mass cut of project_polytope
        self.tol = 1e-12 * m
        self.kept = np.abs(m * masses) > self.tol
        if not self.kept.any():
            raise InfeasibleError("every mass is within the stopping test of zero")
        self.fill = np.where(self.kept, 0.0, np.maximum(masses, 0.0))
        self.rest = 1.0 - self.fill.sum()
        self.target = m * (masses[self.kept] / self.rest)

    def weights(self, x):
        return x

    def reduce(self, g):
        return g

    def project(self, y):
        return self._project(y, None)

    def step(self, x, g, fresh, trial):
        # each point x - t g starts at t nu for the tangent dual nu of its row
        kept = self.kept
        nu = _tangent_dual(np.compress(kept, x, axis=-1) > 0.0, np.compress(kept, g, axis=-1))
        mu = np.concatenate((nu[fresh], _rowwise(trial, nu) * nu)) / self.rest
        return self._project(_step_points(x, g, fresh, trial), mu)

    def _project(self, y, mu):
        # project_polytope, with Newton started at the dual mu (0 if None)
        kept, nlab = self.kept, self.target.size
        ys = np.compress(kept, y, axis=-1).reshape(-1, self.m, nlab) / self.rest
        x = _polytope_newton(ys, self.target, mu, self.tol)
        full = np.zeros(y.shape) + self.fill
        full[..., kept] = self.rest * x.reshape(y.shape[:-1] + (nlab,))
        return full

    def lmo(self, g):
        return transport_lmo(g, self.m * self.masses)


def _step_points(x, g, fresh, trial):
    # the stop-test points x - g of the fresh rows, then every row's trial
    return np.concatenate((x[fresh] - g[fresh], x - _rowwise(trial, x) * g))


def _rowwise(a, like):
    # one value per row of a stack, shaped to broadcast against it
    return a.reshape(a.shape + (1,) * (like.ndim - 1))


def _row_max(a):
    return a.max(axis=tuple(range(1, a.ndim)))


def _pgd(kernel_q, model, feasible, x, max_iters, tol):
    # every row of x is one restart, updated in place; a row retires when it
    # stops, and the others go on exactly as they would alone.  Rows do not
    # wait for each other: each round makes one stacked projection, by the
    # feasible set's step, and one energy call over every live row.  A row
    # starting an iteration adds its stop-test point x - g and its first
    # trial x - g / L; a row in its line search adds its next halved trial.
    # With three or more labels the step starts each point's Newton steps
    # at its tangent dual.
    kernel, coupling = kernel_q.values, model.coupling
    lip = 2.0 * float(np.abs(coupling).sum()) * float(np.abs(kernel).max()) / len(kernel)
    # a zero kernel has g = 0; a subnormal one must not make the step inf
    step = 1.0 / max(lip, np.finfo(float).tiny)
    energy = _grid_energy(kernel, feasible.weights(x), coupling)
    iters = np.zeros(len(x), dtype=int)
    g = np.empty_like(x)
    trial = np.full(len(x), step)
    tries = np.zeros(len(x), dtype=int)  # trials of the current line search
    live = np.arange(len(x) if max_iters > 0 else 0)
    while live.size:
        xl = x[live]
        fresh = tries[live] == 0
        new = live[fresh]
        if new.size:
            g[new] = feasible.reduce(_grid_gradient(kernel, feasible.weights(xl[fresh]), coupling))
        gl = g[live]
        points = feasible.step(xl, gl, fresh, trial[live])
        xn = points[new.size :]
        en = _grid_energy(kernel, feasible.weights(xn), coupling)
        go = np.ones(live.size, dtype=bool)
        go[fresh] = ~(_row_max(np.abs(xl[fresh] - points[: new.size])) <= tol)
        pending = ~(en <= energy[live])
        tries[live] += 1
        trial[live[pending]] *= 0.5
        # a row retires at its stop test, at max_iters accepted steps, after
        # 60 rejected trials, or when its accepted trial does not move it
        moved = go & ~pending & ~(_row_max(np.abs(xn - xl)) <= 1e-15)
        took = live[moved]
        x[took], energy[took] = xn[moved], en[moved]
        iters[took] += 1
        tries[took], trial[took] = 0, step
        live = live[moved & (iters[live] < max_iters) | go & pending & (tries[live] < 60)]
    return x, energy, iters


def _fw(kernel_q, model, feasible, x, max_iters, tol):
    # along d = v - x the energy is e(x) - s gap + s^2 q, q = e(v) - e(x) + gap,
    # so the exact step on [0, 1] (Frank and Wolfe 1956) never raises it; rows
    # of x are updated in place as in _pgd
    kernel, coupling = kernel_q.values, model.coupling
    energy = _grid_energy(kernel, feasible.weights(x), coupling)
    iters = np.zeros(len(x), dtype=int)
    live = np.arange(len(x))
    for _ in range(max_iters):
        if live.size == 0:
            break
        xl = x[live]
        g = feasible.reduce(_grid_gradient(kernel, feasible.weights(xl), coupling))
        v = feasible.lmo(g)
        # one dot product per row, as np.vdot would take it
        gap = (g.reshape(live.size, 1, -1) @ (xl - v).reshape(live.size, -1, 1))[:, 0, 0]
        go = ~(gap <= tol)
        live, xl, v, gap = live[go], xl[go], v[go], gap[go]
        q = _grid_energy(kernel, feasible.weights(v), coupling) - energy[live] + gap
        s = np.ones(live.size)
        curved = q > 0.0
        s[curved] = np.minimum(1.0, gap[curved] / (2.0 * q[curved]))
        x[live] = xl + _rowwise(s, xl) * (v - xl)
        energy[live] = _grid_energy(kernel, feasible.weights(x[live]), coupling)
        iters[live] += 1
    return x, energy, iters


def minimize_limit_energy(
    w,
    model: LabelModel,
    masses,
    m: int,
    method="pgd",
    seed=0,
    restarts=1,
    max_iters=5000,
) -> SolveReport:
    """Minimize the grid-discretized continuum cut energy under mass constraints.

    Feasible set: rows in the label simplex, per-label column means equal to
    ``masses``.  One projected-gradient loop and one Frank-Wolfe loop serve
    every label count; they run over one of two feasible sets.  With two
    labels the iterate is the label-0 weight, projected by the exact
    scalar-shift box projection, with a sorting linear oracle; with more
    labels it is the full weight matrix, with the exact polytope projection
    and the successive-shortest-path transportation oracle.  The kernel is
    checked once, by `cell_averages`, and the loops read the energies and
    gradients of the full field off its m x m matrix.  The projected-gradient
    line search starts at 1/L with the step constant L = 2 sum|f| max|Wbar|
    / m and halves until the energy does not rise.  Frank-Wolfe takes the
    exact step on the quadratic energy.  Restart r starts from
    Philox(seed + r) uniforms projected onto the feasible set.  All restarts
    run together as one stacked iterate, one row each, and a row retires
    when it stops (tolerance, failed or stalled line search, max_iters);
    each row takes exactly the steps a one-restart solve with its seed
    would.  Projected-gradient rows do not wait for each other: each round
    makes one stacked projection over every live row, which covers the
    stop-test point x - g and first trial x - g / L of a row starting an
    iteration and the next halved trial of a row in its line search, and
    one energy evaluation over the trials.  With three or more labels
    those projections of x - t g start their Newton steps at t nu, the
    tangent dual of the step (L nu = -b for the Laplacian L of x's active
    entries and b_k = sum_i a_ik (g_ik - mean of g_i over its active
    entries)), which is exact when the step keeps every row's active set;
    the starts and the residual project from mu = 0, as `project_polytope`
    does.  The report keeps the best (value, argument) pair, and its
    iteration count is that of the winning restart.  Its residual is the
    KKT residual for `LabelModel.spin()` and max|x - P(x - g)| for every
    other model.
    """
    masses = np.asarray(masses, dtype=float)
    if masses.size != model.n_labels:
        raise InfeasibleError("mass vector length must match the label count")
    # written so that NaN masses fail it too
    if not (np.all(masses >= -_TIE_TOL) and abs(float(masses.sum()) - 1.0) <= 1e-12):
        raise InfeasibleError("masses must be a probability vector")
    if method not in METHODS:
        raise ParameterError(f"unknown method {method!r}")
    if restarts < 1:
        raise ParameterError("need at least one restart")
    kernel_q = cell_averages(w, m)
    feasible = (_BoxMeanSet if model.n_labels == 2 else _TransportSet)(masses, m)
    solve = _pgd if method == "pgd" else _fw
    starts = np.stack([_rng(seed, r).random(feasible.shape) for r in range(restarts)])
    xs, energies, iters = solve(
        kernel_q, model, feasible, feasible.project(starts), max_iters, _LIMIT_STOP_TOL
    )
    # with two labels, x orders the fields as their full weights would
    best = min(range(restarts), key=lambda r: (energies[r], tuple(xs[r].ravel())))
    x = np.clip(xs[best], 0.0, 1.0)
    theta = ThetaField(feasible.weights(x))
    value = limit_cut_energy(kernel_q, theta, model)
    if model.is_spin:
        residual = kkt_residual(kernel_q, theta).residual
    else:
        g = feasible.reduce(limit_energy_gradient(kernel_q, theta.weights, model))
        residual = float(np.abs(x - feasible.project((x - g)[None])[0]).max())
    return SolveReport(
        value=value,
        method=method,
        seed=seed,
        restarts=restarts,
        iterations=int(iters[best]),
        theta=theta,
        residual=residual,
    )


# ---------------------------------------------------------------------------
# block-kernel vertex enumeration


@dataclass(frozen=True)
class BlockVertexResult:
    value: float  # minimum spin energy 8 sum A_k (lambda_k - A_k)
    minimizers: tuple  # all optimal per-block mass vectors


def block_vertex_minimum(lambdas, mass=0.5) -> BlockVertexResult:
    """Exact minimum of the block-kernel spin energy over per-block masses.

    The feasible set {0 <= A_k <= lambda_k, sum A_k = mass} is a polytope
    whose vertices have at most one fractional coordinate; the energy at a
    vertex is 8 * A_j (lambda_j - A_j) for that coordinate alone, so
    enumerating subset sums is exact.
    """
    lams = np.asarray(lambdas, dtype=float)
    nlab = lams.size
    if nlab > VERTEX_ENUM_MAX_BLOCKS:
        raise CapacityError(
            f"vertex enumeration capped at {VERTEX_ENUM_MAX_BLOCKS} blocks"
        )
    if not np.all((lams > 0.0) & np.isfinite(lams)):
        raise ParameterError("block fractions must be finite and strictly positive")
    if not -_TIE_TOL <= mass <= float(lams.sum()) + _TIE_TOL:
        raise InfeasibleError("mass must lie between 0 and the total block mass")
    # subset sums by doubling: bit k of a code is block k, and the entry of a
    # code without bit j is the sum over the other blocks in the same order
    sums = np.zeros(1)
    for lam in lams:
        sums = np.concatenate((sums, sums + lam))
    rem = mass - sums
    codes = np.arange(sums.size)
    # candidates: the exact vertices (block -1), then those fractional in block j
    picked = [np.nonzero(np.abs(rem) <= _TIE_TOL)[0]]
    blocks = [np.full(picked[0].size, -1)]
    scores = [np.zeros(picked[0].size)]
    for j, lam in enumerate(lams):
        ok = np.nonzero(((codes >> j) & 1 == 0) & (rem > _TIE_TOL) & (rem < lam - _TIE_TOL))[0]
        picked.append(ok)
        blocks.append(np.full(ok.size, j))
        scores.append(rem[ok] * (lam - rem[ok]))
    picked, blocks, scores = map(np.concatenate, (picked, blocks, scores))
    if not picked.size:
        raise InfeasibleError("no vertex satisfies the mass constraint")
    best_g = float(scores.min())
    # ties differ by the rounding of the subset sums: nlab additions of terms
    # up to the total mass, then one subtraction, each times a block fraction
    scale = max(float(lams.sum()), abs(mass)) * float(lams.max())
    at_min = scores <= best_g + 2 * (nlab + 1) * np.finfo(float).eps * scale
    picked, blocks = picked[at_min], blocks[at_min]
    vecs = np.where((picked[:, None] >> np.arange(nlab)) & 1, lams, 0.0)
    frac = np.nonzero(blocks >= 0)[0]
    vecs[frac, blocks[frac]] = rem[picked[frac]]
    # one minimizer per rounded vector, the last candidate of each, in key order
    keys = np.round(vecs, 12)
    order = np.lexsort((np.arange(len(keys)), *keys.T[::-1]))  # ties in candidate order
    keys = keys[order]
    last = np.append(np.any(keys[1:] != keys[:-1], axis=1), True)
    return BlockVertexResult(8.0 * best_g, tuple(vecs[order[last]]))


@dataclass(frozen=True)
class StepMinimum:
    value: float  # limit_cut_energy of theta
    theta: ThetaField  # a balanced spin field at the grid minimum


def _face_points(widths, values, mass):
    """Candidates for the minimum of q(s) = s'V w - s'V s over
    {0 <= s <= w, sum s = mass}: the stationary points of the faces that can
    hold it.

    Yields, face group by face group, (points, q) with points a (b, m) stack
    of block measures s and q their values.  On a face each coordinate sits
    at 0, at w_k, or is free; one vectorised lstsq per free set solves the
    stationarity system in the free coordinates and the mass multiplier for
    every placement of the others.  The minimum of q over the set is among
    these values: some minimizer is the unique stationary point of the
    least face holding it, and lies inside that face, so q curves upward
    along the face there: d'V_FF d <= 0 for every zero-sum d on the free set
    F.  A free set of two or more blocks on which V_FF is positive along a
    zero-sum direction is skipped without a solve.
    """
    m = widths.size
    cvec = values @ widths
    # row c holds the bits of free set c; its first 2^r rows, cut to r
    # columns, place r pinned blocks at 0 or w, least significant first
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    keep = np.ones(1 << m, dtype=bool)
    tol = 1e-9 * (1.0 + np.max(np.abs(values)))
    sizes = bits.sum(axis=1)
    for k in range(2, m + 1):
        codes = np.flatnonzero(sizes == k)
        free = np.nonzero(bits[codes])[1].reshape(-1, k)
        # V_FF on the zero-sum directions: centre its rows and its columns
        sub = values[free[:, :, None], free[:, None, :]]
        sub = sub - sub.mean(axis=1, keepdims=True)
        sub = sub - sub.mean(axis=2, keepdims=True)
        keep[codes] = np.linalg.eigvalsh(sub)[:, -1] <= tol
    cols = np.arange(m)
    for free_bits in np.flatnonzero(keep):
        in_free = bits[free_bits] == 1
        free, rest = cols[in_free], cols[~in_free]
        s_all = np.zeros((1 << rest.size, m))
        s_all[:, rest] = widths[rest] * bits[: 1 << rest.size, : rest.size]
        if not free.size:
            s_all = s_all[np.abs(s_all.sum(axis=1) - mass) <= _TIE_TOL]
        else:
            # 2 V_ff s_f + mu 1 = c_f - 2 V_fr s_r and sum s_f = mass - sum s_r
            k = free.size
            a_mat = np.zeros((k + 1, k + 1))
            a_mat[:k, :k] = 2.0 * values[free[:, None], free]
            a_mat[:k, k] = a_mat[k, :k] = 1.0
            rhs = np.empty((k + 1, s_all.shape[0]))
            rhs[:k] = cvec[free][:, None] - 2.0 * (values[free, :] @ s_all.T)
            rhs[k] = mass - s_all.sum(axis=1)
            sol, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
            ok = np.abs(a_mat @ sol - rhs).max(axis=0) <= 1e-8 * (1.0 + np.abs(rhs).max(axis=0))
            sol, upper = sol[:k], widths[free]
            ok &= (sol >= -1e-12).all(axis=0) & (sol <= upper[:, None] + 1e-12).all(axis=0)
            if not ok.any():
                continue
            s_all = s_all[ok]
            s_all[:, free] = np.clip(sol[:, ok].T, 0.0, upper)
        if s_all.shape[0]:
            yield s_all, s_all @ cvec - np.einsum("bi,ij,bj->b", s_all, values, s_all)


def step_limit_minimum(w, m: int) -> StepMinimum:
    """Exact minimum of the spin energy over balanced fields on the m-cell grid.

    w is a step kernel (or step graphon) whose blocks sit on the grid.  A
    field's energy depends only on the plus mass A_k of each block, lambda_k
    being the block's share of the cells: 8 sum_kl w_kl A_k (lambda_l - A_l)
    over 0 <= A_k <= lambda_k, sum A_k = 1/2.  Its minimum is the least value
    at the stationary points of the 3^k faces of that set, which
    `_face_points` enumerates, skipping the faces that cannot hold a
    minimizer.  The field puts every cell of block k at plus
    weight A_k / lambda_k for the first best A, and the value is the
    `limit_cut_energy` of that field.  Blocks are capped at
    STEP_MINIMUM_MAX_BLOCKS.
    """
    if not w.is_step_on(m):
        raise ParameterError("the exact grid minimum needs a step kernel on the grid")
    if w.block_count > STEP_MINIMUM_MAX_BLOCKS:
        raise CapacityError(
            f"exact grid minimum capped at {STEP_MINIMUM_MAX_BLOCKS} blocks, got {w.block_count}"
        )
    idx = w.block_index((np.arange(m) + 0.5) / m)
    widths = np.bincount(idx, minlength=w.block_count) / m
    points, q = map(np.concatenate, zip(*_face_points(widths, w.values, 0.5)))
    best = points[np.argmin(q)]
    plus = best[idx] / widths[idx]  # idx names only blocks that hold a cell: no width is 0
    theta = ThetaField(np.column_stack((plus, 1.0 - plus)))
    return StepMinimum(limit_cut_energy(w, theta, LabelModel.spin()), theta)
