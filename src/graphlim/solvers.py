"""Discrete minimal-cut solvers and continuum energy minimizers.

Exact solvers (subset enumeration, polytope vertex enumeration) double as
oracles for the heuristics: swap descent for graphs, projected gradient and
Frank-Wolfe for the grid-discretized continuum problem.  Everything is
deterministic given (inputs, seed); restart reductions are order-independent
(best value, then lexicographically smallest argument).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InfeasibleError, ParameterError
from .fields import LabelModel, PartitionSpec, ThetaField
from .functionals import (
    cell_averages,
    discrete_cut_energy,
    kkt_residual,
    limit_cut_energy,
    limit_energy_gradient,
)
from .graphons import Graph, HalfGraphKernel

BRUTE_BISECTION_MAX_NODES = 24
VERTEX_ENUM_MAX_BLOCKS = 20

_TIE_TOL = 1e-12


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

    Enumerates the C(n-1, n/2-1) balanced sets containing node 1 and reports
    the lexicographically smallest minimizer.
    """
    n = g.n
    if n % 2 != 0:
        raise ParameterError("bisection needs an even node count")
    if n > BRUTE_BISECTION_MAX_NODES:
        raise CapacityError(
            f"exact bisection capped at {BRUTE_BISECTION_MAX_NODES} nodes, got {n}"
        )
    model = LabelModel.spin()
    edges = g.edge_list()
    ei = np.asarray([e[0] for e in edges], dtype=int)
    ej = np.asarray([e[1] for e in edges], dtype=int)
    best_cut = None
    best_members = None
    evaluated = 0
    combo_iter = itertools.combinations(range(2, n + 1), n // 2 - 1)
    chunk_size = 20000
    while True:
        chunk = list(itertools.islice(combo_iter, chunk_size))
        if not chunk:
            break
        combos = np.asarray(chunk, dtype=int)
        members = np.zeros((combos.shape[0], n + 1), dtype=bool)
        members[:, 1] = True
        if combos.size:
            members[np.arange(combos.shape[0])[:, None], combos] = True
        cuts = (members[:, ei] != members[:, ej]).sum(axis=1) if edges else np.zeros(
            combos.shape[0], dtype=int
        )
        evaluated += combos.shape[0]
        idx = int(np.argmin(cuts))
        if best_cut is None or cuts[idx] < best_cut:
            best_cut = int(cuts[idx])
            best_members = members[idx].copy()
    labels = np.where(best_members[1:], 1.0, -1.0)
    value = discrete_cut_energy(g, labels, model)
    return SolveReport(
        value=value,
        method="brute_bisection",
        seed=0,
        restarts=0,
        iterations=evaluated,
        labels=tuple(labels),
    )


def swap_descent(g: Graph, labels, model: LabelModel):
    """First-improvement pairwise-swap descent preserving label counts.

    Scans node pairs in index order, swaps on the first strict decrease, and
    restarts the scan; returns (labels, accepted swap count).
    """
    n = g.n
    idx = np.asarray([model.index_of(v) for v in np.asarray(labels, dtype=float)])
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
    out = np.asarray([model.labels[k] for k in idx])
    return out, swaps


def local_search_partition(
    g: Graph, spec: PartitionSpec, model: LabelModel, seed=0, restarts=8
) -> SolveReport:
    """Multi-restart swap descent for fixed-size label partitions."""
    if restarts < 1:
        raise ParameterError("need at least one restart")
    sizes = spec.sizes_for(g.n)
    if len(sizes) != model.n_labels:
        raise InfeasibleError("partition spec and model disagree on label count")
    best = None
    for r in range(restarts):
        rng = np.random.Generator(np.random.Philox(seed + r))
        perm = rng.permutation(g.n)
        start = np.empty(g.n)
        pos = 0
        for k, size in enumerate(sizes):
            start[perm[pos : pos + size]] = model.labels[k]
            pos += size
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


def project_box_mean(y, mean, lo=0.0, hi=1.0):
    """Euclidean projection onto {x in [lo,hi]^m : mean(x) = mean}.

    The projection is clip(y + tau) for a scalar shift tau.  The clipped sum
    S(tau) = sum_i clip(y_i + tau, lo, hi) is piecewise linear and
    nondecreasing, with breakpoints lo - y_i and hi - y_i (Held, Wolfe and
    Crowder 1974; Condat 2016).  After one sort, S is evaluated at every
    breakpoint through prefix sums, which brackets the target m * mean
    between two neighbouring breakpoints.  On that piece the set of free
    coordinates (strictly inside the box) is fixed, and tau is solved from
    it in closed form, so the mean of the result is exact up to rounding.
    Cost O(m log m).
    """
    y = np.asarray(y, dtype=float)
    m = y.size
    if not lo <= mean <= hi:
        raise InfeasibleError("target mean outside the box range")
    target = m * mean
    srt = np.sort(y)
    csum = np.concatenate(([0.0], np.cumsum(srt)))
    taus = np.sort(np.concatenate((lo - srt, hi - srt)))
    # at each breakpoint: coordinates clipped at lo, clipped at hi, the rest free
    n_lo = np.searchsorted(srt, lo - taus, side="right")
    n_hi = m - np.searchsorted(srt, hi - taus, side="left")
    sums = (
        lo * n_lo
        + hi * n_hi
        + (csum[m - n_hi] - csum[n_lo])
        + (m - n_lo - n_hi) * taus
    )
    # S reaches the target on [taus[k-1], taus[k]]; the clamp covers
    # mean == lo and mean == hi, where the piece next to the end is used
    k = min(max(int(np.searchsorted(sums, target)), 1), taus.size - 1)
    inner = y + 0.5 * (taus[k - 1] + taus[k])
    at_lo = inner <= lo
    at_hi = inner >= hi
    free = ~(at_lo | at_hi)
    n_free = int(free.sum())
    if n_free:
        tau = (target - lo * at_lo.sum() - hi * at_hi.sum() - y[free].sum()) / n_free
    else:
        # S is flat on this piece (tied breakpoints): its end already lands
        tau = taus[k]
    return np.clip(y + tau, lo, hi)


def project_rows_simplex(y):
    """Row-wise Euclidean projection onto the probability simplex."""
    y = np.asarray(y, dtype=float)
    m, n = y.shape
    srt = np.sort(y, axis=1)[:, ::-1]
    cums = np.cumsum(srt, axis=1) - 1.0
    ks = np.arange(1, n + 1)
    cond = srt - cums / ks > 0
    rho = n - 1 - np.argmax(cond[:, ::-1], axis=1)
    tau = cums[np.arange(m), rho] / (rho + 1.0)
    return np.maximum(y - tau[:, None], 0.0)


def project_polytope(y, masses, iters=2000, tol=1e-13):
    """Dykstra projection onto {rows in simplex} ∩ {column means = masses}."""
    masses = np.asarray(masses, dtype=float)
    x = np.asarray(y, dtype=float).copy()
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(iters):
        z = project_rows_simplex(x + p)
        p = x + p - z
        w = z + q
        x_new = w + (masses - w.mean(axis=0))[None, :]
        q = w - x_new
        gap = max(
            float(np.abs(x_new.mean(axis=0) - masses).max()),
            float(np.maximum(-x_new, 0.0).max()),
            float(np.abs(x_new.sum(axis=1) - 1.0).max()),
        )
        x = x_new
        if gap <= tol:
            break
    return x


# ---------------------------------------------------------------------------
# continuum minimization


def _energy_n2(kernel, coupling, x, m):
    t = np.column_stack((x, 1.0 - x))
    mixed = t.T @ kernel @ t
    return float((coupling * mixed).sum()) / (m * m)


def _grad_n2(kernel, coupling, x, m):
    t = np.column_stack((x, 1.0 - x))
    full = (2.0 / (m * m)) * (kernel @ t @ coupling)
    return full[:, 0] - full[:, 1]


def _pgd_n2(kernel, coupling, x0, mass0, m, max_iters, tol):
    lip = 16.0 * float(np.abs(kernel).max()) / m
    step = 1.0 / lip if lip > 0 else 1.0
    x = x0
    energy = _energy_n2(kernel, coupling, x, m)
    iters = 0
    for _ in range(max_iters):
        g = _grad_n2(kernel, coupling, x, m)
        mapped = project_box_mean(x - g, mass0)
        if float(np.abs(x - mapped).max()) <= tol:
            break
        trial = step
        accepted = False
        for _ in range(60):
            xn = project_box_mean(x - trial * g, mass0)
            en = _energy_n2(kernel, coupling, xn, m)
            if en <= energy:
                accepted = True
                break
            trial *= 0.5
        if not accepted or float(np.abs(xn - x).max()) <= 1e-15:
            break
        x, energy = xn, en
        iters += 1
    return x, energy, iters


def _lmo_box_sum(g, total):
    """Minimize <g, v> over v in [0,1]^m with sum(v) = total, by greedy fill."""
    m = g.size
    order = np.argsort(g, kind="stable")
    v = np.zeros(m)
    full = int(np.floor(total + 1e-9))
    v[order[:full]] = 1.0
    rem = total - full
    if rem > 1e-12 and full < m:
        v[order[full]] = rem
    return v


def _fw_n2(kernel, coupling, x0, mass0, m, max_iters, tol):
    x = x0
    energy = _energy_n2(kernel, coupling, x, m)
    best_x, best_e = x.copy(), energy
    iters = 0
    for t in range(max_iters):
        g = _grad_n2(kernel, coupling, x, m)
        v = _lmo_box_sum(g, m * mass0)
        gap = float(g @ (x - v))
        if gap <= tol:
            break
        x = x + (2.0 / (t + 2.0)) * (v - x)
        energy = _energy_n2(kernel, coupling, x, m)
        iters += 1
        if energy < best_e:
            best_x, best_e = x.copy(), energy
    return best_x, best_e, iters


def _pgd_general(kernel_q, model, theta0, masses, m, max_iters, tol):
    x = theta0
    energy = limit_cut_energy(kernel_q, x, model)
    coupling_norm = float(np.abs(model.coupling).sum())
    lip = 2.0 * coupling_norm * float(np.abs(kernel_q.matrix).max()) / m
    step = 1.0 / lip if lip > 0 else 1.0
    iters = 0
    for _ in range(max_iters):
        g = limit_energy_gradient(kernel_q, x, model)
        mapped = project_polytope(x - g, masses)
        if float(np.abs(x - mapped).max()) <= tol:
            break
        trial = step
        accepted = False
        for _ in range(60):
            xn = project_polytope(x - trial * g, masses)
            en = limit_cut_energy(kernel_q, xn, model)
            if en <= energy:
                accepted = True
                break
            trial *= 0.5
        if not accepted or float(np.abs(xn - x).max()) <= 1e-15:
            break
        x, energy = xn, en
        iters += 1
    return x, energy, iters


def _lmo_transport(g, masses, m):
    """Exact linear minimization over the transportation polytope."""
    from scipy.optimize import linprog

    nlab = g.shape[1]
    nvar = m * nlab
    a_eq = np.zeros((m + nlab, nvar))
    b_eq = np.zeros(m + nlab)
    for i in range(m):
        a_eq[i, i * nlab : (i + 1) * nlab] = 1.0
        b_eq[i] = 1.0
    for k in range(nlab):
        a_eq[m + k, k::nlab] = 1.0
        b_eq[m + k] = m * masses[k]
    res = linprog(
        g.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0.0, 1.0), method="highs"
    )
    if not res.success:
        raise InfeasibleError(f"transportation oracle failed: {res.message}")
    return res.x.reshape(m, nlab)


def _fw_general(kernel_q, model, theta0, masses, m, max_iters, tol):
    x = theta0
    energy = limit_cut_energy(kernel_q, x, model)
    best_x, best_e = x.copy(), energy
    iters = 0
    for t in range(max_iters):
        g = limit_energy_gradient(kernel_q, x, model)
        v = _lmo_transport(g, masses, m)
        gap = float((g * (x - v)).sum())
        if gap <= tol:
            break
        x = x + (2.0 / (t + 2.0)) * (v - x)
        energy = limit_cut_energy(kernel_q, x, model)
        iters += 1
        if energy < best_e:
            best_x, best_e = x.copy(), energy
    return best_x, best_e, iters


def minimize_limit_energy(
    w,
    model: LabelModel,
    masses,
    m: int,
    method="pgd",
    seed=0,
    restarts=1,
    max_iters=5000,
    tol=1e-10,
) -> SolveReport:
    """Minimize the grid-discretized continuum cut energy under mass constraints.

    Feasible set: rows in the label simplex, per-label column means equal to
    ``masses``.  Two-label models use the exact scalar-shift box projection
    and a sorting linear oracle; larger models fall back to Dykstra
    projections and an exact transportation oracle.  Restarts draw seeded
    feasible starts; the report keeps the best (value, argument) pair.
    """
    masses = np.asarray(masses, dtype=float)
    if masses.size != model.n_labels:
        raise InfeasibleError("mass vector length must match the label count")
    if np.any(masses < -_TIE_TOL) or abs(float(masses.sum()) - 1.0) > 1e-12:
        raise InfeasibleError("masses must be a probability vector")
    if method not in ("pgd", "frank_wolfe"):
        raise ParameterError(f"unknown method {method!r}")
    if restarts < 1:
        raise ParameterError("need at least one restart")
    kernel_q = cell_averages(w, m)
    kernel = kernel_q.matrix
    nlab = model.n_labels
    best = None
    for r in range(restarts):
        rng = np.random.Generator(np.random.Philox(seed + r))
        if nlab == 2:
            x0 = project_box_mean(rng.random(m), masses[0])
            if method == "pgd":
                x, energy, iters = _pgd_n2(
                    kernel, model.coupling, x0, masses[0], m, max_iters, tol
                )
            else:
                x, energy, iters = _fw_n2(
                    kernel, model.coupling, x0, masses[0], m, max_iters, tol
                )
            weights = np.column_stack((x, 1.0 - x))
        else:
            theta0 = project_polytope(rng.random((m, nlab)), masses)
            if method == "pgd":
                weights, energy, iters = _pgd_general(
                    kernel_q, model, theta0, masses, m, max_iters, tol
                )
            else:
                weights, energy, iters = _fw_general(
                    kernel_q, model, theta0, masses, m, max_iters, tol
                )
        key = (energy, tuple(weights.ravel()))
        if best is None or key < (best[0], tuple(best[1].ravel())):
            best = (energy, weights, iters)
    weights = np.clip(best[1], 0.0, 1.0)
    theta = ThetaField(weights)
    value = limit_cut_energy(kernel_q, theta, model)
    if model.is_spin:
        residual = kkt_residual(kernel_q, theta, model).residual
    else:
        g = limit_energy_gradient(kernel_q, theta.weights, model)
        if nlab == 2:
            gx = g[:, 0] - g[:, 1]
            mapped = project_box_mean(theta.weights[:, 0] - gx, masses[0])
            residual = float(np.abs(theta.weights[:, 0] - mapped).max())
        else:
            mapped = project_polytope(theta.weights - g, masses)
            residual = float(np.abs(theta.weights - mapped).max())
    return SolveReport(
        value=value,
        method=method,
        seed=seed,
        restarts=restarts,
        iterations=best[2],
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
    if np.any(lams <= 0.0):
        raise ParameterError("block fractions must be strictly positive")
    if not -_TIE_TOL <= mass <= float(lams.sum()) + _TIE_TOL:
        raise InfeasibleError("mass must lie between 0 and the total block mass")
    candidates = []

    def subset_sums(indices):
        sums = np.zeros(1)
        for i in indices:
            sums = np.concatenate((sums, sums + lams[i]))
        return sums

    all_sums = subset_sums(range(nlab))
    hits = np.nonzero(np.abs(all_sums - mass) <= _TIE_TOL)[0]
    for code in hits:
        vec = lams * ((code >> np.arange(nlab)) & 1)
        candidates.append((0.0, vec))
    for j in range(nlab):
        others = [i for i in range(nlab) if i != j]
        sums = subset_sums(others)
        rem = mass - sums
        ok = np.nonzero((rem > _TIE_TOL) & (rem < lams[j] - _TIE_TOL))[0]
        for code in ok:
            vec = np.zeros(nlab)
            bits = (code >> np.arange(len(others))) & 1
            for pos, i in enumerate(others):
                if bits[pos]:
                    vec[i] = lams[i]
            vec[j] = rem[code]
            candidates.append((float(rem[code] * (lams[j] - rem[code])), vec))
    if not candidates:
        raise InfeasibleError("no vertex satisfies the mass constraint")
    best_g = min(c[0] for c in candidates)
    argmins = {}
    for g_val, vec in candidates:
        if g_val <= best_g + _TIE_TOL:
            argmins[tuple(np.round(vec, 12))] = vec
    ordered = tuple(argmins[k] for k in sorted(argmins))
    return BlockVertexResult(8.0 * best_g, ordered)


# ---------------------------------------------------------------------------
# plateau sharpening on the half-graph kernel


@dataclass(frozen=True)
class PlateauResult:
    field: ThetaField
    changed: bool


def _runs(mask):
    runs = []
    start = None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = i
        if not flag and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(mask)))
    return runs


def sharpen_plateau(
    theta: ThetaField, model: LabelModel = None, plateau_tol=1e-9
) -> PlateauResult:
    """Replace half-valued plateaus of a half-graph field by better spin data.

    A plateau must consist of matching runs R in the second half and R - 1/2
    in the first half.  Each run is split at the 2/3 point (refining the grid
    threefold when the run length is not divisible by 3); of the two mirrored
    spin fillings, the one with the strictly smaller half-graph energy is
    kept.  Fields without a plateau are returned unchanged with a flag.
    """
    model = model or LabelModel.spin()
    if not model.is_spin:
        raise ParameterError("sharpen_plateau is defined for the spin model")
    weights = theta.weights
    m = theta.m
    if m % 2 != 0:
        raise ParameterError("half-graph fields need an even cell count")
    plus = model.plus_index
    x = weights[:, plus].copy()
    mask = np.abs(x - 0.5) <= plateau_tol
    if not np.any(mask):
        return PlateauResult(theta, False)
    half = m // 2
    if not np.array_equal(mask[:half], mask[half:]):
        raise ParameterError(
            "plateau must occupy mirrored runs in the two halves of the grid"
        )
    runs = _runs(mask[half:])
    if any((b - a) % 3 != 0 for a, b in runs):
        x = np.repeat(x, 3)
        m *= 3
        half *= 3
        runs = [(3 * a, 3 * b) for a, b in runs]
    kernel = cell_averages(HalfGraphKernel(), m).matrix
    coupling = model.coupling if plus == 0 else model.coupling[::-1, ::-1]
    energy = _energy_n2(kernel, coupling, x, m)
    for a, b in runs:
        length = b - a
        cut = length // 3
        filled = x.copy()
        # mirror run: first third -> 0, rest -> 1; run: first two thirds -> 0
        filled[a : a + cut] = 0.0
        filled[a + cut : b] = 1.0
        filled[half + a : half + a + 2 * cut] = 0.0
        filled[half + a + 2 * cut : half + b] = 1.0
        flipped = x.copy()
        flipped[a : a + cut] = 1.0
        flipped[a + cut : b] = 0.0
        flipped[half + a : half + a + 2 * cut] = 1.0
        flipped[half + a + 2 * cut : half + b] = 0.0
        e_filled = _energy_n2(kernel, coupling, filled, m)
        e_flipped = _energy_n2(kernel, coupling, flipped, m)
        if e_filled <= e_flipped:
            x, energy = filled, e_filled
        else:
            x, energy = flipped, e_flipped
    weights_out = np.empty((m, 2))
    weights_out[:, plus] = x
    weights_out[:, 1 - plus] = 1.0 - x
    return PlateauResult(ThetaField(weights_out), True)
