"""Graphons as step or closed-form kernels, cut norms, and homomorphism densities.

A graphon is a symmetric bounded measurable kernel on [0,1]^2.  Step graphons
carry an explicit block structure (the functional form of an adjacency
matrix); analytic kernels expose exact rectangle integrals so that cell
averages on any grid are closed-form rather than quadrature.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, ParameterError

EXACT_CUT_NORM_MAX_BLOCKS = 22
CUT_NORM_FORMS_MAX_BLOCKS = 10
CUT_DISTANCE_MAX_BLOCKS = 8
# entries per block of summed column tables in the exact cut norm (256 KiB)
_CUT_NORM_BLOCK_ENTRIES = 1 << 15

_WIDTH_TOL = 1e-12
_GRID_TOL = 1e-9


# ---------------------------------------------------------------------------
# graphs and motifs


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with 1-based nodes and no loops."""

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("graph needs at least one node")
        # one pass over the edge tuples, kept for every later edge_array() call
        flat = itertools.chain.from_iterable(self.edges)
        pairs = np.fromiter(flat, dtype=np.intp, count=2 * len(self.edges)).reshape(-1, 2)
        pairs.flags.writeable = False
        object.__setattr__(self, "_pairs", pairs)
        i, j = pairs.T
        bad = np.flatnonzero((i < 1) | (i >= j) | (j > self.n))
        if bad.size:
            e = next(itertools.islice(self.edges, int(bad[0]), None))
            raise ParameterError(f"edge {e} out of range for n={self.n}")

    @classmethod
    def from_edges(cls, n, edges):
        norm = set()
        for i, j in edges:
            i, j = int(i), int(j)
            if i == j:
                raise ParameterError(f"loop edge ({i},{i}) not allowed")
            norm.add((min(i, j), max(i, j)))
        return cls(n, frozenset(norm))

    @property
    def edge_count(self):
        return len(self.edges)

    def edge_list(self):
        return sorted(self.edges)

    def edge_array(self):
        """Read-only (E, 2) integer array of the edges, in the order of ``edges``."""
        return self._pairs

    def adjacency(self):
        a = np.zeros((self.n, self.n), dtype=bool)
        i, j = (self.edge_array() - 1).T
        a[i, j] = True
        a[j, i] = True
        return a

    def has_edge(self, i, j):
        return (min(i, j), max(i, j)) in self.edges


def motif_edge():
    return Graph.from_edges(2, [(1, 2)])


def motif_path3():
    return Graph.from_edges(3, [(1, 2), (2, 3)])


def motif_triangle():
    return Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)])


def motif_cycle4():
    return Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])


# ---------------------------------------------------------------------------
# step graphons


def _boundaries_of(widths):
    b = np.concatenate(([0.0], np.cumsum(widths)))
    b[-1] = 1.0
    return b


class _Blocks:
    """Block lookup and integrals of a kernel that is constant on blocks.

    Subclasses provide ``boundaries`` (0 = b[0] < ... < b[K] = 1) and the
    K x K ``values``.  Every method broadcasts over numpy arrays.
    """

    def is_w0(self, tol=_WIDTH_TOL):
        return bool(np.all(self.values >= -tol) and np.all(self.values <= 1.0 + tol))

    def block_index(self, x):
        # blocks are half-open on the left, (b[i-1], b[i]], with 0 in the first
        return np.searchsorted(self.boundaries[1:-1], x, side="left")

    def _overlaps(self, lo, hi):
        # (..., K) lengths of [lo, hi] inside each block
        b = self.boundaries
        lo = np.asarray(lo, dtype=float)[..., None]
        hi = np.asarray(hi, dtype=float)[..., None]
        return np.clip(np.minimum(hi, b[1:]) - np.maximum(lo, b[:-1]), 0.0, None)

    def value(self, x, y):
        return self.values[self.block_index(x), self.block_index(y)]

    def rect_integral(self, x0, x1, y0, y1):
        # one row-vector product per x-interval, the same product a scalar
        # call makes, so array calls round exactly as scalar ones
        rows = (self._overlaps(x0, x1)[..., None, :] @ self.values)[..., 0, :]
        return (rows * self._overlaps(y0, y1)).sum(-1)

    def slice_integral(self, x, y0, y1):
        return (self.values[self.block_index(x)] * self._overlaps(y0, y1)).sum(-1)


@dataclass
class StepGraphon(_Blocks):
    """Symmetric kernel that is constant on a grid of block rectangles.

    ``widths`` are the block widths (strictly positive, summing to 1) and
    ``values`` the symmetric matrix of block values.  Values may be signed;
    use :meth:`w0` for constructors that enforce the [0,1] range.
    """

    widths: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.widths = np.asarray(self.widths, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.widths.ndim != 1 or self.widths.size == 0:
            raise ParameterError("widths must be a nonempty 1-d sequence")
        if np.any(self.widths <= 0.0):
            raise ParameterError("block widths must be strictly positive")
        if abs(float(self.widths.sum()) - 1.0) > _WIDTH_TOL:
            raise ParameterError("block widths must sum to 1")
        m = self.widths.size
        if self.values.shape != (m, m):
            raise ParameterError(f"values must be {m}x{m} to match widths")
        if not np.array_equal(self.values, self.values.T):
            raise ParameterError("block value matrix must be symmetric")

    @classmethod
    def w0(cls, widths, values):
        g = cls(widths, values)
        if not g.is_w0():
            raise ParameterError("W0 graphon requires block values in [0,1]")
        return g

    @property
    def block_count(self):
        return self.widths.size

    @property
    def boundaries(self):
        return _boundaries_of(self.widths)

    def l1_norm(self):
        return float(np.abs(self.values) @ self.widths @ self.widths)

    def equal_width(self, tol=_WIDTH_TOL):
        return bool(np.all(np.abs(self.widths - 1.0 / self.block_count) <= tol))

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return StepGraphon(self.widths.copy(), self.values - float(other))
        if isinstance(other, StepGraphon):
            if self.block_count != other.block_count or np.any(
                np.abs(self.widths - other.widths) > _WIDTH_TOL
            ):
                raise ParameterError("step graphons must share the block grid")
            return StepGraphon(self.widths.copy(), self.values - other.values)
        return NotImplemented


def step_from_graph(g: Graph) -> StepGraphon:
    """Step graphon of a labeled graph: n equal blocks, block value A_ij."""
    widths = np.full(g.n, 1.0 / g.n)
    return StepGraphon(widths, g.adjacency().astype(float))


# ---------------------------------------------------------------------------
# analytic kernels with exact rectangle integrals


class AnalyticGraphon:
    """Base for kernels with closed-form pointwise and rectangle evaluation.

    ``value``, ``rect_integral`` and ``slice_integral`` broadcast over numpy
    arrays.
    """

    kind = "analytic"

    def params(self) -> dict:
        return {}

    def value(self, x, y):
        raise NotImplementedError

    def rect_integral(self, x0, x1, y0, y1):
        raise NotImplementedError

    def slice_integral(self, x, y0, y1):
        raise NotImplementedError

    def internal_boundaries(self):
        """Finite x-axis discontinuity set, or None if not a step kernel."""
        return None

    def is_step_on(self, boundaries, tol=_GRID_TOL):
        own = self.internal_boundaries()
        if own is None:
            return False
        bs = np.asarray(boundaries, dtype=float)
        return all(np.min(np.abs(bs - b)) <= tol for b in own)

    def step_on(self, m: int) -> StepGraphon:
        """Exact cell averages on the m-cell uniform grid as a step graphon."""
        if m < 1:
            raise ParameterError(f"grid must have at least one cell, got {m}")
        edges = np.arange(m + 1) / m
        lo, hi = edges[:-1, None], edges[1:, None]
        vals = self.rect_integral(lo, hi, lo.T, hi.T) * m * m
        below = np.tril_indices(m, -1)
        vals[below] = vals.T[below]  # the upper triangle, mirrored
        return StepGraphon(np.full(m, 1.0 / m), vals)


class StepKernel(_Blocks, AnalyticGraphon):
    """Analytic kernel constant on the blocks between ``boundaries``."""

    def __init__(self, boundaries, values):
        self.boundaries = np.asarray(boundaries, dtype=float)
        self.values = np.asarray(values, dtype=float)

    def internal_boundaries(self):
        return tuple(float(v) for v in self.boundaries[1:-1])


class ConstantKernel(StepKernel):
    kind = "constant"

    def __init__(self, c: float):
        self.c = float(c)
        super().__init__([0.0, 1.0], [[self.c]])

    def params(self):
        return {"c": self.c}


class HalfGraphKernel(AnalyticGraphon):
    """Kernel equal to 1 where y + 1/2 <= x or x + 1/2 <= y, else 0."""

    kind = "halfgraph"

    @staticmethod
    def _under_band(x0, x1, y0, y1):
        # measure of {(x, y) in the rectangle : y <= x - 1/2}
        a, b = 0.5 + y0, 0.5 + y1
        lo, hi = np.maximum(x0, a), np.minimum(x1, b)
        # products, not ** 2: numpy squares arrays but calls pow on scalars,
        # which can differ in the last bit
        d_hi, d_lo = hi - a, lo - a
        triangle = np.where(hi > lo, 0.5 * (d_hi * d_hi - d_lo * d_lo), 0.0)
        strip = np.where(x1 > b, (x1 - np.maximum(b, x0)) * (y1 - y0), 0.0)
        return triangle + strip

    def value(self, x, y):
        return 1.0 * ((y + 0.5 <= x) | (x + 0.5 <= y))

    def rect_integral(self, x0, x1, y0, y1):
        return self._under_band(x0, x1, y0, y1) + self._under_band(y0, y1, x0, x1)

    def slice_integral(self, x, y0, y1):
        below = np.maximum(0.0, np.minimum(y1, x - 0.5) - np.maximum(y0, 0.0))
        above = np.maximum(0.0, np.minimum(y1, 1.0) - np.maximum(y0, x + 0.5))
        return below + above


class BlockDiagonalKernel(StepKernel):
    """Kernel equal to 1 on the diagonal squares of a partition of [0,1]."""

    kind = "blockfamily"

    def __init__(self, lambdas):
        lams = np.asarray(lambdas, dtype=float)
        if lams.ndim != 1 or lams.size == 0 or np.any(lams <= 0.0):
            raise ParameterError("block fractions must be strictly positive")
        if abs(float(lams.sum()) - 1.0) > _WIDTH_TOL:
            raise ParameterError("block fractions must sum to 1")
        self.lambdas = lams
        super().__init__(_boundaries_of(lams), np.eye(lams.size))

    def params(self):
        return {"lambdas": [float(v) for v in self.lambdas]}


class BipartiteSplitKernel(StepKernel):
    """Kernel equal to 1 across the split at gamma, 0 within each part."""

    kind = "bipartite"

    def __init__(self, gamma: float):
        g = float(gamma)
        if not 0.0 < g < 1.0:
            raise ParameterError("gamma must lie strictly inside (0,1)")
        self.gamma = g
        super().__init__([0.0, g, 1.0], [[0.0, 1.0], [1.0, 0.0]])

    def params(self):
        return {"gamma": self.gamma}


class CheckerboardKernel(StepKernel):
    """Kernel of the 2n-stripe checkerboard: 1 between opposite stripes."""

    kind = "checkerboard"

    def __init__(self, n: int):
        if int(n) < 1:
            raise ParameterError("checkerboard order must be >= 1")
        self.n = int(n)
        size = 2 * self.n
        idx = np.arange(size)
        parity = (idx[:, None] % 2 != idx[None, :] % 2).astype(float)
        super().__init__(np.arange(size + 1) / size, parity)

    def params(self):
        return {"n": self.n}


_ANALYTIC_KINDS = {
    "constant": lambda p: ConstantKernel(p["c"]),
    "halfgraph": lambda p: HalfGraphKernel(),
    "blockfamily": lambda p: BlockDiagonalKernel(p["lambdas"]),
    "bipartite": lambda p: BipartiteSplitKernel(p["gamma"]),
    "checkerboard": lambda p: CheckerboardKernel(p["n"]),
}


def analytic_from_kind(kind: str, params: dict) -> AnalyticGraphon:
    if kind not in _ANALYTIC_KINDS:
        raise ParameterError(f"unknown analytic kernel kind {kind!r}")
    return _ANALYTIC_KINDS[kind](params)


def degree(w, x) -> float:
    """Degree of the point x as a node of the kernel: integral of W(x, .)."""
    if not 0.0 <= x <= 1.0:
        raise ParameterError("x must lie in [0,1]")
    return w.slice_integral(x, 0.0, 1.0)


# ---------------------------------------------------------------------------
# cut norm


@dataclass(frozen=True)
class CutNormResult:
    value: float
    s: np.ndarray  # per-block fraction of the first witness set
    t: np.ndarray
    exact: bool


def _pattern_chunk(lo, hi, m):
    # patterns lo..hi-1 as 0/1 rows; bit (m-1-i) of p is block i, so ascending
    # p enumerates the s-vectors in lexicographic order
    ps = np.arange(lo, hi, dtype=np.uint64)[:, None]
    shifts = np.arange(m - 1, -1, -1, dtype=np.uint64)[None, :]
    return ((ps >> shifts) & np.uint64(1)).astype(float)


def _exact_cut_norm(widths, values, with_witness=True):
    # split in half: pattern p = a * 2^h + b takes its first m - h blocks from
    # a and its last h from b, so cols(p) = hi[a] + lo[b]; each pattern scores
    # max(P, N) = (sum_j |c_j| + |sum_j c_j|) / 2 with P, N its positive and
    # negative column parts
    m = widths.size
    contrib = values * widths[:, None] * widths[None, :]
    h = m // 2
    hi = _pattern_chunk(0, 1 << (m - h), m - h) @ contrib[: m - h]
    lo = _pattern_chunk(0, 1 << h, h) @ contrib[m - h :]
    hi_sum = hi.sum(axis=1)
    lo_sum = lo.sum(axis=1)
    # |.| is convex, so over the lo rows each |hi[a, j] + lo[b, j]| and
    # |hi_sum[a] + lo_sum[b]| peaks at the lo column's max or min: bound[a]
    # caps every score of hi row a
    bound = np.maximum(np.abs(hi + lo.max(axis=0)), np.abs(hi + lo.min(axis=0))).sum(axis=1)
    bound += np.maximum(np.abs(hi_sum + lo_sum.max()), np.abs(hi_sum + lo_sum.min()))
    bound *= 0.5
    # rows go in descending bound, equal bounds in ascending a; slack covers
    # the rounding of a score and of its bound, below (m + 2) 2^-53 sum|contrib|
    order = np.argsort(-bound, kind="stable")
    slack = 1e-12 * float(np.abs(contrib).sum())
    ones = np.ones(m)
    rows = max(1, _CUT_NORM_BLOCK_ENTRIES // (lo.shape[0] * m))
    buf = np.empty((rows, lo.shape[0], m))
    best = -1.0
    best_p = 0
    for i0 in range(0, hi.shape[0], rows):
        # the first row left has the largest bound, and the smallest a among
        # the rows left with that bound: stop when it can neither beat best
        # nor tie it at a smaller pattern
        first = int(order[i0])
        floor = best - slack
        if i0 and not (bound[first] > floor or (bound[first] == floor and first < best_p >> h)):
            break
        chunk = np.sort(order[i0 : i0 + rows])
        cols = buf[: chunk.size]
        np.add(hi[chunk, None, :], lo[None, :, :], out=cols)
        np.abs(cols, out=cols)
        vals = cols.reshape(-1, m) @ ones
        vals += np.abs(hi_sum[chunk, None] + lo_sum[None, :]).ravel()
        vals *= 0.5
        k = int(np.argmax(vals))
        p = (int(chunk[k >> h]) << h) + (k & ((1 << h) - 1))
        # the first maximal pattern in ascending p wins, as without pruning
        if vals[k] > best or (vals[k] == best and p < best_p):
            best = float(vals[k])
            best_p = p
    if not with_witness:
        return best, None, None
    s = _pattern_chunk(best_p, best_p + 1, m)[0]
    cols = s @ contrib
    plus_val = float(np.maximum(cols, 0.0).sum())
    minus_val = float(np.maximum(-cols, 0.0).sum())
    t_plus = (cols > 0.0).astype(float)
    t_minus = (cols < 0.0).astype(float)
    # the sums above run in another order than the enumeration's, so compare
    # them with each other, not with best, which may differ in the last bit
    if plus_val == minus_val:
        t = t_plus if tuple(t_plus) <= tuple(t_minus) else t_minus
    elif plus_val > minus_val:
        t = t_plus
    else:
        t = t_minus
    return best, s, t


def _alternating_climb(mat, t):
    # maximize s' mat t over 0/1 patterns, alternating exact best responses
    for _ in range(200):
        s = (mat @ t > 0.0).astype(float)
        t_new = (s @ mat > 0.0).astype(float)
        if np.array_equal(t_new, t):
            break
        t = t_new
    val = float(s @ mat @ t)
    return val, s, t


def cut_norm(w: StepGraphon, mode="exact", restarts=32, seed=0) -> CutNormResult:
    """Cut norm sup_{S,T} |int_{S x T} W| of a step graphon.

    Exact mode maximizes over the 2^m block patterns of the first set; for
    each pattern the optimal second set is the per-column clip, and both
    global signs are taken, so the pattern scores (sum_j |c_j| + |sum_j c_j|)
    / 2 over its column sums c.  The enumeration is split in half: the column
    sums come from adding a table over the first half of the blocks to one
    over the second half.  Each row of the first table gets a bound from the
    column-wise max and min of the second table (|.| is convex); rows are
    scored in descending bound and skipped once no bound can reach the best
    score less a rounding margin, so only the average case is faster.  Ties
    are broken toward the lexicographically smallest witness, as if every
    pattern were scored.  Heuristic mode runs alternating maximization from
    seeded random restarts and returns a lower bound.
    """
    if not isinstance(w, StepGraphon):
        raise ParameterError("cut_norm expects a StepGraphon")
    m = w.block_count
    if mode == "exact":
        if m > EXACT_CUT_NORM_MAX_BLOCKS:
            raise CapacityError(
                f"exact cut norm capped at {EXACT_CUT_NORM_MAX_BLOCKS} blocks, got {m}"
            )
        value, s, t = _exact_cut_norm(w.widths, w.values)
        return CutNormResult(value, s, t, True)
    if mode != "heuristic":
        raise ParameterError(f"unknown cut norm mode {mode!r}")
    if restarts < 1:
        raise ParameterError("heuristic cut norm needs at least one restart")
    contrib = w.values * w.widths[:, None] * w.widths[None, :]
    best = (-1.0, None, None)
    starts = [np.ones(m)]  # deterministic full-set start, then seeded random ones
    for r in range(restarts):
        rng = np.random.Generator(np.random.Philox(seed + r))
        starts.append(rng.integers(0, 2, m).astype(float))
    for t0 in starts:
        for sign in (1.0, -1.0):
            val, s, t = _alternating_climb(sign * contrib, t0.copy())
            if best[1] is None or val > best[0] or (
                val == best[0] and (tuple(best[1]), tuple(best[2])) > (tuple(s), tuple(t))
            ):
                best = (val, s, t)
    return CutNormResult(best[0], best[1], best[2], False)


# ---------------------------------------------------------------------------
# the four equivalent-form suprema, each by an independent exact enumeration


@dataclass(frozen=True)
class CutNormForms:
    two_set: float  # sup over S, T
    complement: float  # sup over S against its complement
    disjoint: float  # sup over disjoint S, T
    functional: float  # sup over [0,1]-valued f, g


def _ternary_digits(count, base):
    idx = np.arange(base**count)
    if count == 0:
        return np.zeros((1, 0), dtype=int)
    return (idx[:, None] // base ** np.arange(count)[None, :]) % base


def _functional_form(widths, values):
    m = widths.size
    contrib = values * widths[:, None] * widths[None, :]
    pats = _pattern_chunk(0, 1 << m, m)
    table = pats @ contrib @ pats.T
    return float(np.abs(table).max())


def _complement_form(widths, values):
    # sup_S |int_{S x S^c} W| = sup over block measures s of |s'V w - s'V s|;
    # optima can sit in face interiors, so enumerate faces and solve the
    # stationarity system on the free coordinates.
    m = widths.size
    cvec = values @ widths
    best = 0.0
    for free_bits in range(1 << m):
        free = [i for i in range(m) if (free_bits >> i) & 1]
        rest = [i for i in range(m) if not (free_bits >> i) & 1]
        digits = _ternary_digits(len(rest), 2)
        s_all = np.zeros((digits.shape[0], m))
        if rest:
            s_all[:, rest] = widths[rest] * (digits == 1)
        if free:
            a_mat = 2.0 * values[np.ix_(free, free)]
            rhs = cvec[free][:, None] - 2.0 * (values[free, :] @ s_all.T)
            sol, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
            ok = np.max(np.abs(a_mat @ sol - rhs), axis=0) <= 1e-8 * (
                1.0 + np.max(np.abs(rhs), axis=0, initial=0.0)
            )
            ok &= np.all(sol >= -1e-12, axis=0)
            ok &= np.all(sol <= widths[free][:, None] + 1e-12, axis=0)
            if not np.any(ok):
                continue
            s_all = s_all[ok]
            s_all[:, free] = np.clip(sol[:, ok].T, 0.0, widths[free])
        q = s_all @ cvec - np.einsum("bi,ij,bj->b", s_all, values, s_all)
        best = max(best, float(np.abs(q).max()))
    return best


def _disjoint_form(widths, values):
    # sup over disjoint S, T.  Per block the pair of measures lives in the
    # triangle s + t <= w; maxima sit at triangle vertices or on the
    # hypotenuse, so enumerate vertex states and solve for the free
    # hypotenuse coordinates.
    m = widths.size
    best = 0.0
    for free_bits in range(1 << m):
        free = [i for i in range(m) if (free_bits >> i) & 1]
        rest = [i for i in range(m) if not (free_bits >> i) & 1]
        digits = _ternary_digits(len(rest), 3)
        s_all = np.zeros((digits.shape[0], m))
        t_all = np.zeros((digits.shape[0], m))
        if rest:
            s_all[:, rest] = widths[rest] * (digits == 1)
            t_all[:, rest] = widths[rest] * (digits == 2)
        if free:
            wf = widths[free]
            a_mat = 2.0 * values[np.ix_(free, free)]
            rhs = values[free, :] @ (t_all - s_all).T + (
                values[np.ix_(free, free)] @ wf
            )[:, None]
            sol, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
            ok = np.max(np.abs(a_mat @ sol - rhs), axis=0) <= 1e-8 * (
                1.0 + np.max(np.abs(rhs), axis=0, initial=0.0)
            )
            ok &= np.all(sol >= -1e-12, axis=0)
            ok &= np.all(sol <= wf[:, None] + 1e-12, axis=0)
            if not np.any(ok):
                continue
            s_all, t_all = s_all[ok], t_all[ok]
            sigma = np.clip(sol[:, ok].T, 0.0, wf)
            s_all[:, free] = sigma
            t_all[:, free] = wf - sigma
        vals = np.einsum("bi,ij,bj->b", s_all, values, t_all)
        best = max(best, float(np.abs(vals).max()))
    return best


def cut_norm_forms(w: StepGraphon) -> CutNormForms:
    """All four definitional suprema of the cut norm, each computed exactly.

    Intended for equality testing: the two-set and functional forms agree,
    as do the complement and disjoint forms (the pairs generally differ).
    """
    if not isinstance(w, StepGraphon):
        raise ParameterError("cut_norm_forms expects a StepGraphon")
    m = w.block_count
    if m > CUT_NORM_FORMS_MAX_BLOCKS:
        raise CapacityError(
            f"cut norm forms capped at {CUT_NORM_FORMS_MAX_BLOCKS} blocks, got {m}"
        )
    two_set, _, _ = _exact_cut_norm(w.widths, w.values, with_witness=False)
    return CutNormForms(
        two_set=two_set,
        complement=_complement_form(w.widths, w.values),
        disjoint=_disjoint_form(w.widths, w.values),
        functional=_functional_form(w.widths, w.values),
    )


def cut_distance_blocks(u: StepGraphon, w: StepGraphon) -> float:
    """Min over block permutations of the exact cut norm of the difference.

    Restricted to equal-width step graphons; an upper bound on the cut
    distance over all measure-preserving relabelings.
    """
    if u.block_count != w.block_count:
        raise ParameterError("graphons must have the same number of blocks")
    if not (u.equal_width() and w.equal_width()):
        raise ParameterError("cut distance requires equal-width blocks")
    m = u.block_count
    if m > CUT_DISTANCE_MAX_BLOCKS:
        raise CapacityError(
            f"cut distance capped at {CUT_DISTANCE_MAX_BLOCKS} blocks, got {m}"
        )
    pats = _pattern_chunk(0, 1 << m, m)
    scale = 1.0 / (m * m)
    best = np.inf
    for perm in itertools.permutations(range(m)):
        idx = np.asarray(perm)
        diff = (u.values[np.ix_(idx, idx)] - w.values) * scale
        cols = pats @ diff
        vals = np.maximum(
            np.maximum(cols, 0.0).sum(axis=1), np.maximum(-cols, 0.0).sum(axis=1)
        )
        best = min(best, float(vals.max()))
    return best


# ---------------------------------------------------------------------------
# homomorphism densities

HOM_MOTIF_MAX_NODES = 5
HOM_GRAPHON_MAX_CELLS = 10**7


def _check_hom_caps(motif: Graph, n: int):
    if motif.n > HOM_MOTIF_MAX_NODES:
        raise CapacityError(f"motif capped at {HOM_MOTIF_MAX_NODES} nodes")
    if n**motif.n > HOM_GRAPHON_MAX_CELLS:
        raise CapacityError("vertex assignment space exceeds the exact-summation cap")


def _hom_sum(motif: Graph, values, weights):
    """Sum over maps phi of the motif's vertices into range(len(weights)) of
    prod over edges ij of values[phi(i), phi(j)] times prod over vertices v
    of weights[phi(v)], as one einsum contraction."""
    letters = "abcde"[: motif.n]
    subs = [letters[i - 1] + letters[j - 1] for i, j in motif.edge_list()]
    operands = [values] * len(subs)
    for v in letters:
        subs.append(v)
        operands.append(weights)
    return np.einsum(",".join(subs) + "->", *operands, optimize=True)


def hom_density_graph(motif: Graph, g: Graph) -> Fraction:
    """Exact homomorphism density t(F, G) as a rational number."""
    _check_hom_caps(motif, g.n)
    count = _hom_sum(motif, g.adjacency().astype(np.int64), np.ones(g.n, dtype=np.int64))
    return Fraction(int(count), g.n**motif.n)


def hom_density_graphon(motif: Graph, w: StepGraphon) -> float:
    """Homomorphism density of a motif in a step graphon, by exact summation."""
    _check_hom_caps(motif, w.block_count)
    return float(_hom_sum(motif, w.values, w.widths))
