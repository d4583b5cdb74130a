"""Graphons as step or closed-form kernels, cut norms, and homomorphism densities.

A graphon is a symmetric bounded measurable kernel on [0,1]^2.  Step graphons
carry an explicit block structure (the functional form of an adjacency
matrix); analytic kernels expose exact rectangle integrals so that cell
averages on any grid are closed-form rather than quadrature.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, ParameterError

EXACT_CUT_NORM_MAX_BLOCKS = 22
# keeps the pair keys i * (n + 1) + j that sort a graph's edges inside int64
GRAPH_MAX_NODES = 1 << 31
# entries per block of summed column tables in the exact cut norm (256 KiB)
_CUT_NORM_BLOCK_ENTRIES = 1 << 15

_WIDTH_TOL = 1e-12
_GRID_TOL = 1e-9


def _rng(seed, restart=0):
    """The generator of a restart under the seed rule: Philox(seed + restart_index)."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.Generator(np.random.Philox(seed + restart))


# ---------------------------------------------------------------------------
# graphs and motifs


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 1..n, a value object on (n, edges).

    ``edges`` is its one stored form: a read-only (E, 2) ``np.intp`` array of
    the pairs i < j, sorted and without repeats, whatever the input order.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n <= GRAPH_MAX_NODES:
            raise ParameterError(f"graph needs 1 to {GRAPH_MAX_NODES} nodes, got n={self.n}")
        pairs = np.asarray(self.edges, dtype=np.intp).reshape(-1, 2)
        i, j = pairs.T
        bad = np.flatnonzero((i < 1) | (i >= j) | (j > self.n))
        if bad.size:
            e = tuple(pairs[bad[0]].tolist())
            raise ParameterError(f"edge {e} out of range for n={self.n}")
        # pair keys sort like the pairs; the stable sort is one pass on sorted input
        keys = np.sort(i * (self.n + 1) + j, kind="stable")
        keys = keys[np.diff(keys, prepend=-1) != 0]
        edges = np.stack(np.divmod(keys, self.n + 1), axis=1)
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

    @classmethod
    def from_edges(cls, n, edges):
        """Graph of pairs in either orientation; loops are rejected, repeats dropped."""
        pairs = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
        loops = np.flatnonzero(pairs[:, 0] == pairs[:, 1])
        if loops.size:
            i = int(pairs[loops[0], 0])
            raise ParameterError(f"loop edge ({i},{i}) not allowed")
        return cls(n, np.sort(pairs, axis=1))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edges, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges.tobytes()))

    @property
    def edge_count(self):
        return len(self.edges)

    def adjacency(self):
        a = np.zeros((self.n, self.n), dtype=bool)
        i, j = (self.edges - 1).T
        a[i, j] = True
        a[j, i] = True
        return a


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


def _on_grid(points, m):
    """Whether m * p lies within _GRID_TOL of an integer for every point p."""
    scaled = np.asarray(points, dtype=float) * m
    return not np.any(np.abs(scaled - np.round(scaled)) > _GRID_TOL)


class _Blocks:
    """Block lookup and integrals of a kernel that is constant on blocks.

    Subclasses provide ``boundaries`` (0 = b[0] < ... < b[K] = 1) and the
    K x K ``values``.  Every method broadcasts over numpy arrays.
    """

    @property
    def block_count(self):
        return len(self.values)

    def is_w0(self):
        return bool(np.all(self.values >= -_WIDTH_TOL) and np.all(self.values <= 1.0 + _WIDTH_TOL))

    def is_step_on(self, m):
        """Whether every block boundary sits on the m-cell grid."""
        return _on_grid(self.boundaries[1:-1], m)

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
    :meth:`is_w0` tells whether they lie in [0,1].
    """

    widths: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.widths = np.asarray(self.widths, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.widths.ndim != 1 or self.widths.size == 0:
            raise ParameterError("widths must be a nonempty 1-d sequence")
        # written so that NaN widths fail them too
        if not np.all(self.widths > 0.0):
            raise ParameterError("block widths must be strictly positive")
        if not abs(float(self.widths.sum()) - 1.0) <= _WIDTH_TOL:
            raise ParameterError("block widths must sum to 1")
        m = self.widths.size
        if self.values.shape != (m, m):
            raise ParameterError(f"values must be {m}x{m} to match widths")
        if not np.array_equal(self.values, self.values.T):
            raise ParameterError("block value matrix must be symmetric")

    @property
    def boundaries(self):
        return _boundaries_of(self.widths)

    def equal_width(self):
        return bool(np.all(np.abs(self.widths - 1.0 / self.block_count) <= _WIDTH_TOL))

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return StepGraphon(self.widths.copy(), self.values - float(other))
        # an analytic kernel is averaged exactly onto this graphon's equal-width grid
        if isinstance(other, AnalyticGraphon):
            if not self.equal_width():
                raise ParameterError("mixed differences need an equal-width step grid")
            other = other.step_on(self.block_count)
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

    def is_step_on(self, m):
        """Whether this is a step kernel with its blocks on the m-cell grid."""
        return False

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
        # written so that NaN fractions fail them too
        if lams.ndim != 1 or lams.size == 0 or not np.all(lams > 0.0):
            raise ParameterError("block fractions must be strictly positive")
        if not abs(float(lams.sum()) - 1.0) <= _WIDTH_TOL:
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
    cls.kind: cls
    for cls in (
        ConstantKernel,
        HalfGraphKernel,
        BlockDiagonalKernel,
        BipartiteSplitKernel,
        CheckerboardKernel,
    )
}


def analytic_from_kind(kind: str, params: dict) -> AnalyticGraphon:
    """The kernel of a kind, built from its params as keyword arguments."""
    if kind not in _ANALYTIC_KINDS:
        raise ParameterError(f"unknown analytic kernel kind {kind!r}")
    return _ANALYTIC_KINDS[kind](**params)


# ---------------------------------------------------------------------------
# cut norm


@dataclass(frozen=True)
class CutNormResult:
    value: float
    s: np.ndarray  # per-block fraction of the first witness set
    t: np.ndarray
    exact: bool


def _pattern_chunk(lo, hi, m, dtype=float):
    # patterns lo..hi-1 as 0/1 rows; bit (m-1-i) of p is block i, so ascending
    # p enumerates the s-vectors in lexicographic order
    ps = np.arange(lo, hi, dtype=np.uint64)[:, None]
    shifts = np.arange(m - 1, -1, -1, dtype=np.uint64)[None, :]
    return ((ps >> shifts) & np.uint64(1)).astype(dtype)


def _exact_cut_norm(widths, values):
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
        # the first row left has the largest bound: stop when even that bound,
        # less the rounding margin, cannot reach best
        if i0 and bound[order[i0]] <= best - slack:
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
    starts += [_rng(seed, r).integers(0, 2, m).astype(float) for r in range(restarts)]
    for t0 in starts:
        for sign in (1.0, -1.0):
            val, s, t = _alternating_climb(sign * contrib, t0.copy())
            if best[1] is None or val > best[0] or (
                val == best[0] and (tuple(best[1]), tuple(best[2])) > (tuple(s), tuple(t))
            ):
                best = (val, s, t)
    return CutNormResult(best[0], best[1], best[2], False)


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
    subs = [letters[i - 1] + letters[j - 1] for i, j in motif.edges] + list(letters)
    operands = [values] * motif.edge_count + [weights] * motif.n
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
