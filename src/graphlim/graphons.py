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
        for e in self.edges:
            i, j = e
            if not (1 <= i < j <= self.n):
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

    def adjacency(self):
        a = np.zeros((self.n, self.n), dtype=bool)
        for i, j in self.edges:
            a[i - 1, j - 1] = True
            a[j - 1, i - 1] = True
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


@dataclass
class StepGraphon:
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
        if np.any(g.values < -_WIDTH_TOL) or np.any(g.values > 1.0 + _WIDTH_TOL):
            raise ParameterError("W0 graphon requires block values in [0,1]")
        return g

    @property
    def block_count(self):
        return self.widths.size

    @property
    def boundaries(self):
        b = np.concatenate(([0.0], np.cumsum(self.widths)))
        b[-1] = 1.0
        return b

    def is_w0(self, tol=_WIDTH_TOL):
        return bool(np.all(self.values >= -tol) and np.all(self.values <= 1.0 + tol))

    def block_index(self, x):
        # cells are half-open on the left, (b[i-1], b[i]], with 0 in the first
        b = self.boundaries
        i = int(np.searchsorted(b, x, side="left")) - 1
        return min(max(i, 0), self.block_count - 1)

    def value(self, x, y):
        return float(self.values[self.block_index(x), self.block_index(y)])

    def _overlaps(self, lo, hi):
        b = self.boundaries
        return np.clip(np.minimum(hi, b[1:]) - np.maximum(lo, b[:-1]), 0.0, None)

    def rect_integral(self, x0, x1, y0, y1):
        ox = self._overlaps(x0, x1)
        oy = self._overlaps(y0, y1)
        return float(ox @ self.values @ oy)

    def slice_integral(self, x, y0, y1):
        row = self.values[self.block_index(x)]
        return float(row @ self._overlaps(y0, y1))

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


def _overlap(a0, a1, b0, b1):
    return max(0.0, min(a1, b1) - max(a0, b0))


class AnalyticGraphon:
    """Base for kernels with closed-form pointwise and rectangle evaluation."""

    kind = "analytic"

    def params(self) -> dict:
        return {}

    def value(self, x, y) -> float:
        raise NotImplementedError

    def rect_integral(self, x0, x1, y0, y1) -> float:
        raise NotImplementedError

    def slice_integral(self, x, y0, y1) -> float:
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
        edges = np.arange(m + 1) / m
        vals = np.empty((m, m))
        for a in range(m):
            for b in range(a, m):
                v = self.rect_integral(edges[a], edges[a + 1], edges[b], edges[b + 1])
                vals[a, b] = vals[b, a] = v * m * m
        return StepGraphon(np.full(m, 1.0 / m), vals)


class ConstantKernel(AnalyticGraphon):
    kind = "constant"

    def __init__(self, c: float):
        self.c = float(c)

    def params(self):
        return {"c": self.c}

    def value(self, x, y):
        return self.c

    def rect_integral(self, x0, x1, y0, y1):
        return self.c * (x1 - x0) * (y1 - y0)

    def slice_integral(self, x, y0, y1):
        return self.c * (y1 - y0)

    def internal_boundaries(self):
        return ()


class HalfGraphKernel(AnalyticGraphon):
    """Kernel equal to 1 where y + 1/2 <= x or x + 1/2 <= y, else 0."""

    kind = "halfgraph"

    @staticmethod
    def _under_band(x0, x1, y0, y1):
        # measure of {(x, y) in the rectangle : y <= x - 1/2}
        a, b = 0.5 + y0, 0.5 + y1
        lo, hi = max(x0, a), min(x1, b)
        total = 0.0
        if hi > lo:
            total += 0.5 * ((hi - a) ** 2 - (lo - a) ** 2)
        if x1 > b:
            total += (x1 - max(b, x0)) * (y1 - y0)
        return total

    def value(self, x, y):
        return 1.0 if (y + 0.5 <= x or x + 0.5 <= y) else 0.0

    def rect_integral(self, x0, x1, y0, y1):
        return self._under_band(x0, x1, y0, y1) + self._under_band(y0, y1, x0, x1)

    def slice_integral(self, x, y0, y1):
        return _overlap(y0, y1, 0.0, x - 0.5) + _overlap(y0, y1, x + 0.5, 1.0)


class BlockDiagonalKernel(AnalyticGraphon):
    """Kernel equal to 1 on the diagonal squares of a partition of [0,1]."""

    kind = "blockfamily"

    def __init__(self, lambdas):
        lams = np.asarray(lambdas, dtype=float)
        if lams.ndim != 1 or lams.size == 0 or np.any(lams <= 0.0):
            raise ParameterError("block fractions must be strictly positive")
        if abs(float(lams.sum()) - 1.0) > _WIDTH_TOL:
            raise ParameterError("block fractions must sum to 1")
        self.lambdas = lams
        self._bounds = np.concatenate(([0.0], np.cumsum(lams)))
        self._bounds[-1] = 1.0

    def params(self):
        return {"lambdas": [float(v) for v in self.lambdas]}

    def _block(self, x):
        i = int(np.searchsorted(self._bounds, x, side="left")) - 1
        return min(max(i, 0), self.lambdas.size - 1)

    def value(self, x, y):
        return 1.0 if self._block(x) == self._block(y) else 0.0

    def rect_integral(self, x0, x1, y0, y1):
        b = self._bounds
        total = 0.0
        for k in range(self.lambdas.size):
            total += _overlap(x0, x1, b[k], b[k + 1]) * _overlap(y0, y1, b[k], b[k + 1])
        return total

    def slice_integral(self, x, y0, y1):
        k = self._block(x)
        return _overlap(y0, y1, self._bounds[k], self._bounds[k + 1])

    def internal_boundaries(self):
        return tuple(float(v) for v in self._bounds[1:-1])


class BipartiteSplitKernel(AnalyticGraphon):
    """Kernel equal to 1 across the split at gamma, 0 within each part."""

    kind = "bipartite"

    def __init__(self, gamma: float):
        g = float(gamma)
        if not 0.0 < g < 1.0:
            raise ParameterError("gamma must lie strictly inside (0,1)")
        self.gamma = g

    def params(self):
        return {"gamma": self.gamma}

    def value(self, x, y):
        g = self.gamma
        return 1.0 if (x <= g < y) or (y <= g < x) else 0.0

    def rect_integral(self, x0, x1, y0, y1):
        g = self.gamma
        ax, bx = _overlap(x0, x1, 0.0, g), _overlap(x0, x1, g, 1.0)
        ay, by = _overlap(y0, y1, 0.0, g), _overlap(y0, y1, g, 1.0)
        return ax * by + bx * ay

    def slice_integral(self, x, y0, y1):
        if x <= self.gamma:
            return _overlap(y0, y1, self.gamma, 1.0)
        return _overlap(y0, y1, 0.0, self.gamma)

    def internal_boundaries(self):
        return (self.gamma,)


class CheckerboardKernel(AnalyticGraphon):
    """Kernel of the 2n-stripe checkerboard: 1 between opposite stripes."""

    kind = "checkerboard"

    def __init__(self, n: int):
        if int(n) < 1:
            raise ParameterError("checkerboard order must be >= 1")
        self.n = int(n)

    def params(self):
        return {"n": self.n}

    def _in_even_stripe(self, x):
        j = min(int(x * 2 * self.n), 2 * self.n - 1)
        return j % 2 == 0

    def _even_overlap(self, a0, a1):
        total = 0.0
        for k in range(self.n):
            total += _overlap(a0, a1, 2 * k / (2 * self.n), (2 * k + 1) / (2 * self.n))
        return total

    def value(self, x, y):
        return 1.0 if self._in_even_stripe(x) != self._in_even_stripe(y) else 0.0

    def rect_integral(self, x0, x1, y0, y1):
        sx = self._even_overlap(x0, x1)
        sy = self._even_overlap(y0, y1)
        return sx * ((y1 - y0) - sy) + ((x1 - x0) - sx) * sy

    def slice_integral(self, x, y0, y1):
        span = y1 - y0
        even = self._even_overlap(y0, y1)
        return (span - even) if self._in_even_stripe(x) else even

    def internal_boundaries(self):
        return tuple(i / (2 * self.n) for i in range(1, 2 * self.n))


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
    m = widths.size
    contrib = values * widths[:, None] * widths[None, :]
    chunk = 1 << min(m, 16)
    total = 1 << m
    best = -1.0
    best_p = 0
    for lo in range(0, total, chunk):
        pats = _pattern_chunk(lo, min(lo + chunk, total), m)
        cols = pats @ contrib
        vals = np.maximum(
            np.maximum(cols, 0.0).sum(axis=1), np.maximum(-cols, 0.0).sum(axis=1)
        )
        cmax = float(vals.max())
        if cmax > best:
            best = cmax
            best_p = lo + int(np.argmax(vals == cmax))
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

    Exact mode enumerates all 2^m block-sign patterns for the first set; for
    each pattern the optimal second set is the per-column clip, and both
    global signs are taken.  Ties are broken toward the lexicographically
    smallest witness.  Heuristic mode runs alternating maximization from
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
HOM_GRAPH_MAX_NODES = 12
HOM_GRAPHON_MAX_CELLS = 10**7


def hom_count(motif: Graph, g: Graph) -> int:
    """Number of adjacency-preserving maps from the motif into g."""
    k, n = motif.n, g.n
    adj = g.adjacency()
    ok = np.ones((n,) * k, dtype=bool)
    for i, j in motif.edges:
        u, v = i - 1, j - 1
        axes = tuple(d for d in range(k) if d not in (u, v))
        ok &= np.expand_dims(adj, axis=axes)
    return int(ok.sum())


def hom_density_graph(motif: Graph, g: Graph) -> Fraction:
    """Exact homomorphism density t(F, G) as a rational number."""
    if motif.n > HOM_MOTIF_MAX_NODES:
        raise CapacityError(f"motif capped at {HOM_MOTIF_MAX_NODES} nodes")
    if g.n > HOM_GRAPH_MAX_NODES:
        raise CapacityError(f"target graph capped at {HOM_GRAPH_MAX_NODES} nodes")
    return Fraction(hom_count(motif, g), g.n**motif.n)


def hom_density_graphon(motif: Graph, w: StepGraphon) -> float:
    """Homomorphism density of a motif in a step graphon, by exact summation."""
    if motif.n > HOM_MOTIF_MAX_NODES:
        raise CapacityError(f"motif capped at {HOM_MOTIF_MAX_NODES} nodes")
    k, m = motif.n, w.block_count
    if m**k > HOM_GRAPHON_MAX_CELLS:
        raise CapacityError("block assignment space exceeds the exact-summation cap")
    letters = "abcde"[:k]
    subs = [letters[i - 1] + letters[j - 1] for i, j in motif.edge_list()]
    operands = [w.values] * len(subs)
    for v in range(k):
        subs.append(letters[v])
        operands.append(w.widths)
    return float(np.einsum(",".join(subs) + "->", *operands, optimize=True))
