"""Generators for dense graph sequences and their limit kernels."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .graphons import (
    AnalyticGraphon,
    BipartiteSplitKernel,
    BlockDiagonalKernel,
    CheckerboardKernel,
    ConstantKernel,
    Graph,
    HalfGraphKernel,
    StepGraphon,
    StepKernel,
    _rng,
)

_FLOOR_GUARD = 1e-9  # protects floor arithmetic against float cumsum noise


@dataclass(frozen=True)
class FamilyInstance:
    graph: Graph
    limit: AnalyticGraphon


def complete(n: int) -> FamilyInstance:
    """Complete graph on n nodes; limit kernel is the constant 1."""
    if n < 1:
        raise ParameterError("complete graph needs n >= 1")
    return FamilyInstance(Graph(n, _upper_pairs(n, 1)), ConstantKernel(1.0))


def _upper_pairs(size, k, first=1):
    """Pairs (i, j) with j - i >= k among the nodes first .. first + size - 1."""
    return np.stack(np.triu_indices(size, k), axis=1) + first


def _block_bounds(lambdas, n):
    lams = np.asarray(lambdas, dtype=float)
    cum = np.concatenate(([0.0], np.cumsum(lams)))
    return [int(np.floor(n * c + _FLOOR_GUARD)) for c in cum]


def _nonempty_blocks(lambdas, n):
    kernel = BlockDiagonalKernel(lambdas)  # validates the fractions
    bounds = _block_bounds(kernel.lambdas, n)
    if any(hi <= lo for lo, hi in zip(bounds, bounds[1:])):
        raise ParameterError(f"every block must be nonempty at n={n}")
    return kernel, bounds


def block_family(lambdas, n: int) -> FamilyInstance:
    """Complete subgraphs on consecutive node blocks, bridged by single edges.

    Block k holds nodes floor(n * cum_{k-1}) + 1 .. floor(n * cum_k); the last
    node of each block is joined to the first node of the next one.
    """
    kernel, bounds = _nonempty_blocks(lambdas, n)
    cliques = [_upper_pairs(hi - lo, 1, lo + 1) for lo, hi in zip(bounds, bounds[1:])]
    # the last node of every block but the final one joins the next node
    bridges = np.asarray(bounds[1:-1], dtype=np.intp)[:, None] + [0, 1]
    return FamilyInstance(Graph(n, np.concatenate([*cliques, bridges])), kernel)


def _bipartite_groups(gamma, n):
    kernel = BipartiteSplitKernel(gamma)
    p = int(np.floor(n * kernel.gamma + _FLOOR_GUARD))
    if p < 1 or n - p < 1:
        raise ParameterError(f"both groups must be nonempty at n={n}, gamma={gamma}")
    return kernel, p, n - p


def bipartite(gamma: float, n: int) -> FamilyInstance:
    """Complete bipartite graph with a floor(n*gamma)-node first group."""
    kernel, p, q = _bipartite_groups(gamma, n)
    i, j = np.indices((p, q)).reshape(2, -1)
    return FamilyInstance(Graph(n, np.stack([i + 1, j + p + 1], axis=1)), kernel)


def halfgraph(n: int) -> FamilyInstance:
    """Half graph: node i <= n/2 joins node j > n/2 whenever i <= j - n/2."""
    if n < 2 or n % 2 != 0:
        raise ParameterError("half graph needs an even n >= 2")
    return FamilyInstance(Graph(n, _upper_pairs(n, n // 2)), HalfGraphKernel())


# ---------------------------------------------------------------------------
# exact balanced bisections: each returns a +-1 labeling of its generator's
# n-node graph with n/2 nodes on +1 and the fewest cut edges


def _half(n):
    if n < 2 or n % 2 != 0:
        raise ParameterError("bisection needs an even n >= 2")
    return n // 2


def complete_bisection(n: int) -> np.ndarray:
    """Every balanced split of K_n cuts (n/2)^2 edges."""
    return np.repeat([1.0, -1.0], _half(n))


def _plus_first(plus, size):
    return np.where(np.arange(size) < plus, 1.0, -1.0)


def bipartite_bisection(gamma: float, n: int) -> np.ndarray:
    """K_{p,q} with c plus nodes in the first group and c' = n/2 - c in the
    second cuts c(q - c') + (p - c)c' edges; one pass over c."""
    h = _half(n)
    _, p, q = _bipartite_groups(gamma, n)
    c = np.arange(max(0, h - q), min(p, h) + 1)
    best = int(c[np.argmin(c * (q - h + c) + (p - c) * (h - c))])
    return np.concatenate([_plus_first(best, p), _plus_first(h - best, q)])


def block_bisection(lambdas, n: int) -> np.ndarray:
    """Bridged cliques, by a DP over blocks.

    The state is (plus count so far, label of the previous block's last
    node).  A block of s nodes picks its plus count c and the labels of its
    first and last nodes, at cost c(s - c) plus 1 when the bridge from the
    previous block is cut; a one-node block has its first node as its last.
    """
    h = _half(n)
    sizes = np.diff(_nonempty_blocks(lambdas, n)[1])
    # cost[P, L]: fewest cut edges with P plus nodes so far and the last one
    # labeled L (0 minus, 1 plus); the first block sees no bridge
    cost = np.full((h + 1, 2), np.inf)
    cost[0] = 0.0
    f, last = np.arange(2)[:, None, None], np.arange(2)[:, None]
    steps = []
    for s in sizes:
        # cheapest entry into a block whose first node is labeled f, and from where
        switch = cost[:, ::-1] + 1.0
        enter = np.minimum(cost, switch)
        came = np.where(cost <= switch, [0, 1], [1, 0])
        # every (c, f, last) on axes 0-2, the new plus count on axis 3
        c = np.arange(min(s, h) + 1)[:, None, None, None]
        prev = np.arange(h + 1) - c
        if s == 1:
            ok = (f == last) & (f == c)
        else:
            ok = (f + last <= c) & (2 - f - last <= s - c)
        total = np.where(ok & (prev >= 0), enter[np.maximum(prev, 0), f] + c * (s - c), np.inf)
        total = total.reshape(-1, 2, h + 1)
        pick = total.argmin(axis=0)  # c * 2 + f per (last, new plus count)
        cost = np.take_along_axis(total, pick[None], 0)[0].T
        steps.append((s, came, pick))
    plus, end = h, int(np.argmin(cost[h]))
    labels = []
    for s, came, pick in reversed(steps):
        c, first = divmod(int(pick[end, plus]), 2)
        block = [2.0 * first - 1]
        if s > 1:
            inner = np.repeat([1.0, -1.0], [c - first - end, s - c - 2 + first + end])
            block += [*inner, 2.0 * end - 1]
        labels.append(block)
        plus -= c
        end = int(came[plus, first])
    return np.concatenate(labels[::-1])


def halfgraph_bisection(n: int) -> np.ndarray:
    """The half graph as a chain graph, by a DP over t = 1..n/2.

    Second-half node t (node n/2 + t) joins first-half nodes 1..t.  The
    state (p, q) counts plus labels among the first t nodes of each half;
    adding node t of the first half and then node t of the second, the
    latter costs t - p if it is plus and p if it is minus.
    """
    h = _half(n)
    p = np.arange(h + 1)[:, None]
    cost = np.full((h + 1, h + 1), np.inf)
    cost[0, 0] = 0.0
    first, second = [], []
    for t in range(1, h + 1):
        shifted = np.full_like(cost, np.inf)
        shifted[1:] = cost[:-1]
        first.append(shifted < cost)  # first-half node t is plus
        cost = np.minimum(cost, shifted)
        shifted = np.full_like(cost, np.inf)
        shifted[:, 1:] = cost[:, :-1] + (t - p)
        minus = cost + p
        second.append(shifted < minus)  # second-half node t is plus
        cost = np.minimum(minus, shifted)
    a = int(np.argmin(np.fliplr(cost).diagonal()))  # the states with p + q = h
    b = h - a
    plus = np.zeros(n, dtype=bool)
    for t in range(h, 0, -1):
        plus[h + t - 1] = second[t - 1][a, b]
        b -= int(plus[h + t - 1])
        plus[t - 1] = first[t - 1][a, b]
        a -= int(plus[t - 1])
    return np.where(plus, 1.0, -1.0)


def checkerboard(n: int) -> StepGraphon:
    """Step graphon on 2n equal stripes, 1 between opposite-parity stripes."""
    kernel = CheckerboardKernel(n)  # validates the order
    size = 2 * kernel.n
    return StepGraphon(np.full(size, 1.0 / size), kernel.values)


def w_random(w, n: int, seed: int) -> Graph:
    """Sample an n-node graph from a [0,1]-valued kernel.

    One counter-based uniform stream per seed: n node positions first, then
    one draw per node pair in row-major order, so the same seed reproduces
    the same graph everywhere.
    """
    if n < 1:
        raise ParameterError("sample size must be >= 1")
    if not isinstance(w, (StepGraphon, AnalyticGraphon)):
        raise ParameterError(f"unsupported kernel object {type(w).__name__}")
    if isinstance(w, (StepGraphon, StepKernel)) and not w.is_w0():
        raise ParameterError("sampling requires a [0,1]-valued kernel")
    rng = _rng(seed)
    xs = rng.random(n)
    draws = rng.random(n * (n - 1) // 2)
    i, j = np.triu_indices(n, 1)  # row-major, the order of the draws
    keep = draws < w.value(xs[i], xs[j])
    return Graph(n, np.stack([i[keep], j[keep]], axis=1) + 1)
