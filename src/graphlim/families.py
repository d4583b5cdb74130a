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


def block_family(lambdas, n: int) -> FamilyInstance:
    """Complete subgraphs on consecutive node blocks, bridged by single edges.

    Block k holds nodes floor(n * cum_{k-1}) + 1 .. floor(n * cum_k); the last
    node of each block is joined to the first node of the next one.
    """
    kernel = BlockDiagonalKernel(lambdas)  # validates the fractions
    bounds = _block_bounds(kernel.lambdas, n)
    if any(hi <= lo for lo, hi in zip(bounds, bounds[1:])):
        raise ParameterError(f"every block must be nonempty at n={n}")
    cliques = [_upper_pairs(hi - lo, 1, lo + 1) for lo, hi in zip(bounds, bounds[1:])]
    # the last node of every block but the final one joins the next node
    bridges = np.asarray(bounds[1:-1], dtype=np.intp)[:, None] + [0, 1]
    return FamilyInstance(Graph(n, np.concatenate([*cliques, bridges])), kernel)


def bipartite(gamma: float, n: int) -> FamilyInstance:
    """Complete bipartite graph with a floor(n*gamma)-node first group."""
    kernel = BipartiteSplitKernel(gamma)
    p = int(np.floor(n * kernel.gamma + _FLOOR_GUARD))
    q = n - p
    if p < 1 or q < 1:
        raise ParameterError(f"both groups must be nonempty at n={n}, gamma={gamma}")
    i, j = np.indices((p, q)).reshape(2, -1)
    return FamilyInstance(Graph(n, np.stack([i + 1, j + p + 1], axis=1)), kernel)


def halfgraph(n: int) -> FamilyInstance:
    """Half graph: node i <= n/2 joins node j > n/2 whenever i <= j - n/2."""
    if n < 2 or n % 2 != 0:
        raise ParameterError("half graph needs an even n >= 2")
    return FamilyInstance(Graph(n, _upper_pairs(n, n // 2)), HalfGraphKernel())


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
