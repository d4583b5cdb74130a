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
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return FamilyInstance(Graph.from_edges(n, edges), ConstantKernel(1.0))


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
    blocks = [list(range(bounds[k] + 1, bounds[k + 1] + 1)) for k in range(len(bounds) - 1)]
    if any(not b for b in blocks):
        raise ParameterError(f"every block must be nonempty at n={n}")
    edges = []
    for block in blocks:
        edges.extend((i, j) for i in block for j in block if i < j)
    for k in range(len(blocks) - 1):
        edges.append((blocks[k][-1], blocks[k + 1][0]))
    return FamilyInstance(Graph.from_edges(n, edges), kernel)


def block_node_sets(lambdas, n: int):
    """The node blocks used by block_family, as inclusive 1-based ranges."""
    kernel = BlockDiagonalKernel(lambdas)
    bounds = _block_bounds(kernel.lambdas, n)
    return [tuple(range(bounds[k] + 1, bounds[k + 1] + 1)) for k in range(len(bounds) - 1)]


def bipartite(gamma: float, n: int) -> FamilyInstance:
    """Complete bipartite graph with a floor(n*gamma)-node first group."""
    kernel = BipartiteSplitKernel(gamma)
    p = int(np.floor(n * kernel.gamma + _FLOOR_GUARD))
    q = n - p
    if p < 1 or q < 1:
        raise ParameterError(f"both groups must be nonempty at n={n}, gamma={gamma}")
    edges = [(i, j) for i in range(1, p + 1) for j in range(p + 1, n + 1)]
    return FamilyInstance(Graph.from_edges(n, edges), kernel)


def halfgraph(n: int) -> FamilyInstance:
    """Half graph: node i <= n/2 joins node j > n/2 whenever i <= j - n/2."""
    if n < 2 or n % 2 != 0:
        raise ParameterError("half graph needs an even n >= 2")
    half = n // 2
    edges = [(i, j) for i in range(1, half + 1) for j in range(i + half, n + 1)]
    return FamilyInstance(Graph.from_edges(n, edges), HalfGraphKernel())


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
    rng = np.random.Generator(np.random.Philox(seed))
    xs = rng.random(n)
    draws = rng.random(n * (n - 1) // 2)
    i, j = np.triu_indices(n, 1)  # row-major, the order of the draws
    keep = draws < w.value(xs[i], xs[j])
    return Graph(n, frozenset(zip((i[keep] + 1).tolist(), (j[keep] + 1).tolist())))


def sign_sin_field(n: int, m: int) -> np.ndarray:
    """Spin values sign(sin(n pi x)) sampled at the midpoints of m cells."""
    if n < 1 or m < 1 or m % n != 0:
        raise ParameterError("cell count must be a positive multiple of n")
    mids = (np.arange(m) + 0.5) / m
    return np.sign(np.sin(n * np.pi * mids))
