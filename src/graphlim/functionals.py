"""Discrete and continuum cut energies and their diagnostics.

The discrete energy of a labeled graph is the adjacency-weighted coupling sum
over ordered node pairs, normalized by n^2.  Its continuum counterpart
replaces the adjacency matrix by a kernel and the labeling by a probability-
weight field; on a grid it is evaluated through exact cell averages of the
kernel, so cell-constant fields incur no quadrature error.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, ParameterError
from .fields import LabelModel, ThetaField
from .graphons import AnalyticGraphon, Graph, StepGraphon

_GRID_TOL = 1e-9


@dataclass(frozen=True)
class QuadratureKernel:
    """Exact cell averages of a kernel on the m-cell uniform grid."""

    matrix: np.ndarray

    @property
    def m(self):
        return self.matrix.shape[0]

    def max_abs(self):
        return float(np.abs(self.matrix).max())


def cell_averages(w, m: int) -> QuadratureKernel:
    """Build the m x m matrix of exact cell averages of the kernel w.

    Step graphons require their block boundaries to sit on the grid; analytic
    kernels integrate in closed form over every cell pair.
    """
    if m < 1:
        raise ParameterError(f"grid must have at least one cell, got {m}")
    if isinstance(w, QuadratureKernel):
        if w.m != m:
            raise ParameterError(f"kernel is on a {w.m}-cell grid, requested {m}")
        return w
    if isinstance(w, StepGraphon):
        scaled = w.boundaries[1:-1] * m
        if np.any(np.abs(scaled - np.round(scaled)) > _GRID_TOL):
            raise ParameterError(
                "step graphon blocks do not align with the requested grid"
            )
        mids = (np.arange(m) + 0.5) / m
        idx = w.block_index(mids)
        return QuadratureKernel(w.values[np.ix_(idx, idx)].astype(float))
    if isinstance(w, AnalyticGraphon):
        step = w.step_on(m)
        return QuadratureKernel(step.values)
    raise ParameterError(f"unsupported kernel object {type(w).__name__}")


def _weights_of(theta, stacked=False):
    if isinstance(theta, ThetaField):
        return theta.weights
    arr = np.asarray(theta, dtype=float)
    if arr.ndim < 2 or (arr.ndim > 2 and not stacked):
        raise ParameterError("theta must be an m x N weight matrix")
    return arr


def _plus_weights(theta, model, caller):
    """Plus-label weights of a two-label field under a spin model (the default)."""
    model = model or LabelModel.spin()
    if not model.is_spin:
        raise ParameterError(f"{caller} is defined for the spin model")
    weights = _weights_of(theta)
    if weights.shape[1] != 2:
        raise ParameterError(f"{caller} needs a two-label field, got {weights.shape[1]} labels")
    return weights[:, model.plus_index]


def discrete_cut_energy(g: Graph, u, model: LabelModel) -> float:
    """(1/n^2) sum over ordered pairs of A_ij f(u_i, u_j)."""
    u = np.asarray(u, dtype=float)
    if u.size != g.n:
        raise ParameterError("labeling must cover every node")
    idx = model.indices(u)
    f = model.coupling
    a, b = idx[g.edges - 1].T
    terms = f[a, b] + f[b, a]
    # add the edge terms one by one from 0.0, in sorted edge order, like a Python loop
    total = np.cumsum(np.concatenate(([0.0], terms)))[-1]
    return total / (g.n * g.n)


def limit_cut_energy(w, theta, model: LabelModel) -> float:
    """Continuum cut energy sum_hk f_hk <theta_h, Wbar theta_k> / m^2.

    theta may also be a stack (..., m, N) of weight matrices; the result is
    then the array of their energies, each equal to that of its field alone.
    """
    weights = _weights_of(theta, stacked=True)
    m, nlab = weights.shape[-2:]
    if nlab != model.n_labels:
        raise ParameterError("field and model disagree on the number of labels")
    kernel = cell_averages(w, m)
    mixed = np.swapaxes(weights, -1, -2) @ kernel.matrix @ weights
    energy = (model.coupling * mixed).sum(axis=(-2, -1)) / (m * m)
    return float(energy) if energy.ndim == 0 else energy


def limit_energy_gradient(w, theta, model: LabelModel) -> np.ndarray:
    """Partial derivatives of the discretized energy in every weight entry.

    Like limit_cut_energy, it takes one field or a stack (..., m, N).
    """
    weights = _weights_of(theta, stacked=True)
    m = weights.shape[-2]
    kernel = cell_averages(w, m)
    return (2.0 / (m * m)) * (kernel.matrix @ weights @ model.coupling)


def spin_energy_gradient(w, theta, model: LabelModel = None) -> np.ndarray:
    """Derivative of the spin energy in the plus-weight per cell.

    Both columns move together (the minus weight is 1 minus the plus weight),
    which reduces to (8/m^2) sum_b Wbar_ab (1 - 2 theta(b)); it vanishes at
    the half-constant field.
    """
    x = _plus_weights(theta, model, "spin_energy_gradient")
    m = x.size
    kernel = cell_averages(w, m)
    return (8.0 / (m * m)) * (kernel.matrix @ (1.0 - 2.0 * x))


@dataclass(frozen=True)
class KKTReport:
    """Stationarity diagnostic for the spin problem under a mass constraint."""

    phi: np.ndarray  # per-cell values of int W(x,y)(1 - 2 theta(y)) dy
    multiplier: float  # None when no cell is strictly interior
    residual: float
    vacuous: bool  # no strictly interior cells, condition holds trivially


def kkt_residual(w, theta, model: LabelModel = None, interior_tol=1e-9) -> KKTReport:
    """First-order stationarity residual on the interior set of a spin field.

    The multiplier is the mean of phi over cells with theta strictly inside
    (tol, 1 - tol); the residual is the max deviation of phi from it there.
    """
    x = _plus_weights(theta, model, "kkt_residual")
    m = x.size
    kernel = cell_averages(w, m)
    phi = kernel.matrix @ (1.0 - 2.0 * x) / m
    interior = (x > interior_tol) & (x < 1.0 - interior_tol)
    if not np.any(interior):
        return KKTReport(phi, None, 0.0, True)
    mult = float(phi[interior].mean())
    res = float(np.abs(phi[interior] - mult).max())
    return KKTReport(phi, mult, res, False)


@dataclass(frozen=True)
class BlockReduction:
    masses: np.ndarray  # per-block mass of the plus label
    reduced: float  # sum_k A_k (lambda_k - A_k)
    energy: float  # 8 * reduced, the spin energy on the block kernel


def block_reduce(lambdas, theta, model: LabelModel = None) -> BlockReduction:
    """Reduce a spin field on a block-diagonal kernel to per-block masses.

    The grid must refine the block partition; the returned energy equals the
    continuum energy of the same field on the block kernel.
    """
    x = _plus_weights(theta, model, "block_reduce")
    lams = np.asarray(lambdas, dtype=float)
    m = x.size
    bounds = np.concatenate(([0.0], np.cumsum(lams)))
    scaled = bounds * m
    if np.any(np.abs(scaled - np.round(scaled)) > _GRID_TOL):
        raise ParameterError("grid does not refine the block partition")
    edges = np.round(scaled).astype(int)
    masses = np.asarray(
        [x[edges[k] : edges[k + 1]].sum() / m for k in range(lams.size)]
    )
    reduced = float((masses * (lams - masses)).sum())
    return BlockReduction(masses, reduced, 8.0 * reduced)


def halfgraph_profiles(theta, model: LabelModel = None):
    """Cumulative plus-mass paths of the two halves of a spin field."""
    x = _plus_weights(theta, model, "halfgraph_profiles")
    m = x.size
    if m % 2 != 0:
        raise ParameterError("profiles need an even cell count")
    step = 1.0 / m
    w1 = np.concatenate(([0.0], np.cumsum(x[: m // 2]) * step))
    w2 = np.concatenate(([0.0], np.cumsum(x[m // 2 :]) * step))
    return w1, w2


def profile_energy_integral(w1, w2) -> float:
    """Exact piecewise integral of the cumulative-profile energy integrand.

    Profiles are piecewise-linear node values on a uniform grid of [0, 1/2];
    no boundary conditions are imposed here.
    """
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    if w1.shape != w2.shape or w1.ndim != 1 or w1.size < 2:
        raise ParameterError("profiles must be equal-length node-value arrays")
    k = w1.size - 1
    hx = 0.5 / k
    d1 = np.diff(w1)
    d2 = np.diff(w2)
    nodes = np.arange(k + 1) * hx
    sq = 0.5 * (nodes[1:] ** 2 - nodes[:-1] ** 2)
    s1 = d1 / hx
    s2 = d2 / hx
    term1 = float((s1 * (0.5 * hx - sq)).sum())
    term2 = float((s2 * sq).sum())
    trapz = 0.5 * (w1[:-1] + w1[1:]) * hx
    term3 = float((s2 * trapz).sum())
    return 8.0 * (term1 + term2 - 2.0 * term3)


def halfgraph_profile_energy(w1, w2) -> float:
    """Spin energy of the half-graph kernel in cumulative-profile variables.

    The profiles are piecewise-linear on a uniform grid of [0, 1/2] with
    slopes in [0,1], vanish at 0, and their endpoint values sum to 1/2
    (the balanced-mass constraint); the integrand is integrated exactly.
    """
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    if w1.shape != w2.shape or w1.ndim != 1 or w1.size < 2:
        raise ParameterError("profiles must be equal-length node-value arrays")
    if abs(w1[0]) > 1e-12 or abs(w2[0]) > 1e-12:
        raise InfeasibleError("profiles must start at 0")
    if abs(w1[-1] + w2[-1] - 0.5) > 1e-9:
        raise InfeasibleError("profile endpoints must sum to 1/2")
    hx = 0.5 / (w1.size - 1)
    d1 = np.diff(w1)
    d2 = np.diff(w2)
    if np.any(d1 < -1e-9) or np.any(d1 > hx + 1e-9):
        raise InfeasibleError("first profile slope leaves [0,1]")
    if np.any(d2 < -1e-9) or np.any(d2 > hx + 1e-9):
        raise InfeasibleError("second profile slope leaves [0,1]")
    return profile_energy_integral(w1, w2)
