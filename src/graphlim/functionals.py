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

from .errors import ParameterError
from .fields import LabelModel, ThetaField
from .graphons import AnalyticGraphon, Graph, StepGraphon

_INTERIOR_TOL = 1e-9


def cell_averages(w, m: int) -> StepGraphon:
    """Exact cell averages of the kernel w as a step graphon on m equal cells.

    Analytic kernels integrate in closed form over every cell pair; a step
    graphon must have its block boundaries on the grid, and one that already
    has m equal cells is returned as it is.
    """
    if m < 1:
        raise ParameterError(f"grid must have at least one cell, got {m}")
    if isinstance(w, StepGraphon):
        if not w.is_step_on(m):
            raise ParameterError(
                "step graphon blocks do not align with the requested grid"
            )
        if w.block_count == m and w.equal_width():
            return w
        idx = w.block_index((np.arange(m) + 0.5) / m)
        return StepGraphon(np.full(m, 1.0 / m), w.values[np.ix_(idx, idx)])
    if isinstance(w, AnalyticGraphon):
        return w.step_on(m)
    raise ParameterError(f"unsupported kernel object {type(w).__name__}")


def _weights_of(theta, stacked=False):
    if isinstance(theta, ThetaField):
        return theta.weights
    arr = np.asarray(theta, dtype=float)
    if arr.ndim < 2 or (arr.ndim > 2 and not stacked):
        raise ParameterError("theta must be an m x N weight matrix")
    return arr


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


def _checked(w, theta, model):
    # the one check of an energy or gradient call: w's cell averages on theta's grid
    weights = _weights_of(theta, stacked=True)
    if weights.shape[-1] != model.n_labels:
        raise ParameterError("field and model disagree on the number of labels")
    return cell_averages(w, weights.shape[-2]).values, weights


def _grid_energy(kernel, weights, coupling):
    # kernel is the checked m x m cell-average matrix, so kernel.size is m^2;
    # the solver loops call this and _grid_gradient directly
    mixed = np.swapaxes(weights, -1, -2) @ kernel @ weights
    energy = (coupling * mixed).sum(axis=(-2, -1)) / kernel.size
    return float(energy) if energy.ndim == 0 else energy


def _grid_gradient(kernel, weights, coupling):
    return (2.0 / kernel.size) * (kernel @ weights @ coupling)


def limit_cut_energy(w, theta, model: LabelModel) -> float:
    """Continuum cut energy sum_hk f_hk <theta_h, Wbar theta_k> / m^2.

    theta may also be a stack (..., m, N) of weight matrices; the result is
    then the array of their energies, each equal to that of its field alone.
    The field needs one weight per label and w cell averages on its grid.
    """
    return _grid_energy(*_checked(w, theta, model), model.coupling)


def limit_energy_gradient(w, theta, model: LabelModel) -> np.ndarray:
    """Partial derivatives of the discretized energy in every weight entry.

    Like limit_cut_energy, it checks and takes one field or a stack (..., m, N).
    """
    return _grid_gradient(*_checked(w, theta, model), model.coupling)


@dataclass(frozen=True)
class KKTReport:
    """Stationarity diagnostic for the spin problem under a mass constraint."""

    phi: np.ndarray  # per-cell values of int W(x,y)(1 - 2 theta(y)) dy
    multiplier: float  # None when no cell is strictly interior
    residual: float
    vacuous: bool  # no strictly interior cells, condition holds trivially


def kkt_residual(w, theta) -> KKTReport:
    """First-order stationarity residual on the interior set of a spin field.

    The multiplier is the mean of phi over cells whose plus weight (column 0)
    lies in (1e-9, 1 - 1e-9); the residual is the max deviation of phi there.
    """
    weights = _weights_of(theta)
    if weights.shape[1] != 2:
        raise ParameterError(f"kkt_residual needs a two-label field, got {weights.shape[1]} labels")
    x = weights[:, 0]
    phi = (cell_averages(w, x.size).values @ (1.0 - 2.0 * x)) / x.size
    interior = (x > _INTERIOR_TOL) & (x < 1.0 - _INTERIOR_TOL)
    if not np.any(interior):
        return KKTReport(phi, None, 0.0, True)
    mult = float(phi[interior].mean())
    res = float(np.abs(phi[interior] - mult).max())
    return KKTReport(phi, mult, res, False)
