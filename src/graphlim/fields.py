"""Label models and grid-discretized probability-weight fields.

A theta field assigns to each of m equal grid cells a probability vector over
a finite label set; it is the computational stand-in for a finite-support
Young measure.  Spin fields are the {0,1}-valued special case encoding a
labeling directly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_ROW_TOL = 1e-12


@dataclass(frozen=True)
class LabelModel:
    """A finite label set with a symmetric nonnegative coupling matrix."""

    labels: tuple
    coupling: np.ndarray

    def __post_init__(self):
        labels = tuple(float(v) for v in self.labels)
        object.__setattr__(self, "labels", labels)
        coupling = np.asarray(self.coupling, dtype=float)
        object.__setattr__(self, "coupling", coupling)
        n = len(labels)
        if n < 1 or len(set(labels)) != n:
            raise ParameterError("labels must be distinct")
        if coupling.shape != (n, n):
            raise ParameterError(f"coupling must be {n}x{n}")
        if not np.array_equal(coupling, coupling.T):
            raise ParameterError("coupling must be symmetric")
        if np.any(coupling < 0.0):
            raise ParameterError("coupling must be nonnegative")

    @classmethod
    def spin(cls):
        """Two labels +1/-1 with quadratic-difference coupling |a-b|^2."""
        return cls((1.0, -1.0), np.array([[0.0, 4.0], [4.0, 0.0]]))

    @classmethod
    def unit_cut(cls, labels):
        """Coupling 1 between distinct labels, 0 on the diagonal."""
        n = len(labels)
        return cls(tuple(labels), np.ones((n, n)) - np.eye(n))

    @property
    def n_labels(self):
        return len(self.labels)

    def indices(self, values):
        """Label index of each entry of values, in one vectorised pass.

        Raises ParameterError naming the first unknown entry in C order.
        """
        values = np.asarray(values, dtype=float)
        hits = values[..., None] == np.asarray(self.labels)
        known = hits.any(axis=-1)
        if not known.all():
            raise ParameterError(f"unknown label {values.flat[np.argmin(known)]!r}")
        return np.argmax(hits, axis=-1)

    @property
    def is_spin(self):
        """Whether this is `spin()`: labels (1, -1) in that order, coupling 4 between them."""
        return self.labels == (1.0, -1.0) and np.array_equal(self.coupling, [[0, 4], [4, 0]])


@dataclass
class ThetaField:
    """Row-stochastic m x N weight matrix over equal cells of [0,1]."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 2 or self.weights.size == 0:
            raise ParameterError("weights must be a nonempty m x N matrix")
        # written so that NaN weights fail it too
        if not np.all((self.weights >= -_ROW_TOL) & (self.weights <= 1.0 + _ROW_TOL)):
            raise ParameterError("weights must lie in [0,1]")
        rowsum = self.weights.sum(axis=1)
        if np.any(np.abs(rowsum - 1.0) > _ROW_TOL):
            raise ParameterError("each row must sum to 1")

    @property
    def m(self):
        return self.weights.shape[0]

    @property
    def n_labels(self):
        return self.weights.shape[1]


def theta_from_labels(u, model: LabelModel) -> ThetaField:
    """One-hot field of a cell labeling; `weights.argmax(axis=1)` inverts it."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise ParameterError("labeling must be a nonempty 1-d sequence")
    return ThetaField(np.eye(model.n_labels)[model.indices(u)])


def recovery_sequence(theta: ThetaField, n: int) -> ThetaField:
    """Spin-valued field on n cells whose windowed averages converge to theta.

    Each original cell must carry rational weights p_k/q with q dividing the
    per-cell refinement n/m; sub-cell j (1-based, global) gets label k when
    its residue modulo q falls in the k-th cumulative block of the p_k.
    Residue 0 counts as q.
    """
    m = theta.m
    if n % m != 0:
        raise ParameterError(f"n={n} must be a multiple of the cell count m={m}")
    span = n // m
    labels = np.empty(n, dtype=np.intp)
    for i, row in enumerate(theta.weights):
        q, counts = _rational_row(row, span)
        cells = np.arange(i * span, (i + 1) * span)
        labels[cells] = np.searchsorted(np.cumsum(counts), cells % q + 1, side="left")
    return ThetaField(np.eye(theta.n_labels)[labels])


def _rational_row(row, span):
    for q in range(1, span + 1):
        if span % q != 0:
            continue
        counts = [int(np.floor(v * q + 0.5)) for v in row]
        if sum(counts) != q:
            continue
        if all(abs(v - c / q) <= 1e-12 for v, c in zip(row, counts)):
            return q, counts
    raise ParameterError(
        "cell weights are not rational with denominator dividing the refinement"
    )
