"""Label models and grid-discretized probability-weight fields.

A theta field assigns to each of m equal grid cells a probability vector over
a finite label set; it is the computational stand-in for a finite-support
Young measure.  Spin fields are the {0,1}-valued special case encoding a
labeling directly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, ParameterError

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

    def index_of(self, label) -> int:
        try:
            return self.labels.index(float(label))
        except ValueError:
            raise ParameterError(f"unknown label {label!r}") from None

    def indices(self, values):
        """Label index of each entry of values, in one vectorised pass.

        Raises the `index_of` error for the first unknown entry in C order.
        """
        values = np.asarray(values, dtype=float)
        hits = values[..., None] == np.asarray(self.labels)
        known = hits.any(axis=-1)
        if not known.all():
            raise ParameterError(f"unknown label {values.flat[np.argmin(known)]!r}")
        return np.argmax(hits, axis=-1)

    @property
    def is_spin(self):
        return self.n_labels == 2 and set(self.labels) == {1.0, -1.0}

    @property
    def plus_index(self) -> int:
        if not self.is_spin:
            raise ParameterError("plus_index is defined for spin models only")
        return self.index_of(1.0)


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

    @classmethod
    def constant(cls, row, m):
        return cls(np.tile(np.asarray(row, dtype=float), (m, 1)))

    @property
    def m(self):
        return self.weights.shape[0]

    @property
    def n_labels(self):
        return self.weights.shape[1]

    def is_spin_valued(self, tol=0.0):
        w = self.weights
        return bool(np.all((np.abs(w) <= tol) | (np.abs(w - 1.0) <= tol)))

    def mass(self):
        """Per-label mass vector (1/m) sum_i theta_k(i)."""
        return self.weights.mean(axis=0)

    def label_indices(self):
        if not self.is_spin_valued(tol=1e-12):
            raise ParameterError("field is not spin-valued")
        return np.argmax(self.weights, axis=1)

    def labels_of(self, model: LabelModel):
        return np.asarray(model.labels)[self.label_indices()]

    def counts(self):
        idx = self.label_indices()
        return np.bincount(idx, minlength=self.n_labels)


def theta_from_labels(u, model: LabelModel) -> ThetaField:
    """One-hot field of a cell labeling; inverts exactly via labels_of."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise ParameterError("labeling must be a nonempty 1-d sequence")
    return ThetaField(np.eye(model.n_labels)[model.indices(u)])


@dataclass(frozen=True)
class PartitionSpec:
    """Target label masses, with deterministic integer sizes per grid size."""

    masses: tuple
    sizes: tuple = field(default=None)

    def __post_init__(self):
        masses = tuple(float(v) for v in self.masses)
        object.__setattr__(self, "masses", masses)
        if any(v < 0.0 for v in masses):
            raise ParameterError("masses must be nonnegative")
        if abs(sum(masses) - 1.0) > _ROW_TOL:
            raise ParameterError("masses must sum to 1")
        if self.sizes is not None:
            sizes = tuple(int(v) for v in self.sizes)
            object.__setattr__(self, "sizes", sizes)
            if len(sizes) != len(masses) or any(v < 0 for v in sizes):
                raise InfeasibleError("explicit sizes must be nonnegative, one per label")

    @classmethod
    def bisection(cls):
        return cls((0.5, 0.5))

    def sizes_for(self, n: int):
        """Integer sizes summing to n: floor targets plus largest remainders."""
        if self.sizes is not None:
            if sum(self.sizes) != n:
                raise InfeasibleError(f"sizes {self.sizes} do not sum to n={n}")
            return self.sizes
        targets = [n * v for v in self.masses]
        base = [int(np.floor(t + 1e-9)) for t in targets]
        leftover = n - sum(base)
        if leftover < 0:
            raise InfeasibleError("mass vector is incompatible with n")
        remainders = sorted(
            range(len(base)), key=lambda k: (-(targets[k] - base[k]), k)
        )
        for k in remainders[:leftover]:
            base[k] += 1
        return tuple(base)


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


def repair_mass(theta: ThetaField, spec: PartitionSpec) -> ThetaField:
    """Minimal deterministic relabeling to hit exact per-label counts.

    The lowest-indexed cells of each over-full label are reassigned to the
    under-full labels in label order; the result is idempotent and changes
    exactly sum_k max(0, count_k - target_k) cells.
    """
    if not theta.is_spin_valued(tol=1e-12):
        raise ParameterError("repair_mass requires a spin-valued field")
    m, nlab = theta.m, theta.n_labels
    targets = spec.sizes_for(m)
    if len(targets) != nlab:
        raise InfeasibleError("partition spec has the wrong number of labels")
    idx = theta.label_indices()
    counts = np.bincount(idx, minlength=nlab)
    if np.array_equal(counts, targets):
        return theta
    surplus = counts - np.asarray(targets)
    # the donors are the first surplus cells of each over-full label, in cell order
    seen = np.cumsum(np.eye(nlab, dtype=np.intp)[idx], axis=0)[np.arange(m), idx]
    donors = np.flatnonzero(seen <= surplus[idx])
    new_idx = idx.copy()
    new_idx[donors] = np.repeat(np.arange(nlab), np.maximum(-surplus, 0))
    return ThetaField(np.eye(nlab)[new_idx])


def window_average(values, width: float):
    """Per-window means of a cell sequence; width must tile the grid."""
    if isinstance(values, ThetaField):
        arr = values.weights
    else:
        arr = np.asarray(values, dtype=float)
    m = arr.shape[0]
    cells = width * m
    k = int(round(cells))
    if k < 1 or abs(cells - k) > 1e-9:
        raise ParameterError("window width must be a positive multiple of 1/m")
    if m % k != 0:
        raise ParameterError("windows must tile the grid exactly")
    shaped = arr.reshape((m // k, k) + arr.shape[1:])
    return shaped.mean(axis=1)
