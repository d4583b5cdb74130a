"""Reproducible convergence experiments: discrete minima against the limit.

For each n the configured family is generated, the balanced bisection is
solved (exactly when the size permits, otherwise by swap descent with a
flag), and the gap to the continuum minimum plus the labeled cut-norm gap
are recorded as one CSV row.  Rows run one after another in n order on the
calling thread, so each row's `seconds` is its own wall time.
"""
from __future__ import annotations

import numbers
import os
import time
from dataclasses import astuple, dataclass

from .errors import ParameterError
from .families import bipartite, block_family, complete, halfgraph
from .fields import LabelModel
from .fileio import format_float, write_text
from .functionals import cell_averages
from .graphons import EXACT_CUT_NORM_MAX_BLOCKS, cut_norm, step_from_graph
from .solvers import (
    BRUTE_BISECTION_MAX_NODES,
    METHODS,
    STEP_MINIMUM_MAX_BLOCKS,
    brute_bisection,
    local_search_partition,
    minimize_limit_energy,
    step_limit_minimum,
)

CSV_HEADER = "n,F_n,F_exact_flag,J_star,gap,cutnorm,cutnorm_exact_flag,seconds"

FAMILY_IDS = ("complete", "blocks", "bipartite", "halfgraph")

# the numeric fields, checked before any conversion so that a config file's
# 8.7 or true is not read as 8 or 1: (config key, attribute, type, list-valued)
_NUMERIC_FIELDS = (
    ("n", "ns", numbers.Integral, True),
    ("grid", "grid", numbers.Integral, False),
    ("gamma", "gamma", numbers.Real, False),
    ("lambdas", "lambdas", numbers.Real, True),
    ("restarts", "restarts", numbers.Integral, False),
    ("seed", "seed", numbers.Integral, False),
)


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    ns: tuple
    grid: int = 48
    gamma: float = 0.5
    lambdas: tuple = ()
    method: str = "pgd"
    restarts: int = 8
    seed: int = 0
    out: str = None

    def __post_init__(self):
        for key, attr, kind, listed in _NUMERIC_FIELDS:
            value = getattr(self, attr)
            items = value if listed else (value,)
            if not isinstance(items, (list, tuple)) or not all(
                isinstance(v, kind) and not isinstance(v, bool) for v in items
            ):
                noun = "integer" if kind is numbers.Integral else "number"
                expected = f"a list of {noun}s" if listed else f"a single {noun}"
                raise ParameterError(f"config field {key!r}: expected {expected}, got {value!r}")
        if not isinstance(self.out, (str, os.PathLike, type(None))) or self.out == "":
            raise ParameterError(f"config field 'out': expected a path, got {self.out!r}")
        object.__setattr__(self, "ns", tuple(int(v) for v in self.ns))
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        if self.family not in FAMILY_IDS:
            raise ParameterError(
                f"config field 'family': expected one of {FAMILY_IDS}, got {self.family!r}"
            )
        if not self.ns:
            raise ParameterError("config field 'n': at least one value required")
        if any(n < 2 or n % 2 != 0 for n in self.ns):
            raise ParameterError("config field 'n': bisection needs even n >= 2")
        if self.grid < 2 or self.grid % 2 != 0:
            raise ParameterError("config field 'grid': must be even and >= 2")
        if self.method not in METHODS:
            raise ParameterError(f"config field 'method': {' or '.join(METHODS)}")
        if self.restarts < 1:
            raise ParameterError("config field 'restarts': must be >= 1")
        if self.seed < 0:
            raise ParameterError("config field 'seed': must be >= 0")
        if self.family == "blocks" and not self.lambdas:
            raise ParameterError("config field 'lambdas': required for the blocks family")

    def instance(self, n):
        return family_instance(self.family, n, self.gamma, self.lambdas)


def family_instance(family, n, gamma=0.5, lambdas=()):
    """The n-node graph and limit kernel of one of the FAMILY_IDS."""
    if family == "complete":
        return complete(n)
    if family == "blocks":
        if not lambdas:
            raise ParameterError("the blocks family requires lambdas")
        return block_family(lambdas, n)
    if family == "bipartite":
        return bipartite(gamma, n)
    if family == "halfgraph":
        return halfgraph(n)
    raise ParameterError(f"unknown family {family!r}, expected one of {FAMILY_IDS}")


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    f_n: float
    f_exact: bool
    j_star: float
    gap: float
    cutnorm: float
    cutnorm_exact: bool
    seconds: float

    def as_dict(self):
        """The row's values keyed by the CSV column names, in header order."""
        return dict(zip(CSV_HEADER.split(","), astuple(self)))

    def csv(self):
        return ",".join(
            ("true" if v else "false") if isinstance(v, bool) else format_float(v)
            for v in self.as_dict().values()
        )


def thread_cap() -> int:
    """Rows run one at a time, so this is always 1.

    perfbench's tracer (`perfbench/tracing.py`) is its only reader; the
    next benchmark change retires it along with the `experiments.pool.*`
    metrics.
    """
    return 1


def labeled_gap(graph, limit, restarts, seed):
    """Cut-norm gap between a graph's step graphon and the family limit.

    The limit is averaged exactly onto the n-cell grid; the value is the
    exact cut norm of the difference when the grid is small enough (and is
    the true gap exactly when the limit is a step kernel on that grid),
    otherwise an alternating-maximization lower bound.
    """
    diff = step_from_graph(graph) - limit
    if graph.n <= EXACT_CUT_NORM_MAX_BLOCKS:
        value = cut_norm(diff, mode="exact").value
        return value, limit.is_step_on(graph.n)
    value = cut_norm(diff, mode="heuristic", restarts=restarts, seed=seed).value
    return value, False


def _solve_row(config: ExperimentConfig, n: int, j_star: float) -> ConvergenceRow:
    start = time.perf_counter()
    inst = config.instance(n)
    row_seed = config.seed + n
    if n <= BRUTE_BISECTION_MAX_NODES:
        report = brute_bisection(inst.graph)
        exact = True
    else:
        report = local_search_partition(
            inst.graph,
            (n // 2, n // 2),
            LabelModel.spin(),
            seed=row_seed,
            restarts=config.restarts,
        )
        exact = False
    gap_value, gap_exact = labeled_gap(
        inst.graph, inst.limit, restarts=max(8, config.restarts), seed=row_seed
    )
    seconds = time.perf_counter() - start
    return ConvergenceRow(
        n=n,
        f_n=report.value,
        f_exact=exact,
        j_star=j_star,
        gap=abs(report.value - j_star),
        cutnorm=gap_value,
        cutnorm_exact=gap_exact,
        seconds=seconds,
    )


def rows_to_csv(rows) -> str:
    return "\n".join([CSV_HEADER] + [r.csv() for r in rows]) + "\n"


def run_converge(config: ExperimentConfig):
    """Run the convergence experiment; returns rows and writes the CSV."""
    limit = config.instance(config.ns[0]).limit
    # on the grid every kernel is its cell averages, a step kernel of m equal
    # blocks: J* is exact for a step kernel on the grid within the block cap,
    # and the method solves the rest
    kernel = limit
    if not limit.is_step_on(config.grid) and config.grid <= STEP_MINIMUM_MAX_BLOCKS:
        kernel = cell_averages(limit, config.grid)
    if kernel.is_step_on(config.grid) and kernel.block_count <= STEP_MINIMUM_MAX_BLOCKS:
        j_star = step_limit_minimum(kernel, config.grid).value
    else:
        j_star = minimize_limit_energy(
            limit,
            LabelModel.spin(),
            (0.5, 0.5),
            config.grid,
            method=config.method,
            seed=config.seed,
            restarts=config.restarts,
        ).value
    rows = []
    try:
        for n in config.ns:
            rows.append(_solve_row(config, n, j_star))
    finally:  # a failing row still leaves the completed prefix on disk
        if config.out is not None:
            write_text(config.out, rows_to_csv(rows))
    return rows
