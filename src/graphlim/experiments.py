"""Reproducible convergence experiments: discrete minima against the limit.

For each n the configured family is generated, the balanced bisection is
solved (exactly when the size permits, otherwise by swap descent with a
flag), and the gap to the continuum minimum plus the labeled cut-norm gap
are recorded as one CSV row.
"""
from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .errors import ParameterError
from .families import bipartite, block_family, complete, halfgraph
from .fields import LabelModel, PartitionSpec
from .fileio import format_float, write_text
from .graphons import EXACT_CUT_NORM_MAX_BLOCKS, cut_norm, step_from_graph
from .solvers import (
    BRUTE_BISECTION_MAX_NODES,
    brute_bisection,
    local_search_partition,
    minimize_limit_energy,
)

CSV_HEADER = "n,F_n,F_exact_flag,J_star,gap,cutnorm,cutnorm_exact_flag,seconds"

FAMILY_IDS = ("complete", "blocks", "bipartite", "halfgraph")


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    ns: tuple
    grid: int = 48
    gamma: float = 0.5
    lambdas: tuple = ()
    masses: tuple = (0.5, 0.5)
    method: str = "pgd"
    restarts: int = 8
    seed: int = 0
    out: str = None

    def __post_init__(self):
        object.__setattr__(self, "ns", tuple(int(v) for v in self.ns))
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        object.__setattr__(self, "masses", tuple(float(v) for v in self.masses))
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
        # the discrete side always solves the balanced bisection, so a continuum
        # minimum under other masses would be compared with the wrong problem
        if self.masses != (0.5, 0.5):
            raise ParameterError(
                "config field 'masses': converge compares balanced bisections, "
                f"so masses must be 0.5,0.5, got {self.masses}"
            )
        if self.method not in ("pgd", "frank_wolfe"):
            raise ParameterError("config field 'method': pgd or frank_wolfe")
        if self.restarts < 1:
            raise ParameterError("config field 'restarts': must be >= 1")
        if self.family == "blocks" and not self.lambdas:
            raise ParameterError("config field 'lambdas': required for the blocks family")

    def instance(self, n):
        if self.family == "complete":
            return complete(n)
        if self.family == "blocks":
            return block_family(self.lambdas, n)
        if self.family == "bipartite":
            return bipartite(self.gamma, n)
        return halfgraph(n)


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

    def csv(self):
        return ",".join(
            [
                str(self.n),
                format_float(self.f_n),
                "true" if self.f_exact else "false",
                format_float(self.j_star),
                format_float(self.gap),
                format_float(self.cutnorm),
                "true" if self.cutnorm_exact else "false",
                format_float(self.seconds),
            ]
        )


def thread_cap() -> int:
    """Worker cap from GRAPHCUT_THREADS; defaults to the available cores."""
    raw = os.environ.get("GRAPHCUT_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        raise ParameterError("GRAPHCUT_THREADS must be a positive integer") from None
    if value < 1:
        raise ParameterError("GRAPHCUT_THREADS must be a positive integer")
    return value


def labeled_gap(graph, limit, restarts, seed):
    """Cut-norm gap between a graph's step graphon and the family limit.

    The limit is averaged exactly onto the n-cell grid; the value is the
    exact cut norm of the difference when the grid is small enough (and is
    the true gap exactly when the limit is a step kernel on that grid),
    otherwise an alternating-maximization lower bound.
    """
    step = step_from_graph(graph)
    averaged = limit.step_on(graph.n)
    diff = step - averaged
    representable = limit.is_step_on(step.boundaries)
    if graph.n <= EXACT_CUT_NORM_MAX_BLOCKS:
        value = cut_norm(diff, mode="exact").value
        return value, representable
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
            PartitionSpec.bisection(),
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
    continuum = minimize_limit_energy(
        limit,
        LabelModel.spin(),
        config.masses,
        config.grid,
        method=config.method,
        seed=config.seed,
        restarts=config.restarts,
    )
    j_star = continuum.value
    workers = min(thread_cap(), len(config.ns))
    rows = []
    failure = None
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_solve_row, config, n, j_star) for n in config.ns]
        for fut in futures:
            try:
                rows.append(fut.result())
            except Exception as exc:  # partial results are still flushed
                failure = exc
                break
    if config.out:
        write_text(config.out, rows_to_csv(rows))
    if failure is not None:
        raise failure
    return rows
