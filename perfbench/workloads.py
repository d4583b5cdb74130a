"""Workload definitions, reference values and output checks.

A workload is a fixed sequence of ``graphlim.cli.main(argv)`` calls.  The
benchmark seed selects the program seeds passed as ``--seed``; nothing else
about the inputs depends on it.  Each call writes its result with ``--out``
and the checks below read those files back.

References are closed forms where one is known and otherwise the value the
package reported at the commit that added this benchmark (exact outputs are
the same on every seed; heuristic outputs use the best value reached over
the seeds tried while the benchmark was written).  Exact outputs are compared
at the package's documented tolerances: 1e-12 for exact arithmetic and 1e-9
for analytic integrals.  Heuristic outputs enter only ``objective_ratio``.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

EXACT_TOL = 1e-12  # exact-arithmetic quantities (README "Numerical conventions")
ANALYTIC_TOL = 1e-9  # analytic-integral quantities

CSV_HEADER = "n,F_n,F_exact_flag,J_star,gap,cutnorm,cutnorm_exact_flag,seconds"

# Sub-seeds per benchmark seed.  One run times every sub-seed at least once and
# reports the median of their median pass times: the work of a pass depends on
# the random restarts (and a rare restart crawls to max_iters), so the median
# over several program seeds keeps the per-run figure steady without making
# one pass long.
SUB_SEEDS = 5


def program_seed(seed: int, sub: int) -> int:
    """Program ``--seed`` for sub-seed ``sub`` of benchmark seed ``seed``.

    Restart r of a call uses ``program_seed + r`` (the package's documented
    rule); the stride keeps the restart seeds of different sub-seeds and of
    consecutive benchmark seeds disjoint, so runs with different benchmark
    seeds are independent draws.
    """
    return seed * 1000 + sub * 100


# ---------------------------------------------------------------------------
# input kernels, written to JSON files during set-up


@dataclass(frozen=True)
class Kernel:
    """A kernel input file: graphon JSON plus what the checks need to know.

    ``groups`` are the block fractions of a block kernel; ``bipartite`` marks
    the kernel that is 1 between its two groups instead of within them.
    """

    file: str
    kind: str
    params: dict
    groups: tuple
    bipartite: bool = False

    def payload(self):
        return {"type": "analytic", "kind": self.kind, "params": self.params}

    def cell_matrix(self, m):
        """Exact m x m cell averages, for a grid the group boundaries sit on."""
        bounds = [0.0]
        for lam in self.groups:
            bounds.append(bounds[-1] + lam)
        group = []
        for a in range(m):
            mid = (a + 0.5) / m
            group.append(next(k for k in range(len(self.groups)) if mid < bounds[k + 1]))
        same = [[1.0 if group[a] == group[b] else 0.0 for b in range(m)] for a in range(m)]
        if self.bipartite:
            return [[1.0 - v for v in row] for row in same]
        return same


BLOCKS_HALF = Kernel("blocks_half.json", "blockfamily", {"lambdas": [0.5, 0.5]}, (0.5, 0.5))
BLOCKS_64 = Kernel("blocks_64.json", "blockfamily", {"lambdas": [0.6, 0.4]}, (0.6, 0.4))
BIPARTITE = Kernel("bipartite.json", "bipartite", {"gamma": 0.5}, (0.5, 0.5), bipartite=True)


# ---------------------------------------------------------------------------
# calls and their references


@dataclass(frozen=True)
class Row:
    """Expected converge row.

    ``f_exact`` is the F_exact_flag column.  ``cut_enumerated`` says the
    cutnorm value comes from the exact enumeration (n <= 22), and
    ``cut_flag`` is the cutnorm_exact_flag column, which is true only when
    the limit is also a step kernel on the n-cell grid.  Exact values are
    checked at EXACT_TOL; heuristic ones are the best known values and only
    enter the objective.
    """

    f_n: float
    f_exact: bool
    cutnorm: float
    cut_enumerated: bool
    cut_flag: bool


@dataclass(frozen=True)
class Converge:
    args: tuple  # family selection flags
    grid: int
    restarts: int
    rows: dict  # n -> Row
    j_star: float  # known continuum minimum on this grid (checked at ANALYTIC_TOL)

    def argv(self, out, seed):
        ns = ",".join(str(n) for n in self.rows)
        return ["converge", *self.args, "--n", ns, "--grid", str(self.grid),
                "--restarts", str(self.restarts), "--seed", str(seed), "--out", out]


@dataclass(frozen=True)
class SolveLimit:
    kernel: Kernel
    masses: tuple
    grid: int
    method: str
    restarts: int
    minimum: float  # closed-form minimum of the grid problem

    def argv(self, workdir, out, seed):
        return ["solve-limit", "--graphon", f"{workdir}/{self.kernel.file}",
                "--masses", ",".join(repr(v) for v in self.masses),
                "--grid", str(self.grid), "--method", self.method,
                "--restarts", str(self.restarts), "--seed", str(seed),
                "--format", "json", "--out", out]


@dataclass(frozen=True)
class Workload:
    """A named sequence of calls and the kernel files they read.

    perfbench/README.md records why each workload exists, the layer it loads
    and the layers it bypasses.
    """

    name: str
    calls: tuple

    @property
    def kernels(self):
        """The kernel files the calls read, written during set-up."""
        return tuple({c.kernel.file: c.kernel for c in self.calls if isinstance(c, SolveLimit)}.values())


def _halfgraph_row(n, f_n):
    # the labeled gap of the half graph is 1/(2n) (the package's value); it is
    # enumerated exactly up to n = 22, but the flag stays false because the
    # half-graph kernel is not a step kernel
    return Row(f_n, True, 1.0 / (2 * n), n <= 22, False)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="continuum_bipartite",
            calls=(
                Converge(
                    ("--family", "bipartite"),
                    grid=48,
                    restarts=64,
                    # K_{n/2,n/2}: every balanced bisection has spin energy 1, and
                    # the graph's step kernel equals the limit, so the gap is 0
                    rows={n: Row(1.0, True, 0.0, True, True) for n in (8, 12, 16)},
                    j_star=1.0,
                ),
            ),
        ),
        Workload(
            name="exact_discrete",
            calls=(
                Converge(
                    ("--family", "halfgraph"),
                    grid=6,
                    restarts=4,
                    rows={
                        16: _halfgraph_row(16, 3 / 8),
                        18: _halfgraph_row(18, 10 / 27),
                        20: _halfgraph_row(20, 19 / 50),
                        22: _halfgraph_row(22, 4 / 11),
                        24: _halfgraph_row(24, 13 / 36),
                    },
                    # the split [0,1/6) u [1/2,5/6) lies on the 6-cell grid
                    j_star=1.0 / 3.0,
                ),
            ),
        ),
        Workload(
            name="heuristic_blocks",
            calls=(
                Converge(
                    ("--family", "blocks", "--lambdas", "0.45,0.35,0.2"),
                    grid=20,
                    restarts=8,
                    # best known bisections cut one bridge: 0.06 + 8/n^2; the cut
                    # norms are the best lower bounds the package reached
                    rows={
                        60: Row(0.06 + 8 / 60**2, False, 0.015833333333333383, False, False),
                        80: Row(0.06 + 8 / 80**2, False, 0.012031250000000038, False, False),
                    },
                    # block_vertex_minimum((0.45, 0.35, 0.2)) = 8 * 0.05 * 0.15
                    j_star=0.06,
                ),
            ),
        ),
        Workload(
            name="continuum_general",
            calls=(
                # one label fills a block, the other two split the other block:
                # minimum 2 * 0.25 * 0.25 = 0.125
                SolveLimit(BLOCKS_HALF, (0.5, 0.25, 0.25), 4, "pgd", 6, 0.125),
                # minimum 2 * 0.3 * 0.3 = 0.18; every restart stops at its first vertex
                SolveLimit(BLOCKS_64, (0.4, 0.3, 0.3), 10, "frank_wolfe", 128, 0.18),
                # spin Frank-Wolfe always runs its 5000 iterations here; minimum 1
                SolveLimit(BIPARTITE, (0.5, 0.5), 48, "frank_wolfe", 4, 1.0),
            ),
        ),
    )
}


# ---------------------------------------------------------------------------
# checks


@dataclass
class Tally:
    """Checks attempted and failed."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


@dataclass
class Objective:
    """The optima one pass reports, against their references.

    ``excess`` sums (reported - reference) over minima and (reference -
    reported) over maxima; ``scale`` sums |reference|.
    """

    excess: float = 0.0
    scale: float = 0.0

    def add(self, reported, reference, minimize=True):
        if not math.isfinite(reported):
            return  # already a failed check; keeps the ratio a number
        diff = reported - reference
        self.excess += diff if minimize else -diff
        self.scale += abs(reference)

    def ratio(self):
        return 1.0 + self.excess / self.scale


def _close(a, b, tol):
    return math.isfinite(a) and abs(a - b) <= tol


def _flag(text):
    return {"true": True, "false": False}.get(text)


def check_converge(call: Converge, path, tally: Tally, objective: Objective | None = None):
    """Check a converge CSV; returns its rows without the seconds column.

    J* comes from a non-convex minimization with random restarts, which may
    all end in the same local minimum (about 1 in 500 four-restart seeds on
    the 6-cell half graph ends at 4/9).  So J* fails a check only when it is
    below the known minimum, which no feasible field can reach; how far above
    it lies enters ``objective``.
    """
    name = os.path.basename(path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    tally.check(lines[:1] == [CSV_HEADER], f"{name}: header {lines[:1]}")
    rows = list(csv.DictReader(lines))
    expected = list(call.rows)
    tally.check([int(r["n"]) for r in rows] == expected, f"{name}: n column")
    j_values = {float(r["J_star"]) for r in rows}
    j_star = j_values.pop() if len(j_values) == 1 else float("nan")
    tally.check(not j_values, f"{name}: J_star differs between rows")
    tally.check(
        math.isfinite(j_star) and j_star >= call.j_star - ANALYTIC_TOL,
        f"{name}: J_star {j_star!r} below the known minimum",
    )
    if objective is not None:
        objective.add(j_star, call.j_star)
    for r in rows:
        n = int(r["n"])
        ref = call.rows.get(n)
        if ref is None:
            continue
        f_n, cut, gap = float(r["F_n"]), float(r["cutnorm"]), float(r["gap"])
        tally.check(_flag(r["F_exact_flag"]) is ref.f_exact, f"{name}: n={n} F flag")
        tally.check(
            _flag(r["cutnorm_exact_flag"]) is ref.cut_flag, f"{name}: n={n} cutnorm flag"
        )
        if ref.f_exact:
            tally.check(_close(f_n, ref.f_n, EXACT_TOL), f"{name}: n={n} F_n {f_n!r}")
        else:
            tally.check(math.isfinite(f_n), f"{name}: n={n} F_n {f_n!r}")
        if ref.cut_enumerated:
            tally.check(_close(cut, ref.cutnorm, EXACT_TOL), f"{name}: n={n} cutnorm {cut!r}")
        else:
            tally.check(math.isfinite(cut) and cut >= 0.0, f"{name}: n={n} cutnorm {cut!r}")
        tally.check(_close(gap, abs(f_n - j_star), EXACT_TOL), f"{name}: n={n} gap {gap!r}")
        if objective is not None:
            objective.add(f_n, ref.f_n)
            objective.add(cut, ref.cutnorm, minimize=False)
    return [{k: v for k, v in r.items() if k != "seconds"} for r in rows]


def _energy(kernel: Kernel, theta, m):
    """Continuum cut energy of a grid field, computed without the package."""
    cells = kernel.cell_matrix(m)
    nlab = len(theta[0])
    if nlab == 2:
        coupling = [[0.0, 4.0], [4.0, 0.0]]  # spin labels (+1, -1), |a - b|^2
    else:
        coupling = [[0.0 if h == k else 1.0 for k in range(nlab)] for h in range(nlab)]
    total = 0.0
    for h in range(nlab):
        for k in range(nlab):
            if coupling[h][k]:
                mixed = sum(
                    theta[a][h] * cells[a][b] * theta[b][k]
                    for a in range(m)
                    for b in range(m)
                    if cells[a][b]
                )
                total += coupling[h][k] * mixed
    return total / (m * m)


def check_solve_limit(
    call: SolveLimit, seed, path, tally: Tally, objective: Objective | None = None
):
    """Check a solve-limit report; returns it for the repeat comparison."""
    name = os.path.basename(path)
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    value = float(report["value"])
    theta = report["theta"]
    m = call.grid
    tally.check(
        (report["method"], report["seed"], report["restarts"])
        == (call.method, seed, call.restarts),
        f"{name}: method/seed/restarts echo",
    )
    feasible = len(theta) == m and all(
        len(row) == len(call.masses)
        and abs(sum(row) - 1.0) <= ANALYTIC_TOL
        and all(-EXACT_TOL <= v <= 1.0 + EXACT_TOL for v in row)
        for row in theta
    )
    if feasible:
        for k, mass in enumerate(call.masses):
            feasible &= abs(sum(row[k] for row in theta) / m - mass) <= ANALYTIC_TOL
    tally.check(feasible, f"{name}: theta is not a feasible field")
    if feasible:
        tally.check(
            _close(value, _energy(call.kernel, theta, m), ANALYTIC_TOL),
            f"{name}: value {value!r} is not the energy of theta",
        )
    tally.check(value >= call.minimum - ANALYTIC_TOL, f"{name}: value {value!r} below minimum")
    if objective is not None:
        objective.add(value, call.minimum)
    return report
