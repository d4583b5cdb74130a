"""Command-line interface.

Data goes to stdout or --out; diagnostics go to stderr.  Exit codes: 0 on
success, 2 on usage errors, 3 when an exact routine is over its size cap,
4 on infeasible constraints.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from . import families, fileio
from .errors import CapacityError, InfeasibleError, ParameterError
from .experiments import FAMILY_IDS, ExperimentConfig, family_instance, rows_to_csv, run_converge
from .fields import LabelModel
from .functionals import kkt_residual
from .graphons import (
    cut_norm,
    hom_density_graph,
    hom_density_graphon,
    motif_cycle4,
    motif_edge,
    motif_path3,
    motif_triangle,
    step_from_graph,
    StepGraphon,
)
from .solvers import METHODS, brute_bisection, local_search_partition, minimize_limit_energy

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INFEASIBLE = 4

_MOTIFS = {
    "edge": motif_edge,
    "path3": motif_path3,
    "triangle": motif_triangle,
    "cycle4": motif_cycle4,
}


def _seed(text):
    """The type of every --seed: numpy's generators take non-negative integers only."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


_SHARED_FLAGS = {
    "seed": dict(type=_seed, default=0, help="master seed (default 0)"),
    "out": dict(help="write data to this path instead of stdout"),
    "format": dict(choices=("csv", "json"), default=None, help="output format"),
}


def _common(parser, *names):
    for name in names:
        parser.add_argument(f"--{name}", **_SHARED_FLAGS[name])


def _mode_only(values, mode, active, option="--{}", **defaults):
    """Exit 2 naming an option given while a mode other than `mode` runs;
    otherwise give each unset option its default, unless that is None.

    `values` maps option names to values: the parsed flags, or the merged
    fields of a converge config.
    """
    for name, default in defaults.items():
        value = values.get(name)
        if value is not None and not active:
            raise ParameterError(f"{option.format(name.replace('_', '-'))} is for {mode} only")
        if value is None and default is not None:
            values[name] = default


def _parse_list(text, kind):
    """Comma-separated ints or floats, as `kind` says."""
    try:
        return tuple(kind(v) for v in text.split(","))
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ParameterError(f"expected comma-separated {noun}, got {text!r}") from None


def _emit(args, payload):
    if args.format != "csv":
        text = fileio.dumps(payload)
    else:
        lines = []
        for key, value in payload.items():
            if value is None:
                rendered = ""
            elif isinstance(value, (list, tuple, np.ndarray)):
                rendered = ";".join(fileio.format_float(v) for v in np.ravel(value))
            elif isinstance(value, bool):
                rendered = "true" if value else "false"
            elif isinstance(value, float):
                rendered = fileio.format_float(value)
            else:
                rendered = str(value)
            lines.append(f"{key},{rendered}")
        text = "\n".join(lines) + "\n"
    if args.out is not None:
        fileio.write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args):
    family, values = args.family, vars(args)
    _mode_only(values, "--family wrandom", family == "wrandom", kernel=None, seed=0)
    _mode_only(values, "--family blocks", family == "blocks", lambdas=None)
    _mode_only(values, "--family bipartite", family == "bipartite", gamma=0.5)
    _mode_only(values, "the graph families", family != "checkerboard", limit_out=None)
    if family == "checkerboard":
        fileio.write_graphon(args.out, families.checkerboard(args.n))
        return
    if family == "wrandom":
        if args.kernel is None:
            raise ParameterError("gen --family wrandom requires --kernel")
        limit = fileio.read_graphon(args.kernel)
        graph = families.w_random(limit, args.n, args.seed)
    else:
        lambdas = _parse_list(args.lambdas, float) if args.lambdas is not None else ()
        inst = family_instance(family, args.n, args.gamma, lambdas)
        graph, limit = inst.graph, inst.limit
    fileio.write_graph(args.out, graph)
    if args.limit_out is not None:
        fileio.write_graphon(args.limit_out, limit)


def _cmd_graphon(args):
    return fileio.graphon_to_dict(step_from_graph(fileio.read_graph(args.graph)))


def _difference_kernel(a, b):
    """Step kernel of a - b, flagged exact when no averaging was needed."""
    if not isinstance(a, StepGraphon):
        raise ParameterError("--a must be a step graphon file")
    if b is None:
        return a, True
    return a - b, isinstance(b, StepGraphon) or b.is_step_on(a.block_count)


def _cmd_cutnorm(args):
    _mode_only(vars(args), "--mode heuristic", args.mode == "heuristic", restarts=32, seed=0)
    a = fileio.read_graphon(args.a)
    b = fileio.read_graphon(args.b) if args.b is not None else None
    diff, representable = _difference_kernel(a, b)
    result = cut_norm(diff, mode=args.mode, restarts=args.restarts, seed=args.seed)
    return dict(dataclasses.asdict(result), exact=bool(result.exact and representable))


def _cmd_homdensity(args):
    motif = _MOTIFS[args.motif]()
    if args.graph is not None:
        graph = fileio.read_graph(args.graph)
        value = hom_density_graph(motif, graph)
        return {
            "motif": args.motif,
            "value": float(value),
            "exact": f"{value.numerator}/{value.denominator}",
        }
    kernel = fileio.read_graphon(args.graphon)
    if not isinstance(kernel, StepGraphon):
        raise ParameterError("homdensity --graphon expects a step graphon file")
    return {"motif": args.motif, "value": hom_density_graphon(motif, kernel)}


def _model_for(n_labels):
    """The spin model for two labels, unit_cut(1..N) for N labels otherwise."""
    if n_labels == 2:
        return LabelModel.spin()
    return LabelModel.unit_cut(tuple(float(k + 1) for k in range(n_labels)))


def _cmd_solve_discrete(args):
    _mode_only(vars(args), "--method local", args.method == "local", sizes=None, restarts=8, seed=0)
    graph = fileio.read_graph(args.graph)
    if args.method == "brute":
        return brute_bisection(graph).to_dict()
    # by default a bisection, with the larger part on the first label (+1) when n is odd
    sizes = ((graph.n + 1) // 2, graph.n // 2)
    if args.sizes is not None:
        sizes = _parse_list(args.sizes, int)
        if min(sizes) < 0 or sum(sizes) != graph.n:
            raise ParameterError(
                f"--sizes {args.sizes}: expected nonnegative part sizes summing to n={graph.n}"
            )
    report = local_search_partition(
        graph, sizes, _model_for(len(sizes)), seed=args.seed, restarts=args.restarts
    )
    return report.to_dict()


def _cmd_solve_limit(args):
    kernel = fileio.read_graphon(args.graphon)
    masses = _parse_list(args.masses, float)
    report = minimize_limit_energy(
        kernel,
        _model_for(len(masses)),
        masses,
        args.grid,
        method=args.method,
        seed=args.seed,
        restarts=args.restarts,
    )
    return report.to_dict()


def _cmd_kkt(args):
    kernel = fileio.read_graphon(args.graphon)
    return dataclasses.asdict(kkt_residual(kernel, fileio.read_theta(args.theta)))


def _config_from_args(args):
    # flags and config-file keys name the ExperimentConfig fields, with "n" for ns
    fields = dataclasses.fields(ExperimentConfig)
    keys = {("n" if f.name == "ns" else f.name): f.name for f in fields}
    merged = {}
    if args.config is not None:
        base = fileio.read_json(args.config, "config")
        if not isinstance(base, dict):
            raise ParameterError(f"config file {args.config}: expected a JSON object")
        for k in base:
            if k not in keys:
                raise ParameterError(f"config field {k!r}: not one of {', '.join(keys)}")
        merged = {keys[k]: v for k, v in base.items()}
    # flags override the file; what neither gives takes the ExperimentConfig default
    kinds = {"n": int, "lambdas": float}
    for key, name in keys.items():
        flag = getattr(args, key)
        if flag is not None:
            merged[name] = _parse_list(flag, kinds[key]) if key in kinds else flag
    family = merged.get("family")
    if family is None:
        raise ParameterError("config field 'family': required")
    if not merged.get("ns"):
        raise ParameterError("config field 'n': required")
    named = "--{0} (config field '{0}')"
    _mode_only(merged, "the bipartite family", family == "bipartite", named, gamma=None)
    _mode_only(merged, "the blocks family", family == "blocks", named, lambdas=None)
    return ExperimentConfig(**merged)


def _cmd_converge(args):
    config = _config_from_args(args)
    # run_converge always writes CSV to config.out, so JSON goes to stdout only
    if config.out is not None and args.format == "json":
        raise ParameterError("converge writes CSV to --out; --format json is for stdout only")
    rows = run_converge(config)
    if config.out is None:
        if args.format == "json":
            sys.stdout.write(fileio.dumps([r.as_dict() for r in rows]))
        else:
            sys.stdout.write(rows_to_csv(rows))


@functools.cache
def build_parser():
    """The parser of every subcommand, built on the first call and shared by
    every later one, so callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="graphlim",
        description="Graph-limit toolkit: kernels, cut norms, and cut minimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate family graphs and limit kernels")
    p.add_argument(
        "--family",
        required=True,
        choices=FAMILY_IDS + ("checkerboard", "wrandom"),
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambdas", help="comma-separated block fractions")
    p.add_argument("--gamma", type=float, help="bipartite only (default 0.5)")
    p.add_argument("--kernel", help="source graphon file for wrandom")
    p.add_argument("--limit-out", dest="limit_out", help="also write the limit kernel")
    p.add_argument("--out", required=True, help="graph file (kernel file for checkerboard)")
    _common(p, "seed")
    p.set_defaults(func=_cmd_gen, seed=None)

    p = sub.add_parser("graphon", help="step graphon of a graph file")
    p.add_argument("--graph", required=True)
    _common(p, "out")
    p.set_defaults(func=_cmd_graphon, format="json")

    p = sub.add_parser("cutnorm", help="cut norm of a kernel or difference")
    p.add_argument("--a", required=True, help="step graphon file")
    p.add_argument("--b", help="kernel to subtract (step or analytic)")
    p.add_argument("--mode", choices=("exact", "heuristic"), default="exact")
    p.add_argument("--restarts", type=int, help="--mode heuristic only (default 32)")
    _common(p, "seed", "out", "format")
    p.set_defaults(func=_cmd_cutnorm, seed=None)

    p = sub.add_parser("homdensity", help="homomorphism density of a motif")
    p.add_argument("--motif", required=True, choices=sorted(_MOTIFS))
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph")
    source.add_argument("--graphon")
    _common(p, "out", "format")
    p.set_defaults(func=_cmd_homdensity)

    p = sub.add_parser("solve-discrete", help="minimal balanced cuts of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--method", choices=("brute", "local"), default="brute")
    p.add_argument("--sizes", help="comma-separated part sizes (--method local only)")
    p.add_argument("--restarts", type=int, help="--method local only (default 8)")
    _common(p, "seed", "out", "format")
    p.set_defaults(func=_cmd_solve_discrete, seed=None)

    p = sub.add_parser("solve-limit", help="minimize the continuum cut energy")
    p.add_argument("--graphon", required=True)
    p.add_argument("--grid", type=int, default=48)
    p.add_argument("--masses", default="0.5,0.5")
    p.add_argument("--method", choices=METHODS, default="pgd")
    p.add_argument("--restarts", type=int, default=8)
    _common(p, "seed", "out", "format")
    p.set_defaults(func=_cmd_solve_limit)

    p = sub.add_parser("kkt", help="stationarity diagnostic of a spin field")
    p.add_argument("--graphon", required=True)
    p.add_argument("--theta", required=True, help="JSON object with theta rows (solve-limit --out)")
    _common(p, "out", "format")
    p.set_defaults(func=_cmd_kkt)

    p = sub.add_parser("converge", help="discrete-to-continuum convergence table")
    p.add_argument("--family", choices=FAMILY_IDS)
    p.add_argument("--n", help="comma-separated even node counts")
    p.add_argument("--grid", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--lambdas")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--restarts", type=int)
    p.add_argument("--config", help="JSON config file; flags override its fields")
    _common(p, "seed", "out", "format")
    p.set_defaults(func=_cmd_converge, seed=None)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # an empty value names no file, number or list, so it never reads as absent
        for name, value in vars(args).items():
            if value == "":
                raise ParameterError(f"--{name.replace('_', '-')}: empty value")
        # a handler returns its payload, or None when it wrote its own files
        payload = args.func(args)
        if payload is not None:
            _emit(args, payload)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ParameterError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
