#!/usr/bin/env python3
"""Run the discrete-to-continuum convergence experiments for all families.

Writes one CSV per family into the output directory (default: results/).
Every run is reproducible from the seed; see the README for the column
layout.
"""
import argparse
import pathlib
import sys

from graphlim.cli import _seed
from graphlim.experiments import ExperimentConfig, run_converge

EXPERIMENTS = {
    "complete": dict(family="complete", ns=(8, 12, 16, 20), grid=16),
    "blocks": dict(family="blocks", ns=(10, 20, 40), grid=20, lambdas=(0.45, 0.35, 0.2)),
    "bipartite": dict(family="bipartite", ns=(8, 12, 16, 20), grid=16, gamma=0.5),
    "halfgraph": dict(family="halfgraph", ns=(8, 12, 16, 20), grid=48),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="output directory")
    parser.add_argument("--seed", type=_seed, default=1)
    parser.add_argument("--restarts", type=int, default=20)
    parser.add_argument(
        "--family", choices=sorted(EXPERIMENTS), action="append",
        help="run only these families (default: all)",
    )
    args = parser.parse_args(argv)
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = args.family or sorted(EXPERIMENTS)
    for name in names:
        spec = dict(EXPERIMENTS[name])
        spec.update(seed=args.seed, restarts=args.restarts, out=str(outdir / f"{name}.csv"))
        config = ExperimentConfig(**spec)
        rows = run_converge(config)
        worst = max(r.gap for r in rows)
        print(f"{name}: {len(rows)} rows -> {spec['out']} (largest gap {worst:.6f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
