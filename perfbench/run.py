"""graphlim benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in a fresh worker process (perfbench/worker.py) with
GRAPHCUT_THREADS set to the cores this process may use and OpenBLAS, OpenMP
and MKL capped at one thread.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics; set-up is also timed in six extra fresh
processes and reported as the median.  With ``--trace 1`` it carries the
per-layer metrics of traced passes.  Lines before it summarise the run and
the machine.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
DEADLINE_S = 170.0  # the whole run, worker processes included
SETUP_PROBES = 6

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("objective_ratio", "ratio"),
    ("ok_frac", "ratio"),
)


def worker_env():
    env = dict(os.environ)
    env.update(
        GRAPHCUT_THREADS=str(len(os.sched_getaffinity(0))),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(args, deadline, extra=()):
    """Run worker.py to completion; returns its JSON result line."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting a worker")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(result, setup_samples):
    times = result["times"]
    per_seed = [statistics.median(v) for v in times.values()]
    attempted, failed = result["attempted"], result["failed"]
    return {
        "wall_s": statistics.median(per_seed),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": result["peak_rss_mb"],
        "objective_ratio": result["objective_ratio"],
        "ok_frac": (attempted - failed) / attempted,
    }


def summary(args, result, setup_samples):
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}"]
    if "times" in result:
        walls = sorted(t for v in result["times"].values() for t in v)
        lines.append(
            f"passes {len(walls)} over {len(result['times'])} sub-seeds: median "
            f"{statistics.median(walls):.4f} s, max {walls[-1]:.4f} s (too few passes for "
            "a percentile with ten samples beyond it)"
        )
        lines.append("setup samples " + " ".join(f"{s:.4f}" for s in setup_samples))
    else:
        lines.append(
            f"traced passes {result['traced_passes']}, untraced {result['plain_passes']}"
        )
    lines.append(f"checks {result['attempted']} attempted, {result['failed']} failed")
    lines.extend("FAILED " + m for m in result["messages"])
    lines.append("env " + json.dumps(result["env"], sort_keys=True))
    return lines


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
    )
    return proc.stdout.strip() or None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "graphlim" / "__init__.py").is_file():
        print(f"error: no graphlim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup_samples.append(run_worker(args, deadline, ["--setup-only"])["setup_s"])
        result = run_worker(
            args, deadline, ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_samples.append(result["setup_s"])
    result["env"]["git_commit"] = git_commit()
    if args.trace:
        values = result["layers"]
        units = dict(tracing.metric_names())
    else:
        values = end_to_end(result, setup_samples)
        units = dict(END_TO_END)
    for line in summary(args, result, setup_samples):
        print(line)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
