"""One workload in its own fresh process.

Usage (normally started by run.py, which sets the thread environment):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

The process imports graphlim from the checkout's ``src`` directory and writes
the workload's input files (timed as set-up), runs one untimed warm-up pass,
then runs timed passes for about ``--seconds`` seconds, cycling through the
workload's sub-seeds and timing each at least once.  After every pass it
checks the outputs.  The last line of stdout is a JSON object with the
measurements.  With ``--trace 1`` untraced and traced passes alternate on
sub-seed 0, and the traced ones give the per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"


def set_up(workload, workdir):
    """Import graphlim and write the input files; returns (modules, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import graphlim
    import graphlim.cli
    import graphlim.fileio

    workdir.mkdir(parents=True, exist_ok=True)
    for kernel in workload.kernels:
        w = graphlim.fileio.graphon_from_dict(kernel.payload())
        graphlim.fileio.write_graphon(str(workdir / kernel.file), w)
    elapsed = time.perf_counter() - start
    origin = Path(graphlim.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"graphlim imported from {origin}, not from the checkout")
    return graphlim, elapsed


class Runner:
    """Runs passes of one workload and keeps the checks' tally."""

    def __init__(self, graphlim, workload, seed, workdir):
        self.cli = graphlim.cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tally = wl.Tally()
        self.first = {}  # sub-seed -> outputs of its first pass
        self.objectives = {}  # sub-seed -> optima of its first pass

    def _out(self, i, call):
        suffix = "csv" if isinstance(call, wl.Converge) else "json"
        return str(self.workdir / f"out_{i}.{suffix}")

    def run_pass(self, sub):
        """One pass; returns its wall time, from the first CLI call to the last
        output written, and the CPU time of all threads over the same span."""
        pseed = wl.program_seed(self.seed, sub)
        argvs = []
        for i, call in enumerate(self.workload.calls):
            out = self._out(i, call)
            if os.path.exists(out):
                os.remove(out)
            if isinstance(call, wl.Converge):
                argvs.append(call.argv(out, pseed))
            else:
                argvs.append(call.argv(str(self.workdir), out, pseed))
        codes = []
        cpu0, start = time.process_time(), time.perf_counter()
        for argv in argvs:
            try:
                codes.append(self.cli.main(argv))
            except Exception as exc:  # a raising call is a failed operation
                codes.append(repr(exc))
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
        self._check(sub, pseed, codes)
        return wall, cpu

    def _check(self, sub, pseed, codes):
        tally = self.tally
        first = sub not in self.first
        objective = self.objectives.setdefault(sub, wl.Objective()) if first else None
        outputs = []
        for i, (call, code) in enumerate(zip(self.workload.calls, codes)):
            if not tally.check(code == 0, f"call {i} seed {pseed}: exit {code!r}"):
                outputs.append(None)
                continue
            path = self._out(i, call)
            try:
                if isinstance(call, wl.Converge):
                    outputs.append(wl.check_converge(call, path, tally, objective))
                else:
                    outputs.append(
                        wl.check_solve_limit(call, pseed, path, tally, objective)
                    )
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                tally.check(False, f"call {i} seed {pseed}: unreadable output {exc!r}")
                outputs.append(None)
        if first:
            self.first[sub] = outputs
        else:
            tally.check(
                outputs == self.first[sub], f"seed {pseed}: output differs from its first pass"
            )


def timed_passes(runner, seconds):
    """Cycle the sub-seeds until every one ran and the time is used up."""
    times = {sub: [] for sub in range(wl.SUB_SEEDS)}
    walls = []
    start = time.perf_counter()
    k = 0
    while True:
        sub = k % wl.SUB_SEEDS
        wall, _ = runner.run_pass(sub)
        times[sub].append(wall)
        walls.append(wall)
        k += 1
        elapsed = time.perf_counter() - start
        if k >= wl.SUB_SEEDS and elapsed + statistics.median(walls) > seconds:
            return times


def traced_passes(runner, graphlim, seconds):
    """Alternate untraced and traced passes on sub-seed 0."""
    import scipy.optimize

    tracer = tracing.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    k = 0
    while True:
        if k % 2 == 0:
            plain.append(runner.run_pass(0)[0])
        else:
            tracer.run_id = f"{runner.workload.name}-{runner.seed}-pass{k}"
            mark = len(tracer.spans)
            with tracing.installed(tracer, graphlim, scipy.optimize):
                with tracer.span("pass", cpu_clock=time.process_time):
                    wall, cpu = runner.run_pass(0)
            traced.append(tracing.layer_metrics(tracer.spans[mark:], wall, cpu))
        k += 1
        elapsed = time.perf_counter() - start
        if traced and len(plain) >= 2 and elapsed + 2 * statistics.median(plain) > seconds:
            break
    layers = {
        name: statistics.median(t[name] for t in traced)
        for name, _ in tracing.metric_names()
        if name != "trace.overhead_frac"
    }
    layers["trace.overhead_frac"] = (
        statistics.median(t["pass.wall_s"] for t in traced) / statistics.median(plain) - 1.0
    )
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{runner.workload.name}-seed{runner.seed}.jsonl")
    return layers, len(traced), len(plain)


def environment(graphlim):
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "graphlim": graphlim.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {
            k: os.environ.get(k)
            for k in ("GRAPHCUT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS")
        },
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = wl.WORKLOADS[args.workload]
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        graphlim, setup_s = set_up(workload, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return
        runner = Runner(graphlim, workload, args.seed, workdir)
        runner.run_pass(0)  # warm-up: lazy imports and first-call caches
        result = {"setup_s": setup_s}
        if args.trace:
            result["layers"], result["traced_passes"], result["plain_passes"] = traced_passes(
                runner, graphlim, args.seconds
            )
        else:
            result["times"] = timed_passes(runner, args.seconds)
            result["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
        tally = runner.tally
        # a sub-seed with no readable optimum has failed checks already
        ratios = [o.ratio() for o in runner.objectives.values() if o.scale]
        result.update(
            attempted=tally.attempted,
            failed=tally.failed,
            messages=tally.messages,
            # median over sub-seeds: one sub-seed whose restarts all end in a
            # local minimum does not move it, a solver stopped early on all does
            objective_ratio=statistics.median(ratios) if ratios else 0.0,
            env=environment(graphlim),
        )
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
