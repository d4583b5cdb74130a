"""Quick self-check of the benchmark itself (under a minute).

    python3 perfbench/selfcheck.py

1. A deliberately wrong reference is counted as a failed check, and the
   right one is not; a J* above its reference enters only the objective.
2. run.py prints every end-to-end metric (trace 0) and every per-layer
   metric (trace 1) named in BENCHMARK.json, each with its unit.
3. Without graphlim sources next to it, run.py exits non-zero and prints no
   result.
Exits 0 when all hold.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out" / "selfcheck"


def wrong_reference_is_counted():
    sys.path.insert(0, str(ROOT / "src"))
    import graphlim.cli

    OUT.mkdir(parents=True, exist_ok=True)
    call = wl.Converge(
        ("--family", "halfgraph"),
        grid=6,
        restarts=4,
        rows={8: wl.Row(1 / 2, True, 1 / 16, True, False),
              12: wl.Row(7 / 18, True, 1 / 24, True, False)},
        j_star=1 / 3,
    )
    out = str(OUT / "converge.csv")
    if graphlim.cli.main(call.argv(out, 7)) != 0:
        return ["converge call failed"]
    right, wrong = wl.Tally(), wl.Tally()
    wl.check_converge(call, out, right)
    bad_rows = dict(call.rows)
    bad_rows[12] = dataclasses.replace(bad_rows[12], f_n=7 / 18 + 1e-6)
    wl.check_converge(dataclasses.replace(call, rows=bad_rows), out, wrong)
    # J* is a heuristic minimum: a reference above it (J* below the true
    # minimum) is a failure, one below it (restarts in a local minimum) is not
    high, low = wl.Tally(), wl.Tally()
    wl.check_converge(dataclasses.replace(call, j_star=1 / 3 + 1e-6), out, high)
    objective = wl.Objective()
    wl.check_converge(dataclasses.replace(call, j_star=1 / 3 - 1 / 9), out, low, objective)
    problems = []
    if right.failed != 0:
        problems.append(f"right references fail: {right.messages}")
    if wrong.failed != 1 or wrong.attempted != right.attempted:
        problems.append(f"wrong F_n reference gives {wrong.failed} failures, expected 1")
    if high.failed != 1:
        problems.append(f"J* below its reference gives {high.failed} failures, expected 1")
    if low.failed != 0 or not objective.ratio() > 1.0:
        problems.append(f"J* above its reference: {low.failed} failures, objective "
                        f"{objective.ratio()!r}; expected 0 and a ratio above 1")
    return problems


def metrics_are_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", spec["workloads"][0]["name"],
             "--seed", "0", "--seconds", "0.1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        if proc.returncode != 0:
            problems.append(f"trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        named = {m["name"]: m["unit"] for m in spec[key]}
        if printed != named:
            problems.append(f"trace {trace}: printed {printed} but BENCHMARK.json names {named}")
        if not result["correct"] or result["failed"]:
            problems.append(f"trace {trace}: checks failed at this commit")
    return problems


def refuses_without_sources():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_discrete", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main():
    problems = wrong_reference_is_counted() + metrics_are_printed() + refuses_without_sources()
    shutil.rmtree(OUT, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
