"""Spans around graphlim's layers, recorded from outside the package.

``installed(tracer)`` replaces each traced function at the module attribute
its caller resolves (``graphlim.experiments.brute_bisection`` for the converge
rows, ``graphlim.solvers.project_box_mean`` inside the minimizer, and so on)
and puts the originals back on exit.  Every call becomes one span: name,
start, end, parent span, thread, run id and thread CPU time.  A span opened
on a thread with no open span of its own (a row-pool worker) takes the
innermost open span of the main thread as parent, which during a converge
call is the ``run_converge`` span.  Spans stay in memory; ``write`` stores
them when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, cpu_s, thread, run, attrs)
        self.run_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.current_thread() is threading.main_thread():
                stack = self._main_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else 0
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    @contextlib.contextmanager
    def span(self, name, cpu_clock=time.thread_time):
        """A span around a block of the benchmark's own code."""
        stack, sid, parent = self._open()
        c0, t0 = cpu_clock(), time.perf_counter()
        try:
            yield
        finally:
            t1, c1 = time.perf_counter(), cpu_clock()
            stack.pop()
            self.spans.append(
                (sid, parent, name, t0, t1, c1 - c0, threading.get_ident(), self.run_id, None)
            )

    def wrap(self, name, fn, annotate=None):
        """``fn`` recording one span per call.

        ``name`` may be a callable of (args, kwargs); ``annotate`` maps
        (args, kwargs, result) to a dict of counts stored on the span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = tracer._open()
            attrs = None
            c0, t0 = time.thread_time(), time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    attrs = annotate(args, kwargs, result)
                return result
            finally:
                t1, c1 = time.perf_counter(), time.thread_time()
                stack.pop()
                label = name(args, kwargs) if callable(name) else name
                tracer.spans.append(
                    (sid, parent, label, t0, t1, c1 - c0, threading.get_ident(),
                     tracer.run_id, attrs)
                )

        return traced

    def write(self, path):
        fields = ("id", "parent", "name", "start", "end", "cpu_s", "thread", "run", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _converge_attrs(graphlim):
    def annotate(args, kwargs, rows):
        config = _arg(args, kwargs, 0, "config")
        seconds = [r.seconds for r in rows]
        return {
            "workers": min(graphlim.experiments.thread_cap(), len(config.ns)),
            "rows_s_sum": sum(seconds),
            "row_s_max": max(seconds, default=0.0),
        }

    return annotate


def _cut_norm_name(args, kwargs):
    return "graphons.cut_norm." + _arg(args, kwargs, 1, "mode", "exact")


def _cut_norm_attrs(args, kwargs, result):
    blocks = _arg(args, kwargs, 0, "w").block_count
    return {"patterns": 2**blocks} if result.exact else None


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(_arg(args, kwargs, 1, "text").encode("utf-8"))}


def targets(graphlim, scipy_optimize):
    """(owner, attribute, span name, annotate) for every traced layer."""
    cli, exp, sol, fio = graphlim.cli, graphlim.experiments, graphlim.solvers, graphlim.fileio
    iterations = lambda a, k, r: {"iterations": r.iterations}  # noqa: E731
    out = [
        (cli, "main", "cli.main", None),
        (cli, "run_converge", "experiments.run_converge", _converge_attrs(graphlim)),
        (cli, "minimize_limit_energy", "solvers.minimize_limit_energy", iterations),
        (exp, "minimize_limit_energy", "solvers.minimize_limit_energy", iterations),
        (exp, "brute_bisection", "solvers.brute_bisection",
         lambda a, k, r: {"evaluated": r.iterations}),
        (exp, "local_search_partition", "solvers.local_search_partition",
         lambda a, k, r: {"value": r.value, "restarts": r.restarts}),
        (exp, "labeled_gap", "experiments.labeled_gap", None),
        (exp, "cut_norm", _cut_norm_name, _cut_norm_attrs),
        (exp, "step_from_graph", "graphons.step_from_graph", None),
        (exp, "write_text", "fileio.write_text", _text_bytes),
        (sol, "project_box_mean", "solvers.project_box_mean", None),
        (sol, "project_polytope", "solvers.project_polytope", None),
        (sol, "swap_descent", "solvers.swap_descent", lambda a, k, r: {"swaps": r[1]}),
        (sol, "cell_averages", "functionals.cell_averages", None),
        (sol, "limit_cut_energy", "functionals.limit_cut_energy", None),
        (sol, "limit_energy_gradient", "functionals.limit_energy_gradient", None),
        (sol, "kkt_residual", "functionals.kkt_residual", None),
        (sol, "discrete_cut_energy", "functionals.discrete_cut_energy",
         lambda a, k, r: {"value": r}),
        (scipy_optimize, "linprog", "solvers.transport_lmo", None),
        (graphlim.graphons.AnalyticGraphon, "step_on", "graphons.step_on", None),
        (fio, "write_text", "fileio.write_text", _text_bytes),
        (fio, "read_graphon", "fileio.read_graphon", _file_bytes),
    ]
    out.extend(
        (exp, family, "families.instance", None)
        for family in ("complete", "block_family", "bipartite", "halfgraph")
    )
    return out


@contextlib.contextmanager
def installed(tracer, graphlim, scipy_optimize):
    """Trace every target while the block runs."""
    saved = []
    try:
        for owner, attr, name, annotate in targets(graphlim, scipy_optimize):
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, annotate))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


# metric suffixes per layer, in report order
LAYER_METRICS = {
    "solvers.project_box_mean": ("calls", "busy_s", "us_per_call", "wall_share"),
    "solvers.minimize_limit_energy": ("calls", "busy_s", "self_s", "iterations"),
    "solvers.project_polytope": ("calls", "busy_s"),
    "solvers.transport_lmo": ("calls", "busy_s"),
    "functionals.limit_cut_energy": ("calls", "busy_s"),
    "functionals.limit_energy_gradient": ("calls", "busy_s"),
    "functionals.cell_averages": ("calls", "busy_s"),
    "functionals.kkt_residual": ("calls", "busy_s"),
    "graphons.cut_norm.exact": ("calls", "busy_s", "cpu_s", "wait_s", "patterns"),
    "solvers.brute_bisection": ("calls", "busy_s", "cpu_s", "wait_s", "evaluated"),
    "solvers.swap_descent": (
        "calls", "busy_s", "cpu_s", "wait_s", "swaps", "best_hit_ratio", "cpu_share",
    ),
    "solvers.local_search_partition": ("busy_s",),
    "graphons.cut_norm.heuristic": ("calls", "busy_s"),
    "graphons.step_on": ("calls", "busy_s"),
    "graphons.step_from_graph": ("busy_s",),
    "functionals.discrete_cut_energy": ("calls", "busy_s"),
    "families.instance": ("busy_s",),
    "experiments.run_converge": ("busy_s",),
    "experiments.labeled_gap": ("busy_s",),
    "fileio.write_text": ("calls", "busy_s", "bytes"),
    "fileio.read_graphon": ("calls", "busy_s", "bytes"),
}

EXTRA_METRICS = (
    ("experiments.jstar_s", "s"),
    ("experiments.rows_s_sum", "s"),
    ("experiments.row_s_max", "s"),
    ("experiments.pool.workers", "count"),
    ("experiments.pool.overlap", "ratio"),
    ("solvers.polytope_lmo.wall_share", "ratio"),
    ("cli.overhead_s", "s"),
    ("pass.wall_s", "s"),
    ("pass.cpu_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

SUFFIX_UNITS = {
    "calls": "count", "busy_s": "s", "self_s": "s", "cpu_s": "s", "wait_s": "s",
    "us_per_call": "us", "iterations": "count", "patterns": "count",
    "evaluated": "count", "swaps": "count", "best_hit_ratio": "ratio",
    "cpu_share": "ratio", "wall_share": "ratio", "bytes": "B",
}


def metric_names():
    """Every per-layer metric with its unit, in report order."""
    out = [
        (f"{layer}.{suffix}", SUFFIX_UNITS[suffix])
        for layer, suffixes in LAYER_METRICS.items()
        for suffix in suffixes
    ]
    return out + list(EXTRA_METRICS)


def layer_metrics(spans, pass_wall, pass_cpu):
    """Per-layer metrics of one traced pass (all spans share one run id).

    A layer that does not run reports 0 for its counts, times and ratios.
    """
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
    stats = {}
    for sid, parent, name, t0, t1, cpu, _, _, attrs in spans:
        st = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "cpu_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["busy_s"] += t1 - t0
        st["cpu_s"] += cpu
        kids = [(c[3], c[4]) for c in children.get(sid, ())]
        st["self_s"] += (t1 - t0) - _covered(kids, t0, t1)
        for key, value in (attrs or {}).items():
            st[key] = st.get(key, 0) + value

    def get(layer, key):
        return stats.get(layer, {}).get(key, 0)

    out = {}
    for layer, suffixes in LAYER_METRICS.items():
        for suffix in suffixes:
            if suffix == "wait_s":
                value = get(layer, "busy_s") - get(layer, "cpu_s")
            elif suffix == "us_per_call":
                calls = get(layer, "calls")
                value = 1e6 * get(layer, "busy_s") / calls if calls else 0.0
            elif suffix == "wall_share":
                value = get(layer, "busy_s") / pass_wall
            elif suffix == "cpu_share":
                value = get(layer, "cpu_s") / pass_cpu
            elif suffix == "best_hit_ratio":
                value = _best_hit_ratio(spans, children)
            else:
                value = get(layer, suffix)
            out[f"{layer}.{suffix}"] = value

    converge = [s for s in spans if s[2] == "experiments.run_converge"]
    jstar = sum(
        s[4] - s[3]
        for s in spans
        if s[2] == "solvers.minimize_limit_energy"
        and by_id.get(s[1], (None,) * 3)[2] == "experiments.run_converge"
    )
    rows_sum = sum(s[8]["rows_s_sum"] for s in converge)
    row_time = get("experiments.run_converge", "busy_s") - jstar
    out["experiments.jstar_s"] = jstar
    out["experiments.rows_s_sum"] = rows_sum
    out["experiments.row_s_max"] = max((s[8]["row_s_max"] for s in converge), default=0.0)
    out["experiments.pool.workers"] = max((s[8]["workers"] for s in converge), default=0)
    out["experiments.pool.overlap"] = rows_sum / row_time if row_time > 0 else 0.0
    out["solvers.polytope_lmo.wall_share"] = (
        get("solvers.project_polytope", "busy_s") + get("solvers.transport_lmo", "busy_s")
    ) / pass_wall
    out["cli.overhead_s"] = get("cli.main", "self_s")
    out["pass.wall_s"] = pass_wall
    out["pass.cpu_s"] = pass_cpu
    return out


def _best_hit_ratio(spans, children):
    """Restarts whose descent ended at the reported best value, over restarts."""
    hits = restarts = 0
    for s in spans:
        if s[2] != "solvers.local_search_partition":
            continue
        best = s[8]["value"]
        restarts += s[8]["restarts"]
        hits += sum(
            1
            for c in children.get(s[0], ())
            if c[2] == "functionals.discrete_cut_energy" and abs(c[8]["value"] - best) <= 1e-12
        )
    return hits / restarts if restarts else 0.0
