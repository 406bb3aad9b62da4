"""Span tracing of stitsim's modules, installed from outside the package.

`Tracer.install()` wraps the public functions of every layer module (plus
the few private kernels that named metrics need) and rebinds each wrapper
at every binding that holds the original: module globals, including names
imported with `from .x import y`, and the registries `EXPERIMENTS` and
`ALL_EXPERIMENTS`.  Nothing under `src/` is edited.

A span records its name, its duration, its self time (duration minus the
time of its child spans) and the span that called it.  Each thread keeps
its own span stack; `run_replicates` hands its span to the replicate
function it runs on pool threads, so replicate spans name it as parent.
Spans are aggregated in memory per (parent, name) edge and returned once by
`report()`.

Counts (splits, rejected draws, hyperplanes, useful hyperplanes, lineages)
are read from the objects the functions return.  That bookkeeping runs
with tracing suspended and with the span clock paused, so none of it falls
inside a span.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import math
import sys
import threading
import time

LAYERS = ("experiments", "stit", "rain", "pht", "measure", "geometry",
          "stats", "encapsulation", "rng", "config", "render")

# Private kernels whose spans feed named metrics (lineage throughput of the
# vectorized and the generic rain paths).
PRIVATE = {"rain": ("_fast_zero", "_fast_pair", "_generic_zero", "_generic_pair")}

RAIN_PATHS = {"rain._fast_zero": "fast", "rain._fast_pair": "fast",
              "rain._generic_zero": "generic", "rain._generic_pair": "generic"}


class _ThreadState:
    def __init__(self):
        self.stack = []  # frames [name, child_seconds]
        self.edges = collections.defaultdict(lambda: [0, 0.0, 0.0])
        self.errors = collections.Counter()
        self.counts = collections.Counter()
        self.replicate_us = []
        self.suspended = False
        self.pattern = None  # (pattern, useful mask) of this thread's last PHT draw


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._paused = 0.0
        # Parent of spans that start on a thread with an empty stack: the
        # innermost running run_replicates, whose pool threads call
        # `stream` before they reach the replicate function.
        self._pool_parent = None
        self.installed: set[str] = set()
        self.registry: list[str] = []

    # -- clock and per-thread state -------------------------------------

    def clock(self) -> float:
        """Span clock: wall time minus all bookkeeping time so far."""
        return time.perf_counter() - self._paused

    def _state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
            return st

    def _bookkeep(self, st: _ThreadState, fn, *args):
        """Run fn outside every span: tracing suspended, span clock paused."""
        t0 = time.perf_counter()
        st.suspended = True
        try:
            return fn(st, *args)
        finally:
            st.suspended = False
            with self._lock:
                self._paused += time.perf_counter() - t0

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, enter=None, leave=None):
        """A traced stand-in for fn.

        `enter(st, args, kwargs)` may return replacement (args, kwargs,
        context); `leave(st, context, result, seconds)` sees the result.
        Both run as bookkeeping.  A call made while the same function is
        already the innermost span (recursion) is folded into that span.
        """
        tracer = self

        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            if st.suspended or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            ctx = None
            if enter is not None:
                args, kwargs, ctx = tracer._bookkeep(st, enter, args, kwargs)
            parent = stack[-1][0] if stack else tracer._pool_parent
            frame = [name, 0.0]
            stack.append(frame)
            error = None
            t0 = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                error = type(e).__name__
                raise
            finally:
                dur = tracer.clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                edge = st.edges[(parent, name)]
                edge[0] += 1
                edge[1] += dur
                edge[2] += dur - frame[1]
                if error is not None:
                    st.errors[(name, error)] += 1
            if leave is not None:
                tracer._bookkeep(st, leave, ctx, result, dur)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _replicate(self, fn, parent: str):
        """Trace the replicate function that run_replicates calls.

        On a pool thread the stack is empty, so a link frame names the
        run_replicates span as parent; time charged to it is dropped
        because the parent's own clock runs on another thread.
        """
        traced = self._wrap("rng.replicate", fn,
                            leave=lambda st, _ctx, _res, dur: st.replicate_us.append(dur * 1e6))

        def replicate(i, rng):
            stack = self._state().stack
            if stack:
                return traced(i, rng)
            stack.append([parent, 0.0])
            try:
                return traced(i, rng)
            finally:
                stack.pop()

        return replicate

    def install(self) -> None:
        """Wrap every layer's public functions at every binding."""
        mods = {m: importlib.import_module(f"stitsim.{m}") for m in LAYERS}
        cli = importlib.import_module("stitsim.cli")
        hooks = self._hooks(mods)

        replace = {}
        registry = getattr(mods["experiments"], "EXPERIMENTS", {})
        self.registry = list(registry)
        for key, fn in registry.items():
            replace[fn] = self._wrap(f"experiments.{key}", fn)
            self.installed.add(f"experiments.{key}")
        for m, mod in mods.items():
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(m, ()):
                    continue
                if obj in replace:
                    continue
                name = f"{m}.{attr}"
                replace[obj] = self._wrap(name, obj, *hooks.get(name, (None, None)))
                self.installed.add(name)

        for modname, mod in list(sys.modules.items()):
            if modname != "stitsim" and not modname.startswith("stitsim."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    setattr(mod, attr, replace[obj])
        for reg in (registry, getattr(cli, "ALL_EXPERIMENTS", {})):
            for key, fn in list(reg.items()):
                if fn in replace:
                    reg[key] = replace[fn]

        orig_resample = getattr(mods["experiments"], "_with_resample", None)
        if orig_resample is not None:
            mods["experiments"]._with_resample = self._count_resamples(orig_resample)
            self.installed.add("experiments._with_resample")

    def _count_resamples(self, orig):
        """Count body attempts against replicates of `_with_resample`."""
        tracer = self

        def with_resample(body):
            def attempt(i, rng):
                tracer._state().counts["resample.attempts"] += 1
                return body(i, rng)

            run = orig(attempt)

            def replicate(i, rng):
                tracer._state().counts["resample.replicates"] += 1
                return run(i, rng)

            return replicate

        return with_resample

    # -- bookkeeping hooks ------------------------------------------------

    @staticmethod
    def _finish_pattern(st: _ThreadState) -> None:
        if st.pattern is not None:
            st.counts["pht.useful"] += sum(st.pattern[1])
            st.pattern = None

    def _hooks(self, mods: dict) -> dict:
        """(enter, leave) bookkeeping per span name; see `_wrap`."""
        geo_hits = mods["geometry"].hits

        def tree_counts(tree):
            splits = rejected = 0
            for node in tree.nodes:
                splits += node.children is not None
                rejected += len(node.rejected_hyperplanes)
            return splits, rejected

        def outermost(st):
            return not st.stack or st.stack[-1][0] != "stit.simulate"

        def advance_enter(st, args, kwargs):
            tree = args[0] if args else kwargs.get("tree")
            pre = tree_counts(tree) if outermost(st) else None
            return args, kwargs, pre

        def tree_leave(st, pre, tree, _dur):
            if pre is None and not outermost(st):
                return
            splits, rejected = tree_counts(tree)
            if pre is not None:
                splits -= pre[0]
                rejected -= pre[1]
            st.counts["stit.splits"] += splits
            if tree.method == "rejection":
                st.counts["stit.rejection.splits"] += splits
                st.counts["stit.rejection.rejected"] += rejected

        def pattern_leave(st, _ctx, pattern, _dur):
            self._finish_pattern(st)
            st.counts["pht.hyperplanes"] += len(pattern.hyperplanes)
            st.pattern = (pattern, [False] * len(pattern.hyperplanes))

        def tail_enter(st, args, kwargs):
            return args, kwargs, (args + tuple(kwargs.values()))[:2]

        def tail_leave(st, ctx, _hit, _dur):
            pattern, body = ctx
            if st.pattern is None or st.pattern[0] is not pattern:
                return
            mask = st.pattern[1]
            for j, h in enumerate(pattern.hyperplanes):
                if not mask[j] and geo_hits(h, body):
                    mask[j] = True

        def rain_enter(name, fn):
            sig = inspect.signature(fn)

            def enter(st, args, kwargs):
                n = sig.bind(*args, **kwargs).arguments["n"]
                st.counts[f"rain.{RAIN_PATHS[name]}.lineages"] += int(n)
                return args, kwargs, None
            return enter

        def rr_enter(st, args, kwargs):
            if args:
                args = (self._replicate(args[0], "rng.run_replicates"),) + args[1:]
            else:
                kwargs = dict(kwargs, fn=self._replicate(kwargs["fn"], "rng.run_replicates"))
            outer = self._pool_parent
            self._pool_parent = "rng.run_replicates"
            return args, kwargs, (time.process_time(), outer)

        def rr_leave(st, ctx, _result, dur):
            cpu0, self._pool_parent = ctx
            st.counts["rng.run_replicates.cpu_s"] += time.process_time() - cpu0

        def dumps_leave(st, _ctx, text, _dur):
            st.counts["config.dumps_canonical.bytes"] += len(text)

        hooks = {
            "stit.simulate": (None, tree_leave),
            "stit.advance": (advance_enter, tree_leave),
            "pht.simulate_pht": (None, pattern_leave),
            "pht.tail_event_hits_ball": (tail_enter, tail_leave),
            "rng.run_replicates": (rr_enter, rr_leave),
            "config.dumps_canonical": (None, dumps_leave),
        }
        for name in RAIN_PATHS:
            attr = name.split(".", 1)[1]
            if hasattr(mods["rain"], attr):
                hooks[name] = (rain_enter(name, getattr(mods["rain"], attr)), None)
        return hooks

    # -- report -------------------------------------------------------------

    def report(self) -> dict:
        """Merge every thread's spans and counts into one JSON-able dict."""
        edges = collections.defaultdict(lambda: [0, 0.0, 0.0])
        errors = collections.Counter()
        counts = collections.Counter()
        replicate_us = []
        for st in self._states:
            self._finish_pattern(st)
            for key, (n, total, self_s) in st.edges.items():
                e = edges[key]
                e[0] += n
                e[1] += total
                e[2] += self_s
            errors.update(st.errors)
            counts.update(st.counts)
            replicate_us.extend(st.replicate_us)
        return {
            "installed": sorted(self.installed),
            "registry": self.registry,
            "edges": [[p, n, *v] for (p, n), v in sorted(
                edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))],
            "errors": [[n, e, c] for (n, e), c in sorted(errors.items())],
            "counts": dict(counts),
            "replicate_us": replicate_us,
        }


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    k = max(1, math.ceil(q * len(sorted_values) - 1e-9))
    return sorted_values[k - 1]


def layer_metrics(rep: dict) -> dict[str, float | None]:
    """Per-layer metrics of one traced pass.

    A metric whose function no longer exists is None (reported missing);
    a function that exists but was not called reads 0.  Ratios and rates
    with a zero base read 0; their base is reported beside them.
    """
    installed = set(rep["installed"])
    calls = collections.Counter()
    total = collections.Counter()
    self_s = collections.Counter()
    module_s = collections.Counter()
    tree_build_s = 0.0
    for parent, name, n, tot, slf in rep["edges"]:
        calls[name] += n
        total[name] += tot
        self_s[name] += slf
        mod = name.split(".", 1)[0]
        if parent is None or parent.split(".", 1)[0] != mod:
            module_s[mod] += tot
        if name == "stit.simulate" or (name == "stit.advance"
                                       and parent != "stit.simulate"):
            tree_build_s += tot
    counts = rep["counts"]
    errors = {(n, e): c for n, e, c in rep["errors"]}
    out: dict[str, float | None] = {}

    def put(metric, value, *needs, any_of=False):
        have = (any if any_of else all)(n in installed for n in needs)
        out[metric] = float(value) if have else None

    def ratio(a, b):
        return a / b if b else 0.0

    for fn in ("stit.advance", "measure.sample_hitting", "measure.measure_hitting",
               "geometry.support_function", "geometry.hits", "geometry.clip",
               "geometry.clip_tolerant", "rng.stream"):
        put(f"{fn}.calls", calls[fn], fn)
    for fn in ("stit.summary_stats", "stit.restrict", "stit.iterate",
               "stit.slice_at", "stit.tree_to_json", "measure.sample_hitting",
               "measure.measure_hitting", "pht.simulate_pht",
               "pht.tail_event_hits_ball", "rain.pair_scan", "rain.zero_cell_scan",
               "geometry.support_function", "geometry.hits", "geometry.clip",
               "geometry.clip_tolerant", "geometry.intersect", "geometry.contains",
               "config.dumps_canonical", "rng.run_replicates", "rng.stream",
               "stats.ks_two_sample"):
        put(f"{fn}.s", total[fn], fn)
    for name in installed:
        if name.startswith("experiments.") and name[12:] in rep.get("registry", ()):
            put(f"{name}.s", total[name], name)

    put("stit.advance.self_s", self_s["stit.advance"], "stit.advance")
    tree = ("stit.simulate", "stit.advance")
    splits = counts.get("stit.splits", 0)
    put("stit.splits", splits, *tree)
    put("stit.splits_per_s", ratio(splits, tree_build_s), *tree)
    rs = counts.get("stit.rejection.splits", 0)
    draws = rs + counts.get("stit.rejection.rejected", 0)
    put("stit.rejection.draws", draws, *tree)
    put("stit.rejection.accept_ratio", ratio(rs, draws), *tree)
    put("experiments.resamples", counts.get("resample.attempts", 0)
        - counts.get("resample.replicates", 0), "experiments._with_resample")

    hyps = counts.get("pht.hyperplanes", 0)
    put("pht.hyperplanes", hyps, "pht.simulate_pht")
    put("pht.hyperplanes_per_s", ratio(hyps, total["pht.simulate_pht"]),
        "pht.simulate_pht")
    put("pht.useful_ratio", ratio(counts.get("pht.useful", 0), hyps),
        "pht.simulate_pht", "pht.tail_event_hits_ball")

    for path in ("fast", "generic"):
        fns = [f for f, p in RAIN_PATHS.items() if p == path]
        lineages = counts.get(f"rain.{path}.lineages", 0)
        put(f"rain.{path}.lineages", lineages, *fns, any_of=True)
        put(f"rain.{path}.lineages_per_s",
            ratio(lineages, sum(total[f] for f in fns)), *fns, any_of=True)

    put("geometry.clip.degenerate", errors.get(("geometry.clip", "DegenerateCut"), 0),
        "geometry.clip")
    put("config.dumps_canonical.mib",
        counts.get("config.dumps_canonical.bytes", 0) / 2 ** 20,
        "config.dumps_canonical")
    for mod in ("render", "stats", "encapsulation"):
        put(f"{mod}.s", module_s[mod], *(n for n in installed if n.startswith(mod + ".")),
            any_of=True)

    us = sorted(rep["replicate_us"])
    put("rng.replicate_us.n", len(us), "rng.run_replicates")
    put("rng.replicate_us.p50", _percentile(us, 0.50), "rng.run_replicates")
    put("rng.replicate_us.p99", _percentile(us, 0.99), "rng.run_replicates")
    put("rng.cpu_util", ratio(counts.get("rng.run_replicates.cpu_s", 0.0),
                              total["rng.run_replicates"]), "rng.run_replicates")
    return out
