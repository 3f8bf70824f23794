"""Spans around the program's layers, recorded from the benchmark's side.

The tracer wraps the public functions named in LAYERS.  For the length of
a traced op it replaces every reference to each of them in every loaded
``gogh.*`` module namespace: ``from .balance import group_balanced`` copies
the name, so patching only the defining module would miss calls.
``GraphOfGroups`` methods are patched on the class.  Every reference is
restored after the op, so untraced ops run the program exactly as shipped.

Spans (name, start, end, parent, op) stay in memory and are written out
when the run ends.  A span's self time is its duration minus the time its
child spans cover; the program is single-threaded and reads only its input
file, so busy time is self time and no layer waits.
"""

from __future__ import annotations

import statistics
import sys
from array import array
from time import perf_counter_ns


def _materialize(pos: int):
    """Pre-hook that turns one positional argument into a list and counts it."""

    def pre(args):
        if len(args) <= pos:
            return args, 0
        items = list(args[pos])
        return args[:pos] + (items,) + args[pos + 1 :], len(items)

    return pre


def _arcs(args, result):
    return len(result.arcs)


def _pinches(args, result):
    return (len(args[1].tail) - len(result.tail)) // 2


# (module, attribute, work counter name, pre-hook, post-hook)
LAYERS = [
    ("cli", "parse", None, None, None),
    ("cli", "render_json", None, None, None),
    ("model", "GraphOfGroups.kind", None, None, None),
    ("model", "GraphOfGroups.edge", None, None, None),
    ("model", "validate", None, None, None),
    ("model", "spanning_tree", None, None, None),
    ("model", "tree_steps", None, None, None),
    ("balance", "build_groupoid", "arcs", None, _arcs),
    ("balance", "group_balanced", None, None, None),
    ("balance", "edge_balanced", None, None, None),
    ("conjgraph", "edge_classes", None, None, None),
    ("conjgraph", "class_of_edge", None, None, None),
    ("conjgraph", "build_conjugacy_graph", None, None, None),
    ("parametrize", "parametrize", None, None, None),
    ("parametrize", "verify_parametrization", None, None, None),
    ("parametrize", "hhg_verdict", None, None, None),
    ("certify", "almost_bs_witness", None, None, None),
    ("certify", "distortion_certificate", None, None, None),
    ("words", "to_path_form", "tokens_in", _materialize(1), None),
    ("words", "britton_reduce", "pinches", None, _pinches),
    ("words", "pinch_membership", None, None, None),
    ("words", "vw_mul", None, None, None),
    ("freewords", "reduce_letters", "letters_in", _materialize(0), None),
    ("dihedral", "dmul", None, None, None),
]

# Cached functions whose hit ratio is read from cache_info().
CACHES = [("freewords", "canonical_root"), ("freewords", "primitive_root")]

# The per-layer metrics the benchmark reports, in BENCHMARK.json order.
METRICS = [
    ("model.GraphOfGroups.kind.calls", "count", "lower"),
    ("model.GraphOfGroups.kind.self_s", "s", "lower"),
    ("model.GraphOfGroups.edge.calls", "count", "lower"),
    ("model.GraphOfGroups.edge.self_s", "s", "lower"),
    ("model.validate.calls", "count", "lower"),
    ("model.validate.self_s", "s", "lower"),
    ("model.spanning_tree.calls", "count", "lower"),
    ("model.tree_steps.calls", "count", "lower"),
    ("model.tree_steps.self_s", "s", "lower"),
    ("words.to_path_form.calls", "count", "lower"),
    ("words.to_path_form.self_s", "s", "lower"),
    ("words.to_path_form.tokens_in", "count", "lower"),
    ("balance.build_groupoid.calls", "count", "lower"),
    ("balance.build_groupoid.self_s", "s", "lower"),
    ("balance.build_groupoid.arcs", "count", "lower"),
    ("balance.group_balanced.calls", "count", "lower"),
    ("balance.group_balanced.self_s", "s", "lower"),
    ("balance.edge_balanced.calls", "count", "lower"),
    ("balance.edge_balanced.self_s", "s", "lower"),
    ("conjgraph.edge_classes.calls", "count", "lower"),
    ("conjgraph.edge_classes.self_s", "s", "lower"),
    ("conjgraph.class_of_edge.self_s", "s", "lower"),
    ("conjgraph.build_conjugacy_graph.calls", "count", "lower"),
    ("conjgraph.build_conjugacy_graph.self_s", "s", "lower"),
    ("parametrize.parametrize.calls", "count", "lower"),
    ("parametrize.parametrize.self_s", "s", "lower"),
    ("parametrize.verify_parametrization.calls", "count", "lower"),
    ("parametrize.verify_parametrization.self_s", "s", "lower"),
    ("parametrize.hhg_verdict.self_s", "s", "lower"),
    ("dihedral.dmul.calls", "count", "lower"),
    ("certify.almost_bs_witness.self_s", "s", "lower"),
    ("words.britton_reduce.self_s", "s", "lower"),
    ("words.britton_reduce.pinches", "count", "lower"),
    ("words.pinch_membership.calls", "count", "lower"),
    ("certify.distortion_certificate.self_s", "s", "lower"),
    ("freewords.reduce_letters.calls", "count", "lower"),
    ("freewords.reduce_letters.letters_in", "count", "lower"),
    ("freewords.reduce_letters.self_s", "s", "lower"),
    ("words.vw_mul.calls", "count", "lower"),
    ("freewords.canonical_root.hit_ratio", "ratio", "higher"),
    ("freewords.primitive_root.hit_ratio", "ratio", "higher"),
    ("cli.parse.calls", "count", "lower"),
    ("cli.parse.self_s", "s", "lower"),
    ("cli.render_json.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

OP = "op"  # the root span of each traced op


def _modules():
    return [m for name, m in list(sys.modules.items()) if name == "gogh" or name.startswith("gogh.")]


def resolve(module: str, attr: str):
    """(owner, name, original) for a layer, or None if the program lacks it."""
    mod = sys.modules.get(f"gogh.{module}")
    if mod is None:
        return None
    owner, _, name = attr.rpartition(".")
    if owner:
        cls = getattr(mod, owner, None)
        if cls is None or name not in vars(cls):
            return None
        return cls, name, vars(cls)[name]
    fn = getattr(mod, name, None)
    return None if fn is None else (None, name, fn)


class Tracer:
    """Records the spans of the ops it runs; one Tracer serves one pass."""

    def __init__(self):
        self.names = [OP]
        self.name_of = {OP: 0}
        self.patches = []  # (namespace, attribute, original, wrapper)
        self.extra: dict[str, int] = {}
        self.stack = [-1]
        self.op_id = -1
        self.clear()
        for module, attr, counter, pre, post in LAYERS:
            found = resolve(module, attr)
            if found is None:
                continue
            owner, name, original = found
            label = f"{module}.{attr}"
            self.name_of[label] = len(self.names)
            self.names.append(label)
            key = f"{label}.{counter}" if counter else None
            wrapper = self._wrap(self.name_of[label], original, key, pre, post)
            if owner is not None:
                self.patches.append((owner, name, original, wrapper))
                continue
            for mod in _modules():
                for ref, value in vars(mod).items():
                    if value is original:
                        self.patches.append((mod, ref, original, wrapper))

    def clear(self):
        # compact columns: a traced pass can hold a million spans
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.extra = {}

    def _wrap(self, idx: int, fn, key, pre, post):
        tr = self

        def traced(*args, **kwargs):
            if pre is not None:
                args, amount = pre(args)
                tr.extra[key] = tr.extra.get(key, 0) + amount
            sid = len(tr.span_name)
            tr.span_name.append(idx)
            tr.span_parent.append(tr.stack[-1])
            tr.span_op.append(tr.op_id)
            tr.span_end.append(0)
            tr.stack.append(sid)
            tr.span_start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.span_end[sid] = perf_counter_ns()
                tr.stack.pop()
            if post is not None:
                tr.extra[key] = tr.extra.get(key, 0) + post(args, result)
            return result

        return traced

    def run_op(self, op_id: int, fn):
        """Run fn() with the layers patched, inside the op's root span.

        Returns (fn's result or None, the type name of what it raised or
        None, the span's duration in seconds); the patches are removed
        again whatever happens."""
        self.op_id = op_id
        for namespace, ref, _, wrapper in self.patches:
            setattr(namespace, ref, wrapper)
        sid = len(self.span_name)
        self.span_name.append(0)
        self.span_parent.append(-1)
        self.span_op.append(op_id)
        self.span_end.append(0)
        self.stack.append(sid)
        self.span_start.append(perf_counter_ns())
        result = error = None
        try:
            result = fn()
        except (Exception, SystemExit) as exc:
            error = type(exc).__name__
        finally:
            self.span_end[sid] = perf_counter_ns()
            del self.stack[1:]
            for namespace, ref, original, _ in self.patches:
                setattr(namespace, ref, original)
        return result, error, (self.span_end[sid] - self.span_start[sid]) / 1e9

    def summary(self) -> dict:
        """Per layer: calls and self seconds, plus the work counters."""
        n = len(self.span_name)
        child = [0] * n
        parent, start, end = self.span_parent, self.span_start, self.span_end
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                child[p] += end[sid] - start[sid]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for sid in range(n):
            idx = self.span_name[sid]
            calls[idx] += 1
            self_ns[idx] += end[sid] - start[sid] - child[sid]
        out = {}
        for idx, label in enumerate(self.names):
            out[f"{label}.calls"] = calls[idx]
            out[f"{label}.self_s"] = self_ns[idx] / 1e9
        out.update(self.extra)
        return out

    def write(self, path: str):
        """Spans as tab-separated lines: op, span, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for sid in range(len(self.span_name)):
                fh.write(
                    f"{self.span_op[sid]}\t{sid}\t{self.span_parent[sid]}\t"
                    f"{self.names[self.span_name[sid]]}\t{self.span_start[sid]}\t{self.span_end[sid]}\n"
                )


def cache_clearers():
    """Callables that empty the program's caches: every functools cache and
    every module-level dict named like ``_ADJ_CACHE``.  The benchmark calls
    them before each op, so each op starts as a fresh `gogh` process would,
    and memory kept from earlier ops cannot grow the peak RSS."""
    found = []
    for mod in _modules():
        for name, value in vars(mod).items():
            clear = getattr(value, "cache_clear", None)
            if clear is None and isinstance(value, dict) and name.upper().endswith("_CACHE"):
                clear = value.clear
            if callable(clear) and clear not in found:
                found.append(clear)
    return found


def cache_counts() -> dict:
    """Hits and misses of the cached functions named in CACHES."""
    out = {}
    for module, attr in CACHES:
        fn = getattr(sys.modules.get(f"gogh.{module}"), attr, None)
        info = getattr(fn, "cache_info", None)
        out[f"{module}.{attr}"] = (info().hits, info().misses) if info else (0, 0)
    return out


def layer_metrics(passes: list[dict], hits: dict, traced_s: float, untraced_s: float) -> dict:
    """The METRICS values: counts from the first pass (every pass repeats
    them exactly), self times as the median over passes."""
    first = passes[0]
    out = {}
    for name, unit, _ in METRICS:
        if name == "trace.overhead_ratio":
            out[name] = traced_s / untraced_s
        elif name.endswith(".hit_ratio"):
            h, m = hits.get(name[: -len(".hit_ratio")], (0, 0))
            out[name] = h / (h + m) if h + m else 0.0
        elif unit == "s":
            out[name] = statistics.median(p.get(name, 0.0) for p in passes)
        else:
            out[name] = first.get(name, 0)
    return out
