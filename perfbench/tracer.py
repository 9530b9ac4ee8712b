"""Span tracer for the benchmark's traced runs.

`Tracer.install` wraps the public functions of the five thompsonf layers
in place: every thompsonf module namespace that holds a wrapped function
(for example `folner.nf_multiply` or `cli.class_of`) gets the wrapper, so
calls between layers are seen, and `uninstall` puts the originals back.

Self time is a call's duration minus the time covered by wrapped calls
made inside it.  A few coarse functions (`SPAN` below) and every job open
a span each, with a parent link.  The hot functions (`HOT`, such as
`nf_multiply` at several hundred thousand calls per run) are aggregated
in memory into count, total and self time per enclosing span.  Recursive
helpers such as `tree_leaves` are not wrapped; their cost shows in the
caller's self time.  Everything stays in memory until `summary()`.

`layer_metrics` turns the summaries of one or more traced processes into
the per-layer metrics listed in `METRICS`.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

SPAN, HOT = "span", "hot"
TRACE_MARK = "perfbench-trace "  # prefix of a traced CLI child's summary line

# (module, attribute or Class.attribute, trace name, kind, extra)
# `extra(tracer, args, result)` adds a layer-specific count to the record.
TARGETS = (
    ("words", "nf_multiply", "words.nf_multiply", HOT,
     lambda tr, args, result: len(args[1].pos) + len(args[1].neg)),
    ("words", "reduce_to_normal_form", "words.reduce_to_normal_form", HOT,
     lambda tr, args, result: len(args[0].letters)),
    ("words", "format_word", "words.format_word", HOT, None),
    ("words", "NormalForm.__init__", "words.NormalForm", HOT, None),
    ("diagrams", "nf_to_diagram", "diagrams.nf_to_diagram", HOT, None),
    ("diagrams", "concat_product", "diagrams.concat_product", HOT, None),
    ("diagrams", "diagram_to_nf", "diagrams.diagram_to_nf", HOT, None),
    ("diagrams", "forest_split_leaf", "diagrams.forest_split_leaf", HOT, None),
    ("diagrams", "forest_collapse_caret", "diagrams.forest_collapse_caret", HOT,
     None),
    ("diagrams", "Diagram.__init__", "diagrams.Diagram", HOT, None),
    ("classify", "class_of", "classify.class_of", HOT,
     lambda tr, args, result: tr.seen_before(args[0])),
    ("classify", "check_closures", "classify.check_closures", SPAN, None),
    ("folner", "ball", "folner.ball", SPAN, lambda tr, args, result: len(result)),
    ("folner", "subgraph_density", "folner.subgraph_density", SPAN,
     lambda tr, args, result: result.oriented_edge_count),
    ("folner", "class_histogram", "folner.class_histogram", SPAN, None),
    ("folner", "drop_classes", "folner.drop_classes", SPAN, None),
    ("folner", "deletion_bound_check", "folner.deletion_bound_check", SPAN, None),
    ("folner", "ElementSet.sorted_members", "folner.ElementSet.sorted_members", HOT,
     None),
    ("cli", "run", "cli.run", SPAN, None),
)


class Tracer:
    """Spans and hot-call aggregates of one process."""

    def __init__(self) -> None:
        # span records: [id, parent id (0 = none), name, start, end, self_s, extra]
        self.spans: list[list] = []
        # (enclosing span id, name) -> [calls, total_s, self_s, extra]
        self.hot: dict[tuple[int, str], list] = {}
        self._stack: list[list[float]] = []  # per open call: [time in children]
        self._span = 0
        self._next_id = 1
        self._seen: set = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def seen_before(self, key) -> int:
        """1 if `key` already occurred in the current job, else 0."""
        if key in self._seen:
            return 1
        self._seen.add(key)
        return 0

    @contextmanager
    def span(self, name: str):
        record = [self._next_id, self._span, name, 0.0, 0.0, 0.0, 0]
        self._next_id += 1
        self._span = record[0]
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield record
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += end - start
            self._span = record[1]
            record[3:6] = [start, end, end - start - frame[0]]
            self.spans.append(record)

    def job(self):
        """Span of one benchmark job; repeats of class_of count per job."""
        self._seen = set()
        return self.span("job")

    def _wrap_span(self, name, fn, extra):
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if extra is not None:
                    record[6] += extra(self, args, result)
            return result

        return wrapper

    def _wrap_hot(self, name, fn, extra):
        stack, hot, clock = self._stack, self.hot, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                key = (self._span, name)
                record = hot.get(key)
                if record is None:
                    record = hot[key] = [0, 0.0, 0.0, 0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[0]
            if extra is not None:
                record[3] += extra(self, args, result)
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self, package: str = "thompsonf") -> None:
        """Wrap every target in every loaded module of `package`."""
        for module_name in {target[0] for target in TARGETS}:
            importlib.import_module(f"{package}.{module_name}")
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for module_name, path, name, kind, extra in TARGETS:
            module = sys.modules[f"{package}.{module_name}"]
            wrap = self._wrap_span if kind == SPAN else self._wrap_hot
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, wrap(name, original, extra), original)
                continue
            original = getattr(module, attr)
            wrapper = wrap(name, original, extra)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper, original)

    def _patch(self, owner, attr, wrapper, original) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched name to its original object."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """The recorded spans and aggregates as plain JSON-able lists."""
        return {
            "spans": self.spans,
            "hot": [[sid, name, *record] for (sid, name), record in self.hot.items()],
        }


# -- per-layer metrics ---------------------------------------------------------

# name -> (unit, better); the order is the order of the benchmark output
METRICS: dict[str, tuple[str, str]] = {
    "words.nf_multiply.calls": ("count", "lower"),
    "words.nf_multiply.self_s": ("s", "lower"),
    "words.nf_multiply.letters": ("count", "lower"),
    "words.reduce_to_normal_form.calls": ("count", "lower"),
    "words.reduce_to_normal_form.self_s": ("s", "lower"),
    "words.reduce_to_normal_form.letters": ("count", "lower"),
    "words.NormalForm.constructed": ("count", "lower"),
    "words.NormalForm.init_s": ("s", "lower"),
    "words.format_word.calls": ("count", "lower"),
    "words.format_word.self_s": ("s", "lower"),
    "diagrams.nf_to_diagram.calls": ("count", "lower"),
    "diagrams.nf_to_diagram.self_s": ("s", "lower"),
    "diagrams.concat_product.calls": ("count", "lower"),
    "diagrams.concat_product.self_s": ("s", "lower"),
    "diagrams.diagram_to_nf.calls": ("count", "lower"),
    "diagrams.diagram_to_nf.self_s": ("s", "lower"),
    "diagrams.forest_split_leaf.calls": ("count", "lower"),
    "diagrams.forest_collapse_caret.calls": ("count", "lower"),
    "diagrams.Diagram.constructed": ("count", "lower"),
    "diagrams.Diagram.init_s": ("s", "lower"),
    "classify.class_of.calls": ("count", "lower"),
    "classify.class_of.self_s": ("s", "lower"),
    "classify.class_of.repeat_ratio": ("ratio", "lower"),
    "classify.check_closures.self_s": ("s", "lower"),
    "folner.ball.self_s": ("s", "lower"),
    "folner.ball.elements": ("count", "higher"),
    "folner.ball.edge_queries": ("count", "lower"),
    "folner.ball.new_ratio": ("ratio", "higher"),
    "folner.subgraph_density.calls": ("count", "lower"),
    "folner.subgraph_density.self_s": ("s", "lower"),
    "folner.subgraph_density.edge_queries": ("count", "lower"),
    "folner.subgraph_density.hit_ratio": ("ratio", "higher"),
    "folner.class_histogram.self_s": ("s", "lower"),
    "folner.drop_classes.self_s": ("s", "lower"),
    "folner.deletion_bound_check.self_s": ("s", "lower"),
    "folner.ElementSet.sorted_members.calls": ("count", "lower"),
    "folner.ElementSet.sorted_members.self_s": ("s", "lower"),
    "cli.run.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def layer_metrics(summaries: list[dict], overhead_ratio: float) -> dict[str, float]:
    """Sum the summaries of traced processes into the values of METRICS."""
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    extra: Counter = Counter()
    queries: Counter = Counter()  # nf_multiply calls under ball / density spans
    discovered = 0  # new elements found by balls that ran their BFS
    for summary in summaries:
        span_names = {record[0]: record[2] for record in summary["spans"]}
        ball_queries: Counter = Counter()
        for sid, name, count, _total, own, ext in summary["hot"]:
            calls[name] += count
            self_s[name] += own
            extra[name] += ext
            if name == "words.nf_multiply":
                parent = span_names.get(sid)
                queries[parent] += count
                if parent == "folner.ball":
                    ball_queries[sid] += count
        for sid, _parent, name, _start, _end, own, ext in summary["spans"]:
            calls[name] += 1
            self_s[name] += own
            extra[name] += ext
            if name == "folner.ball" and ball_queries[sid]:
                discovered += ext - 1

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for metric in METRICS:
        name, _, field = metric.rpartition(".")
        if field in ("calls", "constructed"):
            values[metric] = calls[name]
        elif field in ("self_s", "init_s"):
            values[metric] = self_s[name]
        elif field in ("letters", "elements"):
            values[metric] = extra[name]
        elif field == "edge_queries":
            values[metric] = queries[name]
    values["classify.class_of.repeat_ratio"] = ratio(
        extra["classify.class_of"], calls["classify.class_of"]
    )
    values["folner.ball.new_ratio"] = ratio(discovered, queries["folner.ball"])
    values["folner.subgraph_density.hit_ratio"] = ratio(
        extra["folner.subgraph_density"], queries["folner.subgraph_density"]
    )
    values["trace.overhead_ratio"] = overhead_ratio
    return values
