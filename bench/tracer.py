"""Spans around calls into epiplan's layers, recorded from outside the package.

The traced run replaces the module attributes that epiplan resolves at call
time (``epiplan.planner.product_update``, ``epiplan.suites.bisimilar``, the
variant modules' ``family``/``add_block``, ...) with timing wrappers and puts
every original back when it ends.  A span is (name, start, end, parent, op);
spans stay in memory in flat arrays and are written out once, after the run.
"""
from __future__ import annotations

import gzip
import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

SEARCH = "planner.search"
UPDATE = "action.product_update"
MINIMIZE = "bisim.minimize"
BISIMILAR = "bisim.bisimilar"
APPLICABLE = "formula.applicable"
EVALUATE = "formula.evaluate"
COMPILE = "reduction.compile"
SATISFIES = "frames.satisfies"
VALIDATE = "problem.validate"

_VARIANT_MODULES = ("k1", "multi", "ktb", "s4")
_COMPILERS = ("initial_state", "family", "add_block", "next_stage", "remove_symbol", "build_actions")

# (module, attribute, span name) for every name a layer is reached through.
TARGETS = (
    ("epiplan.planner", "bfs_plan", SEARCH),
    ("epiplan.planner", "s5_single_agent_plan", SEARCH),
    ("epiplan.planner", "applicable", APPLICABLE),
    ("epiplan.planner", "evaluate", EVALUATE),
    ("epiplan.planner", "product_update", UPDATE),
    ("epiplan.planner", "minimize_with_key", MINIMIZE),
    ("epiplan.planner", "quotient", MINIMIZE),
    ("epiplan.planner", "bisimilar", BISIMILAR),
    ("epiplan.planner", "validate_problem", VALIDATE),
    ("epiplan.planner", "satisfies", SATISFIES),
    ("epiplan.problem", "satisfies", SATISFIES),
    ("epiplan.suites", "product_update", UPDATE),
    ("epiplan.suites", "quotient", MINIMIZE),
    ("epiplan.suites", "bisimilar", BISIMILAR),
    ("epiplan.suites", "applicable", APPLICABLE),
    ("epiplan.suites", "evaluate", EVALUATE),
    ("epiplan.suites", "satisfies", SATISFIES),
    ("epiplan.reduction", "reduce_instance", COMPILE),
    ("epiplan.reduction", "sat_to_ep", COMPILE),
) + tuple(
    (f"epiplan.reduction.{mod}", fn, COMPILE) for mod in _VARIANT_MODULES for fn in _COMPILERS
)


def _state_size(tracer: "Tracer", sid: int, state) -> None:
    model = state.model
    tracer.worlds[sid] = len(model.worlds)
    tracer.edges[sid] = sum(len(rel) for rel in model.relations)


def _minimized_size(tracer: "Tracer", sid: int, result) -> None:
    state = result[0] if isinstance(result, tuple) else result
    tracer.worlds[sid] = len(state.model.worlds)


def _truth(tracer: "Tracer", sid: int, result) -> None:
    tracer.worlds[sid] = int(bool(result))


# What each span records about its result, in the worlds/edges columns.
_MEASURES = {UPDATE: _state_size, MINIMIZE: _minimized_size, APPLICABLE: _truth}


class Tracer:
    """Span recorder.  Span ids are indices into the column arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.worlds = array("l")
        self.edges = array("l")
        self._name_append = self.name.append
        self._start_append = self.start.append
        self._end_append = self.end.append
        self._parent_append = self.parent.append
        self._op_append = self.op.append
        self._worlds_append = self.worlds.append
        self._edges_append = self.edges.append
        self._stack = [-1]
        self._op = -1
        self._swaps = []
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._swaps.append((module, attr, original, self.wrap(original, name)))

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        sid = len(self.end)
        stack = self._stack
        self._name_append(name_id)
        self._parent_append(stack[-1])
        self._op_append(self._op)
        self._worlds_append(-1)
        self._edges_append(-1)
        self._end_append(0)
        stack.append(sid)
        self._start_append(perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()
        self._stack.pop()

    def begin_op(self, index: int, variant: str) -> int:
        """Open the root span of op ``index``; later spans belong to it."""
        self._op = index
        return self.open(self.name_id(f"op.{variant}"))

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        measure = _MEASURES.get(name)
        # bound methods, looked up once: the wrapper runs on every call
        open_span, close_span = self.open, self.close

        def traced(*args, **kwargs):
            sid = open_span(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(sid)
            if measure is not None:
                measure(self, sid, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target attribute; restore the originals on exit."""
        try:
            for module, attr, _, wrapper in self._swaps:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original, _ in self._swaps:
                setattr(module, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path) -> None:
        """Spans as gzipped CSV: id,name,start_ns,end_ns,parent,op."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,name,start_ns,end_ns,parent,op\n")
            names = self.names
            for sid in range(len(self.start)):
                out.write(
                    f"{sid},{names[self.name[sid]]},{self.start[sid]},{self.end[sid]},"
                    f"{self.parent[sid]},{self.op[sid]}\n"
                )


# --- per-layer metrics --------------------------------------------------------

# (metric, unit); each is reported for the whole workload and per variant.
LAYER_METRICS = (
    ("action.product_update_us", "us"),
    ("action.product_update_calls", "calls/op"),
    ("bisim.minimize_us", "us"),
    ("bisim.minimize_calls", "calls/op"),
    ("bisim.bisimilar_us", "us"),
    ("bisim.bisimilar_calls", "calls/op"),
    ("formula.applicable_us", "us"),
    ("formula.applicable_calls", "calls/op"),
    ("formula.evaluate_us", "us"),
    ("formula.evaluate_calls", "calls/op"),
    ("planner.self_ms", "ms"),
    ("planner.children", "count"),
    ("planner.dedup_ratio", "ratio"),
    ("planner.applicable_ratio", "ratio"),
    ("kripke.worlds_after_update", "worlds"),
    ("kripke.edges_after_update", "edges"),
    ("kripke.worlds_after_minimize", "worlds"),
    ("reduction.compile_us", "us"),
    ("frames.satisfies_us", "us"),
    ("problem.validate_us", "us"),
)
# Self time of a layer as a share of traced op time, whole workload only.
SHARE_METRICS = (
    ("action.product_update_share", (UPDATE,)),
    ("bisim.minimize_share", (MINIMIZE,)),
    ("bisim.bisimilar_share", (BISIMILAR,)),
    ("formula.share", (APPLICABLE, EVALUATE)),
    ("planner.self_share", (SEARCH,)),
    ("reduction.compile_share", (COMPILE,)),
    ("frames.satisfies_share", (SATISFIES,)),
)
SCOPES = ("", ".K1", ".MultiS5", ".KTB1", ".S4_1")
_PER_CALL = {
    UPDATE: "action.product_update",
    MINIMIZE: "bisim.minimize",
    BISIMILAR: "bisim.bisimilar",
    APPLICABLE: "formula.applicable",
    EVALUATE: "formula.evaluate",
    COMPILE: "reduction.compile",
    SATISFIES: "frames.satisfies",
    VALIDATE: "problem.validate",
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = [(name + scope, unit) for scope in SCOPES for name, unit in LAYER_METRICS]
    out += [(name, "ratio") for name, _ in SHARE_METRICS]
    out.append(("trace.overhead", "ratio"))
    return out


class _Acc:
    """Sums for one scope."""

    def __init__(self) -> None:
        self.ops = 0
        self.op_ns = 0
        self.calls: dict[str, int] = {}
        self.incl_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.searches = 0
        self.children = 0
        self.dedup = 0
        self.planner_applicable = 0
        self.planner_applicable_true = 0
        self.update_worlds = self.update_edges = self.updates_sized = 0
        self.min_worlds = self.mins_sized = 0


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, dedup_hits: dict[int, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans; ``dedup_hits`` maps op index to hits."""
    n = len(tracer)
    names = tracer.names
    name, start, end, parent, op = tracer.name, tracer.start, tracer.end, tracer.parent, tracer.op
    child_ns = [0] * n
    for sid in range(n):
        p = parent[sid]
        if p >= 0:
            child_ns[p] += end[sid] - start[sid]
    op_scope: dict[int, str] = {}
    for sid in range(n):
        if parent[sid] < 0:
            op_scope[op[sid]] = "." + names[name[sid]].removeprefix("op.")
    accs = {scope: _Acc() for scope in SCOPES}
    for sid in range(n):
        label = names[name[sid]]
        dur = end[sid] - start[sid]
        scoped = [accs[""]]
        extra = accs.get(op_scope.get(op[sid], ""))
        if extra is not None and extra is not scoped[0]:
            scoped.append(extra)
        p = parent[sid]
        parent_label = names[name[p]] if p >= 0 else None
        for acc in scoped:
            if p < 0:
                acc.ops += 1
                acc.op_ns += dur
                acc.dedup += dedup_hits.get(op[sid], 0)
                continue
            acc.self_ns[label] = acc.self_ns.get(label, 0) + dur - child_ns[sid]
            if parent_label != label:
                acc.calls[label] = acc.calls.get(label, 0) + 1
                acc.incl_ns[label] = acc.incl_ns.get(label, 0) + dur
            if label == SEARCH:
                acc.searches += 1
            elif label == UPDATE:
                acc.update_worlds += tracer.worlds[sid]
                acc.update_edges += tracer.edges[sid]
                acc.updates_sized += 1
                if parent_label == SEARCH:
                    acc.children += 1
            elif label == MINIMIZE:
                acc.min_worlds += tracer.worlds[sid]
                acc.mins_sized += 1
            elif label == APPLICABLE and parent_label == SEARCH:
                acc.planner_applicable += 1
                acc.planner_applicable_true += tracer.worlds[sid]
    out: dict[str, tuple[float, str]] = {}
    for scope, acc in accs.items():
        values = {}
        for span, metric in _PER_CALL.items():
            calls = acc.calls.get(span, 0)
            values[f"{metric}_us"] = _div(acc.incl_ns.get(span, 0), calls) / 1e3
            values[f"{metric}_calls"] = _div(calls, acc.ops)
        values["planner.self_ms"] = _div(acc.self_ns.get(SEARCH, 0), acc.searches) / 1e6
        values["planner.children"] = _div(acc.children, acc.searches)
        values["planner.dedup_ratio"] = _div(acc.dedup, acc.children)
        values["planner.applicable_ratio"] = _div(acc.planner_applicable_true, acc.planner_applicable)
        values["kripke.worlds_after_update"] = _div(acc.update_worlds, acc.updates_sized)
        values["kripke.edges_after_update"] = _div(acc.update_edges, acc.updates_sized)
        values["kripke.worlds_after_minimize"] = _div(acc.min_worlds, acc.mins_sized)
        for metric, unit in LAYER_METRICS:
            out[metric + scope] = (values[metric], unit)
    whole = accs[""]
    for metric, spans in SHARE_METRICS:
        self_ns = sum(whole.self_ns.get(s, 0) for s in spans)
        out[metric] = (_div(self_ns, whole.op_ns), "ratio")
    return out
