"""Span tracer for pgf, installed from outside the package.

install() wraps the public functions and methods of each pgf module (plus
two private hot spots: the raw product path behind the memo table and the
backtracking search), so a traced run needs no change under src/.  A span
records its caller's span name, its inclusive time and its self time
(inclusive minus the time of the spans it called).  Probes on a few spans
add counts at the same boundary: products, lookups, elements, search
nodes and report bytes.  Spans are aggregated per (caller, name) in
memory; layer_metrics() folds them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from collections import Counter

MODULES = ("fields", "engine", "constructions", "structure", "isoclinism", "report", "cli")
PRIVATE = {
    "engine.FiniteGroup._mul_index_raw",
    "isoclinism._search_bijections",
}
FIELD_OPS = tuple(f"fields.FieldOps.{op}" for op in ("add", "sub", "mul", "neg"))
MUL_MANY = "engine.FiniteGroup.mul_many"


class Tracer:
    def __init__(self):
        self.backend_spans: set = set()
        self.reset()

    def reset(self):
        # (caller, name) -> [calls, inclusive_s, self_s, outermost_inclusive_s]
        self.spans: dict = {}
        self.counts: Counter = Counter()
        self._stack: list = []          # [name, child_s] per open span
        self._depth: Counter = Counter()

    def call(self, name, probe, fn, args, kwargs):
        stack = self._stack
        caller = stack[-1] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        outermost = self._depth[name] == 0
        self._depth[name] += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._depth[name] -= 1
            stack.pop()
            if caller is not None:
                caller[1] += dt
            key = (caller[0] if caller else None, name)
            rec = self.spans.get(key)
            if rec is None:
                rec = self.spans[key] = [0, 0.0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - frame[1]
            if outermost:
                rec[3] += dt
        if probe is not None:
            probe(self.counts, caller[0] if caller else None, args, result)
        return result

    def dump(self) -> dict:
        return {"spans": [[c, n, *rec] for (c, n), rec in sorted(self.spans.items(), key=str)],
                "counts": dict(self.counts)}

    def merge(self, dumped: dict):
        for caller, name, *rec in dumped["spans"]:
            mine = self.spans.setdefault((caller, name), [0, 0.0, 0.0, 0.0])
            for k, v in enumerate(rec):
                mine[k] += v
        self.counts.update(dumped["counts"])


# -- probes: counts taken where the work happens ----------------------------

def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _probe_field(counts, caller, args, result):
    counts["fields.elements"] += _size(result)


def _probe_mul_many(counts, caller, args, result):
    group, n = args[0], _size(result)
    counts["engine.mul_many.products"] += n
    if group.order <= group._table_cap:
        counts["engine.table_lookups"] += n


def _probe_mul_index_raw(counts, caller, args, result):
    # mul_many sends only memo-table misses here when the group has a table
    group = args[0]
    if caller == MUL_MANY and group.order <= group._table_cap:
        counts["engine.table_misses"] += _size(result)


def _probe_backend(counts, caller, args, result):
    if result is not None:
        counts["engine.backend.products"] += len(result)


def _probe_index_of_rows(counts, caller, args, result):
    counts["engine.index_of_rows.rows"] += len(result)


def _probe_from_closure(counts, caller, args, result):
    counts["engine.from_closure.elements"] += result.order


def _probe_identities(counts, caller, args, result):
    counts["engine.check_class3_identities.tuples"] += sum(v["checked"] for v in result.values())


def _probe_search(counts, caller, args, result):
    counts["isoclinism.search.nodes"] += result.nodes


def _probe_to_json(counts, caller, args, result):
    counts["report.bytes"] += len(result)


PROBES = {
    **{name: _probe_field for name in FIELD_OPS},
    MUL_MANY: _probe_mul_many,
    "engine.FiniteGroup._mul_index_raw": _probe_mul_index_raw,
    "engine.FiniteGroup.index_of_rows": _probe_index_of_rows,
    "engine.FiniteGroup.from_closure": _probe_from_closure,
    "engine.FiniteGroup.check_class3_identities": _probe_identities,
    "isoclinism.are_isoclinic": _probe_search,
    "isoclinism.are_isomorphic": _probe_search,
    "report.to_json": _probe_to_json,
}


# -- installation -------------------------------------------------------------

def _wrap(tracer: Tracer, name: str, fn, probe):
    call = tracer.call

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return call(name, probe, fn, args, kwargs)

    return wrapper


def _wanted(qualified: str, attr: str) -> bool:
    return not attr.startswith("_") or qualified in PRIVATE


def install() -> Tracer:
    """Wrap every public function and method of the pgf modules in place."""
    mods = {short: importlib.import_module(f"pgf.{short}") for short in MODULES}
    package = importlib.import_module("pgf")
    backend_base = mods["engine"].Backend
    tracer = Tracer()
    wrapped: dict = {}                  # id(original) -> (original, wrapper)
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            qualified = f"{short}.{attr}"
            if inspect.isfunction(obj) and _wanted(qualified, attr):
                wrapped[id(obj)] = (obj, _wrap(tracer, qualified, obj, PROBES.get(qualified)))
            elif inspect.isclass(obj):
                is_backend = issubclass(obj, backend_base)
                for mattr, member in list(vars(obj).items()):
                    mname = f"{qualified}.{mattr}"
                    if mattr.startswith("__") or not _wanted(mname, mattr):
                        continue
                    probe = PROBES.get(mname)
                    if is_backend and mattr in ("mul_rows", "mul_index"):
                        tracer.backend_spans.add(mname)
                        probe = _probe_backend
                    if isinstance(member, (classmethod, staticmethod)):
                        setattr(obj, mattr, type(member)(
                            _wrap(tracer, mname, member.__func__, probe)))
                    elif inspect.isfunction(member):
                        setattr(obj, mattr, _wrap(tracer, mname, member, probe))
    # rebind the defining module's name and every `from .x import name` copy
    for mod in (package, *mods.values()):
        for attr, obj in list(vars(mod).items()):
            pair = wrapped.get(id(obj))
            if pair is not None and pair[0] is obj:
                setattr(mod, attr, pair[1])
    return tracer


# -- per-layer metrics ---------------------------------------------------------

LAYER_METRICS = (
    ("fields.calls", "count"), ("fields.elements", "count"), ("fields.self_s", "s"),
    ("engine.mul_many.calls", "count"), ("engine.mul_many.products", "count"),
    ("engine.mul_many.self_s", "s"),
    ("engine.table_hit_ratio", "ratio"), ("engine.table_lookups", "count"),
    ("engine.backend.products", "count"), ("engine.backend.self_s", "s"),
    ("engine.index_of_rows.calls", "count"), ("engine.index_of_rows.rows", "count"),
    ("engine.index_of_rows.self_s", "s"),
    ("engine.from_closure.elements", "count"), ("engine.from_closure.s", "s"),
    ("engine.closure_members.calls", "count"), ("engine.closure_members.self_s", "s"),
    ("engine.quotient.calls", "count"), ("engine.quotient.s", "s"),
    ("engine.lower_central_series.s", "s"), ("engine.conjugacy_classes.s", "s"),
    ("engine.center.s", "s"), ("engine.element_orders.s", "s"),
    ("engine.check_class3_identities.tuples", "count"),
    ("engine.check_class3_identities.s", "s"),
    ("constructions.build_group.s", "s"),
    ("structure.verify_class3_profile.s", "s"), ("structure.verify_structural_suite.s", "s"),
    ("structure.lift_generator_frame.s", "s"),
    ("structure.extract_presentation_params.s", "s"),
    ("structure.verify_frame_independence.s", "s"),
    ("isoclinism.commutation_map.calls", "count"), ("isoclinism.commutation_map.s", "s"),
    ("isoclinism.verify_isoclinism_witness.s", "s"), ("isoclinism.are_isoclinic.s", "s"),
    ("isoclinism.search.nodes", "count"), ("isoclinism.search.nodes_per_s", "1/s"),
    ("cli.import_s", "s"), ("report.to_json.s", "s"), ("report.bytes", "B"),
)

COUNTED = (
    "fields.elements", "engine.mul_many.products", "engine.table_lookups",
    "engine.backend.products", "engine.index_of_rows.rows", "engine.from_closure.elements",
    "engine.check_class3_identities.tuples", "isoclinism.search.nodes", "report.bytes",
)


def layer_metrics(tracer: Tracer) -> dict:
    """One round's per-layer values from the aggregated spans and counts.

    A metric `<layer>.<what>.{calls,self_s,s}` reads the span of that
    function; the engine's are methods of FiniteGroup.
    """
    by_name: dict = {}
    for (_, name), rec in tracer.spans.items():
        acc = by_name.setdefault(name, [0, 0.0, 0.0, 0.0])
        for k, v in enumerate(rec):
            acc[k] += v

    def total(names, field: int):
        return sum(by_name.get(n, [0, 0.0, 0.0, 0.0])[field] for n in names)

    counts = tracer.counts
    out = {metric: counts[metric] for metric in COUNTED}
    for metric, _unit in LAYER_METRICS:
        prefix, _, what = metric.rpartition(".")
        span = prefix.replace("engine.", "engine.FiniteGroup.", 1)
        field = {"calls": 0, "self_s": 2, "s": 3}.get(what)
        if metric not in out and field is not None:
            out[metric] = total([span], field)
    out["fields.calls"] = total(FIELD_OPS, 0)
    out["fields.self_s"] = total(FIELD_OPS, 2)
    out["engine.backend.self_s"] = total(tracer.backend_spans, 2)
    lookups = counts["engine.table_lookups"]
    out["engine.table_hit_ratio"] = (lookups - counts["engine.table_misses"]) / lookups \
        if lookups else 0.0
    search_s = total(["isoclinism._search_bijections"], 3)
    out["isoclinism.search.nodes_per_s"] = counts["isoclinism.search.nodes"] / search_s \
        if search_s else 0.0
    return out


def median_metrics(rounds: list) -> dict:
    """Per-metric median over rounds (counts repeat, so their median is the count)."""
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
