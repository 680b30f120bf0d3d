"""Spans around the calls into each layer of ``circast``, taken from outside.

The tracer wraps the public functions and methods listed in ``TARGETS`` at
every name binding in the ``circast.*`` module namespaces. The modules import
each other's functions by name, so a call from one layer into another gets a
span too. Hot helpers such as ``PairSet.__contains__`` or ``iter_bits`` are
left alone.

A span is ``[name, start, end, parent, job]``; spans stay in memory until the
pass ends. A function's self time is its span time minus the time covered by
its direct child spans; a layer's self time sums that over the layer's spans.
Work done inside ``search --jobs 2`` worker processes is invisible here and
shows up as self time of ``search.search_ast_regular``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# span name -> (module, attribute path) of every function it covers
TARGETS = {
    "cli.main": [("circast.cli", "main")],
    "core.from_obj": [
        ("circast.core", "PairSet.from_obj"),
        ("circast.core", "TernaryRelation.from_obj"),
        ("circast.core", "TriplePartition.from_obj"),
        ("circast.core", "IndexPartition.from_obj"),
    ],
    "core.validate": [("circast.core", "TriplePartition.validate")],
    "core.to_obj": [
        ("circast.core", "PairSet.to_obj"),
        ("circast.core", "TernaryRelation.to_obj"),
        ("circast.core", "TriplePartition.to_obj"),
        ("circast.core", "IndexPartition.to_obj"),
    ],
    "core.triple_ids": [("circast.core", "TriplePartition.triple_ids")],
    "circulant.is_ast_regular": [("circast.circulant", "is_ast_regular")],
    "circulant.structure_constant": [("circast.circulant", "circulant_structure_constant")],
    "circulant.build_ast": [("circast.circulant", "build_ast")],
    "circulant.expand": [("circast.circulant", "expand")],
    "circulant.extract_partition": [("circast.circulant", "extract_partition")],
    "circulant.report_to_obj": [("circast.circulant", "ASTRegularityReport.to_obj")],
    "astcheck.verify_ast": [("circast.astcheck", "verify_ast")],
    "astcheck.verify_a1": [("circast.astcheck", "verify_a1")],
    "astcheck.verify_a2": [("circast.astcheck", "verify_a2")],
    "astcheck.verify_a3": [("circast.astcheck", "verify_a3")],
    "astcheck.derived_parameters": [("circast.astcheck", "derived_parameters")],
    "astcheck.report_to_obj": [("circast.astcheck", "ASTReport.to_obj")],
    "thin.thin_profile": [("circast.thin", "thin_profile")],
    "thin.thin_witness": [("circast.thin", "thin_witness")],
    "thin.matching_decomposition": [("circast.thin", "matching_decomposition")],
    "groups.orbit_partition_on_triples": [("circast.groups", "orbit_partition_on_triples")],
    "groups.shift_invariance_check": [("circast.groups", "shift_invariance_check")],
    "search.search_ast_regular": [("circast.search", "search_ast_regular")],
    "search.dedupe_multiplier": [("circast.search", "dedupe_multiplier")],
}


# span name -> {counter metric: value} read off the returned value
RESULT_COUNTERS = {
    "circulant.is_ast_regular": lambda report: {"circulant.is_ast_regular.neg": not report.ok},
    "astcheck.verify_ast": lambda report: {"astcheck.verify_ast.neg": not report.ok},
    "search.search_ast_regular": lambda result: {
        "search.nodes": result.nodes,
        "search.hits": len(result.hits),
    },
}

# the per-layer metrics a traced run reports, with their units
PER_LAYER = (
    ("cli.main.calls", "count"),
    ("cli.main.busy_s", "s"),
    ("cli.self_s", "s"),
    ("core.from_obj.busy_s", "s"),
    ("core.validate.busy_s", "s"),
    ("core.to_obj.busy_s", "s"),
    ("core.triple_ids.busy_s", "s"),
    ("circulant.is_ast_regular.calls", "count"),
    ("circulant.is_ast_regular.busy_s", "s"),
    ("circulant.is_ast_regular.neg", "count"),
    ("circulant.structure_constant.calls", "count"),
    ("circulant.build_ast.self_s", "s"),
    ("circulant.expand.busy_s", "s"),
    ("circulant.extract_partition.busy_s", "s"),
    ("circulant.report_to_obj.busy_s", "s"),
    ("astcheck.verify_ast.calls", "count"),
    ("astcheck.verify_ast.busy_s", "s"),
    ("astcheck.verify_ast.neg", "count"),
    ("astcheck.verify_a1.busy_s", "s"),
    ("astcheck.verify_a2.busy_s", "s"),
    ("astcheck.verify_a3.busy_s", "s"),
    ("astcheck.derived_parameters.busy_s", "s"),
    ("astcheck.report_to_obj.busy_s", "s"),
    ("thin.thin_profile.busy_s", "s"),
    ("thin.thin_witness.busy_s", "s"),
    ("thin.matching_decomposition.busy_s", "s"),
    ("groups.orbit_partition_on_triples.busy_s", "s"),
    ("groups.shift_invariance_check.busy_s", "s"),
    ("search.search_ast_regular.calls", "count"),
    ("search.search_ast_regular.busy_s", "s"),
    ("search.self_s", "s"),
    ("search.recert_s", "s"),
    ("search.dedupe_multiplier.busy_s", "s"),
    ("search.nodes", "count"),
    ("search.hits", "count"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counters: dict = {}
        self.job = None
        self._stack: list = []
        self._patches: list = []

    def wrap(self, name: str, fn):
        tracer = self
        clock = self.clock
        count = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = [name, clock(), None, stack[-1] if stack else -1, tracer.job]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                for counter, value in count(result).items():
                    entry = tracer.counters.setdefault(counter, [0, 0])
                    entry[0] += int(value)
                    entry[1] += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at its definition and at every module-level
        binding of the same function object in the loaded circast modules."""
        for name, targets in TARGETS.items():
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    self._patch(owner, attr, classmethod(self.wrap(name, raw.__func__)))
                    continue
                wrapped = self.wrap(name, raw)
                if outer:
                    self._patch(owner, attr, wrapped)
                    continue
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").split(".")[0] != "circast":
                        continue
                    for binding, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, binding, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


def summarize(spans: list, counters: dict) -> dict:
    """Per-layer metrics of one pass: {metric: [value, samples]}, where
    samples counts the spans or calls behind the value."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    out: dict = {}

    def add(metric: str, value) -> None:
        entry = out.setdefault(metric, [0, 0])
        entry[0] += value
        entry[1] += 1

    for idx, (name, start, end, parent, _job) in enumerate(spans):
        duration = end - start
        own = duration - child_time[idx]
        layer = name.split(".")[0]
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", own)
        add(f"{layer}.self_s", own)
        if not _inside(spans, parent, name):
            add(f"{name}.busy_s", duration)
        if parent >= 0 and spans[parent][0] == "search.search_ast_regular":
            if layer in ("circulant", "astcheck"):
                add("search.recert_s", duration)
    for metric, (value, samples) in counters.items():
        out[metric] = [value, samples]
    return out


def _inside(spans: list, parent: int, name: str) -> bool:
    """True if an enclosing span has the same name, so its time is counted once."""
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
