"""The benchmark's tracer (`bench/tracing.py`) wraps each of its `TARGETS`
by name, reading the raw attribute with `vars(owner)[attr]`: each target must
be a plain function or a classmethod there, or a traced run
(`bench/run.py --trace 1`) breaks, or times the wrong thing, only when it
starts."""

import importlib
import importlib.util
import inspect
import json
from itertools import permutations
from pathlib import Path

import circast.cli
import circast.thin
from circast import PairSet, TernaryRelation, TriplePartition, trivial_relations

_SPEC = importlib.util.spec_from_file_location("tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_every_trace_target_is_a_function_or_a_classmethod():
    bad = []
    for name, targets in tracing.TARGETS.items():
        for module_name, path in targets:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner).get(attr)
            if isinstance(raw, classmethod):
                raw = raw.__func__
            if not inspect.isfunction(raw):
                bad.append((name, module_name, path, type(raw).__name__))
    assert bad == []


def test_the_partition_check_runs_under_the_tracer():
    """The constructor's check and table build run through the wrapped
    classmethods, once each, and the tracer leaves the class as it was."""
    n = 3
    rels = trivial_relations(n) + (TernaryRelation(n, frozenset(permutations(range(n), 3))),)
    raw = dict(vars(TriplePartition))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        A = TriplePartition(n, rels)
        TriplePartition.from_obj(A.to_obj())
    finally:
        tracer.uninstall()
    assert dict(vars(TriplePartition)) == raw
    names = [span[0] for span in tracer.spans]
    assert names.count("core.validate") == 2 and names.count("core.triple_ids") == 1
    assert A == TriplePartition(n, rels)


def test_decompose_runs_under_the_tracer(tmp_path, capsys):
    """The `decompose` command's decomposition and its thin profiles get
    spans, and the tracer leaves `circast.thin` as it was."""
    path = tmp_path / "x4.json"
    path.write_text(json.dumps(PairSet.universe(4).to_obj()))
    raw = dict(vars(circast.thin))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = circast.cli.main(["decompose", "--in", str(path)])
    finally:
        tracer.uninstall()
    assert code == 0 and capsys.readouterr().out.startswith("2 perfect matchings:")
    assert dict(vars(circast.thin)) == raw
    names = [span[0] for span in tracer.spans]
    assert names.count("thin.matching_decomposition") == 1 and names.count("thin.thin_profile") >= 1
