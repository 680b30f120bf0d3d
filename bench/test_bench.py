"""Tests of the benchmark's own machinery: seeded inputs, the tracer's
arithmetic and the error accounting."""

import json
import os
import sys
from types import SimpleNamespace

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _inputs(workload, seed, workdir):
    job_list = jobs.make_jobs(workload, seed, str(workdir))
    files = {name: (workdir / name).read_bytes() for name in sorted(os.listdir(workdir))}
    argvs = [[arg.replace(str(workdir), "") for arg in job["argv"]] for job in job_list]
    return argvs, files


def test_same_seed_same_inputs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    first = _inputs("certify", 7, tmp_path / "a")
    assert first == _inputs("certify", 7, tmp_path / "b")
    assert first != _inputs("certify", 8, tmp_path / "c")


def test_seed_fixes_every_pass_order():
    a, b, c = (jobs.pass_orders("search", seed, 44) for seed in (1, 1, 2))
    first = [next(a) for _ in range(3)]
    assert first == [next(b) for _ in range(3)] != [next(c) for _ in range(3)]
    assert first[0] != first[1] and sorted(first[0]) == list(range(44))


def _toy_tracer(ticks):
    clock = iter(ticks)
    return tracing.Tracer(clock=lambda: next(clock))


def test_self_time_on_toy_call_tree():
    tracer = _toy_tracer([0, 1, 2, 3, 4, 5, 7, 10])
    expand = tracer.wrap("circulant.expand", lambda: None)
    inner_to_obj = tracer.wrap("core.to_obj", lambda: None)

    def to_obj():
        expand()  # [2, 3]
        inner_to_obj()  # [4, 5], inside a span of the same name

    outer_to_obj = tracer.wrap("core.to_obj", to_obj)  # [1, 7]
    tracer.wrap("cli.main", outer_to_obj)()  # [0, 10]
    got = {k: v[0] for k, v in tracing.summarize(tracer.spans, tracer.counters).items()}
    assert [span[3] for span in tracer.spans] == [-1, 0, 1, 1]
    assert got["cli.main.busy_s"] == 10 and got["cli.self_s"] == 4
    assert got["core.to_obj.calls"] == 2 and got["core.to_obj.busy_s"] == 6
    assert got["core.self_s"] == 5 and got["circulant.self_s"] == 1


def test_search_recert_is_its_circulant_and_astcheck_children():
    tracer = _toy_tracer([0, 1, 3, 4, 8, 8, 9, 10])
    children = [
        tracer.wrap("circulant.is_ast_regular", lambda: SimpleNamespace(ok=False)),  # [1, 3]
        tracer.wrap("astcheck.verify_ast", lambda: SimpleNamespace(ok=True)),  # [4, 8]
        tracer.wrap("search.dedupe_multiplier", lambda: None),  # [8, 9]
    ]

    def search():
        for child in children:
            child()
        return SimpleNamespace(nodes=5, hits=(1, 2))

    tracer.wrap("search.search_ast_regular", search)()  # [0, 10]
    got = {k: v[0] for k, v in tracing.summarize(tracer.spans, tracer.counters).items()}
    assert got["search.recert_s"] == 6
    assert got["search.search_ast_regular.self_s"] == 3 and got["search.self_s"] == 4
    assert got["circulant.is_ast_regular.neg"] == 1 and got["astcheck.verify_ast.neg"] == 0
    assert (got["search.nodes"], got["search.hits"]) == (5, 2)


def test_wrong_output_and_exit_code_count_as_failures(tmp_path, monkeypatch):
    job_list = [
        {"id": 0, "argv": ["a"], "rc": 0, "key": "w:a", "checks": {}},
        {"id": 1, "argv": ["b"], "rc": 1, "key": None, "checks": {}},
        {"id": 2, "argv": ["c"], "rc": 0, "key": "w:c", "checks": {}},
    ]
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps({"w:a": "good", "w:c": "good"}))

    def fake_pass(workdir, name, traced, job_list, order):
        def res(rc, sha):
            return {"rc": rc, "exc": None, "latency_s": 0.5, "cpu_s": 0.5, "sha256": sha, "stderr": ""}

        return {"jobs": [res(0, "corrupted"), res(0, "x"), res(0, "good")], "peak_rss_mb": 1.0}

    monkeypatch.setattr(jobs, "make_jobs", lambda workload, seed, workdir: job_list)
    monkeypatch.setattr(run, "run_pass", fake_pass)
    monkeypatch.setattr(run, "time_setup", lambda spawns: [0.1] * spawns)
    monkeypatch.setattr(run, "DIGESTS", str(digests))
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    bench = run.Run("w", 0, 0.0, False)
    bench.execute()
    result = bench.report()
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 2, False)
    assert "digest" in bench.errors[0] and "exit code 0" in bench.errors[1]


def test_witness_recount_rejects_a_forged_count():
    P = jobs.orbit_fusions(jobs.agl_partition(7))[0]
    from circast import is_ast_regular

    report = is_ast_regular(P).to_obj()
    assert checks.check_witness(report, P.to_obj()) is None
    report["failure"]["witness"]["count_b"] += 1
    assert checks.check_witness(report, P.to_obj()) is not None


def test_tracer_sees_calls_between_layers_and_uninstalls():
    import contextlib
    import io

    import circast.cli
    import circast.search

    original = circast.search.is_ast_regular
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert circast.cli.main(["search", "--n", "4", "--format", "json"]) == 0
    finally:
        tracer.uninstall()
    assert circast.search.is_ast_regular is original
    parents = {span[0]: tracer.spans[span[3]][0] for span in tracer.spans if span[3] >= 0}
    assert parents["search.search_ast_regular"] == "cli.main"
    assert parents["circulant.is_ast_regular"] in ("search.search_ast_regular", "circulant.build_ast")
    assert parents["astcheck.verify_ast"] == "search.search_ast_regular"
    assert tracer.counters["search.hits"] == [1, 1]
