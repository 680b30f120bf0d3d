import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import circast
import circast.circulant as circulant_module
import circast.cli as cli_module
import circast.search as search_module
import circast.thin as thin_module
from circast import (
    AxiomFailure,
    IndexPartition,
    PairSet,
    TernaryRelation,
    TriplePartition,
    build_ast,
    is_ast_regular,
    matching_decomposition,
    verify_a1,
    verify_ast,
)
from circast.cli import COMMANDS, build_parser, main
from circast.core import JSON_PARTS_CAP
from circast.groups import agl1, orbit_partition_on_triples
from oracles import multiplicative_orbit_partition


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_json(argv):
    code, out = run(argv + ["--format", "json"])
    return code, json.loads(out) if out.strip() else None


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def coarse5_files(tmp_path):
    P = IndexPartition(5, (PairSet.universe(5),))
    partition_path = write_json(tmp_path, "p.json", P.to_obj())
    ast_path = write_json(tmp_path, "a.json", build_ast(P).to_obj())
    return partition_path, ast_path


def test_gen_x():
    code, obj = run_json(["gen-x", "--n", "3"])
    assert code == 0
    assert obj == {"n": 3, "pairs": [[1, 2], [2, 1]]}
    code, _ = run(["gen-x", "--n", "2"])
    assert code == 2
    code, obj = run_json(["gen-x", "--n", "5"])
    assert len(obj["pairs"]) == 12


def test_missing_required_argument_is_usage_error():
    code, _ = run(["gen-x"])
    assert code == 2


def test_verify_partition(tmp_path, coarse5_files):
    partition_path, _ = coarse5_files
    code, obj = run_json(["verify-partition", "--in", partition_path])
    assert code == 0 and obj["ok"]

    singletons = IndexPartition(
        4, tuple(PairSet.from_pairs(4, [p]) for p in PairSet.universe(4))
    )
    bad = write_json(tmp_path, "bad.json", singletons.to_obj())
    code, obj = run_json(["verify-partition", "--in", bad])
    assert code == 1
    assert obj["failure"]["condition"] == "a"

    truncated = tmp_path / "trunc.json"
    truncated.write_text('{"n": 4, "parts": [[[1')
    code, _ = run(["verify-partition", "--in", str(truncated)])
    assert code == 2

    missing_pairs = write_json(tmp_path, "gap.json", {"n": 4, "parts": [[[1, 2]]]})
    code, _ = run(["verify-partition", "--in", str(missing_pairs)])
    assert code == 2


def test_build_and_out_file(tmp_path, coarse5_files):
    partition_path, _ = coarse5_files
    out = tmp_path / "ast.json"
    code, obj = run_json(["build", "--in", partition_path, "--out", str(out)])
    assert code == 0
    written = json.loads(out.read_text())
    assert len(written["relations"]) == 5

    # stdout when --out omitted, the same bytes as the file
    code, text = run(["build", "--in", partition_path, "--format", "json"])
    assert code == 0 and len(json.loads(text)["relations"]) == 5
    assert out.read_bytes() == text.encode("utf-8")

    singletons = IndexPartition(
        4, tuple(PairSet.from_pairs(4, [p]) for p in PairSet.universe(4))
    )
    bad = write_json(tmp_path, "bad.json", singletons.to_obj())
    code, _ = run(["build", "--in", bad])
    assert code == 1


def test_extract_round_trip(tmp_path, coarse5_files):
    partition_path, ast_path = coarse5_files
    code, obj = run_json(["extract", "--in", ast_path])
    assert code == 0
    assert obj == json.loads(open(partition_path).read())

    # relations 0..3 must be the trivial ones
    ast = json.loads(open(ast_path).read())
    ast["relations"][1], ast["relations"][4] = ast["relations"][4], ast["relations"][1]
    ast["relations"][1]["id"], ast["relations"][4]["id"] = 1, 4
    bad = write_json(tmp_path, "swapped.json", ast)
    code, _ = run(["extract", "--in", bad])
    assert code == 1


def test_verify_ast(tmp_path, coarse5_files):
    _, ast_path = coarse5_files
    code, obj = run_json(["verify-ast", "--in", ast_path])
    assert code == 0 and obj["ok"] and obj["symmetric"]

    # merge two trivial relations: still a partition, but not a scheme
    ast = json.loads(open(ast_path).read())
    merged = ast["relations"]
    merged[1]["triples"] = merged[1]["triples"] + merged[2]["triples"]
    del merged[2]
    for new_id, entry in enumerate(merged):
        entry["id"] = new_id
    bad = write_json(tmp_path, "merged.json", {"n": 5, "relations": merged})
    code, obj = run_json(["verify-ast", "--in", bad])
    assert code == 1
    assert obj["failures"][0]["axiom"] == "trivial"

    nonsense = write_json(tmp_path, "no.json", {"n": 5})
    code, _ = run(["verify-ast", "--in", nonsense])
    assert code == 2


def test_thin_command(tmp_path, coarse5_files):
    _, ast_path = coarse5_files
    code, obj = run_json(["thin", "--in", ast_path])
    assert code == 0
    profiles = {entry["id"]: entry["profile"] for entry in obj["relations"]}
    assert profiles[0] == []
    assert profiles[1] == ["12", "13"]
    assert profiles[2] == ["12", "23"]
    assert profiles[3] == ["13", "23"]
    assert profiles[4] == []  # the coarse relation is fat, not thin

    relation = write_json(
        tmp_path,
        "rel.json",
        {"n": 4, "triples": [[x, y, y] for x in range(4) for y in range(4) if x != y]},
    )
    code, obj = run_json(["thin", "--in", relation])
    assert code == 0
    assert obj["relations"][0]["id"] is None
    assert obj["relations"][0]["profile"] == ["12", "13"]
    assert obj["relations"][0]["witnesses"]["12"]["derangement"] is False


def test_a3_failure_inside_verify_ast(tmp_path):
    """AGL(1,7) with the least triple t of relation 4 swapped for the triple u
    of relation 5 on the same first two points: every row count stays, so A1
    holds and A3 is the first axiom to fail; relation 4 stays 12-thin but is
    no longer shift-closed, so it has no witness."""
    A = orbit_partition_on_triples(agl1(7))
    t = A.relations[4].sorted_triples()[0]
    u = next(s for s in A.relations[5].sorted_triples() if s[:2] == t[:2])
    rels = list(A.relations)
    rels[4] = TernaryRelation(7, rels[4].triples - {t} | {u})
    rels[5] = TernaryRelation(7, rels[5].triples - {u} | {t})
    B = TriplePartition(7, tuple(rels))
    assert not isinstance(verify_a1(B), AxiomFailure)
    assert [f.to_obj() for f in verify_ast(B).failures] == [{"axiom": "A3", "relation": 4, "element": "(12)"}]
    assert verify_ast(B).symmetric is None
    path = write_json(tmp_path, "swapped.json", B.to_obj())
    code, obj = run_json(["verify-ast", "--in", path])
    assert code == 1 and obj["failures"] == [{"axiom": "A3", "relation": 4, "element": "(12)"}]
    code, obj = run_json(["thin", "--in", path])
    assert code == 0
    assert obj["relations"][4] == {"id": 4, "profile": ["12"], "witnesses": {"12": None}}


def test_decompose(tmp_path):
    X4 = PairSet.universe(4)
    x4 = write_json(tmp_path, "x4.json", X4.to_obj())
    code, obj = run_json(["decompose", "--in", x4])
    assert code == 0
    assert [sorted(map(tuple, part["pairs"])) for part in obj] == [
        [(1, 2), (2, 3), (3, 1)],
        [(1, 3), (2, 1), (3, 2)],
    ]
    assert obj == [p.to_obj() for p in matching_decomposition(X4)]
    assert run(["decompose", "--in", x4]) == (
        0,
        "2 perfect matchings:\n"
        "  [(1, 2), (2, 3), (3, 1)]  thin for ['12', '13']\n"
        "  [(1, 3), (2, 1), (3, 2)]  thin for ['12', '13']\n",
    )
    irregular = write_json(
        tmp_path, "irr.json", PairSet.from_pairs(4, [(1, 2), (2, 1)]).to_obj()
    )
    code, _ = run(["decompose", "--in", irregular])
    assert code == 1


def test_orbits_agl5():
    code, obj = run_json(["orbits", "--agl", "5"])
    assert code == 0
    assert obj["circulant"] and obj["ast_ok"]
    sizes = sorted(len(r["triples"]) for r in obj["partition"]["relations"][4:])
    assert sizes == [20, 20, 20]
    code, _ = run(["orbits", "--agl", "4"])
    assert code == 2


def test_orbits_from_group_file(tmp_path):
    group_file = write_json(tmp_path, "g.json", {"n": 4, "generators": ["(0 1 2 3)", "(0 1)"]})
    code, obj = run_json(["orbits", "--group", group_file])
    assert code == 0
    assert obj["ast_ok"]
    assert len(obj["partition"]["relations"]) == 5
    bad = write_json(tmp_path, "bad.json", {"n": 4, "generators": ["(0 9)"]})
    code, _ = run(["orbits", "--group", bad])
    assert code == 2


def test_search_command():
    code, obj = run_json(["search", "--n", "3"])
    assert code == 0
    assert obj["complete"] is True
    assert len(obj["partitions"]) == 1
    assert obj["partitions"][0]["partition"] == {"n": 3, "parts": [[[1, 2], [2, 1]]]}
    # budget runs still exit 0
    code, obj = run_json(["search", "--n", "5", "--timeout", "1e-9"])
    assert code == 0 and obj["complete"] is False
    code, _ = run(["search", "--n", "2"])
    assert code == 2


def test_search_flags():
    code, obj = run_json(["search", "--n", "5", "--all-thin", "--dedupe", "multiplier"])
    assert code == 0
    assert obj["config"]["require_all_thin"] is True
    assert obj["config"]["dedupe"] == "multiplier"
    assert len(obj["partitions"]) == 1
    code, obj = run_json(["search", "--n", "5", "--limit", "1"])
    assert len(obj["partitions"]) == 1
    code, obj = run_json(["search", "--n", "5", "--limit", "0"])
    assert code == 0 and obj["partitions"] == []


@pytest.mark.parametrize(
    "flags",
    [
        ["--limit", "-1"],
        ["--max-ni", "0"],
        ["--timeout", "0"],
        ["--timeout=-1s"],
        ["--timeout", "inf"],
        ["--jobs", "0"],
        ["--timeout", ""],
        ["--timeout", "s"],
    ],
)
def test_search_rejects_out_of_range_arguments(flags, capsys):
    code, out = run(["search", "--n", "5", *flags])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command, cap", [("gen-x", 256), ("search", 100)])
def test_n_above_the_cap_is_refused(command, cap, capsys):
    code, out = run([command, "--n", str(cap + 1)])
    assert code == 2 and out == ""
    assert f"above this command's cap of {cap}" in capsys.readouterr().err
    code, out = run([command, "--n", "100000"])
    assert code == 2 and out == ""


def test_gen_x_at_the_cap():
    code, obj = run_json(["gen-x", "--n", "256"])
    assert code == 0 and len(obj["pairs"]) == 255 * 254


def _universe_partition(n):
    return IndexPartition(n, (PairSet.universe(n),)).to_obj()


@pytest.mark.parametrize(
    "command, obj, cap",
    [
        ("symmetrise", {"n": 257, "pairs": [[1, 2]]}, 256),
        ("decompose", {"n": 257, "pairs": [[1, 2]]}, 256),
        ("verify-partition", {"n": 257, "parts": [[[1, 2]]]}, 256),
        ("build", {"n": 257, "parts": [[[1, 2]]]}, 256),
        ("build", _universe_partition(65), 64),
        ("orbits", {"n": 65, "generators": ["(0 1)"]}, 64),
    ],
)
def test_json_n_above_the_cap_is_refused(tmp_path, command, obj, cap, capsys):
    """A size in an input file above the command's cap exits 2 before
    anything of that size is built: PairSet, IndexPartition and GroupSpec
    input, and the scheme that build writes."""
    flag = "--group" if command == "orbits" else "--in"
    code, out = run([command, flag, write_json(tmp_path, "in.json", obj)])
    assert code == 2 and out == ""
    assert f"above this command's cap of {cap}" in capsys.readouterr().err


def test_agl_above_the_cap_is_refused(capsys):
    code, out = run(["orbits", "--agl", "67"])
    assert code == 2 and out == ""
    assert "above this command's cap of 64" in capsys.readouterr().err


def test_index_input_at_the_cap(tmp_path):
    """Every gen-x output reads back: index-level input up to n = 256."""
    path = write_json(tmp_path, "pair.json", {"n": 256, "pairs": [[1, 2]]})
    code, obj = run_json(["symmetrise", "--in", path])
    assert code == 0 and [1, 2] in obj["pairs"]


def test_json_report_above_the_parts_cap_is_refused(tmp_path, capsys):
    """The JSON report spells out k^4 intersection numbers, so above the cap
    on k it exits 2 before writing anything; the table format is not capped."""
    assert JSON_PARTS_CAP >= 35  # AGL(1,37) is reported
    p = next(p for p in range(JSON_PARTS_CAP + 3, 3 * JSON_PARTS_CAP) if all(p % q for q in range(2, p)))
    path = write_json(tmp_path, "agl.json", multiplicative_orbit_partition(p).to_obj())
    code, out = run(["verify-partition", "--in", path, "--format", "json"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: k = {p - 2} parts is above the JSON report's cap of {JSON_PARTS_CAP}\n"
    code, out = run(["verify-partition", "--in", path])
    assert code == 0 and out.startswith(f"AST-regular: yes ({p - 2} parts")


def test_parts_cap_refuses_only_reports_that_hold_numbers(tmp_path, monkeypatch, capsys):
    """With the cap lowered to 3, three parts are reported and five are not;
    with it at 0, search refuses its JSON report but not its table. Failing
    reports hold no intersection numbers and are never refused."""
    monkeypatch.setattr(circulant_module, "JSON_PARTS_CAP", 3)
    p5, p7 = (write_json(tmp_path, f"p{p}.json", multiplicative_orbit_partition(p).to_obj()) for p in (5, 7))
    code, obj = run_json(["verify-partition", "--in", p5])
    assert code == 0 and len(obj["constants"]) == 3
    code, out = run(["verify-partition", "--in", p7, "--format", "json"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: k = 5 parts is above the JSON report's cap of 3\n"
    monkeypatch.setattr(circulant_module, "JSON_PARTS_CAP", 0)
    code, out = run(["search", "--n", "5", "--format", "json"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: k = 1 parts is above the JSON report's cap of 0\n"
    assert run(["search", "--n", "5"])[0] == 0
    singletons = {"n": 4, "parts": [[list(pair)] for pair in PairSet.universe(4)]}
    halves = {"n": 4, "parts": [[[1, 2], [2, 3], [3, 1]], [[1, 3], [2, 1], [3, 2]]]}
    for obj, condition in ((singletons, "a"), (halves, "b")):
        code, report = run_json(["verify-partition", "--in", write_json(tmp_path, "bad.json", obj)])
        assert code == 1 and report["failure"]["condition"] == condition and report["constants"] is None


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_table_report_memory_does_not_grow_with_k4(tmp_path):
    """Table-format verify-partition on the AGL(1,31) partition (29 parts,
    707,281 intersection numbers) keeps no k^4 object: the whole process
    peaks below 80 MB. The child reads its own peak, VmHWM: on Linux its
    ru_maxrss would start from this process's peak."""
    path = write_json(tmp_path, "agl31.json", multiplicative_orbit_partition(31).to_obj())
    code = (
        "import sys; from circast.cli import main; code = main(sys.argv[1:]); "
        "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:'))); "
        "sys.exit(code)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(circast.__file__).resolve().parents[1]))
    argv = [sys.executable, "-c", code, "verify-partition", "--in", path]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    report, peak_kb = out.stdout.splitlines()
    assert report.startswith("AST-regular: yes (29 parts")
    assert int(peak_kb) < 80 * 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_trivial_group_orbits_at_the_cap_peak_below_200_mb(tmp_path):
    """`orbits --group` with no generators at n = 64, the trivial group, makes
    every nontrivial triple its own relation: 249,984 of them. Stored as one
    relation-id table, its JSON report keeps the whole process below the
    200 MB that the n caps promise. The child writes the report to /dev/null
    and then prints its own peak, VmHWM."""
    path = write_json(tmp_path, "trivial64.json", {"n": 64, "generators": []})
    code = (
        "import os, sys; from circast.cli import main; out = sys.stdout; sys.stdout = open(os.devnull, 'w'); "
        "code = main(sys.argv[1:]); "
        "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')), file=out); "
        "sys.exit(code)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(circast.__file__).resolve().parents[1]))
    argv = [sys.executable, "-c", code, "orbits", "--group", path, "--format", "json"]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    assert int(out.stdout) < 200 * 1024


def test_jobs_above_the_bound_are_refused(monkeypatch, capsys):
    """--jobs above MAX_JOBS exits 2; fork is replaced so that a broken bound
    starts no process either."""
    started = []
    monkeypatch.setattr(search_module.os, "fork", lambda: started.append(1))
    monkeypatch.setattr(search_module.os, "cpu_count", lambda: search_module.MAX_JOBS + 1)
    code, out = run(["search", "--n", "5", "--jobs", str(search_module.MAX_JOBS + 1)])
    assert code == 2 and out == "" and started == []
    assert f"between 1 and {search_module.MAX_JOBS}" in capsys.readouterr().err


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out = run(["verify-partition", "--in", str(path)])
    assert code == 2 and out == ""
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, obj, code",
    [
        ("verify-ast", {"n": 10**12, "relations": [{"id": 0, "triples": [[0, 0, 0]]}]}, 2),
        ("extract", {"n": 10**12, "relations": [{"id": 0, "triples": [[0, 0, 0]]}]}, 2),
        ("params", {"n": 10**12, "relations": [{"id": 0, "triples": [[0, 0, 0]]}]}, 2),
        ("thin", {"n": 10**12, "triples": [[0, 1, 2]]}, 0),
    ],
)
def test_triple_input_needs_no_n_cap(tmp_path, command, obj, code):
    """Triple and relation input builds nothing of size n before its triple
    count is checked against n^3 (n(n-1) for thin), so a huge n is cheap."""
    assert run([command, "--in", write_json(tmp_path, "in.json", obj)])[0] == code


def _n3_scheme_with_id(bad_id):
    obj = build_ast(IndexPartition(3, (PairSet.universe(3),))).to_obj()
    obj["relations"][1]["id"] = bad_id
    return obj


@pytest.mark.parametrize(
    "command, obj",
    [
        ("symmetrise", {"n": 5, "pairs": [[True, 2]]}),
        ("symmetrise", {"n": 5.9, "pairs": [[1, 2]]}),
        ("symmetrise", {"n": 5, "pairs": [[1.0, 2]]}),
        ("verify-partition", {"n": True, "parts": [[[1, 2], [2, 1]]]}),
        ("verify-partition", {"n": 3, "parts": [[[1, 2], [2, True]]]}),
        ("thin", {"n": 3, "triples": [[0, 1, False]]}),
        ("orbits", {"n": 5.0, "generators": ["(0 1 2 3 4)"]}),
        ("verify-ast", _n3_scheme_with_id(True)),
        ("verify-ast", _n3_scheme_with_id(1.0)),
        ("verify-ast", _n3_scheme_with_id("1")),
    ],
)
def test_json_input_needs_strict_integers(tmp_path, command, obj):
    path = write_json(tmp_path, "in.json", obj)
    flag = "--group" if command == "orbits" else "--in"
    code, out = run([command, flag, path])
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "command, obj, key",
    [
        ("verify-ast", {"n": 4}, "relations"),
        ("verify-ast", {"n": 3, "relations": [{"id": 0}]}, "triples"),
        ("thin", {"n": 3, "relations": [{"triples": [[0, 1, 2]]}]}, "id"),
        ("verify-partition", {"n": 4}, "parts"),
        ("symmetrise", {"n": 4}, "pairs"),
        ("decompose", {"pairs": [[1, 2]]}, "n"),
        ("orbits", {"n": 4}, "generators"),
    ],
)
def test_missing_key_is_named(tmp_path, command, obj, key, capsys):
    flag = "--group" if command == "orbits" else "--in"
    code, out = run([command, flag, write_json(tmp_path, "in.json", obj)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: input has no key '{key}'\n"


@pytest.mark.parametrize(
    "command, obj",
    [("thin", "relations"), ("verify-ast", [1, 2]), ("verify-partition", None), ("orbits", 5), ("build", [])],
)
def test_input_must_be_an_object(tmp_path, command, obj, capsys):
    path = write_json(tmp_path, "in.json", obj)
    flag = "--group" if command == "orbits" else "--in"
    code, out = run([command, flag, path])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {path}: input must be a JSON object\n"


@pytest.mark.parametrize(
    "command, obj, message",
    [
        ("verify-ast", {"n": 3, "relations": [[0, 1, 2]]}, "relations[0] must be a JSON object"),
        ("verify-ast", {"n": 3, "relations": {"id": 0}}, "relations must be a JSON array"),
        ("verify-partition", {"n": 3, "parts": 5}, "parts must be a JSON array"),
        ("verify-partition", {"n": 3, "parts": [[[1, 2]], None]}, "parts[1] must be a JSON array"),
        ("verify-ast", {"n": 3, "relations": [{"id": 0, "triples": 7}]}, "relations[0].triples must be a JSON array"),
        ("thin", {"n": 3, "triples": 7}, "triples must be a JSON array"),
        ("symmetrise", {"n": 5, "pairs": "12"}, "pairs must be a JSON array"),
        ("orbits", {"n": 5, "generators": [5]}, "generators[0] must be a JSON string"),
        ("orbits", {"n": 5, "generators": 5}, "generators must be a JSON array"),
        ("orbits", {"n": 5, "generators": "(0 1 2 3 4)"}, "generators must be a JSON array"),
        ("symmetrise", {"n": 5, "pairs": [5]}, "pairs[0] must be a JSON array"),
        ("decompose", {"n": 5, "pairs": [[1, 2], {"a": 1}]}, "pairs[1] must be a JSON array"),
        ("verify-partition", {"n": 5, "parts": [[5]]}, "parts[0][0] must be a JSON array"),
        ("build", {"n": 5, "parts": [[[1, 2]], [[2, 1], {"a": 1}]]}, "parts[1][1] must be a JSON array"),
        ("thin", {"n": 3}, "input must be a relation or a triple partition"),
        (
            "verify-ast",
            {
                "n": 3,
                "relations": [
                    {"id": rid, "triples": triples}
                    for rid, triples in enumerate([[[0, 0, 0]], [[0, 1, 1]], [[0, 1, 0]], [[0, 0, 1]], []])
                ],
            },
            "relation 4 is empty",
        ),
        ("verify-ast", {"n": 0, "relations": []}, "base set needs n >= 3, got n=0"),
        ("extract", {"n": 0, "relations": []}, "base set needs n >= 3, got n=0"),
        ("thin", {"n": 0, "relations": []}, "base set needs n >= 3, got n=0"),
        ("params", {"n": 0, "relations": []}, "base set needs n >= 3, got n=0"),
        ("verify-ast", {"n": 2, "relations": []}, "base set needs n >= 3, got n=2"),
        ("verify-ast", {"n": 0, "relations": [{"id": 0, "triples": [[0, 0, 0]]}]}, "base set needs n >= 3, got n=0"),
        ("params", {"n": -1, "relations": [{"id": 0, "triples": [[0, 0, 0]]}]}, "base set needs n >= 3, got n=-1"),
        ("thin", {"n": 0, "triples": [[0, 0, 0]]}, "base set needs n >= 3, got n=0"),
        ("verify-partition", {"n": 2, "parts": []}, "base set needs n >= 3, got n=2"),
        ("verify-partition", {"n": 2, "parts": [[[1, 2]]]}, "base set needs n >= 3, got n=2"),
        ("verify-partition", {"n": -5, "parts": [[[0, 1]]]}, "base set needs n >= 3, got n=-5"),
        ("verify-partition", {"n": 2, "parts": [[]]}, "base set needs n >= 3, got n=2"),
        ("decompose", {"n": 1, "pairs": [[1, 2]]}, "base set needs n >= 3, got n=1"),
        ("symmetrise", {"n": 1, "pairs": [[1, 2]]}, "base set needs n >= 3, got n=1"),
    ],
)
def test_nested_json_types_are_named(tmp_path, command, obj, message, capsys):
    flag = "--group" if command == "orbits" else "--in"
    code, out = run([command, flag, write_json(tmp_path, "in.json", obj)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_thin_tests_each_label_once(coarse5_files, monkeypatch):
    """thin reads each witness without testing its label a second time."""
    calls = []
    is_thin = thin_module._is_thin
    monkeypatch.setattr(thin_module, "_is_thin", lambda R, ab: calls.append(ab) or is_thin(R, ab))
    code, obj = run_json(["thin", "--in", coarse5_files[1]])
    assert code == 0 and len(calls) == 3 * len(obj["relations"])
    assert sum(witness is not None for e in obj["relations"] for witness in e["witnesses"].values()) == 6


def test_thin_tests_shift_closure_once_per_thin_relation(coarse5_files, monkeypatch):
    """Shift closure is a fact about the relation: thin tests it once for a
    relation with a thin label, and never for one with none."""
    calls = []
    unshifted = circulant_module._unshifted
    monkeypatch.setattr(circulant_module, "_unshifted", lambda R: calls.append(R.triples) or unshifted(R))
    code, obj = run_json(["thin", "--in", coarse5_files[1]])
    relations = TriplePartition.from_obj(json.loads(Path(coarse5_files[1]).read_text())).relations
    thin = [relations[e["id"]].triples for e in obj["relations"] if e["profile"]]
    assert code == 0 and len(thin) == 3 and len(calls) == len(set(calls)) and set(calls) == set(thin)


def test_symmetrise(tmp_path):
    single = write_json(tmp_path, "s.json", {"n": 5, "pairs": [[1, 2]]})
    code, obj = run_json(["symmetrise", "--in", single])
    assert code == 0
    assert sorted(map(tuple, obj["pairs"])) == [(1, 2), (1, 4), (2, 1), (3, 4), (4, 1), (4, 3)]
    empty = write_json(tmp_path, "e.json", {"n": 5, "pairs": []})
    code, _ = run(["symmetrise", "--in", empty])
    assert code == 2


def test_params(tmp_path, coarse5_files):
    _, ast_path = coarse5_files
    code, obj = run_json(["params", "--in", ast_path])
    assert code == 0
    assert obj == {"n1": {"4": 3}, "n2": {"4": 3}, "n3": {"4": 3}}
    not_scheme = write_json(
        tmp_path,
        "two.json",
        {
            "n": 3,
            "relations": [
                {"id": 0, "triples": [[x, x, x] for x in range(3)]},
                {
                    "id": 1,
                    "triples": [
                        [x, y, z]
                        for x in range(3)
                        for y in range(3)
                        for z in range(3)
                        if not x == y == z
                    ],
                },
            ],
        },
    )
    code, _ = run(["params", "--in", str(not_scheme)])
    assert code == 1


def test_piping_search_to_build_to_verify(tmp_path):
    code, obj = run_json(["search", "--n", "4"])
    assert code == 0
    for entry in obj["partitions"]:
        partition_path = write_json(tmp_path, "pipe_p.json", entry["partition"])
        ast_path = tmp_path / "pipe_a.json"
        code, _ = run_json(["build", "--in", partition_path, "--out", str(ast_path)])
        assert code == 0
        code, report = run_json(["verify-ast", "--in", str(ast_path)])
        assert code == 0 and report["ok"]


def test_main_keeps_no_state_between_calls(tmp_path, coarse5_files):
    """No flag of one in-process call of main may carry over to the next."""
    partition_path, _ = coarse5_files
    out = tmp_path / "ast.json"
    assert run(["build", "--in", partition_path, "--out", str(out)])[0] == 0
    code, text = run(["build", "--in", partition_path, "--format", "json"])
    assert code == 0 and len(json.loads(text)["relations"]) == 5

    code, filtered = run_json(["search", "--n", "5", "--symmetric", "--timeout", "60"])
    assert code == 0 and filtered["config"]["require_symmetric"] and len(filtered["partitions"]) == 1
    code, obj = run_json(["search", "--n", "5"])
    assert code == 0 and len(obj["partitions"]) == 2
    assert obj["config"]["require_symmetric"] is False and obj["config"]["time_budget"] is None


def test_json_output_is_stable_across_runs():
    _, first = run(["search", "--n", "4", "--format", "json"])
    _, second = run(["search", "--n", "4", "--format", "json"])
    assert first == second


def test_table_format_smoke(tmp_path, coarse5_files):
    partition_path, ast_path = coarse5_files
    for argv in (
        ["gen-x", "--n", "4"],
        ["verify-partition", "--in", partition_path],
        ["verify-ast", "--in", ast_path],
        ["thin", "--in", ast_path],
        ["orbits", "--agl", "5"],
        ["search", "--n", "4"],
        ["params", "--in", ast_path],
    ):
        code, out = run(argv)
        assert code == 0
        assert out.strip()


def test_table_format_negatives(tmp_path, coarse5_files):
    singletons = IndexPartition(4, tuple(PairSet.from_pairs(4, [p]) for p in PairSet.universe(4)))
    code, out = run(["verify-partition", "--in", write_json(tmp_path, "bad.json", singletons.to_obj())])
    assert code == 1
    assert out == f"AST-regular: no ({is_ast_regular(singletons).failure})\n"
    assert out.startswith("AST-regular: no ({'condition': 'a'")

    ast = json.loads(open(coarse5_files[1]).read())
    merged = ast["relations"]
    merged[1]["triples"] += merged.pop(2)["triples"]
    for new_id, entry in enumerate(merged):
        entry["id"] = new_id
    code, out = run(["verify-ast", "--in", write_json(tmp_path, "merged.json", ast)])
    assert code == 1
    assert out == "AST: failed ([{'axiom': 'trivial', 'reason': 'ids 0..3 are not R0..R3'}])\n"


def _parity_corpus(tmp_path, partition_path, ast_path):
    pairs = write_json(tmp_path, "x4.json", PairSet.universe(4).to_obj())
    group = write_json(tmp_path, "g.json", {"n": 4, "generators": ["(0 1 2 3)", "(0 1)"]})
    valid = {
        "gen-x": ["--n", "4"],
        "verify-partition": ["--in", partition_path, "--format", "json"],
        "build": ["--in", partition_path, "--out", str(tmp_path / "ast.json")],
        "extract": ["--in", ast_path],
        "verify-ast": ["--in", ast_path],
        "thin": ["--in", ast_path, "--format", "json"],
        "decompose": ["--in", pairs],
        "orbits": ["--group", group],
        "search": ["--n", "5", "--dedupe", "multiplier", "--jobs", "1"],
        "symmetrise": ["--in", pairs],
        "params": ["--in", ast_path],
    }
    assert set(valid) == set(COMMANDS)
    corpus = [[], ["-h"], ["bogus"], ["Search"], ["verify-ast", "--in", "x", "extra"], ["--format", "xml"]]
    corpus += [["verify-ast", "--in", ast_path, "--format", "xml"], ["search", "--n", "5", "--dedupe", "bogus"]]
    for name, argv in valid.items():
        corpus += [[name, "-h"], [name], [name, *argv]]
    return corpus


def _outcomes(corpus, capsys):
    return [(argv, main(list(argv)), *capsys.readouterr()) for argv in corpus]


def test_one_parser_serves_every_call(tmp_path, coarse5_files, monkeypatch, capsys):
    """main reuses one parser; two passes over the corpus give the exit code,
    stdout and stderr of a fresh parser per call."""
    corpus = _parity_corpus(tmp_path, *coarse5_files)
    assert build_parser() is build_parser()
    reused = _outcomes(corpus + corpus, capsys)
    assert {code for _, code, _, _ in reused} == {0, 2}
    monkeypatch.setattr(cli_module, "build_parser", build_parser.__wrapped__)
    assert reused == _outcomes(corpus + corpus, capsys)


def test_import_builds_no_parser():
    """A fresh interpreter builds the parser on its first main call, not on
    import, so the build stays out of import time."""
    code = (
        "import sys, circast.cli as cli; print(cli.build_parser.cache_info().currsize, file=sys.stderr); "
        "cli.main(['gen-x', '--n', '3']); print(cli.build_parser.cache_info().currsize, file=sys.stderr)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(circast.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stderr.split() == ["0", "1"]


def test_import_loads_no_process_pool():
    """A fresh interpreter that imports the CLI, or runs a search with two
    workers, loads neither concurrent.futures nor multiprocessing."""
    code = (
        "import json, os, sys, circast.cli; os.cpu_count = lambda: 2; "
        "sys.argv[1:] and circast.cli.main(sys.argv[1:]); "
        "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})), file=sys.stderr)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(circast.__file__).resolve().parents[1]))
    for argv in [], ["search", "--n", "7", "--jobs", "2", "--format", "json"]:
        out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True)
        loaded = json.loads(out.stderr)
        assert "circast" in loaded and "concurrent" not in loaded and "multiprocessing" not in loaded
