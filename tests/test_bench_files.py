"""The committed benchmark results: every BENCH_*.json at the repository root
is the last stdout line of a clean `bench/run.py` run and holds each
end-to-end metric that BENCHMARK.json declares."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
METRICS = [entry["name"] for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_bench_files():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_bench_file_is_a_clean_run(path):
    result = json.loads(path.read_text())
    assert isinstance(result, dict) and result
    for workload, entry in result.items():
        assert entry["correct"] is True, workload
        assert entry["failed"] == 0, workload
        for name in METRICS:
            value = entry["metrics"][name]["value"]
            assert type(value) in (int, float) and value >= 0, (workload, name)
