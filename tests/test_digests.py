"""Byte-identity gate: the reports of the fixed benchmark corpus.

`bench/digests.json` holds the sha256 of the stdout of every benchmark job
whose input is fixed. Each entry is rerun in-process and must reproduce its
digest: the `search:` entries (`nodes` is part of that JSON, so the search
tree is pinned too) and the checker entries `index:`, `triple:` and `reject:`,
whose input files are written by `bench/jobs.py` exactly as the benchmark
writes them.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os

import pytest

from circast.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "bench", "digests.json"), encoding="utf-8") as handle:
    DIGESTS = json.load(handle)

SEARCH_DIGESTS = {
    key.removeprefix("search:"): digest
    for key, digest in DIGESTS.items()
    if key.startswith("search:")
}
CHECKER_DIGESTS = {key: digest for key, digest in DIGESTS.items() if not key.startswith("search:")}


def _stdout_digest(argv, rc):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == rc
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", sorted(SEARCH_DIGESTS))
def test_search_stdout_matches_recorded_digest(command):
    digest = _stdout_digest(command.split() + ["--format", "json"], 0)
    assert digest == SEARCH_DIGESTS[command]


@pytest.fixture(scope="module")
def certify_jobs(tmp_path_factory):
    """The benchmark's `certify` jobs by digest key, inputs written once."""
    spec = importlib.util.spec_from_file_location(
        "bench_jobs", os.path.join(ROOT, "bench", "jobs.py")
    )
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    job_list = jobs.make_jobs("certify", 1, str(tmp_path_factory.mktemp("certify")))
    return {job["key"]: job for job in job_list if job["key"] is not None}


def test_every_checker_digest_has_a_job(certify_jobs):
    assert len(CHECKER_DIGESTS) == 138
    assert set(CHECKER_DIGESTS) == set(certify_jobs)


@pytest.mark.parametrize("key", sorted(CHECKER_DIGESTS))
def test_checker_stdout_matches_recorded_digest(certify_jobs, key):
    job = certify_jobs[key]
    assert _stdout_digest(job["argv"], job["rc"]) == CHECKER_DIGESTS[key]
