"""Byte-identity gate: the search reports of the fixed benchmark corpus.

`bench/digests.json` holds the sha256 of the stdout of every benchmark job
whose input is fixed. Each `search:` entry is rerun in-process and must
reproduce its digest; `nodes` is part of that JSON, so the search tree is
pinned too.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from circast.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "bench", "digests.json"), encoding="utf-8") as handle:
    SEARCH_DIGESTS = {
        key.removeprefix("search:"): digest
        for key, digest in json.load(handle).items()
        if key.startswith("search:")
    }


@pytest.mark.parametrize("command", sorted(SEARCH_DIGESTS))
def test_search_stdout_matches_recorded_digest(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split() + ["--format", "json"]) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == SEARCH_DIGESTS[command]
