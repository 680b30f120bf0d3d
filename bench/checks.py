"""Output checks, run after a pass and outside its timed region.

A job execution fails when its exit code is not the expected one, when
``main`` raised, or when its stdout is wrong:

* a job whose input does not depend on the seed must print exactly the bytes
  recorded at the seed commit (``digests.json``, sha256 of stdout);
* an unfiltered ``search`` must report the frozen number of hits;
* a ``build`` that succeeds must give back its input partition when the
  scheme is extracted again;
* a negative ``verify-partition`` must fail the expected condition, and a
  failure of (c) must carry a witness that the recount below confirms;
* a ``build`` that fails must print the same report as ``verify-partition``;
* ``verify-ast`` on the expansion of a partition must reach the same verdict
  as ``verify-partition``, failing the matching axiom.
"""

from __future__ import annotations

import json
import os


def recount(parts: list, n: int, quadruple: list, pair: list) -> int:
    """Count w outside {0, y, z} with (y-w, z-w) in I, (w, z) in J and (y, w)
    in K, for the parts I, J, K named by the quadruple: p^L_{IJK} at (y, z)."""
    I, J, K = (parts[q] for q in quadruple[:3])
    y, z = pair
    return sum(
        1
        for w in range(1, n)
        if w not in (y, z) and ((y - w) % n, (z - w) % n) in I and (w, z) in J and (y, w) in K
    )


def check_witness(report: dict, partition: dict) -> str | None:
    failure = report["failure"]
    n = partition["n"]
    parts = [{tuple(p) for p in block} for block in partition["parts"]]
    quadruple, witness = failure["quadruple"], failure["witness"]
    L = parts[quadruple[3]]
    for side in ("a", "b"):
        pair = witness[f"pair_{side}"]
        if tuple(pair) not in L:
            return f"witness pair {pair} is not in part {quadruple[3]}"
        if recount(parts, n, quadruple, pair) != witness[f"count_{side}"]:
            return f"witness count at {pair} does not recount"
    if witness["count_a"] == witness["count_b"]:
        return "witness counts agree"
    return None


def _load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class Checker:
    """Checks the jobs of one workload run; semantic checks are cached per
    (job, stdout digest), so repeated passes cost one digest comparison."""

    def __init__(self, jobs: list, digests: dict, outdir: str):
        self.jobs = jobs
        self.digests = digests
        self.outdir = outdir
        self._cache: dict = {}

    def text(self, digest: str) -> str:
        with open(os.path.join(self.outdir, digest + ".txt"), encoding="utf-8") as handle:
            return handle.read()

    def check_pass(self, results: list) -> list:
        """One error string (or None) per job; `results` is in job-list
        order, so a job's id indexes it."""
        return [self._check(job, res, results) for job, res in zip(self.jobs, results)]

    def _check(self, job: dict, res: dict, results: list) -> str | None:
        if res["exc"] is not None:
            return f"raised: {res['exc'].strip().splitlines()[-1]}"
        if res["rc"] != job["rc"]:
            return f"exit code {res['rc']}, expected {job['rc']} ({res['stderr'].strip()})"
        if job["key"] is not None and self.digests.get(job["key"]) != res["sha256"]:
            return "stdout differs from the recorded digest"
        key = (job["id"], res["sha256"]) + tuple(
            results[other]["sha256"] for other in _partners(job)
        )
        if key not in self._cache:
            self._cache[key] = self._semantic(job, res, results)
        return self._cache[key]

    def _semantic(self, job: dict, res: dict, results: list) -> str | None:
        checks = job["checks"]
        if "hits" in checks:
            found = len(json.loads(self.text(res["sha256"]))["partitions"])
            if found != checks["hits"]:
                return f"{found} hits, expected {checks['hits']}"
        if "roundtrip" in checks:
            from circast import TriplePartition, extract_partition

            scheme = TriplePartition.from_obj(json.loads(self.text(res["sha256"])))
            if extract_partition(scheme).to_obj() != _load_json(checks["roundtrip"]):
                return "extract after build does not return the input partition"
        if "condition" in checks:
            report = json.loads(self.text(res["sha256"]))
            if report["ok"] or report["failure"]["condition"] != checks["condition"]:
                return f"expected a failure of condition ({checks['condition']})"
            if checks["condition"] == "c":
                error = check_witness(report, _load_json(checks["witness"]))
                if error:
                    return error
        if "same_stdout" in checks:
            if res["sha256"] != results[checks["same_stdout"]]["sha256"]:
                return "build and verify-partition print different reports"
        if "axiom" in checks:
            report = json.loads(self.text(res["sha256"]))
            axioms = [failure["axiom"] for failure in report["failures"]]
            if report["ok"] or axioms[:1] != [checks["axiom"]]:
                return f"expected a failure of {checks['axiom']}, got {axioms}"
        if "same_verdict" in checks:
            if res["rc"] != results[checks["same_verdict"]]["rc"]:
                return "verify-ast and verify-partition disagree"
        return None


def _partners(job: dict) -> list:
    return [job["checks"][name] for name in ("same_stdout", "same_verdict") if name in job["checks"]]
