"""One pass over a workload's job list in a fresh interpreter.

    python3 bench/child.py <src dir> <work dir> <pass name> <trace 0|1>

Reads ``<work dir>/jobs.json`` (a list of argv lists), calls
``circast.cli.main(argv)`` for each in order, one at a time, and writes
``<work dir>/<pass name>.json`` with each job's exit code, exception, latency,
CPU time and stdout digest, the process's peak resident memory, and with
tracing on the per-layer summary. Each distinct stdout is saved once as
``<work dir>/out/<sha256>.txt`` for the output checks. Only the ``main`` calls
are timed; digests and file writes happen between them.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(jobs: list, outdir: str, tracer=None) -> list:
    import circast.cli

    results = []
    for idx, argv in enumerate(jobs):
        stdout, stderr = io.StringIO(), io.StringIO()
        exc = None
        if tracer is not None:
            tracer.job = idx
        gc.collect()  # no job pays for the garbage of the one before
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            cpu0 = _cpu()
            t0 = time.perf_counter()
            try:
                rc = circast.cli.main(argv)
            except Exception:  # the job fails; the pass goes on
                rc = None
                exc = traceback.format_exc(limit=3)
            t1 = time.perf_counter()
            cpu1 = _cpu()
        text = stdout.getvalue()
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        path = os.path.join(outdir, digest + ".txt")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        results.append(
            {
                "rc": rc,
                "exc": exc,
                "latency_s": t1 - t0,
                "cpu_s": cpu1 - cpu0,
                "sha256": digest,
                "stderr": stderr.getvalue()[-500:],
            }
        )
    return results


def main(argv: list) -> int:
    src, workdir, name, trace = argv
    sys.path.insert(0, src)
    import circast.cli  # noqa: F401  (imported before timing starts)

    with open(os.path.join(workdir, "jobs.json"), encoding="utf-8") as handle:
        jobs = json.load(handle)
    outdir = os.path.join(workdir, "out")
    os.makedirs(outdir, exist_ok=True)
    tracer = None
    if trace == "1":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        results = run_pass(jobs, outdir, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    report = {
        "jobs": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from tracing import summarize

        report["layers"] = summarize(tracer.spans, tracer.counters)
    with open(os.path.join(workdir, name + ".json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
