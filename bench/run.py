"""The circast benchmark: the real CLI, in-process, on generated inputs.

    python3 bench/run.py --workload search --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60

One client runs the workload's job list in a closed loop: each job is a call
to ``circast.cli.main(argv)``, started when the previous one has returned.
Every pass over the list runs in a fresh interpreter (``child.py``), so no
cache carries over from one pass to the next, and passes repeat until the
next one would overrun ``--seconds``. Outputs are checked after each pass,
outside the timed region (``checks.py``).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` plain and traced
passes alternate and it holds the per-layer metrics, including the tracing
overhead. The lines before it print every metric by name with its unit.

``--record-digests`` rewrites ``digests.json`` from one pass of every
workload; run it only on a commit whose outputs are the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(BENCH, "digests.json")
PASS_TIMEOUT_S = 150
SETUP_SPAWNS = 12  # least number of timed imports in a run
SETUP_SPAWNS_PER_PASS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


def time_setup(spawns: int) -> list:
    """Wall times for a fresh interpreter to import circast.cli."""
    cmd = [sys.executable, "-c", "import circast.cli"]
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(spawns):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def run_pass(workdir: str, name: str, traced: bool, jobs: list, order: list) -> dict:
    """Run the jobs once, in the given order, in a fresh interpreter; the
    per-job results come back in job-list order."""
    with open(os.path.join(workdir, "jobs.json"), "w", encoding="utf-8") as handle:
        json.dump([jobs[idx]["argv"] for idx in order], handle)
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), SRC, workdir, name, str(int(traced))]
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=PASS_TIMEOUT_S)
    with open(os.path.join(workdir, name + ".json"), encoding="utf-8") as handle:
        result = json.load(handle)
    in_order = result["jobs"]
    result["jobs"] = [None] * len(order)
    for position, idx in enumerate(order):
        result["jobs"][idx] = in_order[position]
    return result


def tail(values: list) -> tuple:
    """The value at the highest percentile that still has ten values beyond
    it, with that percentile."""
    ordered = sorted(values)
    idx = max(len(ordered) - 11, 0)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


class Run:
    """The passes of one workload run and what they measured."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.setup_times: list = []
        self.plain: list = []
        self.traced: list = []
        self.errors: list = []
        self.attempted = 0

    def execute(self) -> None:
        from checks import Checker
        from jobs import make_jobs, pass_orders

        workdir = os.path.join(ROOT, ".bench_work", f"{self.workload}-{self.seed}-{os.getpid()}")
        os.makedirs(os.path.join(workdir, "out"))
        try:
            if not self.trace:
                time_setup(1)  # fills the bytecode cache
            self.jobs = make_jobs(self.workload, self.seed, workdir)
            orders = pass_orders(self.workload, self.seed, len(self.jobs))
            with open(DIGESTS, encoding="utf-8") as handle:
                digests = json.load(handle)
            checker = Checker(self.jobs, digests, os.path.join(workdir, "out"))
            start = time.perf_counter()
            spent: list = []
            while True:
                traced = self.trace and len(self.traced) < len(self.plain)
                t0 = time.perf_counter()
                result = run_pass(workdir, f"pass{len(spent)}", traced, self.jobs, next(orders))
                for job, error in zip(self.jobs, checker.check_pass(result["jobs"])):
                    if error:
                        self.errors.append(f"{' '.join(job['argv'])}: {error}")
                self.attempted += len(self.jobs)
                (self.traced if traced else self.plain).append(result)
                if not self.trace:
                    self.setup_times += time_setup(SETUP_SPAWNS_PER_PASS)
                spent.append(time.perf_counter() - t0)
                done = not self.trace or self.traced
                elapsed = time.perf_counter() - start
                if done and elapsed + statistics.median(spent) > self.seconds:
                    break
            if not self.trace and len(self.setup_times) < SETUP_SPAWNS:
                self.setup_times += time_setup(SETUP_SPAWNS - len(self.setup_times))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(workdir))
            except OSError:
                pass

    def end_to_end(self) -> dict:
        # Times are means over passes: on a shared host the speed of the same
        # code moves between levels up to 1.9x apart, each lasting seconds to
        # minutes, and a median of a few passes jumps between levels where a
        # mean moves with the time spent at each.
        latencies = [
            statistics.fmean(p["jobs"][idx]["latency_s"] for p in self.plain)
            for idx in range(len(self.jobs))
        ]
        tail_value, self.tail_pct = tail(latencies)
        return {
            "setup_s": statistics.median(self.setup_times),
            "wall_s": sum(latencies),
            "cpu_s": statistics.fmean(sum(j["cpu_s"] for j in p["jobs"]) for p in self.plain),
            "job_p50_s": statistics.median(latencies),
            "job_tail_s": tail_value,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in self.plain),
        }

    def per_layer(self) -> dict:
        from tracing import PER_LAYER

        out = {}
        for name, _unit in PER_LAYER:
            entries = [p["layers"].get(name, [0, 0]) for p in self.traced]
            out[name] = [statistics.median(e[0] for e in entries), entries[0][1]]
        overhead = statistics.fmean(_wall(p) for p in self.traced) - statistics.fmean(
            _wall(p) for p in self.plain
        )
        out["trace.overhead_s"] = [overhead, len(self.traced)]
        return out

    def report(self) -> dict:
        """Print every metric by name and return the result object."""
        n_jobs = len(self.jobs)
        failed = len(self.errors)
        print(
            f"workload {self.workload}: seed {self.seed}, {n_jobs} jobs, "
            f"{len(self.plain)} plain and {len(self.traced)} traced passes"
        )
        metrics = {}
        if self.trace:
            from tracing import PER_LAYER

            layers = self.per_layer()
            for name, unit in PER_LAYER:
                value, samples = layers[name]
                print(f"  {name:42s} {value:14.6f} {unit:6s} samples {samples}")
                metrics[name] = {"value": value, "unit": unit}
            print(
                "  (spans from search --jobs 2 worker processes are not visible; "
                "their time is wait inside search.self_s)"
            )
        else:
            values = self.end_to_end()
            for name, unit in END_TO_END:
                print(f"  {name:12s} {values[name]:12.6f} {unit}", end="")
                if name == "job_tail_s":
                    print(f"  (p{self.tail_pct:.1f} of {n_jobs} per-job means)", end="")
                print()
                metrics[name] = {"value": values[name], "unit": unit}
        rate = failed / self.attempted
        print(f"  {'error_rate':12s} {rate:12.6f} ratio  ({failed} of {self.attempted} job runs failed)")
        for error in self.errors[:10]:
            print(f"  FAILED {error}", file=sys.stderr)
        return {"correct": failed == 0, "attempted": self.attempted, "failed": failed, "metrics": metrics}


def _wall(result: dict) -> float:
    return sum(job["latency_s"] for job in result["jobs"])


def record_digests() -> int:
    """Write the stdout digest of every job whose input is fixed."""
    from jobs import WORKLOADS, make_jobs

    digests = {}
    workdir = os.path.join(ROOT, ".bench_work", f"record-{os.getpid()}")
    try:
        for workload in WORKLOADS:
            os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
            jobs = make_jobs(workload, 0, workdir)
            result = run_pass(workdir, workload, False, jobs, list(range(len(jobs))))
            for job, res in zip(jobs, result["jobs"]):
                if res["rc"] != job["rc"] or res["exc"]:
                    print(f"not recorded, {job['argv']} failed", file=sys.stderr)
                    return 1
                if job["key"] is not None:
                    digests[job["key"]] = res["sha256"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(digests)} digests")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "circast", "cli.py")):
        print(f"error: no circast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import circast

    if os.path.dirname(os.path.abspath(circast.__file__)) != os.path.join(SRC, "circast"):
        print(f"error: imported circast from {circast.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from jobs import WORKLOADS

    if args.record_digests:
        return record_digests()
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    if any(name not in WORKLOADS for name in names):
        print(f"error: workload must be one of {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    results = {}
    for name in names:
        run = Run(name, args.seed, args.seconds, bool(args.trace))
        run.execute()
        results[name] = run.report()
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
