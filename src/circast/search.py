"""Exhaustive search for AST-regular partitions of the pair universe.

The tree covers X(n) orbit by orbit: at each node the least uncovered pair,
always in row 1, is fixed, and `_Universe.regular_subsets` lists exactly the
parts through it whose orbit under the six index maps can be placed (regular,
pairwise disjoint images), or under `--symmetric` the parts that every map
fixes. It counts pairs per row, column and difference and prunes row prefixes
by their images, so no orbit test follows; a pair is one int of guarded image
lanes and count fields, so a row combination is one sum and a few int tests.
Each node is checked by the kernel of `is_ast_regular` (`circulant.pair_bins`)
over the placed parts, the uncovered pairs one rest label: a placed orbit is
kept only while every quadruple of placed parts has a constant count, and the
check stops at the first bin that varies and names no rest. Every leaf is
re-verified from scratch through the public regularity test and the axiom
checker before it is reported, so the output is sound by certification rather
than by trust in the pruning.

The time budget is polled at every step of the candidate listing, the root
listing included; once it has passed the search unwinds and reports what it
found with the completeness flag cleared.

Under `--jobs N` each of k workers, this process and k - 1 forked children,
lists the whole root itself and explores its own share of it, every k-th
placeable row-1+row-2 prefix; results are merged and sorted canonically, so the
report is identical for any k.
"""

from __future__ import annotations

import marshal
import math
import os
import time
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import combinations, cycle, repeat
from typing import Iterator, Optional

from .astcheck import verify_ast
from .circulant import (
    IDENTITY,
    SYM3,
    ASTRegularityReport,
    expand_partition,
    is_ast_regular,
    pair_bins,
    sym3_rank_maps,
)
from .core import IndexPartition, PairSet, pair_capacity, pair_unrank


# each worker is a forked process that lists the whole root, so more is a typo
MAX_JOBS = 64


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one search run. `dedupe` is "none" or "multiplier";
    `time_budget` is wall-clock seconds, exceeded budgets yield partial
    results with the completeness flag cleared. Out-of-range values raise
    ValueError: limit >= 0, max_nI >= 1, time_budget > 0 and finite."""

    n: int
    max_nI: Optional[int] = None
    require_all_thin: bool = False
    require_symmetric: bool = False
    dedupe: str = "none"
    limit: Optional[int] = None
    time_budget: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"search needs n >= 3, got n={self.n}")
        if self.dedupe not in ("none", "multiplier"):
            raise ValueError(f"dedupe must be 'none' or 'multiplier', got {self.dedupe!r}")
        if self.limit is not None and self.limit < 0:
            raise ValueError(f"limit must be >= 0, got {self.limit}")
        if self.max_nI is not None and self.max_nI < 1:
            raise ValueError(f"max_nI must be >= 1, got {self.max_nI}")
        if self.time_budget is not None and not 0 < self.time_budget < math.inf:
            raise ValueError(f"time_budget must be positive and finite, got {self.time_budget}")

    def to_obj(self) -> dict:
        return asdict(self)


@dataclass
class SearchHit:
    partition: IndexPartition
    report: ASTRegularityReport

    def to_obj(self) -> dict:
        return {"partition": self.partition.to_obj(), "report": self.report.to_obj()}


@dataclass
class SearchResult:
    config: SearchConfig
    hits: tuple
    nodes: int
    complete: bool
    elapsed: float

    def to_obj(self) -> dict:
        # elapsed stays out: the report must be identical across runs
        return {
            "config": self.config.to_obj(),
            "complete": self.complete,
            "nodes": self.nodes,
            "partitions": [hit.to_obj() for hit in self.hits],
        }


class _Universe:
    """Per-n lookup tables: the ranks of each row, and by rank the listing
    option of each pair (i, j), one int holding from bit 0 up its images
    under the five non-identity maps of SYM3, the k-th in the lane at bit
    k * (|X(n)| + 1); a 1 in the count fields of its column j and difference
    (j - i) mod n, 2n - 2 fields of n.bit_length() + 1 bits; and its rank's
    bit from `mask_at`. Every lane and field is topped by a guard bit, zero
    in the option, and the guards of its two fields come with it. A prefix
    is the sum of its options: the images of distinct pairs under one map
    are distinct and a row meets each column and difference once, so nothing
    carries while no field holds more than n - 2."""

    def __init__(self, n: int):
        self.n = n
        cap = pair_capacity(n)
        self.full = (1 << cap) - 1
        self.shifts = range(0, 5 * (cap + 1), cap + 1)
        self.rep = sum(1 << s for s in self.shifts)
        self.low = self.full * self.rep
        self.guard = self.rep << cap
        width = n.bit_length() + 1
        counts_at = 5 * (cap + 1)
        self.half = 1 << width - 1
        self.ones = sum(1 << counts_at + f * width for f in range(2 * n - 2))
        self.mask_at = counts_at + (2 * n - 2) * width
        self.row_ranks = [range((i - 1) * (n - 2), i * (n - 2)) for i in range(1, n)]
        maps = sym3_rank_maps(n)
        images = [maps[g] for g in SYM3 if g != IDENTITY]
        lanes = [sum(1 << (s + q) for s, q in zip(self.shifts, qs)) for qs in zip(*images)]
        self.options = []
        for rank in range(cap):
            i, j = pair_unrank(n, rank)
            fields = 1 << counts_at + (j - 1) * width | 1 << counts_at + (n - 2 + (j - i) % n) * width
            self.options.append((lanes[rank] + fields + (1 << self.mask_at + rank), fields * self.half))

    def regular_subsets(self, r: int, allowed: int, fixed: bool,
                        deadline: Optional[float] = None, turns: Iterator = repeat(True)) -> Iterator[tuple]:
        """Pairs (mask, images) for r-regular subsets P of `allowed` through
        its least pair, with the five non-identity images of P: the P whose
        orbit under the index maps can be placed, when the pairs outside
        `allowed` are a union of orbits, or if `fixed` the P that every map
        fixes. Rows are filled in order with lexicographic column choices.

        Row 1 holds the least ranks, so nothing is listed unless it has r
        allowed pairs, and then its first option is the least allowed pair:
        each row-1 choice takes it. Each row gets r pairs, none in a column or
        a difference (j - i) mod n that already holds r, so the n - 1 rows
        leave each of the n - 1 columns and differences with exactly r. The
        maps send the rows, columns and differences of P to the rows and
        columns of its images (tau(i, j) = (-i, j - i), T swaps the two), so
        all six images are regular. A placeable prefix is dropped once an
        image meets it and a finished row outside it, so at the end an image
        that meets P is P and, the maps forming a group, any two images are
        equal or disjoint. A fixed prefix is dropped once an image meets a
        finished row outside it. Each row-1+row-2 prefix kept takes the next
        of `turns`, and is extended only if that is true. Raises TimeoutError
        past the deadline.

        Adding h - r to every count field, h > n its guard bit, sets the
        guards of the fields that hold r pairs: an option of the next row
        whose guards meet them has a full column or difference and is dropped.
        Adding the lane mask `low` sets the guards of the nonempty lanes, so
        one AND finds a lane where an image meets both the prefix and a
        finished row outside it."""
        n = self.n
        full, shifts, rep, low, guard = self.full, self.shifts, self.rep, self.low, self.guard
        ones, half, mask_at = self.ones, self.half, self.mask_at
        rows = []
        for ranks in self.row_ranks:
            opts = [self.options[rank] for rank in ranks if (allowed >> rank) & 1]
            if len(opts) < r:
                return
            rows.append((opts, ((1 << ranks.stop) - 1) * rep))

        def rec(idx: int, total: int) -> Iterator[tuple]:
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError
            if idx == n - 1:
                yield total >> mask_at, tuple(total >> s & full for s in shifts)
                return
            row, finished = rows[idx]
            cut = total + ones * (half - r)
            opts = [opt for opt, guards in row if not cut & guards]
            k = r
            if idx == 0:
                total += opts.pop(0)
                k -= 1
            for combo in combinations(opts, k):
                new = sum(combo, total)
                inside = new & (new >> mask_at) * rep
                hit = new & finished ^ inside
                if (not hit or not fixed and not (hit + low) & (inside + low) & guard) and (
                    idx != 1 or next(turns)
                ):
                    yield from rec(idx + 1, new)

        yield from rec(0, 0)


_universe = lru_cache(maxsize=None)(_Universe)


class _Search:
    def __init__(self, n: int, max_r: int, symmetric_only: bool, deadline: Optional[float]):
        self.uni = _universe(n)
        self.max_r = max_r
        self.fixed = symmetric_only
        self.deadline = deadline
        self.found: list = []
        self.nodes = 0
        self.complete = True

    def branches(self, covered: int, share: tuple = (0, 1)) -> Iterator[tuple]:
        """The placeable part orbits through the least uncovered pair, one part
        each when `symmetric_only`, as ascending masks; with `share` (w, k)
        only those under the w-th, counting from 0 modulo k, of the row-1+row-2
        prefixes kept over all valencies. Stops, with `complete` cleared, once
        the listing finds the deadline passed."""
        uni = self.uni
        allowed = uni.full & ~covered
        w, k = share
        turns = cycle([i == w for i in range(k)])
        try:
            for r in range(1, self.max_r + 1):
                for mask, images in uni.regular_subsets(r, allowed, self.fixed, self.deadline, turns):
                    yield tuple(sorted({mask, *images}))
        except TimeoutError:
            self.complete = False

    def place(self, parts: tuple, covered: int, orbit: tuple) -> None:
        """Add one orbit of parts if every quadruple of placed parts has a
        constant intersection count, then keep exploring."""
        new_parts = parts + orbit
        if any(varying for _, varying in pair_bins(self.uni.n, new_parts, stop=True)):
            return
        self.nodes += 1
        self.explore(new_parts, covered | sum(orbit))  # the parts are disjoint

    def explore(self, parts: tuple, covered: int) -> None:
        if covered == self.uni.full:
            self.found.append(parts)
            return
        for orbit in self.branches(covered):
            self.place(parts, covered, orbit)


def _branch_worker(n, max_r, symmetric_only, deadline, share):
    engine = _Search(n, max_r, symmetric_only, deadline)
    for orbit in engine.branches(0, share):
        engine.place((), 0, orbit)
    return engine.found, engine.nodes, engine.complete


def _run_workers(k: int, *task) -> list:
    """`_branch_worker(*task, (w, k))` for w = 0..k-1: share 0 in this process,
    each other share in a forked child that sends it back through a pipe.
    Every child is reaped before this returns or raises."""
    pids, pipes = [], []
    try:
        for w in range(1, k):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            with open(write_fd, "wb") as out:
                pid = os.fork()
                if pid == 0:  # os._exit runs no atexit hook and flushes no inherited buffer
                    try:
                        out.write(marshal.dumps(_branch_worker(*task, (w, k))))
                        out.close()
                        os._exit(0)
                    except BaseException:
                        import traceback
                        os.write(2, traceback.format_exc().encode())
                    finally:
                        os._exit(1)
            pids.append(pid)
        results = [_branch_worker(*task, (0, k))]
        data = [pipe.read() for pipe in pipes]
    except BaseException:
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for w, code in enumerate(codes, 1):
        if code:
            raise RuntimeError(f"search worker {w} exited with status {code}")
    return results + [marshal.loads(chunk) for chunk in data]


def _partition_key(P: IndexPartition, c: int = 1) -> tuple:
    """The sorted pair tuples of the parts of P's image under x -> cx, in
    ascending order: since the parts are disjoint, that is least-pair order,
    so for c = 1 the key is P's own `part.pairs()` tuples."""
    n = P.n
    return tuple(sorted(tuple(sorted((c * i % n, c * j % n) for i, j in part)) for part in P.parts))


def search_ast_regular(config: SearchConfig, jobs: int = 1) -> SearchResult:
    """Backtracking enumeration of all AST-regular partitions of X(n) under
    the config's caps and filters; each reported partition is re-verified via
    the regularity test and the axiom checker on its scheme."""
    if not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"jobs must be between 1 and {MAX_JOBS}, got {jobs}")
    start = time.monotonic()
    n = config.n
    max_r = min(n - 2, config.max_nI or n, 1 if config.require_all_thin else n)
    deadline = start + config.time_budget if config.time_budget is not None else None

    workers = min(jobs, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    found: list = []
    nodes = 0
    complete = True
    shares = _run_workers(workers, n, max_r, config.require_symmetric, deadline)
    for branch_found, branch_nodes, branch_complete in shares:
        found.extend(branch_found)
        nodes += branch_nodes
        complete &= branch_complete

    hits = []
    for masks in found:
        partition = IndexPartition(n, tuple(PairSet(n, m) for m in masks))
        report = is_ast_regular(partition)
        if not report.ok:
            raise RuntimeError("search emitted a partition that fails re-verification")
        if not verify_ast(expand_partition(partition)).ok:
            raise RuntimeError("search emitted a partition whose scheme fails the axiom check")
        hits.append(SearchHit(partition, report))
    keys = [_partition_key(hit.partition) for hit in hits]
    if len(set(keys)) != len(hits):
        raise RuntimeError("search emitted a duplicate partition")
    hits = [hit for _, hit in sorted(zip(keys, hits))]  # the keys are distinct, so no hit is compared
    if config.dedupe == "multiplier":
        hits = dedupe_multiplier(hits, n)
    if config.limit is not None:
        hits = hits[: config.limit]
    elapsed = time.monotonic() - start
    return SearchResult(config, tuple(hits), nodes, complete, elapsed)


def dedupe_multiplier(hits: list, n: int) -> list:
    """Keep the lexicographically least member of each class of partitions
    equivalent under some unit multiplier x -> cx, in the order of those."""
    units = [c for c in range(1, n) if math.gcd(c, n) == 1]
    keyed = [([_partition_key(hit.partition, c) for c in units], hit) for hit in hits]
    kept: dict = {}
    for keys, hit in sorted(keyed, key=lambda item: item[0][0]):  # units[0] = 1: the hit's own key
        kept.setdefault(min(keys), hit)
    return list(kept.values())
