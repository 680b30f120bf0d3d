"""Workload job lists and their seeded input files.

Every input is built through the public API of ``circast`` and written as a
JSON file; the program under test only ever sees those files and CLI
arguments. A job is a dict:

    id      position in the workload's job list
    argv    the ``circast`` command line
    rc      expected exit code: 0 for positives, 1 for negative verdicts
    key     stable name of a job whose input does not depend on the seed,
            used to look up its recorded stdout digest; None for seeded jobs
    checks  extra output checks, see ``checks.py``

The seed decides the ``reject`` inputs and the job order of every pass.
"""

from __future__ import annotations

import itertools
import json
import os
import random

from circast import (
    IndexPartition,
    PairSet,
    TernaryRelation,
    TriplePartition,
    agl1,
    expand,
    extract_partition,
    make_domain,
    orbit_partition_on_triples,
    sym3_image,
    trivial_relations,
)
from circast.circulant import SYM3

# workload -> the job lists it runs, in this order
WORKLOADS = {
    "search": ("search",),
    "certify": ("index", "triple", "reject"),
}

SEARCH_NS = (3, 4, 5, 6, 7)
SEARCH_FILTERS = (
    (),
    ("--symmetric",),
    ("--all-thin",),
    ("--max-ni", "1"),
    ("--max-ni", "2"),
    ("--max-ni", "3"),
    ("--dedupe", "multiplier"),
    ("--limit", "1"),
)
# hits of the unfiltered search, frozen at the seed commit
SEARCH_HITS = {3: 1, 4: 1, 5: 2, 6: 1, 7: 4}

INDEX_PRIMES = (5, 7, 11, 13)
INDEX_ONE_PART = tuple(range(12, 41, 4))

TRIPLE_ONE_PART = (12, 16, 20, 24, 28, 40)
TRIPLE_PARAMS_MAX_N = 28
TRIPLE_PRIMES = (5, 7, 11, 13, 17, 19, 23)
TRIPLE_DECOMPOSE_N = (12, 20, 28, 40)
TRIPLE_DECOMPOSE_PRIMES = (11, 13, 17, 23)

FUSION_PRIMES = (7, 11, 13, 17)
SEEDED_PRIMES = (7, 11, 13, 17, 19, 23)
SPLIT_ONE_PART = (12, 16)
IRREGULAR_N = (8, 12, 16, 20)


# --- inputs through the public API ---------------------------------------------


def agl_partition(p: int) -> IndexPartition:
    return extract_partition(orbit_partition_on_triples(agl1(p)))


def one_part(n: int) -> IndexPartition:
    return IndexPartition(n, (PairSet.universe(n),))


def expansion(P: IndexPartition) -> TriplePartition:
    """The triple partition whose nontrivial relations expand the parts of P."""
    trivial = trivial_relations(make_domain(P.n))
    return TriplePartition(P.n, trivial + tuple(expand(part) for part in P.parts))


def sym3_orbits(P: IndexPartition) -> list:
    """Orbits of the six index maps on the part indices of P, least first."""
    index_of = {part: idx for idx, part in enumerate(P.parts)}
    orbits, seen = [], set()
    for idx, part in enumerate(P.parts):
        if idx not in seen:
            orbit = sorted({index_of[sym3_image(part, g)] for g in SYM3})
            seen.update(orbit)
            orbits.append(orbit)
    return orbits


def union(P: IndexPartition, indices) -> PairSet:
    merged = 0
    for idx in indices:
        merged |= P.parts[idx].mask
    return PairSet(P.n, merged)


def fuse(P: IndexPartition, indices) -> IndexPartition:
    """P with the parts at `indices` merged into one part."""
    rest = tuple(part for idx, part in enumerate(P.parts) if idx not in indices)
    return IndexPartition(P.n, (union(P, indices),) + rest)


def orbit_fusions(P: IndexPartition) -> list:
    """Every fusion of a proper set of Sym(3)-orbits of parts into one part,
    skipping the single-part orbits whose fusion changes nothing."""
    orbits = sym3_orbits(P)
    out = []
    for size in range(1, len(orbits)):
        for chosen in itertools.combinations(orbits, size):
            indices = [idx for orbit in chosen for idx in orbit]
            if len(indices) > 1:
                out.append(fuse(P, indices))
    return out


def random_subset(rng: random.Random, n: int) -> PairSet:
    """A nonempty subset of X(n) whose size is not a multiple of n - 1, so
    its rows cannot all have one count."""
    pairs = list(PairSet.universe(n).pairs())
    while True:
        size = rng.randrange(1, len(pairs))
        if size % (n - 1):
            return PairSet.from_pairs(n, rng.sample(pairs, size))


def split_part(rng: random.Random, P: IndexPartition) -> IndexPartition:
    """P with one part cut into two pieces that are not regular."""
    idx = rng.randrange(len(P.parts))
    pairs = list(P.parts[idx].pairs())
    piece = PairSet.from_pairs(P.n, rng.sample(pairs, rng.randrange(1, len(pairs))))
    rest = tuple(part for i, part in enumerate(P.parts) if i != idx)
    return IndexPartition(P.n, (piece, P.parts[idx] - piece) + rest)


def unclosed_fusion(rng: random.Random, P: IndexPartition) -> IndexPartition:
    """P with two parts from different Sym(3)-orbits merged."""
    orbit_a, orbit_b = rng.sample(sym3_orbits(P), 2)
    return fuse(P, [rng.choice(orbit_a), rng.choice(orbit_b)])


def moved_triple(rng: random.Random, A: TriplePartition) -> TriplePartition:
    """A with one triple moved between two nontrivial relations (fails A1)."""
    i, j = rng.sample(range(4, len(A.relations)), 2)
    t = rng.choice(A.relations[i].sorted_triples())
    return _rebuild(A, {i: A.relations[i].triples - {t}, j: A.relations[j].triples | {t}})


def swapped_triples(rng: random.Random, A: TriplePartition) -> TriplePartition:
    """A with the third points of (x, y, .) swapped between two nontrivial
    relations of valency 1: every completion count stays, A3 fails."""
    i, j = rng.sample(range(4, len(A.relations)), 2)
    t = rng.choice(A.relations[i].sorted_triples())
    u = next(s for s in A.relations[j].sorted_triples() if s[:2] == t[:2])
    return _rebuild(
        A,
        {i: A.relations[i].triples - {t} | {u}, j: A.relations[j].triples - {u} | {t}},
    )


def _rebuild(A: TriplePartition, changed: dict) -> TriplePartition:
    rels = list(A.relations)
    for rid, triples in changed.items():
        rels[rid] = TernaryRelation(A.n, frozenset(triples))
    return TriplePartition(A.n, tuple(rels))


# --- job lists -----------------------------------------------------------------


class _Builder:
    """Writes input files into `workdir` and collects jobs; names and digest
    keys are prefixed by the job list being built."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.section = ""
        self.jobs: list = []

    def write(self, name: str, obj) -> str:
        path = os.path.join(self.workdir, f"{self.section}-{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(obj, handle, sort_keys=True)
        return path

    def add(self, argv, rc=0, key=None, **checks) -> dict:
        job = {
            "id": len(self.jobs),
            "argv": list(argv) + ["--format", "json"],
            "rc": rc,
            "key": f"{self.section}:{key}" if key else None,
            "checks": checks,
        }
        self.jobs.append(job)
        return job


def _search_jobs(b: _Builder, rng: random.Random) -> None:
    for n in SEARCH_NS:
        for flags in SEARCH_FILTERS:
            argv = ["search", "--n", str(n), *flags]
            checks = {} if flags else {"hits": SEARCH_HITS[n]}
            b.add(argv, key=" ".join(argv), **checks)
    for argv in (
        ["search", "--n", "7", "--jobs", "1"],
        ["search", "--n", "7", "--jobs", "2"],
        ["search", "--n", "8", "--max-ni", "2"],
        ["search", "--n", "10", "--max-ni", "1"],
    ):
        b.add(argv, key=" ".join(argv))


def _index_jobs(b: _Builder, rng: random.Random) -> None:
    inputs = [(f"agl{p}", agl_partition(p)) for p in INDEX_PRIMES]
    inputs += [(f"x{n}", one_part(n)) for n in INDEX_ONE_PART]
    for name, P in inputs:
        path = b.write(name, P.to_obj())
        b.add(["verify-partition", "--in", path], key=f"verify-partition {name}")
        b.add(["build", "--in", path], key=f"build {name}", roundtrip=path)


def _triple_jobs(b: _Builder, rng: random.Random) -> None:
    schemes = [(f"x{n}", n, expansion(one_part(n))) for n in TRIPLE_ONE_PART]
    schemes += [(f"agl{p}", p, orbit_partition_on_triples(agl1(p))) for p in TRIPLE_PRIMES]
    for name, n, A in schemes:
        path = b.write(name, A.to_obj())
        commands = ["verify-ast", "extract", "thin"]
        if n <= TRIPLE_PARAMS_MAX_N:
            commands.append("params")
        for command in commands:
            b.add([command, "--in", path], key=f"{command} {name}")
    for p in TRIPLE_PRIMES:
        b.add(["orbits", "--agl", str(p)], key=f"orbits {p}")
    sets = [(f"set-x{n}", PairSet.universe(n)) for n in TRIPLE_DECOMPOSE_N]
    for p in TRIPLE_DECOMPOSE_PRIMES:
        P = agl_partition(p)
        sets.append((f"set-agl{p}", union(P, max(sym3_orbits(P), key=len))))
    for name, I in sets:
        path = b.write(name, I.to_obj())
        b.add(["decompose", "--in", path], key=f"decompose {name}")


def _negative_triplet(b: _Builder, name: str, P: IndexPartition, condition: str, fixed: bool) -> None:
    """verify-partition and build on P, and verify-ast on its expansion; the
    three verdicts must agree and name matching conditions. `fixed` marks an
    input that does not depend on the seed."""
    axiom = {"a": "A1", "b": "A3", "c": "A2"}[condition]
    part_path = b.write(name, P.to_obj())
    scheme_path = b.write(name + "-scheme", expansion(P).to_obj())
    verify = b.add(
        ["verify-partition", "--in", part_path],
        rc=1,
        key=f"verify-partition {name}" if fixed else None,
        condition=condition,
        witness=part_path,
    )
    b.add(
        ["build", "--in", part_path],
        rc=1,
        key=f"build {name}" if fixed else None,
        same_stdout=verify["id"],
    )
    b.add(
        ["verify-ast", "--in", scheme_path],
        rc=1,
        key=f"verify-ast {name}" if fixed else None,
        axiom=axiom,
        same_verdict=verify["id"],
    )


def _reject_jobs(b: _Builder, rng: random.Random) -> None:
    for p in FUSION_PRIMES:
        for idx, P in enumerate(orbit_fusions(agl_partition(p))):
            _negative_triplet(b, f"fusion{p}-{idx}", P, "c", fixed=True)
    for p in SEEDED_PRIMES:
        P = agl_partition(p)
        _negative_triplet(b, f"split{p}", split_part(rng, P), "a", fixed=False)
        _negative_triplet(b, f"unclosed{p}", unclosed_fusion(rng, P), "b", fixed=False)
        A = orbit_partition_on_triples(agl1(p))
        for kind, axiom, make in (("moved", "A1", moved_triple), ("swapped", "A3", swapped_triples)):
            path = b.write(f"{kind}{p}", make(rng, A).to_obj())
            b.add(["verify-ast", "--in", path], rc=1, axiom=axiom)
            b.add(["params", "--in", path], rc=1)
            b.add(["extract", "--in", path], rc=1)
    for n in SPLIT_ONE_PART:
        I = random_subset(rng, n)
        P = IndexPartition(n, (I, PairSet.universe(n) - I))
        _negative_triplet(b, f"split-x{n}", P, "a", fixed=False)
    for n in IRREGULAR_N:
        path = b.write(f"irregular{n}", random_subset(rng, n).to_obj())
        b.add(["decompose", "--in", path], rc=1)


_MAKERS = {
    "search": _search_jobs,
    "index": _index_jobs,
    "triple": _triple_jobs,
    "reject": _reject_jobs,
}


def make_jobs(workload: str, seed: int, workdir: str) -> list:
    """Write the workload's inputs into `workdir` and return its jobs."""
    b = _Builder(workdir)
    for section in WORKLOADS[workload]:
        b.section = section
        _MAKERS[section](b, random.Random(f"{section}:{seed}"))
    return b.jobs


def pass_orders(workload: str, seed: int, count: int):
    """Seeded run orders of `count` jobs, a fresh one for every pass, so that
    each job is timed at a different point of each pass."""
    rng = random.Random(f"{workload}:{seed}:order")
    while True:
        order = list(range(count))
        rng.shuffle(order)
        yield order
