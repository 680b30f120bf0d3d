"""End-to-end acceptance checks, one numbered criterion per test.

Each test aggregates its checks and prints exactly one pass/fail line; run
`pytest -s tests/test_acceptance.py` to see the lines as they happen.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout

import pytest

import oracles
from circast import (
    SWAP12,
    SWAP13,
    SWAP23,
    SYM3,
    IndexPartition,
    PairSet,
    SearchConfig,
    TriplePartition,
    agl1,
    build_ast,
    derived_parameters,
    expand,
    extract_partition,
    is_ast_regular,
    matching_decomposition,
    orbit_partition_on_triples,
    pair_capacity,
    regularity_stats,
    search_ast_regular,
    shift_invariance_check,
    sym3_image,
    thin_profile,
    verify_ast,
)
from circast.groups import GroupSpec, Permutation, parse_cycles
from circast.cli import main as cli_main


def _criterion(num, description, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"[criterion {num:02d}] {description}: {status}")
    assert not problems, f"criterion {num} failed: {problems}"


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def small_searches():
    """Exhaustive search results for n = 3..6."""
    return {n: search_ast_regular(SearchConfig(n)) for n in (3, 4, 5, 6)}


@pytest.fixture(scope="module")
def coarse_family():
    """For n = 3..12: the one-part partition, its report, scheme and axiom
    report, plus the wall-clock cost of producing them."""
    t0 = time.perf_counter()
    out = {}
    for n in range(3, 13):
        P = IndexPartition(n, (PairSet.universe(n),))
        report = is_ast_regular(P)
        A = build_ast(P)
        out[n] = (P, report, A, verify_ast(A))
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def orbit_schemes():
    """Shift-containing groups at n <= 8 and their orbit schemes."""

    def shift(n):
        return parse_cycles("(" + " ".join(map(str, range(n))) + ")", n)

    groups = []
    for n in range(3, 9):
        groups.append((f"cyclic-{n}", GroupSpec(n, (shift(n),))))
        groups.append((f"symmetric-{n}", GroupSpec(n, (shift(n), parse_cycles("(0 1)", n)))))
        groups.append(
            (f"dihedral-{n}", GroupSpec(n, (shift(n), Permutation(tuple((n - x) % n for x in range(n))))))
        )
    for p in (3, 5, 7):
        groups.append((f"affine-{p}", agl1(p)))
    out = []
    for name, G in groups:
        A = orbit_partition_on_triples(G)
        out.append((name, A, shift_invariance_check(A), verify_ast(A)))
    return out


def test_criterion_1_n3_uniqueness():
    problems = []
    t0 = time.perf_counter()
    code, out = run_cli(["search", "--n", "3", "--format", "json"])
    elapsed = time.perf_counter() - t0
    obj = json.loads(out)
    if code != 0:
        problems.append(f"exit code {code}")
    if len(obj["partitions"]) != 1:
        problems.append(f"{len(obj['partitions'])} partitions")
    if obj["partitions"][0]["partition"] != {"n": 3, "parts": [[[1, 2], [2, 1]]]}:
        problems.append("wrong partition")
    A = build_ast(IndexPartition.from_obj(obj["partitions"][0]["partition"]))
    report = verify_ast(A)
    if not (report.ok and A.m == 4 and report.symmetric):
        problems.append("built scheme not a symmetric AST with m=4")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s")
    _criterion(1, "unique scheme on three points", problems)


def test_criterion_2_coarse_family(coarse_family):
    data, elapsed = coarse_family
    problems = []
    for n, (P, report, A, ast_report) in data.items():
        if not report.ok:
            problems.append(f"n={n} not AST-regular")
            continue
        if report.part_stats[0].n_I != n - 2:
            problems.append(f"n={n} valency {report.part_stats[0].n_I}")
        X = P.parts[0].pairs()
        expected = oracles.brute_structure_constant(n, X, X, X, X)
        if expected != ("const", n - 3) or report.bins[0].get((0, 0, 0), 0) != n - 3:
            problems.append(f"n={n} constant {report.bins[0].get((0, 0, 0), 0)}")
        if not ast_report.ok:
            problems.append(f"n={n} scheme fails the axiom checker")
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s")
    _criterion(2, "one-part partitions for n=3..12", problems)


def test_criterion_3_equivalence_both_ways(small_searches, orbit_schemes):
    problems = []
    for n, result in small_searches.items():
        if not result.complete:
            problems.append(f"search n={n} incomplete")
        for hit in result.hits:
            if not verify_ast(build_ast(hit.partition)).ok:
                problems.append(f"forward mismatch at n={n}")
    for name, A, circulant, report in orbit_schemes:
        if not (circulant and report.ok):
            continue
        if not is_ast_regular(extract_partition(A)).ok:
            problems.append(f"backward mismatch for {name}")
    _criterion(3, "partition/scheme equivalence, both directions", problems)


def test_criterion_4_affine_example(small_searches):
    problems = []
    t0 = time.perf_counter()
    code, out = run_cli(["orbits", "--agl", "5", "--format", "json"])
    elapsed = time.perf_counter() - t0
    obj = json.loads(out)
    if code != 0:
        problems.append(f"exit code {code}")
    A = TriplePartition.from_obj(obj["partition"])
    sizes = [len(rel) for rel in A.relations[4:]]
    if sizes != [20, 20, 20]:
        problems.append(f"orbit sizes {sizes}")
    if not (obj["circulant"] and shift_invariance_check(A)):
        problems.append("not shift-invariant")
    for rel in A.relations[4:]:
        if thin_profile(rel) != frozenset({"12", "13", "23"}):
            problems.append("orbit not thin for all three pairs")
    extracted = extract_partition(A)
    found = {hit.partition for hit in small_searches[5].hits}
    if extracted not in found:
        problems.append("extracted partition missing from the n=5 search")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s")
    _criterion(4, "affine group of Z_5", problems)


def test_criterion_5_permutational_isomorphism():
    problems = []
    rng = random.Random(20260809)
    for trial in range(200):
        n = rng.randrange(4, 13)
        I = PairSet(n, rng.getrandbits(pair_capacity(n)) or 1)
        R = expand(I)
        for g in SYM3:
            if expand(sym3_image(I, g)) != oracles.permute_relation(R, g):
                problems.append(f"trial {trial} element mismatch")
        tau_T_tau = sym3_image(sym3_image(sym3_image(I, SWAP12), SWAP23), SWAP12)
        T_tau_T = sym3_image(sym3_image(sym3_image(I, SWAP23), SWAP12), SWAP23)
        if not (tau_T_tau == T_tau_T == sym3_image(I, SWAP13)):
            problems.append(f"trial {trial} braid relation")
    _criterion(5, "index maps mirror coordinate permutations (200 trials)", problems)


def test_criterion_6_parameter_identities(small_searches, coarse_family, orbit_schemes):
    schemes = [A for _, (P, rep, A, ast_rep) in coarse_family[0].items()]
    for n, result in small_searches.items():
        schemes += [build_ast(hit.partition) for hit in result.hits]
    schemes += [A for name, A, circulant, rep in orbit_schemes if rep.ok]
    schemes.append(orbit_partition_on_triples(agl1(5)))
    problems = []
    for A in schemes:
        report = verify_ast(A)
        if not report.ok:
            problems.append(f"scheme on {A.n} points fails verification")
            continue
        try:
            n1, n2 = derived_parameters(report.tensor)
        except Exception as exc:  # identity violation
            problems.append(f"identity violation on {A.n} points: {exc}")
            continue
        direct = oracles.direct_marginals(A)
        for rid, (d1, d2, d3) in direct.items():
            if (n1[rid], n2[rid], report.tensor.n3[rid]) != (d1, d2, d3):
                problems.append(f"marginals differ on {A.n} points, relation {rid}")
    _criterion(6, f"tensor identities on {len(schemes)} verified schemes", problems)


def test_criterion_7_matching_decomposition(small_searches, coarse_family):
    index_sets = [PairSet.universe(n) for n in range(4, 11)]
    for n, result in small_searches.items():
        for hit in result.hits:
            index_sets += [part for part in hit.partition.parts]
    problems = []
    t0 = time.perf_counter()
    checked = 0
    for I in index_sets:
        valency = regularity_stats(I).n_I
        if valency < 2:
            continue
        checked += 1
        dec = matching_decomposition(I)
        if len(dec) != valency:
            problems.append(f"{I!r}: {len(dec)} parts")
        union = PairSet(I.n, 0)
        for part in dec:
            if union.mask & part.mask:
                problems.append(f"{I!r}: overlapping matchings")
            union = union | part
            R = expand(part)
            if thin_profile(R) < {"12", "13"}:
                problems.append(f"{I!r}: matching not 12- and 13-thin")
            if not (regularity_stats(part).ok and regularity_stats(part).n_I == 1):
                problems.append(f"{I!r}: part is not a perfect matching")
            if any(len({x, y, z}) != 3 for (x, y, z) in R.triples):
                problems.append(f"{I!r}: expansion not nontrivial")
        if union != I:
            problems.append(f"{I!r}: matchings do not cover")
    elapsed = time.perf_counter() - t0
    if checked < 7:
        problems.append(f"only {checked} fat index sets exercised")
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f}s")
    _criterion(7, f"matching decomposition of {checked} index sets", problems)


def test_criterion_8_trivial_thin_profiles():
    from circast import trivial_relations

    expected = {1: {"12", "13"}, 2: {"12", "23"}, 3: {"13", "23"}}
    problems = []
    for n in range(3, 11):
        rels = trivial_relations(n)
        for rid, profile in expected.items():
            got = thin_profile(rels[rid])
            if got != frozenset(profile):
                problems.append(f"n={n} relation {rid}: {sorted(got)}")
    _criterion(8, "thin profiles of the trivial relations, n=3..10", problems)


def test_criterion_9_search_matches_naive_enumeration():
    problems = []
    t0 = time.perf_counter()
    expected = {
        tuple(part.pairs() for part in P.parts)
        for P in oracles.naive_ast_regular_partitions(4)
    }
    code, out = run_cli(["search", "--n", "4", "--format", "json"])
    got = {
        tuple(tuple(map(tuple, block)) for block in entry["partition"]["parts"])
        for entry in json.loads(out)["partitions"]
    }
    elapsed = time.perf_counter() - t0
    if code != 0:
        problems.append(f"exit code {code}")
    if got != expected:
        problems.append(f"search found {got}, enumeration found {expected}")
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s")
    _criterion(9, "search equals brute-force enumeration at n=4", problems)


def test_criterion_10_worker_count_determinism():
    problems = []
    code_1, out_1 = run_cli(["search", "--n", "6", "--jobs", "1", "--format", "json"])
    code_8, out_8 = run_cli(["search", "--n", "6", "--jobs", "8", "--format", "json"])
    if code_1 != 0 or code_8 != 0:
        problems.append(f"exit codes {code_1}, {code_8}")
    if out_1 != out_8:
        problems.append("outputs differ between 1 and 8 workers")
    _criterion(10, "byte-identical search output across worker counts", problems)
