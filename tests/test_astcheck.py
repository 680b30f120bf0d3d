import json
import random
from itertools import permutations

import pytest

import oracles
from circast import (
    SWAP12,
    SWAP23,
    SYM3,
    AxiomFailure,
    EmptyIndexSet,
    GroupSpec,
    IdentityViolation,
    IndexPartition,
    PairSet,
    TernaryRelation,
    TriplePartition,
    agl1,
    build_ast,
    derived_parameters,
    is_ast_regular,
    orbit_partition_on_triples,
    symmetrise,
    sym3_image,
    trivial_relations,
    verify_a1,
    verify_a2,
    verify_a3,
    verify_ast,
    verify_trivial,
)
from circast import cli


def coarse_ast(n):
    return build_ast(IndexPartition(n, (PairSet.universe(n),)))


def affine_ast(p):
    return build_ast(oracles.multiplicative_orbit_partition(p))


def distinct_triples(n):
    return set(permutations(range(n), 3))


# --- verify_trivial ------------------------------------------------------------


def test_verify_trivial_accepts_built_scheme():
    assert verify_trivial(coarse_ast(4))


def test_verify_trivial_rejects_merged_relations():
    n = 4
    r0, r1, r2, r3 = trivial_relations(n)
    merged = TernaryRelation(n, r1.triples | r2.triples)
    rest = TernaryRelation(n, frozenset(distinct_triples(n)))
    A = TriplePartition(n, (r0, merged, r3, rest))
    assert not verify_trivial(A)


def test_verify_trivial_rejects_two_block_partition():
    n = 4
    r0 = trivial_relations(n)[0]
    everything_else = TernaryRelation(
        n,
        frozenset(
            (x, y, z)
            for x in range(n)
            for y in range(n)
            for z in range(n)
            if not x == y == z
        ),
    )
    assert not verify_trivial(TriplePartition(n, (r0, everything_else)))


# --- A1 -------------------------------------------------------------------------


def test_verify_a1_coarse():
    assert verify_a1(coarse_ast(5)) == {4: 3}


def test_verify_a1_affine():
    assert verify_a1(affine_ast(5)) == {4: 1, 5: 1, 6: 1}


def test_verify_a1_fails_on_shift_orbits():
    # the twelve +1-shift orbits at n=5 cover only one pair difference each
    n = 5
    rels = list(trivial_relations(n))
    seen = set()
    for t in sorted(distinct_triples(n)):
        if t in seen:
            continue
        orbit = {tuple((c + x) % n for c in t) for x in range(n)}
        seen |= orbit
        rels.append(TernaryRelation(n, frozenset(orbit)))
    A = TriplePartition(n, tuple(rels))
    assert A.m == 15
    result = verify_a1(A)
    assert isinstance(result, AxiomFailure)
    assert result.axiom == "A1"


def _moved_triple(A, row, source, target):
    """A with the least triple of row (x, y, .) in relation `source` moved
    to relation `target`."""
    t = min(t for t in A.relations[source].triples if t[:2] == row)
    rels = list(A.relations)
    rels[source] = TernaryRelation(A.n, rels[source].triples - {t})
    rels[target] = TernaryRelation(A.n, rels[target].triples | {t})
    return TriplePartition(A.n, tuple(rels))


def test_verify_a1_names_the_least_failing_relation_at_its_first_row():
    """Relations 7 and 8 first differ in row (1, 2), relation 5 only in the
    later row (3, 4): the witness is relation 5 at (3, 4), not the first
    differing row's candidate."""
    A = orbit_partition_on_triples(agl1(7))
    assert len(A.sizes) == 9
    A = _moved_triple(_moved_triple(A, (1, 2), 8, 7), (3, 4), 5, 6)
    result = verify_a1(A)
    assert result == AxiomFailure(
        "A1", {"relation": 5, "pair_a": (0, 1), "count_a": 1, "pair_b": (3, 4), "count_b": 0}
    )
    assert result == oracles.reference_verify_a1(A)


def test_verify_a1_on_the_trivial_group_matches_the_reference():
    """Every nontrivial triple is its own relation: the shift moves the
    table and every row differs from row (0, 1)."""
    A = orbit_partition_on_triples(GroupSpec(8, ()))
    assert A.orbit == 1
    assert verify_a1(A) == oracles.reference_verify_a1(A)


# --- A3 -------------------------------------------------------------------------


def test_verify_a3_on_trivial_relations():
    A = coarse_ast(5)
    action = verify_a3(A)
    assert not isinstance(action, AxiomFailure)
    # R0 is fixed by everything; the swap of coordinates 2,3 fixes R1
    assert all(action[(0, g)] == 0 for g in SYM3)
    assert action[(1, SWAP23)] == 1
    # the swap of coordinates 1,2 exchanges 'last two equal' and 'outer equal'
    assert action[(1, SWAP12)] == 2
    # the single nontrivial relation is fixed by everything
    assert all(action[(4, g)] == 4 for g in SYM3)


def test_verify_a3_is_a_group_action():
    for A in (coarse_ast(4), affine_ast(5)):
        action = verify_a3(A)
        for rid in range(len(A.relations)):
            for g in SYM3:
                for h in SYM3:
                    assert action[(action[(rid, g)], h)] == action[(rid, oracles.sym3_mul(g, h))]


def test_verify_a3_failure_witness():
    # split the distinct triples by first coordinate: permuting coordinates
    # does not preserve the blocks
    n = 4
    rels = list(trivial_relations(n))
    for x in range(n):
        block = {t for t in distinct_triples(n) if t[0] == x}
        rels.append(TernaryRelation(n, frozenset(block)))
    result = verify_a3(TriplePartition(n, tuple(rels)))
    assert isinstance(result, AxiomFailure)
    assert result.axiom == "A3"


# --- A2 and the tensor ------------------------------------------------------------


def test_verify_a2_coarse_n5():
    tensor = verify_a2(coarse_ast(5))
    assert not isinstance(tensor, AxiomFailure)
    assert tensor.p[(4, 4, 4, 4)] == 2
    # nothing nontrivial ever meets the diagonal relation
    assert all(
        {i, j, k} <= {0, 1, 2, 3} for (i, j, k, l) in tensor.p if l == 0
    )


def test_verify_a2_affine_transpose_entry():
    A = affine_ast(5)
    tensor = verify_a2(A)
    action = verify_a3(A)
    for j in (4, 5, 6):
        jt = action[(j, SWAP23)]
        # completions of a 'last two equal' triple pair up J with its transpose
        assert tensor.p.get((1, j, jt, 1), 0) == 1
        for k in (4, 5, 6):
            if k != jt:
                assert (1, j, k, 1) not in tensor.p


def test_tensor_row_sums_are_n():
    for A in (coarse_ast(5), coarse_ast(6), affine_ast(5)):
        tensor = verify_a2(A)
        for l in range(len(A.relations)):
            assert sum(v for (i, j, k, ll), v in tensor.p.items() if ll == l) == A.n


def test_tensor_agrees_with_index_level_constants():
    # the two intersection-number computations are independent routes
    for P in (
        IndexPartition(5, (PairSet.universe(5),)),
        IndexPartition(6, (PairSet.universe(6),)),
        IndexPartition(7, (PairSet.universe(7),)),
        oracles.multiplicative_orbit_partition(5),
    ):
        report = is_ast_regular(P)
        A = build_ast(P)
        tensor = verify_a2(A)
        k = len(P.parts)
        for a in range(k):
            for b in range(k):
                for c in range(k):
                    for d in range(k):
                        assert tensor.p.get((a + 4, b + 4, c + 4, d + 4), 0) == report.bins[d].get((a, b, c), 0)


def test_verify_a2_witness_on_non_scheme():
    # fuse the affine parts' relations pairwise unevenly: A2 must fail
    n = 5
    A = affine_ast(5)
    rels = list(A.relations[:4])
    rels.append(TernaryRelation(n, A.relations[4].triples | A.relations[5].triples))
    rels.append(A.relations[6])
    fused = TriplePartition(n, tuple(rels))
    result = verify_a2(fused)
    assert isinstance(result, AxiomFailure)
    assert result.axiom == "A2"


# --- the full pipeline -------------------------------------------------------------


def test_verify_ast_accepts_built_schemes():
    for A in (coarse_ast(3), coarse_ast(6), affine_ast(5), affine_ast(7)):
        report = verify_ast(A)
        assert report.ok
        assert report.tensor is not None and report.a3_action is not None
        assert not report.failures


def test_verify_ast_rejects_random_partition():
    rng = random.Random(4242)
    n = 4
    rels = list(trivial_relations(n))
    triples = sorted(distinct_triples(n))
    rng.shuffle(triples)
    half = len(triples) // 2
    rels.append(TernaryRelation.from_triples(n, triples[:half]))
    rels.append(TernaryRelation.from_triples(n, triples[half:]))
    report = verify_ast(TriplePartition(n, tuple(rels)))
    assert not report.ok
    assert report.failures


def test_verify_ast_reports_a_triple_outside_the_triple_space():
    """Relation sizes that sum to n^3 with one triple outside Omega^3 never
    reach verify_ast: the constructor refuses them, not with a KeyError from
    the relation-id table."""
    n = 4
    outside = TernaryRelation(n, frozenset(distinct_triples(n) - {(0, 1, 2)} | {(0, 1, 9)}))
    with pytest.raises(ValueError, match="^relations do not partition the triple space$"):
        TriplePartition(n, trivial_relations(n) + (outside,))


def test_verify_ast_builds_the_relation_id_table_once(monkeypatch, tmp_path):
    """from_obj stores the table it reads, so the axiom checks need no
    triple_ids scan, and verify-ast, extract and params read a shift-closed
    scheme without ever building its relations as sets of triples."""
    calls, read = [], []
    triple_ids = TriplePartition.triple_ids.__func__
    monkeypatch.setattr(
        TriplePartition, "triple_ids", classmethod(lambda cls, *args: calls.append(args) or triple_ids(cls, *args))
    )
    from_table = TriplePartition.from_table.__func__
    monkeypatch.setattr(
        TriplePartition, "from_table", classmethod(lambda cls, *args: read.append(from_table(cls, *args)) or read[-1])
    )
    path = tmp_path / "ast.json"
    for A in (coarse_ast(5), affine_ast(7)):
        assert verify_ast(TriplePartition.from_obj(A.to_obj())).ok
        path.write_text(json.dumps(A.to_obj()))
        for command in ("verify-ast", "extract", "params"):
            read.clear()
            assert cli.main([command, "--in", str(path)]) == 0
            assert len(read) == 1 and "relations" not in vars(read[0])
    assert calls == []


def test_derived_parameters_and_identity_violation():
    report = verify_ast(coarse_ast(5))
    n1, n2 = derived_parameters(report.tensor)
    assert n1 == {4: 3} and n2 == {4: 3} and report.tensor.n3 == {4: 3}

    affine = verify_ast(affine_ast(5))
    n1, n2 = derived_parameters(affine.tensor)
    assert set(n1.values()) == {1} and set(n2.values()) == {1}

    corrupted = verify_ast(coarse_ast(5)).tensor
    corrupted.p[(4, 2, 4, 2)] += 1
    with pytest.raises(IdentityViolation):
        derived_parameters(corrupted)


def test_symmetry_classification():
    assert verify_ast(coarse_ast(5)).symmetric is True
    assert verify_ast(affine_ast(5)).symmetric is False
    assert verify_ast(coarse_ast(3)).symmetric is True


# --- symmetrise ---------------------------------------------------------------------


def test_symmetrise_fixes_closed_sets():
    X = PairSet.universe(6)
    assert symmetrise(X) == X


def test_symmetrise_single_pair_n5():
    # the six images of (1,2): computed from the index maps by hand
    closed = symmetrise(PairSet.from_pairs(5, [(1, 2)]))
    assert set(closed.pairs()) == {(1, 2), (4, 1), (2, 1), (4, 3), (3, 4), (1, 4)}
    for g in SYM3:
        assert sym3_image(closed, g) == closed


def test_symmetrise_idempotent_and_empty():
    rng = random.Random(8)
    for _ in range(15):
        n = rng.randrange(4, 10)
        I = PairSet(n, rng.getrandbits((n - 1) * (n - 2)) or 1)
        once = symmetrise(I)
        assert symmetrise(once) == once
    with pytest.raises(EmptyIndexSet):
        symmetrise(PairSet(5, 0))


# --- marginals against direct counting -----------------------------------------------


def test_marginals_match_direct_counts():
    for A in (coarse_ast(5), affine_ast(5), affine_ast(7)):
        report = verify_ast(A)
        direct = oracles.direct_marginals(A)
        for rid, (d1, d2, d3) in direct.items():
            assert report.tensor.n1[rid] == d1
            assert report.tensor.n2[rid] == d2
            assert report.tensor.n3[rid] == d3
