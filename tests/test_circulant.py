import random
from itertools import product

import pytest

import oracles
from circast import (
    CYCLE123,
    CYCLE132,
    IDENTITY,
    SWAP12,
    SWAP13,
    SWAP23,
    SYM3,
    EmptyIndexSet,
    IndexPartition,
    NonConstant,
    NotASTRegular,
    NotCirculant,
    NotCirculantAST,
    NotNontrivial,
    PairSet,
    TernaryRelation,
    TriplePartition,
    build_ast,
    circulant_structure_constant,
    expand,
    extract,
    extract_partition,
    is_ast_regular,
    is_circulant,
    pair_capacity,
    permute_triple,
    regularity_stats,
    sym3_image,
    trivial_relations,
)


def random_pairset(rng, n):
    mask = rng.getrandbits(pair_capacity(n))
    return PairSet(n, mask or 1)


# --- the Sym(3) machinery -----------------------------------------------------


def test_sym3_is_a_group_of_order_six():
    assert len(set(SYM3)) == 6
    for g in SYM3:
        assert oracles.sym3_mul(g, IDENTITY) == g == oracles.sym3_mul(IDENTITY, g)
        assert any(oracles.sym3_mul(g, h) == IDENTITY for h in SYM3)
        for h in SYM3:
            assert oracles.sym3_mul(g, h) in SYM3


def test_triple_action_matches_multiplication():
    t = (10, 20, 30)
    for g in SYM3:
        for h in SYM3:
            assert permute_triple(permute_triple(t, g), h) == permute_triple(t, oracles.sym3_mul(g, h))


def test_pair_image_examples():
    # transpose
    assert sym3_image(PairSet.from_pairs(6, [(2, 5)]), SWAP23) == PairSet.from_pairs(6, [(5, 2)])
    # identity
    I = PairSet.from_pairs(7, [(1, 2), (3, 5)])
    assert sym3_image(I, IDENTITY) == I
    # (-i, j-i) mod 5
    assert sym3_image(PairSet.from_pairs(5, [(1, 2)]), SWAP12) == PairSet.from_pairs(5, [(4, 1)])


def test_sym3_image_composition_group_law():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randrange(4, 11)
        I = random_pairset(rng, n)
        for g in SYM3:
            for h in SYM3:
                assert sym3_image(sym3_image(I, g), h) == sym3_image(I, oracles.sym3_mul(g, h))


def test_braid_relation_on_pairsets():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randrange(4, 13)
        I = random_pairset(rng, n)
        tau_T_tau = sym3_image(sym3_image(sym3_image(I, SWAP12), SWAP23), SWAP12)
        T_tau_T = sym3_image(sym3_image(sym3_image(I, SWAP23), SWAP12), SWAP23)
        assert tau_T_tau == T_tau_T == sym3_image(I, SWAP13)


def test_permutational_isomorphism():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randrange(4, 13)
        I = random_pairset(rng, n)
        R = expand(I)
        for g in SYM3:
            assert expand(sym3_image(I, g)) == oracles.permute_relation(R, g)


# --- expand / extract ----------------------------------------------------------


def test_expand_single_pair_n4():
    R = expand(PairSet.from_pairs(4, [(1, 2)]))
    assert R.sorted_triples() == ((0, 1, 2), (1, 2, 3), (2, 3, 0), (3, 0, 1))


def test_expand_full_universe_n3_is_all_distinct_triples():
    R = expand(PairSet.universe(3))
    assert R.triples == oracles.brute_expand(3, [(1, 2), (2, 1)])
    assert len(R) == 6


def test_expand_size_and_shift_closure():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randrange(3, 12)
        I = random_pairset(rng, n)
        R = expand(I)
        assert len(R) == n * len(I)
        assert is_circulant(R)
        assert R.triples == oracles.brute_expand(n, I.pairs())


def test_expand_empty_raises():
    with pytest.raises(EmptyIndexSet):
        expand(PairSet(5, 0))


def test_extract_round_trip():
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randrange(3, 21)
        I = random_pairset(rng, n)
        assert extract(expand(I)) == I


def test_expand_of_extract_is_identity_on_circulants():
    A = build_ast(oracles.multiplicative_orbit_partition(5))
    for rel in A.relations[4:]:
        assert expand(extract(rel)) == rel


def test_extract_rejects_trivial_and_noncirculant():
    r1 = trivial_relations(4)[1]
    with pytest.raises(NotNontrivial):
        extract(r1)
    lone = TernaryRelation.from_triples(4, [(0, 1, 2)])
    with pytest.raises(NotCirculant) as info:
        extract(lone)
    assert info.value.witness == (0, 1, 2)


def test_extract_witness_is_the_least_offending_triple():
    """Against a sorted scan: a repeated coordinate is reported before a
    missing shift, each by its least triple."""
    rng = random.Random(157)
    for _ in range(200):
        n = rng.randrange(3, 7)
        R = TernaryRelation(n, frozenset(
            (rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(1, 12))
        ))
        repeated = [t for t in sorted(R.triples) if len(set(t)) < 3]
        unshifted = [t for t in sorted(R.triples) if tuple((c + 1) % n for c in t) not in R]
        assert is_circulant(R) == (not unshifted)
        for error, offenders in ((NotNontrivial, repeated), (NotCirculant, unshifted)):
            if offenders:
                with pytest.raises(error) as info:
                    extract(R)
                assert info.value.witness == offenders[0]
                break
        else:
            assert expand(extract(R)) == R


def test_is_circulant():
    assert is_circulant(trivial_relations(5)[0])
    assert not is_circulant(TernaryRelation.from_triples(4, [(0, 1, 2)]))
    n = 3
    omega3 = TernaryRelation.from_triples(
        n, [(x, y, z) for x in range(n) for y in range(n) for z in range(n)]
    )
    assert is_circulant(omega3)


# --- regularity ----------------------------------------------------------------


def test_regularity_stats_examples():
    rep = regularity_stats(PairSet.universe(5))
    assert rep.ok and rep.n_I == 3

    rep = regularity_stats(PairSet.from_pairs(3, [(1, 2), (2, 1)]))
    assert rep.ok and rep.n_I == 1

    rep = regularity_stats(PairSet.from_pairs(4, [(1, 2), (2, 1)]))
    assert not rep.ok
    assert rep.failure_witness == ("row", 3, 0)

    assert not regularity_stats(PairSet(5, 0)).ok


def test_regular_set_size_identity():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randrange(3, 11)
        I = random_pairset(rng, n)
        rep = regularity_stats(I)
        if rep.ok:
            assert len(I) == (n - 1) * rep.n_I


# --- structure constants ---------------------------------------------------------


def test_structure_constant_coarse():
    X6 = PairSet.universe(6)
    assert circulant_structure_constant(X6, X6, X6, X6) == 3
    X3 = PairSet.universe(3)
    assert circulant_structure_constant(X3, X3, X3, X3) == 0


def test_structure_constant_matches_brute_force():
    rng = random.Random(31)
    seen_nonconstant = False
    for _ in range(60):
        n = rng.randrange(4, 7)
        sets = [random_pairset(rng, n) for _ in range(4)]
        got = circulant_structure_constant(*sets)
        expected = oracles.brute_structure_constant(n, *[s.pairs() for s in sets])
        if isinstance(got, NonConstant):
            seen_nonconstant = True
            assert expected[0] == "varies"
            assert (got.pair_a, got.count_a, got.pair_b, got.count_b) == expected[1:]
        else:
            assert expected == ("const", got)
    assert seen_nonconstant


def test_structure_constant_nonconstant_witness_at_n5():
    # located by exhaustive scan over singleton index sets
    I = PairSet.from_pairs(5, [(1, 2)])
    J = PairSet.from_pairs(5, [(1, 3)])
    K = PairSet.from_pairs(5, [(2, 1)])
    got = circulant_structure_constant(I, J, K, PairSet.universe(5))
    assert isinstance(got, NonConstant)
    assert (got.pair_a, got.count_a, got.pair_b, got.count_b) == ((1, 2), 0, (2, 3), 1)
    expected = oracles.brute_structure_constant(
        5, I.pairs(), J.pairs(), K.pairs(), PairSet.universe(5).pairs()
    )
    assert expected == ("varies", (1, 2), 0, (2, 3), 1)


def test_structure_constant_empty_l():
    X = PairSet.universe(5)
    with pytest.raises(EmptyIndexSet):
        circulant_structure_constant(X, X, X, PairSet(5, 0))


# --- AST-regularity, build, extract ----------------------------------------------


def test_coarse_partition_is_ast_regular():
    P = IndexPartition(5, (PairSet.universe(5),))
    rep = is_ast_regular(P)
    assert rep.ok
    assert rep.part_stats[0].n_I == 3
    assert rep.bins[0].get((0, 0, 0), 0) == 2
    assert all(rep.action[(0, g)] == 0 for g in SYM3)


def test_singletons_fail_condition_a():
    n = 4
    parts = tuple(PairSet.from_pairs(n, [p]) for p in PairSet.universe(n))
    rep = is_ast_regular(IndexPartition(n, parts))
    assert not rep.ok
    assert rep.failure["condition"] == "a"


def test_affine_partition_is_ast_regular():
    P = oracles.multiplicative_orbit_partition(5)
    assert [sorted(part.pairs()) for part in P.parts] == [
        [(1, 2), (2, 4), (3, 1), (4, 3)],
        [(1, 3), (2, 1), (3, 4), (4, 2)],
        [(1, 4), (2, 3), (3, 2), (4, 1)],
    ]
    rep = is_ast_regular(P)
    assert rep.ok
    assert [s.n_I for s in rep.part_stats] == [1, 1, 1]


def test_condition_b_failure_reported_before_c():
    # two halves of X(4) that are regular but not closed under the index maps
    a = PairSet.from_pairs(4, [(1, 2), (2, 3), (3, 1)])
    b = PairSet.from_pairs(4, [(1, 3), (2, 1), (3, 2)])
    rep = is_ast_regular(IndexPartition(4, (a, b)))
    assert not rep.ok
    assert rep.failure["condition"] == "b"
    assert rep.part_stats is not None and rep.bins is None


def test_part_action_composes_like_sym3():
    P = oracles.multiplicative_orbit_partition(5)
    rep = is_ast_regular(P)
    assert rep.ok
    for idx in range(len(P.parts)):
        for g in SYM3:
            for h in SYM3:
                assert rep.action[(rep.action[(idx, g)], h)] == rep.action[(idx, oracles.sym3_mul(g, h))]


def test_transpose_of_each_part_has_same_valency():
    for P in (
        IndexPartition(6, (PairSet.universe(6),)),
        oracles.multiplicative_orbit_partition(5),
        oracles.multiplicative_orbit_partition(7),
    ):
        rep = is_ast_regular(P)
        assert rep.ok
        parts = list(P.parts)
        for idx, part in enumerate(parts):
            image = sym3_image(part, SWAP23)
            target = parts.index(image)
            assert rep.part_stats[target].n_I == rep.part_stats[idx].n_I


def test_constants_bounded_by_n_minus_three():
    for P in (
        IndexPartition(7, (PairSet.universe(7),)),
        oracles.multiplicative_orbit_partition(7),
    ):
        rep = is_ast_regular(P)
        assert rep.ok
        k = len(P.parts)
        assert all(rep.bins[d].get((a, b, c), 0) <= P.n - 3 for a, b, c, d in product(range(k), repeat=4))


def test_build_ast_shapes():
    A = build_ast(IndexPartition(5, (PairSet.universe(5),)))
    assert [len(r) for r in A.relations] == [5, 20, 20, 20, 60]

    unique3 = build_ast(IndexPartition(3, (PairSet.universe(3),)))
    assert len(unique3.relations) == 5
    assert TriplePartition(3, unique3.relations) == unique3

    n = 4
    parts = tuple(PairSet.from_pairs(n, [p]) for p in PairSet.universe(n))
    with pytest.raises(NotASTRegular):
        build_ast(IndexPartition(n, parts))


def test_extract_partition_round_trip():
    for P in (
        IndexPartition(4, (PairSet.universe(4),)),
        IndexPartition(7, (PairSet.universe(7),)),
        oracles.multiplicative_orbit_partition(5),
    ):
        assert extract_partition(build_ast(P)) == P


def test_extract_partition_rejects_malformed():
    A = build_ast(oracles.multiplicative_orbit_partition(5))
    # swap a trivial relation for a nontrivial one
    broken = list(A.relations)
    broken[1], broken[4] = broken[4], broken[1]
    with pytest.raises(NotCirculantAST):
        extract_partition(TriplePartition(5, tuple(broken)))
    # a nontrivial relation trades a triple for one of the next relation's:
    # relations 4 and 5 overlap, so no scheme reaches extract_partition
    tampered = list(A.relations)
    triples = set(tampered[4].triples)
    a = min(triples)
    b = min(tampered[5].triples)
    triples.remove(a)
    triples.add(b)
    tampered[4] = TernaryRelation(5, frozenset(triples))
    with pytest.raises(ValueError, match="^relations do not partition the triple space$"):
        TriplePartition(5, tuple(tampered))
    # traded both ways, the two triples leave a partition that the shift
    # moves: extract_partition names the relation and the triple
    tampered[5] = TernaryRelation(5, tampered[5].triples - {b} | {a})
    with pytest.raises(NotCirculantAST, match="^relation 4 is not a nontrivial 3-circulant: shift of "):
        extract_partition(TriplePartition(5, tuple(tampered)))
