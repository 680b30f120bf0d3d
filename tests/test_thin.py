import random

import pytest

import oracles
from circast import (
    NotRegular,
    NotThin,
    PairSet,
    SWAP12,
    TernaryRelation,
    expand,
    matching_decomposition,
    regularity_stats,
    sym3_image,
    thin_profile,
    thin_relation,
    thin_witness,
    trivial_relations,
)
from circast.thin import _certify

EXPECTED_TRIVIAL_PROFILES = {1: {"12", "13"}, 2: {"12", "23"}, 3: {"13", "23"}}


def test_trivial_relation_profiles():
    for n in range(3, 11):
        rels = trivial_relations(n)
        assert thin_profile(rels[0]) == frozenset()
        for rid, expected in EXPECTED_TRIVIAL_PROFILES.items():
            assert thin_profile(rels[rid]) == frozenset(expected), (n, rid)


def test_thin_relations_have_n_times_n_minus_1_triples():
    # anything thin has exactly n(n-1) triples; wrong-size inputs never qualify
    small = TernaryRelation.from_triples(5, [(0, 1, 2)])
    assert thin_profile(small) == frozenset()
    n = 5
    r1 = trivial_relations(n)[1]
    assert len(r1) == n * (n - 1) and thin_profile(r1)


def test_thin_profile_matches_a_projection_scan():
    """Relations of n(n-1) triples, some with diagonal or repeated
    projections: each label holds iff its projection is the off-diagonal set."""
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randrange(3, 6)
        pool = [(x, y, z) for x in range(n) for y in range(n) for z in range(n)]
        off = [t for t in pool if t[0] != t[1]]
        R = TernaryRelation(n, frozenset(rng.sample(rng.choice((pool, off)), n * (n - 1))))
        off_diagonal = {(u, v) for u in range(n) for v in range(n) if u != v}
        expected = {
            ab for ab, (a, b) in (("12", (0, 1)), ("13", (0, 2)), ("23", (1, 2)))
            if sorted((t[a], t[b]) for t in R.triples) == sorted(off_diagonal)
        }
        assert thin_profile(R) == expected
        for ab in ("12", "13", "23"):
            if ab not in expected:
                with pytest.raises(NotThin):
                    thin_witness(R, ab)


def test_affine_parts_are_thin_for_all_three_pairs():
    P = oracles.multiplicative_orbit_partition(5)
    for part in P.parts:
        assert thin_profile(expand(part)) == frozenset({"12", "13", "23"})


def test_thin_witness_r2_is_constant_zero():
    r2 = trivial_relations(5)[2]
    w = thin_witness(r2, "12")
    assert w.rho == {1: 0, 2: 0, 3: 0, 4: 0}
    assert not w.derangement


def test_thin_witness_affine_part():
    part = PairSet.from_pairs(5, [(1, 2), (2, 4), (4, 3), (3, 1)])
    w = thin_witness(expand(part), "12")
    assert w.rho == {1: 2, 2: 4, 3: 1, 4: 3}
    assert w.derangement


def test_thin_witness_not_thin():
    r1 = trivial_relations(5)[1]
    with pytest.raises(NotThin):
        thin_witness(r1, "23")
    with pytest.raises(ValueError):
        thin_witness(r1, "21")


def test_thin_witness_rejects_non_circulant():
    # bijective onto the off-diagonal pairs, but not shift-closed
    n = 4
    R = TernaryRelation.from_triples(
        n, [(x, y, 0) for x in range(n) for y in range(n) if x != y]
    )
    assert "12" in thin_profile(R)
    with pytest.raises(NotThin, match="^relation is 12-thin but not shift-closed$"):
        thin_witness(R, "12")


def test_thin_witness_round_trip():
    n = 6
    rels = trivial_relations(n)
    cases = [(rels[rid], ab) for rid, profile in EXPECTED_TRIVIAL_PROFILES.items() for ab in profile]
    part = matching_decomposition(PairSet.universe(n))[0]
    cases += [(expand(part), ab) for ab in thin_profile(expand(part))]
    for R, ab in cases:
        w = thin_witness(R, ab)
        assert thin_relation(n, ab, w.rho) == R


def test_one_regular_with_regular_transpose_image_is_triply_thin():
    # valency-1 sets whose swap-of-first-two image is also valency 1;
    # such sets only exist for odd n (their differences must be all distinct)
    rng = random.Random(55)
    checked = 0
    for _ in range(600):
        n = rng.choice((5, 7, 9))
        values = list(range(1, n))
        rng.shuffle(values)
        pairs = [(i, v) for i, v in zip(range(1, n), values) if i != v]
        if len(pairs) != n - 1:
            continue  # not a derangement
        I = PairSet.from_pairs(n, pairs)
        image = sym3_image(I, SWAP12)
        if not regularity_stats(image).ok:
            continue
        checked += 1
        assert thin_profile(expand(I)) == frozenset({"12", "13", "23"})
    assert checked >= 10


def test_matching_decomposition_valency_one_is_identity():
    I = PairSet.from_pairs(4, [(1, 2), (2, 3), (3, 1)])
    assert matching_decomposition(I) == (I,)


def test_matching_decomposition_x4():
    dec = matching_decomposition(PairSet.universe(4))
    assert [sorted(p.pairs()) for p in dec] == [
        [(1, 2), (2, 3), (3, 1)],
        [(1, 3), (2, 1), (3, 2)],
    ]


def test_matching_decomposition_not_regular():
    with pytest.raises(NotRegular):
        matching_decomposition(PairSet.from_pairs(4, [(1, 2), (2, 1)]))


M1 = PairSet.from_pairs(4, [(1, 2), (2, 3), (3, 1)])
ROW1 = PairSet.from_pairs(4, [(1, 2), (1, 3)])


@pytest.mark.parametrize(
    "parts, message",
    [
        ([M1, M1], "overlapping parts"),
        ([ROW1, PairSet.universe(4) - ROW1], "non-matching part"),
        ([M1], "does not cover"),
    ],
    ids=("overlap", "non_matching", "no_cover"),
)
def test_certificate_refuses(parts, message):
    """The certificate refuses overlapping parts, a disjoint cover of X(4)
    with a non-matching part, and a partial cover; the non-matching part is
    caught without a thinness check."""
    with pytest.raises(RuntimeError, match=message):
        _certify(PairSet.universe(4), parts)


def test_matching_decomposition_postconditions():
    rng = random.Random(77)
    cases = [PairSet.universe(n) for n in range(4, 9)]
    # a non-coarse case: the complement of one matching inside X(5)
    X5 = PairSet.universe(5)
    first = matching_decomposition(X5)[0]
    cases.append(X5 - first)
    for I in cases:
        valency = regularity_stats(I).n_I
        dec = matching_decomposition(I)
        assert len(dec) == valency
        union = PairSet(I.n, 0)
        for part in dec:
            assert not union.mask & part.mask
            union = union | part
            stats = regularity_stats(part)
            assert stats.ok and stats.n_I == 1
            R = expand(part)
            assert thin_profile(R) >= {"12", "13"}
            assert all(len({x, y, z}) == 3 for (x, y, z) in R.triples)
        assert union == I
