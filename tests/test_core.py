import dataclasses
import json
import random
import tracemalloc
from itertools import permutations

import pytest

import circast
from circast import (
    DomainTooSmall,
    IndexPartition,
    PairSet,
    TernaryRelation,
    TriplePartition,
    make_domain,
    pair_capacity,
    trivial_relations,
)
from circast.circulant import expand_partition
from circast.core import in_pair_universe, pair_rank, pair_unrank


def test_make_domain():
    assert make_domain(3) == 3
    assert make_domain(10) == 10
    with pytest.raises(DomainTooSmall):
        make_domain(2)


def test_trivial_relations_take_n_and_the_uncalled_names_are_gone():
    assert [len(rel) for rel in trivial_relations(5)] == [5, 20, 20, 20]
    for name in ("Domain", "sym3_mul", "sym3_inverse", "permute_relation", "is_two_transitive"):
        assert not hasattr(circast, name), name


def test_triple_partition_needs_a_base_set():
    for n in (0, 2):
        with pytest.raises(DomainTooSmall, match=f"base set needs n >= 3, got n={n}"):
            TriplePartition(n, ())
        with pytest.raises(DomainTooSmall, match=f"base set needs n >= 3, got n={n}"):
            TernaryRelation.from_triples(n, [(0, 0, 0)])


def test_pair_universe_small():
    assert list(PairSet.universe(3)) == [(1, 2), (2, 1)]
    assert list(PairSet.universe(4)) == [
        (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2),
    ]
    assert len(PairSet.universe(10)) == 72


def test_pair_universe_checks_n_before_building_its_mask():
    """At n = -3000 a mask of (n-1)(n-2) bits would take 1.1 MB."""
    tracemalloc.start()
    try:
        with pytest.raises(DomainTooSmall, match="^base set needs n >= 3, got n=-3000$"):
            PairSet.universe(-3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_pair_universe_size_formula():
    for n in range(3, 13):
        X = PairSet.universe(n)
        assert len(X) == (n - 1) * (n - 2) == pair_capacity(n)


def test_rank_unrank_round_trip():
    for n in (3, 4, 7, 11):
        for rank in range(pair_capacity(n)):
            pair = pair_unrank(n, rank)
            assert in_pair_universe(n, pair)
            assert pair_rank(n, pair) == rank


def test_pairset_validation():
    with pytest.raises(ValueError):
        PairSet.from_pairs(5, [(0, 1)])
    with pytest.raises(ValueError):
        PairSet.from_pairs(5, [(2, 2)])
    with pytest.raises(ValueError):
        PairSet.from_pairs(5, [(1, 5)])
    with pytest.raises(ValueError):
        PairSet(4, 1 << pair_capacity(4))


def test_pairset_members_have_int_coordinates():
    """A pair of floats, strings or bools is no member, as from_pairs takes
    none of them, and asking does not raise."""
    X = PairSet.universe(5)
    assert (1, 2) in X
    for pair in ((1, 2.5), (1.0, 2.0), ("1", 2), (True, 2)):
        assert pair not in X, pair


def test_relation_members_are_what_from_triples_takes():
    """A triple is a member only if from_triples would take it: a float, a
    bool or a list is no member, and asking does not raise."""
    R0 = trivial_relations(4)[0]
    assert (0, 0, 0) in R0 and (3, 3, 3) in R0
    for t in ((0.0, 0, 0), (True, True, True), [0, 0, 0], (0, 0), (0, 0, 0, 0), (4, 4, 4), (-1, -1, -1), "000", None):
        assert t not in R0, t
        if isinstance(t, tuple):
            with pytest.raises(ValueError, match="is not a triple over 0..3"):
                TernaryRelation.from_triples(4, [t])
    assert TernaryRelation.from_triples(4, [[0, 0, 0], (1, 1, 1)]).triples == {(0, 0, 0), (1, 1, 1)}
    for t in (5, "012", {0: 1, 1: 1, 2: 1}, None):
        with pytest.raises(ValueError, match="is not a triple over 0..3"):
            TernaryRelation.from_triples(4, [t])


def test_pairset_set_operations():
    a = PairSet.from_pairs(5, [(1, 2), (2, 1)])
    b = PairSet.from_pairs(5, [(2, 1), (3, 4)])
    assert list(a | b) == [(1, 2), (2, 1), (3, 4)]
    assert list(a - b) == [(1, 2)]
    assert (2, 1) in a and (1, 3) not in a
    with pytest.raises(ValueError):
        a | PairSet.from_pairs(6, [(1, 2)])


def test_pairset_canonical_iteration_sorted():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(3, 12)
        mask = rng.getrandbits(pair_capacity(n))
        I = PairSet(n, mask)
        assert list(I) == sorted(I.pairs())


def test_trivial_relations_sizes_and_contents():
    r0, r1, r2, r3 = trivial_relations(3)
    assert len(r0) == 3 and len(r1) == 6
    assert (0, 4, 0) in trivial_relations(5)[2]
    # together: exactly the triples with a repeated coordinate
    for n in (3, 4, 6):
        rels = trivial_relations(n)
        union = set()
        total = 0
        for rel in rels:
            total += len(rel)
            union |= rel.triples
        assert total == len(union)  # pairwise disjoint
        repeated = {
            (x, y, z)
            for x in range(n)
            for y in range(n)
            for z in range(n)
            if x == y or y == z or x == z
        }
        assert union == repeated
        assert len(union) + n * (n - 1) * (n - 2) == n ** 3


def test_triple_partition_of_omega3_at_n3():
    n = 3
    rels = list(trivial_relations(n))
    distinct = {
        (x, y, z)
        for x in range(n)
        for y in range(n)
        for z in range(n)
        if len({x, y, z}) == 3
    }
    rels.append(TernaryRelation(n, frozenset(distinct)))
    part = TriplePartition(n, tuple(rels))
    assert part.table == TriplePartition.triple_ids(n, rels)
    assert [len(r) for r in part.relations] == [3, 6, 6, 6, 6]
    assert part.m == 4


def test_triple_partition_validate_rejects_bad_input():
    """The constructor refuses what is not a partition of Omega^3."""
    n = 3
    rels = list(trivial_relations(n))
    # missing the distinct triples: not a cover
    with pytest.raises(ValueError, match="^relations do not partition the triple space$"):
        TriplePartition(n, tuple(rels))
    # overlapping relations
    with pytest.raises(ValueError, match="^relations do not partition the triple space$"):
        TriplePartition(n, tuple(rels + [rels[0]]))
    # an empty relation
    distinct = TernaryRelation(n, frozenset(permutations(range(n), 3)))
    with pytest.raises(ValueError, match="^relation 4 is empty$"):
        TriplePartition(n, tuple(rels) + (TernaryRelation(n, frozenset()), distinct))
    # the right sizes, but a triple outside Omega^3 stands in for (0, 1, 2)
    n = 4
    distinct = set(permutations(range(n), 3))
    outside = TernaryRelation(n, frozenset(distinct - {(0, 1, 2)} | {(0, 1, 9)}))
    with pytest.raises(ValueError, match="^relations do not partition the triple space$"):
        TriplePartition(n, trivial_relations(n) + (outside,))


def test_triple_partition_checks_sizes_before_building_the_table(monkeypatch):
    """A non-partition is refused by its relation sizes before anything of
    size n^3 is built: at n = 200 a table of ids alone would take 64 MB."""
    monkeypatch.setattr(TriplePartition, "triple_ids", classmethod(lambda cls, *args: pytest.fail("table built")))
    small = TernaryRelation(200, frozenset({(0, 0, 0)}))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^relations do not partition the triple space$"):
            TriplePartition(200, (small,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_reading_a_scheme_adds_little_to_its_decoded_json():
    """from_obj writes each relation's ids straight into the table and keys
    no dict or set by triple: reading the n = 40 one-part scheme (64,000
    triples, 5.9 MB of decoded JSON) adds at most 5 MB of traced memory."""
    n = 40
    obj = json.loads(json.dumps(expand_partition(IndexPartition(n, (PairSet.universe(n),))).to_obj()))
    tracemalloc.start()
    try:
        A = TriplePartition.from_obj(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.sizes == [n] + [n * (n - 1)] * 3 + [n * (n - 1) * (n - 2)]
    assert peak < 5 * 2**20


def test_triple_partition_from_obj_checks_ids():
    n = 3
    rels = list(trivial_relations(n))
    distinct = TernaryRelation.from_triples(
        n, [t for t in __import__("itertools").permutations(range(n), 3)]
    )
    obj = TriplePartition(n, tuple(rels + [distinct])).to_obj()
    obj["relations"][0]["id"] = 4
    with pytest.raises(ValueError):
        TriplePartition.from_obj(obj)


def test_cached_orbit_leaves_equality_and_hash_alone():
    """A partition stores its table and sizes; the shift orbit and the
    relations are cached views that neither equality nor hashing reads."""
    n = 4
    rels = trivial_relations(n) + (TernaryRelation(n, frozenset(permutations(range(n), 3))),)
    viewed, fresh = TriplePartition(n, rels), TriplePartition(n, rels)
    assert set(vars(fresh)) == {"n", "table", "sizes"}
    assert viewed.orbit == n and viewed.relations == rels
    assert set(vars(viewed)) == {"n", "table", "sizes", "orbit", "relations"}
    assert viewed == fresh and hash(viewed) == hash(fresh)
    assert viewed.table == fresh.table == TriplePartition.triple_ids(n, rels)
    with pytest.raises(dataclasses.FrozenInstanceError):
        fresh.table = []


def test_index_partition_canonicalises_and_validates():
    n = 4
    a = PairSet.from_pairs(n, [(1, 3), (2, 1), (3, 2)])
    b = PairSet.from_pairs(n, [(1, 2), (2, 3), (3, 1)])
    P = IndexPartition(n, (a, b))
    assert P.parts[0] == b  # sorted by least pair
    with pytest.raises(ValueError):
        IndexPartition(n, (a,))  # does not cover X
    with pytest.raises(ValueError):
        IndexPartition(n, (a, b, b))  # overlap
    with pytest.raises(ValueError):
        IndexPartition(n, (a, b, PairSet(n, 0)))  # empty part


def test_serialization_round_trips():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randrange(3, 9)
        I = PairSet(n, rng.getrandbits(pair_capacity(n)))
        assert PairSet.from_obj(I.to_obj()) == I
        triples = {
            (rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(6)
        }
        R = TernaryRelation.from_triples(n, triples)
        assert TernaryRelation.from_obj(R.to_obj()) == R
    # partition round trips
    n = 5
    rels = list(trivial_relations(n))
    distinct = {
        t for t in __import__("itertools").permutations(range(n), 3)
    }
    rels.append(TernaryRelation(n, frozenset(distinct)))
    A = TriplePartition(n, tuple(rels))
    assert TriplePartition.from_obj(A.to_obj()) == A
    P = IndexPartition(n, (PairSet.universe(n),))
    assert IndexPartition.from_obj(P.to_obj()) == P
