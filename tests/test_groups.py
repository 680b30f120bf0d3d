from itertools import permutations

import pytest

import oracles
from circast import (
    DomainTooSmall,
    GroupSpec,
    MalformedCycles,
    NotPrime,
    Permutation,
    TriplePartition,
    agl1,
    cycles_string,
    extract_partition,
    is_ast_regular,
    orbit_partition_on_triples,
    parse_cycles,
    shift_invariance_check,
    verify_ast,
)


def shift_group(n):
    return GroupSpec(n, (parse_cycles("(" + " ".join(map(str, range(n))) + ")", n),))


def symmetric_group(n):
    shift = parse_cycles("(" + " ".join(map(str, range(n))) + ")", n)
    return GroupSpec(n, (shift, parse_cycles("(0 1)", n)))


def dihedral_group(n):
    shift = parse_cycles("(" + " ".join(map(str, range(n))) + ")", n)
    negate = Permutation(tuple((n - x) % n for x in range(n)))
    return GroupSpec(n, (shift, negate))


# --- parsing --------------------------------------------------------------------


def test_parse_cycles_basic():
    p = parse_cycles("(0 1 2)", 3)
    assert p.images == (1, 2, 0)
    assert parse_cycles("", 5).images == (0, 1, 2, 3, 4)
    assert parse_cycles("(0 1)(2 3)", 4).images == (1, 0, 3, 2)


def test_parse_cycles_errors():
    with pytest.raises(MalformedCycles):
        parse_cycles("(0 1)(1 2)", 4)  # repeated point
    with pytest.raises(MalformedCycles):
        parse_cycles("(0 9)", 3)  # out of range
    with pytest.raises(MalformedCycles):
        parse_cycles("nonsense", 4)
    with pytest.raises(MalformedCycles):
        parse_cycles("(0 x)", 4)


def test_cycles_string_round_trip():
    for text, n in (("(0 1 2 3 4)", 5), ("(1 2 4 3)", 5), ("(0 1)(2 3)", 4), ("", 4)):
        p = parse_cycles(text, n)
        assert parse_cycles(cycles_string(p), n) == p


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_group_spec_json_round_trip():
    G = agl1(5)
    assert GroupSpec.from_obj(G.to_obj()) == G
    assert G.to_obj() == {"n": 5, "generators": ["(0 1 2 3 4)", "(1 2 4 3)"]}


# --- orbit partitions --------------------------------------------------------------


def test_symmetric_group_has_one_orbit():
    A = orbit_partition_on_triples(symmetric_group(5))
    assert [len(rel) for rel in A.relations[4:]] == [60]
    assert TriplePartition(5, A.relations) == A


def test_shift_group_orbits_fail_a1():
    A = orbit_partition_on_triples(shift_group(5))
    assert len(A.relations) == 4 + 12
    assert all(len(rel) == 5 for rel in A.relations[4:])
    assert not verify_ast(A).ok


def test_affine_group_orbits_form_circulant_scheme():
    A = orbit_partition_on_triples(agl1(5))
    assert [len(rel) for rel in A.relations[4:]] == [20, 20, 20]
    assert shift_invariance_check(A)
    assert verify_ast(A).ok
    assert extract_partition(A) == oracles.multiplicative_orbit_partition(5)


def test_orbits_cover_distinct_triples_exactly_once():
    for G in (shift_group(4), dihedral_group(5), agl1(7), symmetric_group(4)):
        A = orbit_partition_on_triples(G)
        assert TriplePartition(G.n, A.relations) == A
        covered = set()
        for rel in A.relations[4:]:
            assert covered.isdisjoint(rel.triples)
            covered |= rel.triples
        assert covered == set(permutations(range(G.n), 3))


# --- agl1 -----------------------------------------------------------------------


def test_agl1_generators():
    assert agl1(5).to_obj()["generators"] == ["(0 1 2 3 4)", "(1 2 4 3)"]
    # least primitive root mod 7 is 3
    mult = agl1(7).generators[1]
    assert mult.images == tuple(3 * x % 7 for x in range(7))


def test_agl1_rejects_non_primes_and_tiny_primes():
    with pytest.raises(NotPrime):
        agl1(4)
    with pytest.raises(NotPrime):
        agl1(9)
    with pytest.raises(DomainTooSmall):
        agl1(2)


# --- predicates -------------------------------------------------------------------


def test_is_two_transitive():
    assert oracles.is_two_transitive(agl1(5))
    assert not oracles.is_two_transitive(shift_group(5))
    assert oracles.is_two_transitive(symmetric_group(4))
    assert not oracles.is_two_transitive(dihedral_group(6))


def test_shift_invariance():
    assert shift_invariance_check(orbit_partition_on_triples(agl1(5)))
    assert shift_invariance_check(orbit_partition_on_triples(symmetric_group(4)))
    # a group without the shift: blocks need not be shift-closed
    G = GroupSpec(4, (parse_cycles("(0 1)", 4), parse_cycles("(1 2)", 4)))
    assert not shift_invariance_check(orbit_partition_on_triples(G))


def test_shift_in_group_implies_circulant_orbits():
    for G in (shift_group(6), dihedral_group(7), agl1(7), symmetric_group(5)):
        assert shift_invariance_check(orbit_partition_on_triples(G))


def test_two_transitive_orbit_schemes_verify():
    groups = [symmetric_group(n) for n in range(4, 9)] + [agl1(5), agl1(7)]
    for G in groups:
        assert oracles.is_two_transitive(G)
        assert verify_ast(orbit_partition_on_triples(G)).ok


def test_circulant_orbit_schemes_extract_to_regular_partitions():
    groups = [symmetric_group(n) for n in range(3, 9)] + [agl1(3), agl1(5), agl1(7)]
    for G in groups:
        A = orbit_partition_on_triples(G)
        if not (shift_invariance_check(A) and verify_ast(A).ok):
            continue
        assert is_ast_regular(extract_partition(A)).ok
