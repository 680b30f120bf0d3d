"""Known answers that complete searches must find, built through the public API.

The AGL(1,p) orbit partition is the 2-transitive example of Mesner and
Bhattacharya (1990). A cyclic Steiner triple system on Z_n has, as its index
set, the pairs (i, j) with {0, i, j} a block; every index map fixes that set,
and with its complement it is an AST-regular two-part partition (cyclic STS
exist exactly for n = 1, 3 mod 6 with n != 9, Peltesohn 1939). Conversely,
a Sym(3)-fixed index set of valency 1 is a union of Sym(3) pair orbits that
holds each row once, so listing those by exact cover lists the cyclic STS.
The other counts below pin the complete `--symmetric` searches at n = 10 and
11, and the complete `--all-thin` searches at composite n = 8..14, which find
nothing at the root.
"""

import pytest

from circast import (
    SYM3,
    IndexPartition,
    PairSet,
    SearchConfig,
    agl1,
    build_ast,
    extract_partition,
    is_ast_regular,
    orbit_partition_on_triples,
    search_ast_regular,
    sym3_image,
    verify_ast,
)


def _one_part(n):
    return IndexPartition(n, (PairSet.universe(n),))


def _cyclic_sts_pair(n, base_block):
    """The index set of the cyclic STS developed from one base block, with
    its complement in X(n)."""
    blocks = [{(b - s) % n for b in base_block} for s in base_block]
    I = PairSet.from_pairs(
        n, [(i, j) for block in blocks for i in block for j in block if 0 not in (i, j) and i != j]
    )
    return IndexPartition(n, (I, PairSet.universe(n) - I))


def _complete_search(n, **flags):
    result = search_ast_regular(SearchConfig(n, **flags))
    assert result.complete
    for hit in result.hits:
        assert is_ast_regular(hit.partition).ok
        assert verify_ast(build_ast(hit.partition)).ok
    return result


@pytest.mark.parametrize("n, nodes", [(11, 5), (13, 84)])
def test_all_thin_finds_exactly_agl1(n, nodes):
    result = _complete_search(n, require_all_thin=True)
    assert result.nodes == nodes
    agl = extract_partition(orbit_partition_on_triples(agl1(n)))
    assert [hit.partition for hit in result.hits] == [agl]


@pytest.mark.parametrize("n", [8, 9, 10, 12, 14])
def test_all_thin_finds_nothing_at_composite_n(n):
    result = _complete_search(n, require_all_thin=True)
    assert (result.hits, result.nodes) == ((), 0)


def test_symmetric_n7_finds_both_cyclic_sts_pairs():
    result = _complete_search(7, require_symmetric=True)
    sts = {_cyclic_sts_pair(7, (0, 1, 3)), _cyclic_sts_pair(7, (0, 1, 5))}
    assert len(sts) == 2
    assert all(sorted(len(part) for part in P.parts) == [6, 24] for P in sts)
    assert {hit.partition for hit in result.hits} == sts | {_one_part(7)}


@pytest.mark.parametrize(
    "n, nodes, valencies",
    [(10, 13, [[8]]), (11, 10, [[9], [6, 3], [6, 3]])],
)
def test_symmetric_search_is_complete(n, nodes, valencies):
    result = _complete_search(n, require_symmetric=True)
    assert result.nodes == nodes
    assert [[s.n_I for s in hit.report.part_stats] for hit in result.hits] == valencies
    assert result.hits[0].partition == _one_part(n)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_agl1_partition_passes_both_checks(p):
    P = extract_partition(orbit_partition_on_triples(agl1(p)))
    assert is_ast_regular(P).ok
    assert verify_ast(build_ast(P)).ok


def _fixed_valency_one_sets(n):
    """Every Sym(3)-fixed index set of valency 1 in X(n): the unions of Sym(3)
    pair orbits that hold each row exactly once, by exact cover."""
    orbits = {}
    for pair in PairSet.universe(n):
        single = PairSet.from_pairs(n, [pair])
        orbit = single
        for g in SYM3:
            orbit = orbit | sym3_image(single, g)
        rows = [i for i, _ in orbit]
        if len(set(rows)) == len(rows):
            orbits[orbit.mask] = (orbit, set(rows))
    found = []

    def cover(chosen, rows_left):
        if not rows_left:
            found.append(PairSet(n, sum(orbit.mask for orbit in chosen)))
            return
        row = min(rows_left)
        for orbit, rows in orbits.values():
            if row in rows and rows <= rows_left:
                cover(chosen + [orbit], rows_left - rows)

    cover([], set(range(1, n)))
    return found


@pytest.mark.parametrize("n, count", [(7, 2), (9, 0), (13, 4), (15, 4)])
def test_fixed_valency_one_sets_are_the_cyclic_sts(n, count):
    sets = _fixed_valency_one_sets(n)
    assert len(sets) == len(set(sets)) == count
    partitions = {IndexPartition(n, (I, PairSet.universe(n) - I)) for I in sets}
    for P in partitions:
        assert is_ast_regular(P).ok
        assert verify_ast(build_ast(P)).ok
    if n == 7:
        assert partitions == {_cyclic_sts_pair(7, (0, 1, 3)), _cyclic_sts_pair(7, (0, 1, 5))}
