"""Known answers that complete searches must find, built through the public API.

The AGL(1,p) orbit partition is the 2-transitive example of Mesner and
Bhattacharya (1990). A cyclic Steiner triple system on Z_n has, as its index
set, the pairs (i, j) with {0, i, j} a block; every index map fixes that set,
and with its complement it is an AST-regular two-part partition (cyclic STS
exist exactly for n = 1, 3 mod 6 with n != 9, Peltesohn 1939). The other
counts below pin the complete `--symmetric` searches at n = 10 and 11.
"""

import pytest

from circast import (
    IndexPartition,
    PairSet,
    SearchConfig,
    agl1,
    build_ast,
    extract_partition,
    is_ast_regular,
    orbit_partition_on_triples,
    search_ast_regular,
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


def test_all_thin_n11_finds_exactly_agl1():
    result = _complete_search(11, require_all_thin=True)
    assert result.nodes == 5
    agl = extract_partition(orbit_partition_on_triples(agl1(11)))
    assert [hit.partition for hit in result.hits] == [agl]


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
