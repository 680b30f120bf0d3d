"""Independent reference computations used to freeze expected test values.

Everything here works on plain Python sets of tuples, deliberately avoiding
the bitmask representation and the code paths under test.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product

from sympy.utilities.iterables import multiset_partitions

from circast import (
    SYM3,
    SYM3_NAME,
    AxiomFailure,
    IndexPartition,
    PairSet,
    StructureTensor,
    TernaryRelation,
    is_ast_regular,
    make_domain,
    pair_image,
    permute_relation,
)
from circast.core import json_typed, strict_int


def brute_structure_constant(n, I, J, K, L):
    """Count, for each (y,z) in L, the w outside {0,y,z} with (y-w,z-w) in I,
    (w,z) in J, (y,w) in K. Returns ("const", p) or ("varies", a, ca, b, cb)."""
    I, J, K = set(I), set(J), set(K)
    first_pair = None
    first = 0
    for (y, z) in sorted(L):
        c = sum(
            1
            for w in range(1, n)
            if w != y
            and w != z
            and ((y - w) % n, (z - w) % n) in I
            and (w, z) in J
            and (y, w) in K
        )
        if first_pair is None:
            first_pair, first = (y, z), c
        elif c != first:
            return ("varies", first_pair, first, (y, z), c)
    return ("const", first)


def brute_bin_counts(n, parts, pair):
    """The bin counts of `pair` over the labelled pair sets `parts`: over
    every w in 0..n-1, the labels of (y-w, z-w), (w, z) and (y, w), with -1
    for a pair in no part."""
    label = {p: idx for idx, part in enumerate(parts) for p in part}
    y, z = pair
    return Counter(
        (label.get(((y - w) % n, (z - w) % n), -1), label.get((w, z), -1), label.get((y, w), -1))
        for w in range(n)
    )


def brute_ast_regular(n, parts):
    """The three AST-regularity conditions on a list of pair sets, in order:
    ("a", part), ("b", part), ("c", quadruple, varies-tuple) for the first
    failure, else ("ok", constants), with the k^4 quadruples in (a,b,c,d)
    order and one brute_structure_constant call each."""
    parts = [set(part) for part in parts]
    for idx, part in enumerate(parts):
        rows = [sum(1 for (i, _) in part if i == x) for x in range(1, n)]
        cols = [sum(1 for (_, j) in part if j == x) for x in range(1, n)]
        if len(set(rows + cols)) != 1 or rows[0] == 0:
            return ("a", idx)
    maps = (
        lambda i, j: (i, j),
        lambda i, j: (-i % n, (j - i) % n),
        lambda i, j: ((i - j) % n, -j % n),
        lambda i, j: (j, i),
        lambda i, j: (-j % n, (i - j) % n),
        lambda i, j: ((j - i) % n, -i % n),
    )
    for idx, part in enumerate(parts):
        if any({f(i, j) for (i, j) in part} not in parts for f in maps):
            return ("b", idx)
    k = len(parts)
    constants = {}
    for a in range(k):
        for b in range(k):
            for c in range(k):
                for d in range(k):
                    res = brute_structure_constant(n, parts[a], parts[b], parts[c], parts[d])
                    if res[0] == "varies":
                        return ("c", (a, b, c, d), res)
                    constants[(a, b, c, d)] = res[1]
    return ("ok", constants)


def brute_expand(n, I):
    """Shift orbit of the fibre {(0,i,j)}, as a plain set of triples."""
    return {((x) % n, (i + x) % n, (j + x) % n) for (i, j) in I for x in range(n)}


def all_index_partitions(n):
    """Every set partition of the pair universe, as IndexPartitions."""
    pairs = sorted(PairSet.universe(n).pairs())
    for blocks in multiset_partitions(pairs):
        yield IndexPartition(n, tuple(PairSet.from_pairs(n, block) for block in blocks))


def naive_ast_regular_partitions(n):
    """Brute-force ground truth for the search: filter all partitions."""
    return [P for P in all_index_partitions(n) if is_ast_regular(P).ok]


def regular_subsets(n, r, allowed, forced=None):
    """The r-regular subsets of the pair set `allowed` through the pair
    `forced` (if given), as sorted pair lists in the order the search lists
    them: rows filled in order, each row's r columns chosen in lexicographic
    order, a prefix dropped once some column needs more pairs than rows are
    left. The index maps play no part."""
    allowed = set(allowed)
    if forced is not None and forced not in allowed:
        return
    rows = {i: [j for j in range(1, n) if (i, j) in allowed] for i in range(1, n)}
    if any(len(row) < r for row in rows.values()):
        return
    need = [r] * n

    def rec(i, chosen):
        if i == n:
            yield chosen
            return
        for cols in combinations([j for j in rows[i] if need[j] > 0], r):
            if forced is not None and forced[0] == i and forced[1] not in cols:
                continue
            for j in cols:
                need[j] -= 1
            if all(need[x] <= n - 1 - i for x in range(1, n)):
                yield from rec(i + 1, chosen + [(i, j) for j in cols])
            for j in cols:
                need[j] += 1

    yield from rec(1, [])


def closed_orbit(n, part):
    """The distinct images of a part under the six index maps if they are
    pairwise disjoint and all regular, else None."""
    images = {frozenset(pair_image(n, p, g) for p in part) for g in SYM3}
    seen = set()
    for image in images:
        rows = [sum(1 for (i, _) in image if i == x) for x in range(1, n)]
        cols = [sum(1 for (_, j) in image if j == x) for x in range(1, n)]
        if seen & image or len(set(rows + cols)) != 1:
            return None
        seen |= image
    return images


def part_orbits(n, max_r, covered):
    """The search's branches below a node with the given covered pairs: for
    r = 1..max_r, the closed orbits of the r-regular parts through the least
    uncovered pair, every subset listed first and the orbit tested after."""
    allowed = set(PairSet.universe(n).pairs()) - set(covered)
    if not allowed:
        return
    target = min(allowed)
    for r in range(1, max_r + 1):
        for part in regular_subsets(n, r, allowed, target):
            orbit = closed_orbit(n, part)
            if orbit is not None:
                yield orbit


def multiplicative_orbit_partition(p):
    """The index partition of the affine-group scheme over a prime field:
    parts {(c, c*k) : c nonzero} for k = 2..p-1."""
    parts = tuple(
        PairSet.from_pairs(p, {(c % p, c * k % p) for c in range(1, p)})
        for k in range(2, p)
    )
    return IndexPartition(p, parts)


def direct_marginals(A):
    """Directly counted n_i^(1), n_i^(2), n_i^(3) for each nontrivial id.

    Each is the number of completions of an ordered pair of distinct points in
    the first, middle, or last coordinate; returns None for a non-constant
    family (which would mean the input is not a scheme).
    """
    n = A.n
    out = {}
    for rid in range(4, len(A.relations)):
        rel = A.relations[rid].triples
        per_axis = []
        for positions in ((1, 2), (0, 2), (0, 1)):
            counts = {}
            for t in rel:
                key = (t[positions[0]], t[positions[1]])
                counts[key] = counts.get(key, 0) + 1
            values = {
                counts.get((x, y), 0)
                for x in range(n)
                for y in range(n)
                if x != y
            }
            per_axis.append(values.pop() if len(values) == 1 else None)
        out[rid] = tuple(per_axis)
    return out


def _axis_constant(n, rel, axis):
    counts = {}
    for t in rel.triples:
        if axis == 1:
            k = (t[1], t[2])
        elif axis == 2:
            k = (t[0], t[2])
        else:
            k = (t[0], t[1])
        counts[k] = counts.get(k, 0) + 1
    ref = None
    ref_pair = None
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            c = counts.get((x, y), 0)
            if ref is None:
                ref, ref_pair = c, (x, y)
            elif c != ref:
                return None, (ref_pair, ref, (x, y), c)
    return ref, None


def reference_verify_a1(A):
    """Axiom A1 relation by relation through `_axis_constant` on the last
    slot, kept as the reference for circast.verify_a1: same constants and
    witness."""
    out = {}
    for rid in range(4, len(A.relations)):
        value, witness = _axis_constant(A.n, A.relations[rid], 3)
        if witness is not None:
            pair_a, count_a, pair_b, count_b = witness
            return AxiomFailure(
                "A1",
                {
                    "relation": rid,
                    "pair_a": pair_a,
                    "count_a": count_a,
                    "pair_b": pair_b,
                    "count_b": count_b,
                },
            )
        if value == 0:
            return AxiomFailure("A1", {"relation": rid, "reason": "zero count"})
        out[rid] = value
    return out


def reference_verify_a3(A):
    """Axiom A3 by looking up each permuted relation, as a frozenset of
    triples, among the relations; the reference for circast.verify_a3: same
    action and witness."""
    lookup = {rel.triples: rid for rid, rel in enumerate(A.relations)}
    action = {}
    for rid, rel in enumerate(A.relations):
        for g in SYM3:
            target = lookup.get(permute_relation(rel, g).triples)
            if target is None:
                return AxiomFailure("A3", {"relation": rid, "element": SYM3_NAME[g]})
            action[(rid, g)] = target
    return action


def reference_verify_a2(A):
    """The plain O(n^4) axiom-A2 scan with one dict lookup per (triple, w),
    kept as the reference for circast.verify_a2: same scan order, witness
    and tensor."""
    n = A.n
    ids = {t: rid for rid, rel in enumerate(A.relations) for t in rel.triples}
    reference = {}  # relation id -> (triple, count vector)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                t = (x, y, z)
                vec = {}
                for w in range(n):
                    key = (ids[(w, y, z)], ids[(x, w, z)], ids[(x, y, w)])
                    vec[key] = vec.get(key, 0) + 1
                l = ids[t]
                seen = reference.get(l)
                if seen is None:
                    reference[l] = (t, vec)
                elif seen[1] != vec:
                    bins = sorted(set(seen[1]) | set(vec))
                    bad = next(b for b in bins if seen[1].get(b, 0) != vec.get(b, 0))
                    return AxiomFailure(
                        "A2",
                        {
                            "relation": l,
                            "triple_a": seen[0],
                            "triple_b": t,
                            "bin": bad,
                            "count_a": seen[1].get(bad, 0),
                            "count_b": vec.get(bad, 0),
                        },
                    )
    p = {
        (i, j, k, l): count
        for l, (_, vec) in reference.items()
        for (i, j, k), count in vec.items()
    }
    marginals = ({}, {}, {})
    for rid in range(4, len(A.relations)):
        for axis in (1, 2, 3):
            value, witness = _axis_constant(n, A.relations[rid], axis)
            if witness is not None:
                return AxiomFailure(
                    "A2", {"relation": rid, "axis": axis, "reason": "marginal not constant"}
                )
            marginals[axis - 1][rid] = value
    return StructureTensor(n, A.m, p, *marginals)


def reference_triple_partition(obj):
    """The triple-partition reader as it was before partitions were stored as
    relation-id tables: each relation read by TernaryRelation.from_triples in
    file order, the relations checked nonempty in id order and their sizes
    against n^3, then every triple looked up in one dict of all the triples.
    Returns (table, relations); raises the reader's errors."""
    n = make_domain(strict_int(obj["n"], "n")).n
    entries = json_typed(obj["relations"], list, "relations", dict)
    ids = sorted(strict_int(e["id"], "relation id") for e in entries)
    if ids != list(range(len(entries))):
        raise ValueError("relation ids must be exactly 0..m")
    rels = [None] * len(entries)
    for k, e in enumerate(entries):
        triples = json_typed(e["triples"], list, f"relations[{k}].triples")
        rels[e["id"]] = TernaryRelation.from_triples(n, triples)
    for rid, rel in enumerate(rels):
        if len(rel) == 0:
            raise ValueError(f"relation {rid} is empty")
    if sum(map(len, rels)) == n**3:
        lookup = {}
        for rid, rel in enumerate(rels):
            lookup.update(dict.fromkeys(rel.triples, rid))
        try:
            return list(map(lookup.__getitem__, product(range(n), repeat=3))), tuple(rels)
        except KeyError:
            pass
    raise ValueError("relations do not partition the triple space")
