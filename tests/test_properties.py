"""Property tests: the binning kernels, the Sym(3) rank table and the
search's candidate listing against the brute-force references.

`is_ast_regular` and the search's node check bin every pair of X(n) once,
`verify_a1` counts the ids in each row (x, y, .) of the relation-id table,
`verify_a2` counts each triple's w-column with one Counter and reads the
marginals off the tensor, `verify_a3` counts (id of t, id of g(t)) over the
same relation-id table (on the x = 0 fibre alone when the diagonal shift
fixes every relation), and `sym3_image` permutes mask bits through a per-n
rank table; all must agree, verdict and witness, with the plain loops and set
lookups in `oracles.py` and with `pair_image` applied pair by pair. The
search's listing counts the differences of each part and drops row prefixes
by their index-map images; it must yield the orbits that the unpruned listing
in `oracles.py` keeps after testing each candidate's orbit, and under
`--symmetric` those of them with one part. The CLI's JSON writer must give the
bytes of `json.dumps(indent=2, sort_keys=True)`, also when its lists and dicts
are cut into chunks of one or two items.
"""

import collections
import json
import math
from functools import lru_cache
from itertools import combinations, product
from unittest import mock

import oracles
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from sympy.utilities.iterables import multiset_partitions

from circast import (
    IDENTITY,
    SYM3,
    IndexPartition,
    NonConstant,
    PairSet,
    SearchConfig,
    TernaryRelation,
    TriplePartition,
    agl1,
    circulant_structure_constant,
    expand,
    expand_partition,
    is_ast_regular,
    orbit_partition_on_triples,
    pair_image,
    permute_triple,
    search_ast_regular,
    sym3_image,
    trivial_relations,
    verify_a1,
    verify_a2,
    verify_a3,
)
from circast import cli
from circast.cli import _write
from circast.circulant import pair_bins, sym3_rank_maps
from circast.core import pair_capacity, pair_unrank
import circast.search as search_module
from circast.search import _Search, _Universe

PROPERTY = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _orbits(n, maps):
    """Orbits on X(n) of the group generated by the given pair maps."""
    seen, out = set(), []
    for pair in PairSet.universe(n).pairs():
        if pair in seen:
            continue
        orbit, frontier = {pair}, [pair]
        while frontier:
            cur = frontier.pop()
            for f in maps:
                image = f(cur)
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        seen |= orbit
        out.append(orbit)
    return out


def _sym3_maps(n):
    return [lambda p, g=g: pair_image(n, p, g) for g in SYM3]


def _multiplier_maps(n):
    units = [c for c in range(2, n) if math.gcd(c, n) == 1]
    return [lambda p, c=c: (c * p[0] % n, c * p[1] % n) for c in units]


def _blocks(n, kind):
    """Building blocks of a random partition of X(n): single pairs, orbits of
    the six index maps, of the unit multipliers, or of both."""
    if kind == "pairs":
        return [{p} for p in PairSet.universe(n).pairs()]
    maps = {
        "sym3": _sym3_maps(n),
        "multiplier": _multiplier_maps(n),
        "both": _sym3_maps(n) + _multiplier_maps(n),
    }[kind]
    return _orbits(n, maps)


@lru_cache(maxsize=None)
def _schemes(n):
    """The AST-regular partitions of X(n)."""
    return tuple(hit.partition for hit in search_ast_regular(SearchConfig(n)).hits)


def _part_orbits(P):
    """Orbits of the six index maps on the parts of an AST-regular P."""
    index_of = {part: idx for idx, part in enumerate(P.parts)}
    orbits, seen = [], set()
    for idx, part in enumerate(P.parts):
        if idx not in seen:
            orbit = {index_of[sym3_image(part, g)] for g in SYM3}
            seen |= orbit
            orbits.append(sorted(orbit))
    return orbits


@st.composite
def index_partitions(draw):
    n = draw(st.integers(3, 7))
    kind = draw(st.sampled_from(["pairs", "sym3", "multiplier", "both", "fused", "fused"]))
    if kind == "fused":
        # parts of a scheme kept, or fused with other Sym(3)-orbits of
        # parts: (a) and (b) hold, (c) decides
        P = draw(st.sampled_from(_schemes(max(n, 4))))
        blocks = []
        fused: dict = {}
        for orbit in _part_orbits(P):
            label = draw(st.integers(-1, 1))
            for idx in orbit:
                if label < 0:
                    blocks.append(set(P.parts[idx].pairs()))
                else:
                    fused.setdefault(label, set()).update(P.parts[idx].pairs())
        parts = blocks + list(fused.values())
        return IndexPartition(P.n, tuple(PairSet.from_pairs(P.n, part) for part in parts))
    blocks = _blocks(n, kind)
    labels = draw(st.integers(1, len(blocks)))
    merged: dict = {}
    for block in blocks:
        merged.setdefault(draw(st.integers(0, labels - 1)), set()).update(block)
    return IndexPartition(n, tuple(PairSet.from_pairs(n, part) for part in merged.values()))


def _agrees_with_brute_force(P):
    """Compare is_ast_regular with the brute-force k^4 loop; returns the
    verdict ("ok" or the failing condition)."""
    report = is_ast_regular(P)
    expected = oracles.brute_ast_regular(P.n, [part.pairs() for part in P.parts])
    if expected[0] == "ok":
        assert report.ok
        assert all(report.bins[d].get((a, b, c), 0) == v for (a, b, c, d), v in expected[1].items())
        k = range(len(P.parts))
        assert report.to_obj()["constants"] == {
            str(a): {str(b): {str(c): {str(d): expected[1][a, b, c, d] for d in k} for c in k} for b in k} for a in k
        }
        return "ok"
    assert not report.ok
    assert report.failure["condition"] == expected[0]
    if expected[0] in ("a", "b"):
        assert report.failure["part"] == expected[1]
        return expected[0]
    _, quadruple, (_, pair_a, count_a, pair_b, count_b) = expected
    assert report.failure["quadruple"] == list(quadruple)
    assert report.failure["witness"] == {
        "pair_a": list(pair_a),
        "count_a": count_a,
        "pair_b": list(pair_b),
        "count_b": count_b,
    }
    return "c"


@PROPERTY
@given(index_partitions())
def test_is_ast_regular_matches_brute_force(P):
    _agrees_with_brute_force(P)


def test_is_ast_regular_matches_brute_force_on_every_orbit_union():
    """Every union of orbit blocks at n = 5, 7: at these n only a handful of
    partitions get past (a) and (b) and then fail (c), and these are all of
    them in the families above."""
    verdicts = collections.Counter()
    for n in (5, 7):
        for kind in ("sym3", "multiplier", "both"):
            blocks = _blocks(n, kind)
            for groups in multiset_partitions(list(range(len(blocks)))):
                parts = [set().union(*(blocks[i] for i in group)) for group in groups]
                P = IndexPartition(n, tuple(PairSet.from_pairs(n, part) for part in parts))
                verdicts[_agrees_with_brute_force(P)] += 1
    assert set(verdicts) == {"ok", "a", "b", "c"}
    assert verdicts["c"] >= 5


def test_least_failing_quadruple_may_sit_in_a_later_part():
    """The orbits of X(13) under the index maps and the unit multipliers:
    counts vary over part 0 from (0,1,1,0) on, and the least failing
    quadruple (0,0,1,1) lies in part 1."""
    P = IndexPartition(13, tuple(PairSet.from_pairs(13, b) for b in _blocks(13, "both")))
    I, J, K, L = P.parts[0], P.parts[1], P.parts[1], P.parts[0]
    assert isinstance(circulant_structure_constant(I, J, K, L), NonConstant)
    assert _agrees_with_brute_force(P) == "c"
    assert is_ast_regular(P).failure["quadruple"] == [0, 0, 1, 1]


# --- the search's node check on placed parts ----------------------------------------


@PROPERTY
@given(index_partitions(), st.data())
def test_node_check_matches_brute_force_on_placed_parts(P, data):
    """Some parts of a partition are placed, in any order, and the other
    pairs are the rest: a bin varies over a placed part exactly when its
    quadruple of placed parts has no constant count, and the least pair's
    count is the brute-force one. With `stop` the list is cut after the
    first part with a varying bin, so its verdict is the full one."""
    order = data.draw(st.permutations(range(len(P.parts))))
    placed = [P.parts[idx] for idx in order[: data.draw(st.integers(0, 5))]]
    bins = pair_bins(P.n, [part.mask for part in placed])
    stopped = pair_bins(P.n, [part.mask for part in placed], stop=True)
    cut = next((d + 1 for d, (_, varying) in enumerate(bins) if varying), len(bins))
    assert len(stopped) == cut
    assert stopped[: cut - 1] == bins[: cut - 1]
    if stopped:
        assert stopped[-1][0] == bins[cut - 1][0]
        assert bool(stopped[-1][1]) == bool(bins[cut - 1][1])
        assert stopped[-1][1] <= bins[cut - 1][1]
    k = len(placed)
    assert len(bins) == k
    for d, (ref, varying) in enumerate(bins):
        expected = set()
        for a, b, c in product(range(k), repeat=3):
            res = oracles.brute_structure_constant(P.n, *(placed[q].pairs() for q in (a, b, c, d)))
            if res[0] == "varies":
                expected.add((a, b, c))
                assert ref[(a, b, c)] == res[2]
            else:
                assert ref[(a, b, c)] == res[1]
        assert varying == expected


# the part that the root of X(7) lists alone, as an orbit of one part
SEVEN = [
    (1, 2), (1, 4), (1, 6), (2, 1), (2, 4), (2, 5), (3, 4), (3, 5), (3, 6),
    (4, 1), (4, 2), (4, 3), (5, 2), (5, 3), (5, 6), (6, 1), (6, 3), (6, 5),
]


def test_node_check_passes_differences_in_rest_bins_only():
    """Placed alone, with the other 12 pairs of X(7) as the rest, the pairs of
    SEVEN have differing bin counts, but only in bins that name the rest:
    no bin varies, with or without `stop`. A part of one pair placed after it
    makes bins of SEVEN vary, and the stopping check ends at SEVEN."""
    n = 7
    counts = [oracles.brute_bin_counts(n, [SEVEN], pair) for pair in SEVEN]
    assert any(other != counts[0] for other in counts)
    seven = PairSet.from_pairs(n, SEVEN).mask
    (ref, varying), = pair_bins(n, [seven])
    assert ref == counts[0]
    assert not varying
    assert pair_bins(n, [seven], stop=True) == [(ref, set())]
    single = PairSet.from_pairs(n, [(1, 3)]).mask
    full = pair_bins(n, [seven, single])
    assert full[0][1] == {(0, 0, 1), (0, 1, 0), (1, 0, 0)} and not full[1][1]
    stopped = pair_bins(n, [seven, single], stop=True)
    assert len(stopped) == 1 and stopped[0][1] <= full[0][1] and stopped[0][1]


# --- the Sym(3) rank table ---------------------------------------------------------


@PROPERTY
@given(st.data())
def test_sym3_image_matches_pair_by_pair_images(data):
    n = data.draw(st.integers(3, 9))
    I = PairSet(n, data.draw(st.integers(0, PairSet.universe(n).mask)))
    for g in SYM3:
        assert sym3_image(I, g) == PairSet.from_pairs(n, (pair_image(n, p, g) for p in I))
    for bad in ((1, 1, 2), (0, 1, 2), [1, 2, 3], "e", None):
        for J in (I, PairSet(n)):
            with pytest.raises(ValueError):
                sym3_image(J, bad)


# --- the search's candidate listing ------------------------------------------------


def _reference_branches(n, covered):
    """The closed orbits of `oracles.part_orbits` as the search yields them:
    each one a tuple of masks in ascending order."""
    return [
        tuple(sorted(PairSet.from_pairs(n, part).mask for part in orbit))
        for orbit in oracles.part_orbits(n, n - 2, covered)
    ]


# the reference lists every regular subset; at most this many uncovered
# pairs keeps one example under about 0.05 s
UNCOVERED_CAP = 24


@lru_cache(maxsize=None)
def _root_orbits(n):
    """The orbits the search lists at the root of X(n), each as one set of
    pairs, when it has at most UNCOVERED_CAP pairs."""
    orbits = [
        set().union(*(PairSet(n, mask).pairs() for mask in orbit))
        for orbit in _Search(n, n - 2, False, None).branches(0)
    ]
    return [orbit for orbit in orbits if len(orbit) <= UNCOVERED_CAP]


@st.composite
def invariant_covers(draw):
    """n = 3..9 and a Sym(3)-invariant set of covered pairs, some pair left
    uncovered: a union of orbits of parts of a search hit or of an AGL(1,p)
    partition, or of orbits of single pairs, the last optionally around an
    orbit the search lists at the root (so that something closes below it at
    n = 9, where no union of pair orbits within the cap does)."""
    n = draw(st.integers(3, 9))
    kind = draw(st.sampled_from(["hit", "agl", "root", "pairs"]))
    uncovered = set()
    if kind == "root" and _root_orbits(n):
        uncovered |= draw(st.sampled_from(_root_orbits(n)))
    if kind == "hit" or (kind == "agl" and n in (3, 5, 7)):
        P = oracles.multiplicative_orbit_partition(n) if kind == "agl" else draw(
            st.sampled_from(_schemes(n))
        )
        blocks = [
            set().union(*(P.parts[idx].pairs() for idx in orbit)) for orbit in _part_orbits(P)
        ]
    else:
        blocks = _blocks(n, "sym3")
    for idx in draw(st.permutations(range(len(blocks)))):
        if draw(st.booleans()) and len(uncovered | blocks[idx]) <= UNCOVERED_CAP:
            uncovered |= blocks[idx]
    assume(uncovered)
    return n, set(PairSet.universe(n).pairs()) - uncovered


@PROPERTY
@given(invariant_covers())
def test_pruned_listing_matches_reference_orbits(cover):
    """Below any Sym(3)-invariant covered set, the listing that prunes row
    prefixes by their index-map images yields exactly the orbits that survive
    the unpruned listing followed by the orbit test, in the same order; the
    `--symmetric` listing yields exactly those of them that have one part."""
    n, covered = cover
    mask = PairSet.from_pairs(n, covered).mask
    reference = _reference_branches(n, covered)
    search = _Search(n, n - 2, False, None)
    got = list(search.branches(mask))
    assert got == reference
    assert search.complete
    fixed = _Search(n, n - 2, True, None)
    assert list(fixed.branches(mask)) == [orbit for orbit in reference if len(orbit) == 1]
    assert fixed.complete


@PROPERTY
@given(st.integers(4, 12), st.data())
def test_packed_prefix_tests_match_plain_counts(n, data):
    """A random prefix of r pairs per row, as the sum of its listing options:
    the count guards agree with a plain `need` list per column and
    difference on which options of the next row are open. The guarded lanes
    agree with the images of the prefix on whether one meets a finished row
    outside it (what drops a fixed prefix) and whether one also meets the
    prefix (a placeable one)."""
    uni = _Universe(n)
    r = data.draw(st.integers(1, n - 2))
    need = {("col", j): r for j in range(1, n)} | {("dif", d): r for d in range(1, n)}
    total, pairs = 0, []
    for ranks in uni.row_ranks[: data.draw(st.integers(1, n - 1))]:
        cut = total + uni.ones * (uni.half - r)
        options = []
        for rank in ranks:
            i, j = pair_unrank(n, rank)
            option, guards = uni.options[rank]
            is_open = need["col", j] > 0 and need["dif", (j - i) % n] > 0
            assert (not cut & guards) == is_open
            if is_open:
                options.append(((i, j), option))
        if len(options) < r:
            return
        for (i, j), option in data.draw(st.permutations(options))[:r]:
            total += option
            pairs.append((i, j))
            need["col", j] -= 1
            need["dif", (j - i) % n] -= 1
        mask = total >> uni.mask_at
        assert mask == PairSet.from_pairs(n, pairs).mask
        images = [sym3_image(PairSet(n, mask), g).mask for g in SYM3 if g != IDENTITY]
        assert [total >> s & uni.full for s in uni.shifts] == images
        outside = ((1 << ranks.stop) - 1) & ~mask
        inside = total & mask * uni.rep
        hit = total & ((1 << ranks.stop) - 1) * uni.rep ^ inside
        assert bool(hit) == any(image & outside for image in images)
        assert bool((hit + uni.low) & (inside + uni.low) & uni.guard) == any(
            image & outside and image & mask for image in images
        )


class _CountingClock:
    """A clock that stands at 0 and counts how often it is read: the listing
    reads it once per prefix it extends, to poll its deadline."""

    count = 0

    def monotonic(self):
        self.count += 1
        return 0.0


def _plain_listing(n, r, allowed, fixed):
    """The part listing with a plain `need` list per column and difference,
    prefixes summed pair by pair and their images tested map by map: the
    reference for the packed count fields and guarded lanes. Returns the
    yields and the number of prefixes extended, the empty one included."""
    images = [sym3_rank_maps(n)[g] for g in SYM3 if g != IDENTITY]
    rows = [[q for q in range(i * (n - 2), (i + 1) * (n - 2)) if allowed >> q & 1] for i in range(n - 1)]
    if any(len(row) < r for row in rows):
        return [], 0
    need = [0] + [r] * (n - 1) + [0] + [r] * (n - 1)
    fields = [(j, n + (j - i) % n) for i, j in (pair_unrank(n, q) for q in range(pair_capacity(n)))]
    out, extended = [], [0]

    def rec(idx, prefix):
        extended[0] += 1
        mask = sum(1 << q for q in prefix)
        lanes = [sum(1 << image[q] for q in prefix) for image in images]
        if idx == n - 1:
            out.append((mask, tuple(lanes)))
            return
        opts = [q for q in rows[idx] if need[fields[q][0]] and need[fields[q][1]]]
        if idx == 0:  # row 1 takes its least allowed pair
            combos = [opts[:1] + list(rest) for rest in combinations(opts[1:], r - 1)]
        else:
            combos = combinations(opts, r)
        for combo in combos:
            for q in combo:
                for f in fields[q]:
                    need[f] -= 1
            new = prefix + tuple(combo)
            new_mask = mask | sum(1 << q for q in combo)
            new_lanes = [lane | sum(1 << image[q] for q in combo) for lane, image in zip(lanes, images)]
            outside = ((1 << (idx + 1) * (n - 2)) - 1) & ~new_mask
            if not any(lane & outside and (fixed or lane & new_mask) for lane in new_lanes):
                rec(idx + 1, new)
            for q in combo:
                for f in fields[q]:
                    need[f] += 1

    rec(0, ())
    return out, extended[0]


@PROPERTY
@given(st.integers(4, 8), st.booleans(), st.lists(st.integers(0, 10**4), max_size=8))
# the whole of X(9), the least n at which a prefix of the whole of X(n) with
# a column or difference short of pairs for the rows left is extended
@example(9, False, [])
@example(9, True, [])
def test_listing_matches_the_plain_listing(n, fixed, removed):
    """On X(n) less a few random pairs, every valency: the packed listing
    yields what the plain one does, in the same order, and extends as many
    prefixes: the row filter and the image tests prune no less and no more."""
    allowed = PairSet.universe(n).mask
    for q in removed:
        allowed &= ~(1 << q % pair_capacity(n))
    uni = _Universe(n)
    for r in range(1, n - 1):
        clock = _CountingClock()
        with mock.patch.object(search_module, "time", clock):
            listed = list(uni.regular_subsets(r, allowed, fixed, deadline=math.inf))
        assert (listed, clock.count) == _plain_listing(n, r, allowed, fixed)


def test_no_odd_valency_at_even_n_at_the_root():
    """Each part of an AST-regular partition holds r pairs in each row, column
    and difference (j - i) mod n, so the differences of a part sum to
    r*n(n-1)/2, and to 0 mod n as sum(j) - sum(i) = 0: at even n, r is even.
    At the root, in both modes, the listing yields nothing for odd r."""
    for n in (4, 6, 8, 10):
        uni = search_module._universe(n)
        for r in range(1, n - 1, 2):
            for fixed in (False, True):
                assert list(uni.regular_subsets(r, uni.full, fixed)) == []


@PROPERTY
@given(st.sampled_from([4, 6, 8]), st.booleans(), st.lists(st.integers(0, 10**4), max_size=8))
def test_no_odd_valency_at_even_n(n, fixed, removed):
    """The same on X(n) less a few random pairs."""
    uni = search_module._universe(n)
    allowed = uni.full
    for q in removed:
        allowed &= ~(1 << q % pair_capacity(n))
    for r in range(1, n - 1, 2):
        assert list(uni.regular_subsets(r, allowed, fixed)) == []


def test_root_listing_matches_reference_orbits():
    """Nothing covered, every valency: the whole root listing for n = 3..7
    and its `--symmetric` listing."""
    for n in range(3, 8):
        reference = _reference_branches(n, ())
        assert list(_Search(n, n - 2, False, None).branches(0)) == reference
        fixed = [orbit for orbit in reference if len(orbit) == 1]
        assert list(_Search(n, n - 2, True, None).branches(0)) == fixed


# --- verify_a2 on edited orbit schemes -------------------------------------------


def _replace(A, changed):
    rels = list(A.relations)
    for rid, triples in changed.items():
        rels[rid] = TernaryRelation(A.n, frozenset(triples))
    return TriplePartition(A.n, tuple(rels))


def _moved(draw, A):
    """Triples moved between relations: breaks A1 (and A2) as a rule."""
    for _ in range(draw(st.integers(1, 3))):
        src = draw(st.integers(0, A.m))
        if len(A.relations[src]) < 2:
            continue
        dst = draw(st.integers(0, A.m).filter(lambda rid: rid != src))
        t = draw(st.sampled_from(A.relations[src].sorted_triples()))
        A = _replace(
            A, {src: A.relations[src].triples - {t}, dst: A.relations[dst].triples | {t}}
        )
    return A


def _swapped(draw, A):
    """Third points of (x, y, .) swapped between two nontrivial relations:
    every completion count stays, A3 fails."""
    i, j = draw(st.permutations(range(4, A.m + 1)))[:2]
    t = draw(st.sampled_from(A.relations[i].sorted_triples()))
    u = next(s for s in A.relations[j].sorted_triples() if s[:2] == t[:2])
    return _replace(
        A, {i: A.relations[i].triples - {t} | {u}, j: A.relations[j].triples - {u} | {t}}
    )


def _fused(draw, A):
    """Nontrivial relations merged along their Sym(3)-orbits: a circulant
    scheme candidate that keeps A1 and A3 and may break A2."""
    orbits, seen = [], set()
    lookup = {rel.triples: rid for rid, rel in enumerate(A.relations)}
    for rid in range(4, A.m + 1):
        if rid not in seen:
            orbit = {
                lookup[frozenset(permute_triple(t, g) for t in A.relations[rid].triples)]
                for g in SYM3
            }
            seen |= orbit
            orbits.append(sorted(orbit))
    labels = draw(st.lists(st.integers(0, 2), min_size=len(orbits), max_size=len(orbits)))
    merged: dict = {}
    for label, orbit in zip(labels, orbits):
        for rid in orbit:
            merged.setdefault(label, set()).update(A.relations[rid].triples)
    return TriplePartition(
        A.n, tuple(A.relations[:4]) + tuple(TernaryRelation(A.n, merged[k]) for k in sorted(merged))
    )


def _is_affine(n, pi):
    return all(pi[x] == (pi[0] + x * (pi[1] - pi[0])) % n for x in range(n))


def _relabelled(draw, A):
    """A, or one of its fusions, with the points of Omega renamed by a
    permutation that is not affine: still a scheme (or a fused candidate),
    but as a rule the diagonal shift no longer fixes its relations."""
    if draw(st.booleans()):
        A = _fused(draw, A)
    n = A.n
    pi = draw(st.permutations(range(n)).filter(lambda pi: not _is_affine(n, pi)))
    return TriplePartition(
        n,
        tuple(
            TernaryRelation(n, frozenset((pi[x], pi[y], pi[z]) for x, y, z in rel.triples))
            for rel in A.relations
        ),
    )


@st.composite
def edited_schemes(draw):
    A = orbit_partition_on_triples(agl1(draw(st.sampled_from([5, 7]))))
    edit = draw(st.sampled_from(["none", "moved", "swapped", "fused", "relabelled"]))
    if edit == "moved":
        A = _moved(draw, A)
    elif edit == "swapped":
        A = _swapped(draw, A)
    elif edit == "fused":
        A = _fused(draw, A)
    elif edit == "relabelled":
        A = _relabelled(draw, A)
    return A


@PROPERTY
@given(edited_schemes())
def test_verify_a2_matches_reference_scan(A):
    assert verify_a2(A) == oracles.reference_verify_a2(A)


@PROPERTY
@given(edited_schemes())
def test_verify_a1_matches_reference_counts(A):
    assert verify_a1(A) == oracles.reference_verify_a1(A)


@PROPERTY
@given(edited_schemes())
def test_verify_a3_matches_reference_lookup(A):
    """The id-table action agrees with looking each permuted relation up as a
    set, witness included; a relation mapped into a larger one is no image."""
    assert verify_a3(A) == oracles.reference_verify_a3(A)


@pytest.mark.parametrize("n", [5, 6])
def test_checks_match_references_when_the_shift_moves_a_relation(n):
    """The distinct triples through 0 and those avoiding 0: Sym(3)-closed,
    but the diagonal shift moves both, so the x = 0 fibre stands for nothing
    and both checks must scan every x."""
    distinct = [t for t in product(range(n), repeat=3) if len(set(t)) == 3]
    A = TriplePartition(
        n,
        trivial_relations(n)
        + tuple(
            TernaryRelation(n, frozenset(t for t in distinct if (0 in t) == through_0))
            for through_0 in (True, False)
        ),
    )
    assert A.orbit == 1
    assert verify_a2(A) == oracles.reference_verify_a2(A)
    assert verify_a3(A) == oracles.reference_verify_a3(A)


@PROPERTY
@given(index_partitions())
def test_checks_on_expanded_partitions_match_reference_scans(P):
    """Expanded partitions are shift-closed, so only the x = 0 fibre is
    scanned, and most break A1, A2 or A3: the one-fibre scans must give the
    reference verdict, witness included."""
    A = expand_partition(P)
    assert A.orbit == P.n
    assert verify_a1(A) == oracles.reference_verify_a1(A)
    assert verify_a2(A) == oracles.reference_verify_a2(A)
    assert verify_a3(A) == oracles.reference_verify_a3(A)


def test_verify_a2_raises_on_a_missing_triple():
    """A triple outside every relation is an error, never relation 0: the
    constructor refuses the relations, so neither A2 nor A3 reads a table
    with a hole in it."""
    P = oracles.multiplicative_orbit_partition(5)
    trivial = trivial_relations(5)
    with pytest.raises(ValueError, match="^relations do not partition the triple space$"):
        TriplePartition(5, trivial + tuple(expand(part) for part in P.parts[:-1]))


# --- the triple-partition reader against the reference reader -------------------


@st.composite
def partition_files(draw):
    """The JSON of a triple partition, its relations and the triples of each
    in a drawn order, a triple sometimes listed twice: an AGL(1,p) orbit
    scheme, as it is or fused, or with triples moved or swapped, or the
    one-part scheme of X(n)."""
    edit = draw(st.sampled_from(["none", "moved", "swapped", "fused", "one-part"]))
    if edit == "one-part":
        n = draw(st.integers(3, 6))
        A = expand_partition(IndexPartition(n, (PairSet.universe(n),)))
    else:
        A = orbit_partition_on_triples(agl1(draw(st.sampled_from([5, 7]))))
        A = {"none": lambda draw, A: A, "moved": _moved, "swapped": _swapped, "fused": _fused}[edit](draw, A)
    obj = A.to_obj()
    rng = draw(st.randoms(use_true_random=False))
    rng.shuffle(obj["relations"])
    for entry in obj["relations"]:
        rng.shuffle(entry["triples"])
    if draw(st.booleans()):
        triples = rng.choice(obj["relations"])["triples"]
        triples.append(list(rng.choice(triples)))
    return obj


@PROPERTY
@given(partition_files())
def test_from_obj_reads_what_the_reference_reader_reads(obj):
    """The table stored by from_obj, and the relations built from it, are
    those of the reader that built every relation first."""
    table, relations = oracles.reference_triple_partition(obj)
    A = TriplePartition.from_obj(obj)
    assert A.table == table and A.sizes == [len(rel) for rel in relations]
    assert A.relations == relations


def _one_part_4():
    return expand_partition(IndexPartition(4, (PairSet.universe(4),))).to_obj()


def _set_triple(value, rid=4):
    def edit(obj):
        obj["relations"][rid]["triples"][0] = value

    return edit


def _bad_triples_in_file_order(obj):
    obj["relations"].reverse()  # relation 4 comes first in the file
    _set_triple(True, 0)(obj)
    _set_triple([0, 1], 1)(obj)


def _overlap_of_full_size(obj):
    """One triple of relation 4 traded for one of relation 0: n^3 triples in
    all, but one of them in no relation."""
    obj["relations"][4]["triples"][0] = [1, 1, 1]


def _duplicate_of_full_size(obj):
    """One triple of relation 4 listed twice and another left out: the raw
    lengths sum to n^3, but one triple is in no relation."""
    triples = obj["relations"][4]["triples"]
    triples[1] = list(triples[0])


MALFORMED = {
    "true": _set_triple(True),
    "float": _set_triple(1.5),
    "pair": _set_triple([0, 1]),
    "string": _set_triple("abc"),
    "int": _set_triple(5),
    "object": _set_triple({"a": 0, "b": 1, "c": 2}),
    "bool-coordinate": _set_triple([0, True, 2]),
    "float-coordinate": _set_triple([0, 1.0, 2]),
    "outside": _set_triple([0, 1, 4]),
    "negative": _set_triple([0, -1, 2]),
    "no-triples": lambda obj: obj["relations"][2].pop("triples"),
    "null-triples": lambda obj: obj["relations"][2].update(triples=None),
    "empty": lambda obj: obj["relations"][4].update(triples=[]),
    "empty-then-bad": lambda obj: (obj["relations"][1].update(triples=[]), _set_triple(5)(obj)),
    "no-relations": lambda obj: obj.update(relations=[]),
    "overlap": lambda obj: obj["relations"][4]["triples"].append([1, 1, 1]),
    "overlap-of-full-size": _overlap_of_full_size,
    "missing": lambda obj: obj["relations"][4]["triples"].pop(),
    "bad-in-file-order": _bad_triples_in_file_order,
    "huge-n": lambda obj: obj.update(n=10**6, relations=[{"id": 0, "triples": [[0, 0, 0]]}]),
    "duplicate": lambda obj: obj["relations"][4]["triples"].append(list(obj["relations"][4]["triples"][0])),
    "duplicate-of-full-size": _duplicate_of_full_size,
    "coordinate-256": _set_triple([0, 256, 2]),
    "huge-coordinate": _set_triple([0, 2**70, 2]),
}


def _cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("command", ["verify-ast", "extract"])
@pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_partitions_fail_as_the_reference_reader_does(edit, command, tmp_path, capsys):
    """Exit code and stderr of the CLI on a broken scheme are those of the
    reference reader's error; a scheme it accepts (a triple listed twice in
    one relation) reads as the scheme written without the repeat."""
    obj = _one_part_4()
    edit(obj)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    try:
        _, relations = oracles.reference_triple_partition(obj)
    except (ValueError, TypeError) as exc:
        expected = (2, "", f"error: {exc}\n")
    except KeyError as exc:
        expected = (2, "", f"error: input has no key {exc}\n")
    else:
        canonical = tmp_path / "canonical.json"
        canonical.write_text(json.dumps(TriplePartition(obj["n"], relations).to_obj()))
        expected = _cli([command, "--in", str(canonical)], capsys)
        assert expected[0] == 0
    assert _cli([command, "--in", str(path)], capsys) == expected


# Text with quotes, backslashes, control characters and non-ASCII code points.
_TEXT = st.text(st.characters(max_codepoint=0x1F600) | st.sampled_from('"\\\x00\x1f\x7f\u2028é'), max_size=6)
# bool is an int subclass that json writes as true/false, never as 1/0.
_INT = st.integers(-(2**70), 2**70) | st.booleans()
_ROW = st.lists(_INT, max_size=4)
_SCALAR = st.none() | st.booleans() | st.integers() | st.floats() | _TEXT


def _rows_of_length(k):
    row = st.lists(_INT, min_size=k, max_size=k)
    return st.lists(row | row.map(tuple), max_size=4)


_JSON_TREES = st.recursive(
    _SCALAR | _ROW | st.lists(_ROW, max_size=4) | st.integers(0, 3).flatmap(_rows_of_length),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    # The keys of one dict are of one kind, so that sorted() can order them.
    | st.dictionaries(_TEXT, children, max_size=4)
    | st.dictionaries(st.integers() | st.booleans() | st.floats(), children, max_size=4)
    | st.dictionaries(st.none(), children, max_size=1),
    max_leaves=24,
)


def _render(obj) -> str:
    """The pieces that cli._write hands over, joined into one string."""
    pieces: list = []
    _write(obj, "\n", pieces.append)
    return "".join(pieces)


@PROPERTY
@given(_JSON_TREES)
@example(
    {
        "é\x00\n\"": [1, True, -2],
        "f": (math.nan, math.inf, -math.inf, -0.0, 1e300),
        "rows": [[1, 2], (3, 4)],
        "ragged": [[1], [2, 3], []],
        "empty": [[], []],
        "bool row": [[1, True], [2, 3]],
        "nested": {1: {True: {None: {}}}, 2.5: [{}]},
    }
)
def test_render_matches_json_dumps(tree):
    assert _render(tree) == json.dumps(tree, indent=2, sort_keys=True)


def test_render_rejects_what_json_rejects():
    for bad in ({1, 2}, [[1], {2}], {"a": frozenset()}):
        with pytest.raises(TypeError):
            json.dumps(bad)
        with pytest.raises(TypeError):
            _render(bad)


_CHUNKED = [
    [[1, 2], [True, 3], [4, 5]],
    [[1, 2], [3, 4], [5], [6], [7, 8, 9]],
    [[1], [], [2], [[]], []],
    [(1, 2), (3, 4), [5, 6], (7,), ()],
    [1, 2, True, 3, None, [4, 5], -(2**70)],
    {"a": 1, "b": 2, "c": True, "d": [1, (2, 3)], "e": 4, "f": {"g": [[1]]}},
    ({"n": 3, "triples": [(0, 1, 2), (1, 2, 0), (2, 0, 1)]}, [], {}),
]


@PROPERTY
@given(_JSON_TREES)
@example(_CHUNKED)
@pytest.mark.parametrize("rows", [1, 2])
def test_render_matches_json_dumps_across_chunks(rows, tree):
    """Lists and dicts longer than cli.ROWS are written chunk by chunk, each
    chunk on the fast path that fits it; the bytes must not change."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "ROWS", rows)
        assert _render(tree) == json.dumps(tree, indent=2, sort_keys=True)


@pytest.mark.parametrize("tree", [_CHUNKED, 7, [], {"x": [[0, 1, 2]] * 5}])
def test_emit_writes_the_rendered_text_and_a_newline(tree, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "ROWS", 2)
    cli._emit(tree)
    assert capsys.readouterr().out == _render(tree) + "\n"
    out = tmp_path / "out.json"
    cli._emit(tree, str(out))
    assert out.read_text(encoding="utf-8") == _render(tree) + "\n"


def test_no_piece_holds_more_than_rows_items():
    """The n = 40 one-part scheme (64,000 triples) reaches write in pieces of
    at most cli.ROWS triples, and no piece is a whole relation."""
    pieces = []
    cli._write(expand_partition(IndexPartition(40, (PairSet.universe(40),))).to_obj(), "\n", pieces.append)
    assert max(piece.count("]") for piece in pieces) == cli.ROWS
    assert sum(piece.count("]") for piece in pieces) == 40**3 + 5 + 1
