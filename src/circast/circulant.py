"""Index-set calculus for shift-invariant ternary relations.

A nontrivial relation closed under (x,y,z) -> (x+1,y+1,z+1) mod n is
determined by its fibre over 0: the index set I = {(i,j) : (0,i,j) in R}
inside X(n), with

    R_I = {(x, i+x, j+x) : x in Omega, (i,j) in I}.

Permuting the three coordinates of R_I translates into six maps on subsets
of X(n); the generators are

    tau : (i,j) -> (-i, j-i)        (swap of coordinates 1,2)
    T   : (i,j) -> (j, i)           (swap of coordinates 2,3)

and tau*T*tau = T*tau*T. This module provides that dictionary in both
directions, the row/column regularity bookkeeping for index sets, and the
AST-regularity test for partitions of X(n) together with the construction
of the corresponding triple scheme and its inverse.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
from typing import Optional, Union

from .core import (
    JSON_PARTS_CAP,
    CircastError,
    IndexPartition,
    Pair,
    PairSet,
    TernaryRelation,
    TriplePartition,
    iter_bits,
    pair_rank,
    pair_unrank,
    verify_trivial,
)


class EmptyIndexSet(CircastError, ValueError):
    """The empty index set names no relation."""


class NotCirculant(CircastError):
    """A relation is not closed under the simultaneous +1 shift."""


class NotNontrivial(CircastError):
    """A relation contains a triple with a repeated coordinate."""


class NotASTRegular(CircastError):
    """A partition of X(n) fails one of the AST-regularity conditions."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NotCirculantAST(CircastError):
    """A triple partition is not a circulant scheme."""


# --- the Sym(3) action -------------------------------------------------------

Sym3Element = tuple  # images (g(1), g(2), g(3)) of the positions 1,2,3

IDENTITY: Sym3Element = (1, 2, 3)
SWAP12: Sym3Element = (2, 1, 3)
SWAP13: Sym3Element = (3, 2, 1)
SWAP23: Sym3Element = (1, 3, 2)
CYCLE123: Sym3Element = (2, 3, 1)
CYCLE132: Sym3Element = (3, 1, 2)

SYM3: tuple = (IDENTITY, SWAP12, SWAP13, SWAP23, CYCLE123, CYCLE132)

SYM3_NAME = {
    IDENTITY: "e",
    SWAP12: "(12)",
    SWAP13: "(13)",
    SWAP23: "(23)",
    CYCLE123: "(123)",
    CYCLE132: "(132)",
}


def sym3_action_obj(action: Optional[dict]) -> Optional[dict]:
    """The JSON form of an action {(id, g): id} with an entry for every id and
    every g: per element name, the image of each id in order."""
    return None if action is None else {SYM3_NAME[g]: [action[i, g] for i in range(len(action) // 6)] for g in SYM3}


def permute_triple(t, g: Sym3Element):
    """Move the value at position k to position g(k)."""
    out = [0, 0, 0]
    for k in range(3):
        out[g[k] - 1] = t[k]
    return tuple(out)


def pair_image(n: int, pair: Pair, g: Sym3Element) -> Pair:
    """Image of one index pair under the map realising the permutation g: the
    triple (0,i,j) permuted by g, shifted back to first coordinate 0."""
    if g not in SYM3:
        raise ValueError(f"{g!r} is not a Sym(3) element")
    x, y, z = permute_triple((0, *pair), g)
    return ((y - x) % n, (z - x) % n)


@lru_cache(maxsize=None)
def sym3_rank_maps(n: int) -> dict:
    """The six index maps as permutations of the pair ranks of X(n): entry r
    of the list for g is the rank of the image of pair r. Built once per n
    from :func:`pair_image`."""
    pairs = PairSet.universe(n).pairs()
    return {g: [pair_rank(n, pair_image(n, p, g)) for p in pairs] for g in SYM3}


def sym3_image(I: PairSet, g: Sym3Element) -> PairSet:
    """Image of an index set under the map realising g; again a subset of X."""
    if g not in SYM3:
        raise ValueError(f"{g!r} is not a Sym(3) element")
    perm = sym3_rank_maps(I.n)[g]
    out = 0
    for r in iter_bits(I.mask):
        out |= 1 << perm[r]
    return PairSet(I.n, out)


# --- expansion and extraction ------------------------------------------------


def expand(I: PairSet) -> TernaryRelation:
    """The shift-closed relation with fibre I over 0; has exactly n*|I| triples."""
    if len(I) == 0:
        raise EmptyIndexSet("cannot expand the empty index set")
    n = I.n
    triples = frozenset(
        (x, (i + x) % n, (j + x) % n) for (i, j) in I for x in range(n)
    )
    return TernaryRelation(n, triples)


def _unshifted(R: TernaryRelation) -> set:
    """The triples of R whose coordinate-wise +1 shift mod n is not in R."""
    n, triples = R.n, R.triples
    return {t for t in triples if ((t[0] + 1) % n, (t[1] + 1) % n, (t[2] + 1) % n) not in triples}


def is_circulant(R: TernaryRelation) -> bool:
    """True iff R is closed under the coordinate-wise +1 shift mod n."""
    return not _unshifted(R)


def extract(R: TernaryRelation) -> PairSet:
    """The unique index set I with R = R_I; inverse of :func:`expand`."""
    if len(R) == 0:
        raise ValueError("cannot extract from an empty relation")
    if (t := min((t for t in R.triples if len(set(t)) < 3), default=None)) is not None:
        raise NotNontrivial(f"triple {t} has a repeated coordinate", witness=t)
    if (t := min(_unshifted(R), default=None)) is not None:
        raise NotCirculant(f"shift of {t} is missing", witness=t)
    return PairSet.from_pairs(R.n, ((y, z) for (x, y, z) in R.triples if x == 0))


# --- regularity of index sets ------------------------------------------------


@dataclass
class RegularityReport:
    """Row/column regularity of an index set: `n_I` when every row and column
    count equals it, so `to_obj` spells the counts out from n_I alone; else
    the first (axis, value, count) that differs from row 1's count."""

    ok: bool
    n: int
    n_I: Optional[int] = None
    failure_witness: Optional[tuple] = None  # (axis, value, count)

    def to_obj(self) -> dict:
        counts = {str(x): self.n_I for x in range(1, self.n)}
        return {"n_I": self.n_I, "rows": counts, "cols": counts}


def regularity_stats(I: PairSet) -> RegularityReport:
    """Check that every row and column of I has one common positive count:
    row 1's, compared with each row, then each column; it is all a pass keeps."""
    n = I.n
    rows = {x: 0 for x in range(1, n)}
    cols = {x: 0 for x in range(1, n)}
    for (i, j) in I:
        rows[i] += 1
        cols[j] += 1
    ref = rows[1]
    for axis, counts in (("row", rows), ("col", cols)):
        for x in range(1, n):
            if counts[x] != ref:
                return RegularityReport(False, n, failure_witness=(axis, x, counts[x]))
    if ref == 0:
        return RegularityReport(False, n, failure_witness=("row", 1, 0))
    return RegularityReport(True, n, ref)


@dataclass(frozen=True)
class NonConstant:
    """Two index pairs whose intersection counts disagree."""

    pair_a: Pair
    count_a: int
    pair_b: Pair
    count_b: int

    def to_obj(self) -> dict:
        return {
            "pair_a": list(self.pair_a),
            "count_a": self.count_a,
            "pair_b": list(self.pair_b),
            "count_b": self.count_b,
        }


def circulant_structure_constant(
    I: PairSet, J: PairSet, K: PairSet, L: PairSet
) -> Union[int, NonConstant]:
    """The common count p^L_{IJK}, or the least pair of conflicting witnesses.

    For (y,z) in L this counts the w outside {0,y,z} with (y-w, z-w) in I,
    (w,z) in J and (y,w) in K.
    """
    if len(L) == 0:
        raise EmptyIndexSet("the fourth index set must be nonempty")
    n = I.n
    if not (J.n == K.n == L.n == n):
        raise ValueError("index sets must share one pair universe")
    first_pair = None
    first = 0
    for (y, z) in L:
        c = 0
        for w in range(1, n):
            if w == y or w == z:
                continue
            if ((y - w) % n, (z - w) % n) in I and (w, z) in J and (y, w) in K:
                c += 1
        if first_pair is None:
            first_pair, first = (y, z), c
        elif c != first:
            return NonConstant(first_pair, first, (y, z), c)
    return first


# --- AST-regularity of partitions of X ----------------------------------------


@dataclass
class ASTRegularityReport:
    """Outcome of the three-condition test on a partition of X(n).

    Fields are filled up to the first failing condition: `part_stats` after
    (a), `action` after (b), `bins` after (c). `part_stats` holds each part's
    passing :class:`RegularityReport`, whose n_I is every row and column count
    of the part. `to_obj` alone spells out the k^4 intersection numbers
    p^d_{abc} = `bins[d].get((a, b, c), 0)`, for at most JSON_PARTS_CAP parts.
    """

    ok: bool
    part_stats: Optional[list] = None
    action: Optional[dict] = None  # (part index, Sym3Element) -> part index
    bins: Optional[list] = None  # part index -> Counter of its least pair, from pair_bins
    failure: Optional[dict] = None

    def to_obj(self) -> dict:
        k = len(self.part_stats or ())
        if self.bins is not None and k > JSON_PARTS_CAP:
            raise ValueError(f"k = {k} parts is above the JSON report's cap of {JSON_PARTS_CAP}")
        keys = list(enumerate(map(str, range(k))))  # one key string per part, shared by every level
        return {
            "ok": self.ok,
            "parts": [s.to_obj() for s in self.part_stats] if self.part_stats is not None else None,
            "action": sym3_action_obj(self.action),
            "constants": None if self.bins is None else {
                sa: {sb: {sc: {sd: self.bins[d].get((a, b, c), 0) for d, sd in keys} for c, sc in keys} for b, sb in keys}
                for a, sa in keys
            },
            "failure": self.failure,
        }


def pair_bins(n: int, masks, stop: bool = False) -> list:
    """For each part d, given as a mask over the pair ranks of X(n): the bin
    counts of its least pair and the set of bins (a,b,c) whose count varies
    over the part. With `stop` the list ends at the first part found with a
    varying bin, whose set then holds only the bins found so far: enough to
    tell whether any bin varies.

    Pair (y,z) is binned by (part(y-w, z-w), part(w,z), part(y,w)) over w in
    Omega, so bin (a,b,c) of a pair in part d counts the w outside {0,y,z}
    that meet p^d_{abc}. The label -1 marks a pair in no mask: a pair outside
    X(n), or one no part holds yet (the rest, when the masks do not cover
    X(n)). Bins naming -1 are never reported as varying, so two pairs of a
    part whose counts differ only in such bins do not stop the list. Among
    them are the bins (d,-1,-1), (-1,d,-1) and (-1,-1,d) of the three w in
    {0,y,z}, so each of the three columns over w can be a slice of a
    precomputed table.
    """
    part = [[-1] * n for _ in range(n)]
    for idx, mask in enumerate(masks):
        for r in iter_bits(mask):
            i, j = pair_unrank(n, r)
            part[i][j] = idx
    column = [[part[w][z] for w in range(n)] for z in range(n)]
    # turned[d][n-1-y : 2n-1-y] lists part(y-w, y-w+d) for w = 0..n-1
    turned = []
    for d in range(n):
        back = [part[u][(u + d) % n] for u in range(n - 1, -1, -1)]
        turned.append(back + back)

    def bins(r: int) -> Counter:
        y, z = pair_unrank(n, r)
        start = n - 1 - y
        return Counter(zip(turned[(z - y) % n][start : start + n], column[z], part[y]))

    out = []
    for mask in masks:
        ranks = iter_bits(mask)
        ref = bins(next(ranks))
        varying = set()
        for r in ranks:
            other = bins(r)
            if not dict.__eq__(other, ref):  # Counter's == runs in Python
                # a Counter holds no zero count, so the differing items name the differing bins
                varying.update(key for key, _ in ref.items() ^ other.items() if -1 not in key)
                if stop and varying:
                    return out + [(ref, varying)]
        out.append((ref, varying))
    return out


def is_ast_regular(P: IndexPartition) -> ASTRegularityReport:
    """Test conditions (a) regularity, (b) Sym(3)-invariance, (c) constant
    intersection numbers, in that order, stopping at the first failure.

    (c) bins every pair of X(n) once (:func:`pair_bins`): p^L_{IJK} is
    constant iff every pair of L has the bin counts of the least pair of L.
    On a failure the least quadruple (a,b,c,d) whose bin (a,b,c) differs
    within part d is reported, with the witness of
    :func:`circulant_structure_constant` on that quadruple. On success the
    report keeps those k Counters, uncopied, as `bins`; their bins naming -1
    count the three w in {0,y,z} and are never read as intersection numbers.
    """
    # (a): every part row/column regular
    part_stats = []
    for idx, part in enumerate(P.parts):
        rep = regularity_stats(part)
        if not rep.ok:
            return ASTRegularityReport(
                False,
                failure={"condition": "a", "part": idx, "witness": list(rep.failure_witness)},
            )
        part_stats.append(rep)
    # (b): the six maps permute the parts
    index_of = {part: idx for idx, part in enumerate(P.parts)}
    action = {}
    for idx, part in enumerate(P.parts):
        for g in SYM3:
            target = index_of.get(sym3_image(part, g))
            if target is None:
                return ASTRegularityReport(
                    False,
                    part_stats=part_stats,
                    failure={"condition": "b", "part": idx, "element": SYM3_NAME[g]},
                )
            action[(idx, g)] = target
    # (c): every part has one bin count vector
    bins = pair_bins(P.n, [part.mask for part in P.parts])
    failing = [min(varying) + (d,) for d, (_, varying) in enumerate(bins) if varying]
    if failing:
        least = min(failing)
        res = circulant_structure_constant(*(P.parts[q] for q in least))
        return ASTRegularityReport(
            False,
            part_stats=part_stats,
            action=action,
            failure={"condition": "c", "quadruple": list(least), "witness": res.to_obj()},
        )
    return ASTRegularityReport(True, part_stats, action, [ref for ref, _ in bins], None)


def expand_partition(P: IndexPartition) -> TriplePartition:
    """The four trivial relations followed by the expansion of each part, ids
    4..3+|parts|; unchecked, for partitions already known to be AST-regular.
    Its row (x, y, .) is row (0, y-x, .) of the fibre x = 0 rotated by x."""
    n = P.n
    fibre = [[0] + [3] * (n - 1)] + [[2] + [1] * (n - 1) for _ in range(1, n)]
    for rid, part in enumerate(P.parts, 4):
        for i, j in part:
            fibre[i][j] = rid
    rows = ((fibre[(y - x) % n] * 2)[n - x : 2 * n - x] for x, y in product(range(n), repeat=2))
    sizes = [n] + [n * (n - 1)] * 3 + [n * len(part) for part in P.parts]
    return TriplePartition.from_table(n, list(chain.from_iterable(rows)), sizes)


def build_ast(P: IndexPartition) -> TriplePartition:
    """The triple scheme of an AST-regular partition (:func:`expand_partition`);
    raises :class:`NotASTRegular` with the report otherwise."""
    report = is_ast_regular(P)
    if not report.ok:
        raise NotASTRegular(f"partition is not AST-regular: {report.failure}", report=report)
    return expand_partition(P)


def extract_partition(A: TriplePartition) -> IndexPartition:
    """Recover the partition of X(n) from a circulant scheme, read off the
    fibre x = 0 of its table; inverse of :func:`build_ast` up to relation
    order. A scheme the diagonal shift moves names its first moved relation."""
    n = A.n
    if not verify_trivial(A):
        raise NotCirculantAST("relations 0..3 are not the trivial relations")
    if A.orbit == 1:  # so a relation past the trivial ones is not shift-closed
        rid, moved = next((rid, m) for rid in range(4, len(A.sizes)) if (m := _unshifted(A.relations[rid])))
        t = min(moved)
        message = f"relation {rid} is not a nontrivial 3-circulant: shift of {t} is missing"
        raise NotCirculantAST(message, witness=t)
    masks = [0] * len(A.sizes)
    for rank, (i, j) in enumerate(PairSet.universe(n)):
        masks[A.table[i * n + j]] |= 1 << rank
    return IndexPartition(n, tuple(PairSet(n, mask) for mask in masks[4:]))
