"""Axiom checker for triple partitions.

verify_ast runs the whole pipeline on a candidate scheme: the trivial-relation
layout, axiom A1 (constant out-degree per nontrivial relation), axiom A3 (the
coordinate permutations permute the relations) and axiom A2 (the principal
regularity condition), producing the full tensor of intersection numbers
p_{ijk}^l together with the three marginal parameter families.

A1, A2 and A3 read one table, `TriplePartition.table`: the relation id of
every triple laid out flat at x*n*n + y*n + z. A partition is one by
construction, so every triple has an id. verify_a1 counts the ids in each row
(x, y, .). verify_a2 bins, for every triple (x,y,z), each w in Omega by the
ids of (w,y,z), (x,w,z), (x,y,w): three slices of the table, counted by one
C-level Counter over their zip (O(n^4) work, almost all in C); the count
vector must be constant across each relation. verify_a3 counts the pairs (id
of t, id of g(t)) in one Counter per permutation g. The marginals are tensor
sums over the bins of R3 = {(x,x,y)} and R1 = {(x,y,y)}: those bins count the
completions of a pair of distinct points in each slot, and A2 makes them
constant, so they need no recount.

When the diagonal shift t -> t + (1,1,1) keeps every id in the table
(`TriplePartition.orbit` is n, tested row by row once per partition), it is an
automorphism: it maps the w-column of t onto that of its image, so the two
count vectors agree, and it commutes with each g, so the pair (id of t, id of
g(t)) is constant on each shift orbit. An orbit has n triples and exactly one
with x = 0, so all three checks scan that fibre alone (A1 in O(n^2) in place
of O(n^3), A2 in O(n^3) in place of O(n^4)); A3 multiplies each pair count by
n. The A2 scan is x-major and every relation meets x = 0, so the reference
triples are those of the full scan; a failing triple shifted to x = 0 fails
too and comes earlier, so the first witness is the same.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import Optional, Union

from .circulant import SYM3, SYM3_NAME, EmptyIndexSet, sym3_action_obj, sym3_image
from .core import CircastError, PairSet, TriplePartition, verify_trivial


class IdentityViolation(CircastError):
    """A marginal parameter disagrees with its tensor identity; `witness` is
    the relation id."""


@dataclass
class AxiomFailure:
    """A tagged witness for one failed verification step."""

    axiom: str
    details: dict

    def to_obj(self) -> dict:
        out = {"axiom": self.axiom}
        for k, v in self.details.items():
            out[k] = list(v) if isinstance(v, tuple) else v
        return out


@dataclass
class StructureTensor:
    """The intersection numbers p_{ijk}^l of a scheme plus its marginals.

    `p` is sparse: absent keys are zero. The marginals map each nontrivial id
    to the number of completions of an ordered pair of distinct points in the
    first, middle and last coordinate, summed from the bins of R3 (first and
    middle) and R1 (last).
    """

    n: int
    m: int
    p: dict
    n1: dict
    n2: dict
    n3: dict

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "p": [[i, j, k, l, v] for (i, j, k, l), v in sorted(self.p.items())],
            "marginals": {
                "n1": {str(k): v for k, v in sorted(self.n1.items())},
                "n2": {str(k): v for k, v in sorted(self.n2.items())},
                "n3": {str(k): v for k, v in sorted(self.n3.items())},
            },
        }


@dataclass
class ASTReport:
    ok: bool
    tensor: Optional[StructureTensor] = None
    a3_action: Optional[dict] = None  # (relation id, Sym3Element) -> relation id
    symmetric: Optional[bool] = None
    failures: list = field(default_factory=list)

    def to_obj(self) -> dict:
        tensor_obj = marginals_obj = None
        if self.tensor is not None:
            full = self.tensor.to_obj()
            tensor_obj = full["p"]
            marginals_obj = full["marginals"]
        return {
            "ok": self.ok,
            "tensor": tensor_obj,
            "marginals": marginals_obj,
            "a3_action": sym3_action_obj(self.a3_action),
            "symmetric": self.symmetric,
            "failures": [f.to_obj() for f in self.failures],
        }


def verify_a1(A: TriplePartition) -> Union[dict, AxiomFailure]:
    """The positive constants n_i^(3) for each nontrivial relation, or a
    witness pair with two differing counts: the count of z with (x,y,z) in
    the relation must be one positive value over all ordered pairs x != y.

    Each row (x, y, .) of the table is counted once, in lexicographic order
    from (0, 1); a failing relation's witness is the first pair whose count
    differs. On a shift-closed table only the x = 0 rows are read: row
    (x, y, .) is row (0, y-x, .) rotated, and (0, y-x) comes first."""
    n = A.n
    flat, orbit = A.table, A.orbit
    ref = Counter(flat[n : 2 * n])  # the row of (0, 1)
    least = (len(A.sizes), None, None)  # (id, pair, count) of the least id that differs
    for x, y in product(range(n // orbit), range(n)):
        if x == y:
            continue
        start = (x * n + y) * n
        counts = Counter(flat[start : start + n])
        if not dict.__eq__(counts, ref):  # Counter's == runs in Python
            rid = min((rid for rid, _ in counts.items() ^ ref.items() if rid >= 4), default=least[0])
            if rid < least[0]:  # then rid differed in no earlier row: this row is its first
                least = (rid, (x, y), counts[rid])
    for rid in range(4, len(A.sizes)):
        if rid == least[0]:
            _, pair, count = least
            return AxiomFailure(
                "A1",
                {
                    "relation": rid,
                    "pair_a": (0, 1),
                    "count_a": ref[rid],
                    "pair_b": pair,
                    "count_b": count,
                },
            )
        if ref[rid] == 0:
            return AxiomFailure("A1", {"relation": rid, "reason": "zero count"})
    return {rid: ref[rid] for rid in range(4, len(A.sizes))}


def verify_a3(A: TriplePartition) -> Union[dict, AxiomFailure]:
    """The induced Sym(3) action on relation ids, or a witness (i, sigma)
    whose permuted relation is not a relation of the partition.

    g maps R_i onto R_j exactly when it sends all |R_i| triples of R_i into
    R_j and |R_i| = |R_j|; one Counter over (id of t, id of g(t)) per g
    decides this for every relation at once."""
    n = A.n
    flat, orbit = A.table, A.orbit
    images = {}
    for g in SYM3:
        # t^g holds t[k] at position g[k] (permute_triple), so its index is
        # the sum of t[k] * n**(3 - g[k])
        sx, sy, sz = (n ** (3 - p) for p in g)
        moved = []
        for x, y in product(range(n // orbit), range(n)):
            start = x * sx + y * sy
            moved += flat[start : start + sz * (n - 1) + 1 : sz]
        for (i, j), count in Counter(zip(flat, moved)).items():
            if count * orbit == A.sizes[i] == A.sizes[j]:
                images[(i, g)] = j
    action = {}
    for rid, g in product(range(len(A.sizes)), SYM3):
        if (rid, g) not in images:
            return AxiomFailure("A3", {"relation": rid, "element": SYM3_NAME[g]})
        action[(rid, g)] = images[(rid, g)]
    return action


def verify_a2(A: TriplePartition) -> Union[StructureTensor, AxiomFailure]:
    """The full tensor p_{ijk}^l, or two witness triples in one relation with
    different count vectors.

    Needs the trivial layout (ids 0..3 are R0..R3, as :func:`verify_ast`
    checks first): the marginals are read off the constant bins of R1 and R3.
    """
    n = A.n
    nn = n * n
    flat, orbit = A.table, A.orbit
    first = [[flat[y * n + z :: nn] for z in range(n)] for y in range(n)]  # ids of (w,y,z)
    reference: dict = {}  # relation id -> (triple, count vector)
    for x in range(n // orbit):
        base = x * nn
        middle = [flat[base + z : base + nn : n] for z in range(n)]  # ids of (x,w,z)
        for y in range(n):
            last = flat[base + y * n : base + y * n + n]  # ids of (x,y,w)
            first_y = first[y]
            for z in range(n):
                t = (x, y, z)
                vec = Counter(zip(first_y[z], middle[z], last))
                l = last[z]
                seen = reference.get(l)
                if seen is None:
                    reference[l] = (t, vec)
                elif not dict.__eq__(seen[1], vec):  # Counter's == runs in Python
                    bad = min(key for key, _ in seen[1].items() ^ vec.items())
                    return AxiomFailure(
                        "A2",
                        {
                            "relation": l,
                            "triple_a": seen[0],
                            "triple_b": t,
                            "bin": bad,
                            "count_a": seen[1][bad],
                            "count_b": vec[bad],
                        },
                    )
    p = {
        (i, j, k, l): count
        for l, (_, vec) in reference.items()
        for (i, j, k), count in vec.items()
    }
    # a triple (x,x,y) of R3 counts in bin (i,.,.) the w with (w,x,y) in R_i,
    # in bin (.,j,.) those with (x,w,y) in R_j; (x,y,y) of R1 counts in bin
    # (.,.,k) the w with (x,y,w) in R_k
    n1, n2, n3 = ({rid: 0 for rid in range(4, len(A.sizes))} for _ in range(3))
    for (i, j, k, l), count in p.items():
        for marginal, rid, base in ((n1, i, 3), (n2, j, 3), (n3, k, 1)):
            if l == base and rid in marginal:
                marginal[rid] += count
    return StructureTensor(n, A.m, p, n1, n2, n3)


def derived_parameters(t: StructureTensor) -> tuple[dict, dict]:
    """The marginals n_i^(1), n_i^(2) summed from the bins of R2 and R1,
    cross-checked against those stored on the tensor (from R3)."""
    n1 = {}
    n2 = {}
    for i in range(4, t.m + 1):
        n1[i] = sum(t.p.get((i, 2, k, 2), 0) for k in range(t.m + 1))
        n2[i] = sum(t.p.get((1, i, k, 1), 0) for k in range(t.m + 1))
        for axis, derived, stored in ((1, n1[i], t.n1.get(i)), (2, n2[i], t.n2.get(i))):
            if derived != stored:
                raise IdentityViolation(
                    f"n_{i}^({axis}): tensor sum {derived} != direct count {stored}", witness=i
                )
    return n1, n2


def verify_ast(A: TriplePartition) -> ASTReport:
    """Run the full verification pipeline, short-circuiting on failure. The
    marginals are A2's: once every triple (x,x,y) of R3 has one bin vector,
    each pair x != y has as many completions w in the first (or middle) slot
    as any other, so :func:`derived_parameters` cannot disagree."""
    if not verify_trivial(A):
        return ASTReport(
            False, failures=[AxiomFailure("trivial", {"reason": "ids 0..3 are not R0..R3"})]
        )
    a1 = verify_a1(A)
    if isinstance(a1, AxiomFailure):
        return ASTReport(False, failures=[a1])
    a3 = verify_a3(A)
    if isinstance(a3, AxiomFailure):
        return ASTReport(False, failures=[a3])
    a2 = verify_a2(A)
    if isinstance(a2, AxiomFailure):
        return ASTReport(False, a3_action=a3, failures=[a2])
    symmetric = all(a3[(rid, g)] == rid for rid in range(4, len(A.sizes)) for g in SYM3)
    return ASTReport(True, a2, a3, symmetric, [])


def symmetrise(I: PairSet) -> PairSet:
    """The smallest Sym(3)-closed index set containing I: the union of its six
    images. Idempotent."""
    if len(I) == 0:
        raise EmptyIndexSet("cannot symmetrise the empty index set")
    out = I
    for g in SYM3[1:]:
        out = out | sym3_image(I, g)
    return out
