"""Axiom checker for triple partitions.

verify_ast runs the whole pipeline on a candidate scheme: the trivial-relation
layout, axiom A1 (constant out-degree per nontrivial relation), axiom A3 (the
coordinate permutations permute the relations) and axiom A2 (the principal
regularity condition), producing the full tensor of intersection numbers
p_{ijk}^l together with the three marginal parameter families. verify_a2
bins, for every triple (x,y,z), each w in Omega by the ids of (w,y,z), (x,w,z),
(x,y,w), and the resulting count vector must be constant across each relation.
The relation ids are laid out once in a flat table indexed by x*n*n + y*n + z,
so the three columns over w are slices of it and each count vector is one
C-level Counter over their zip: O(n^4) work, done almost entirely in C.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import Optional, Union

from .circulant import SYM3, SYM3_NAME, EmptyIndexSet, permute_relation, sym3_image
from .core import CircastError, PairSet, TriplePartition, make_domain, trivial_relations


class IdentityViolation(CircastError):
    """A marginal parameter disagrees with its tensor identity."""

    def __init__(self, message: str, relation=None):
        super().__init__(message)
        self.relation = relation


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
    to the constants counted directly on the relation (first, middle and last
    coordinate respectively).
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
        action_obj = None
        if self.a3_action is not None:
            m = max(rid for rid, _ in self.a3_action) + 1
            action_obj = {
                SYM3_NAME[g]: [self.a3_action[(rid, g)] for rid in range(m)] for g in SYM3
            }
        tensor_obj = marginals_obj = None
        if self.tensor is not None:
            full = self.tensor.to_obj()
            tensor_obj = full["p"]
            marginals_obj = full["marginals"]
        return {
            "ok": self.ok,
            "tensor": tensor_obj,
            "marginals": marginals_obj,
            "a3_action": action_obj,
            "symmetric": self.symmetric,
            "failures": [f.to_obj() for f in self.failures],
        }


def verify_trivial(A: TriplePartition) -> bool:
    """True iff relations 0..3 are exactly the four trivial relations."""
    if len(A.relations) < 4:
        return False
    return tuple(A.relations[:4]) == trivial_relations(make_domain(A.n))


def _axis_constant(n: int, rel, axis: int):
    """Constant count of completions of a pair in the given coordinate slot.

    axis 1 counts z with (z,x,y) in the relation, axis 2 counts (x,z,y),
    axis 3 counts (x,y,z); constancy is over all ordered pairs x != y.
    Returns (value, None) or (None, witness).
    """
    counts: dict = {}
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


def verify_a1(A: TriplePartition) -> Union[dict, AxiomFailure]:
    """The positive constants n_i^(3) for each nontrivial relation, or a
    witness pair with two differing counts."""
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


def verify_a3(A: TriplePartition) -> Union[dict, AxiomFailure]:
    """The induced Sym(3) action on relation ids, or a witness (i, sigma)
    whose permuted relation is not a relation of the partition."""
    lookup = {rel.triples: rid for rid, rel in enumerate(A.relations)}
    action = {}
    for rid, rel in enumerate(A.relations):
        for g in SYM3:
            target = lookup.get(permute_relation(rel, g).triples)
            if target is None:
                return AxiomFailure("A3", {"relation": rid, "element": SYM3_NAME[g]})
            action[(rid, g)] = target
    return action


def verify_a2(A: TriplePartition) -> Union[StructureTensor, AxiomFailure]:
    """The full tensor p_{ijk}^l, or two witness triples in one relation with
    different count vectors."""
    n = A.n
    nn = n * n
    ids = A.triple_ids()
    flat = [ids[t] for t in product(range(n), repeat=3)]  # KeyError on a missing triple
    first = [[flat[y * n + z :: nn] for z in range(n)] for y in range(n)]  # ids of (w,y,z)
    reference: dict = {}  # relation id -> (triple, count vector)
    for x in range(n):
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
                    bins = sorted(set(seen[1]) | set(vec))
                    bad = next(b for b in bins if seen[1][b] != vec[b])
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


def derived_parameters(t: StructureTensor) -> tuple[dict, dict]:
    """The marginals n_i^(1), n_i^(2) computed from the tensor, cross-checked
    against the directly counted values stored on the tensor."""
    n1 = {}
    n2 = {}
    for i in range(4, t.m + 1):
        n1[i] = sum(t.p.get((i, 2, k, 2), 0) for k in range(t.m + 1))
        n2[i] = sum(t.p.get((1, i, k, 1), 0) for k in range(t.m + 1))
        if n1[i] != t.n1.get(i):
            raise IdentityViolation(
                f"n_{i}^(1): tensor sum {n1[i]} != direct count {t.n1.get(i)}", relation=i
            )
        if n2[i] != t.n2.get(i):
            raise IdentityViolation(
                f"n_{i}^(2): tensor sum {n2[i]} != direct count {t.n2.get(i)}", relation=i
            )
    return n1, n2


def verify_ast(A: TriplePartition) -> ASTReport:
    """Run the full verification pipeline, short-circuiting on failure."""
    try:
        A.validate()
    except ValueError as exc:
        return ASTReport(False, failures=[AxiomFailure("partition", {"reason": str(exc)})])
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
    try:
        derived_parameters(a2)
    except IdentityViolation as exc:
        return ASTReport(
            False,
            tensor=a2,
            a3_action=a3,
            failures=[AxiomFailure("eq1", {"relation": exc.relation, "reason": str(exc)})],
        )
    return ASTReport(True, a2, a3, _fixes_every_relation(A, a3), [])


def _fixes_every_relation(A: TriplePartition, a3: dict) -> bool:
    """True iff the A3 action fixes every nontrivial relation id."""
    return all(a3[(rid, g)] == rid for rid in range(4, len(A.relations)) for g in SYM3)


def is_symmetric_ast(A: TriplePartition) -> bool:
    """True iff every nontrivial relation is fixed by all six coordinate
    permutations; requires A3 to hold."""
    a3 = verify_a3(A)
    if isinstance(a3, AxiomFailure):
        raise ValueError("A3 does not hold, no symmetry classification")
    return _fixes_every_relation(A, a3)


def symmetrise(I: PairSet) -> PairSet:
    """The smallest Sym(3)-closed index set containing I: the union of its six
    images. Idempotent."""
    if len(I) == 0:
        raise EmptyIndexSet("cannot symmetrise the empty index set")
    out = I
    for g in SYM3[1:]:
        out = out | sym3_image(I, g)
    return out
