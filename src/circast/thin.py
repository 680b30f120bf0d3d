"""Thin 3-circulants and the matching decomposition of regular index sets.

A relation R is ab-thin when projecting its triples to coordinates (a, b) is
a bijection onto the off-diagonal pairs of Omega^2; a thin relation therefore
has exactly n(n-1) triples. A 12-thin 3-circulant is encoded by one map rho
on the nonzero residues via the triples (x, x+y, x+rho(y)), and it is
nontrivial exactly when rho is a derangement.

A regular index set I of valency k is the edge set of a k-regular bipartite
graph on two copies of the nonzero residues, so it splits into k perfect
matchings. The split is computed by repeated augmenting-path search in
canonical vertex order (the decomposition itself is not canonical, so the
implementation fixes one deterministically) and certified against its
postconditions before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circulant import CYCLE123, IDENTITY, SWAP23, is_circulant, permute_triple, regularity_stats
from .core import CircastError, PairSet, TernaryRelation


class NotThin(CircastError):
    """The relation is not thin for the requested coordinate pair."""


class NotRegular(CircastError):
    """The index set fails row/column regularity."""


# label ab -> the Sym(3) element moving (x, x+y, x+rho(y)) to slots (a, b, c);
# its first two entries are the label's digits
_AB_ELEMENT = {"12": IDENTITY, "13": SWAP23, "23": CYCLE123}
AB_LABELS = tuple(_AB_ELEMENT)


def _is_thin(R: TernaryRelation, ab: str) -> bool:
    """True iff the (a,b)-projection of R is a bijection onto the off-diagonal pairs."""
    n = R.n
    if len(R) != n * (n - 1):
        return False
    a, b, _ = (k - 1 for k in _AB_ELEMENT[ab])
    proj = {(t[a], t[b]) for t in R.triples}
    return len(proj) == len(R) and proj.isdisjoint(zip(range(n), range(n)))


def thin_profile(R: TernaryRelation) -> frozenset:
    """The labels ab for which the (a,b)-projection of R is a bijection onto
    the off-diagonal pairs."""
    return frozenset(ab for ab in AB_LABELS if _is_thin(R, ab))


@dataclass
class ThinWitness:
    """The map rho encoding an ab-thin 3-circulant."""

    ab: str
    rho: dict
    derangement: bool

    def to_obj(self) -> dict:
        return {
            "ab": self.ab,
            "rho": {str(k): v for k, v in sorted(self.rho.items())},
            "derangement": self.derangement,
        }


def thin_relation(n: int, ab: str, rho: dict) -> TernaryRelation:
    """The ab-thin 3-circulant encoded by rho: for each point x and each
    nonzero y, the triple with x at slot a, x+y at slot b, x+rho(y) at slot c."""
    g = _AB_ELEMENT[ab]
    return TernaryRelation(
        n, frozenset(permute_triple((x, (x + y) % n, (x + rho[y]) % n), g) for x in range(n) for y in range(1, n))
    )


def thin_witness(R: TernaryRelation, ab: str) -> ThinWitness:
    """Read rho off the fibre of R over slot-a value 0, certifying that R is
    shift-closed, so that rho regenerates R; the derangement flag marks
    nontrivial relations."""
    if ab not in AB_LABELS:
        raise ValueError(f"ab must be one of {AB_LABELS}, got {ab!r}")
    if not _is_thin(R, ab):
        raise NotThin(f"relation is not {ab}-thin")
    if not is_circulant(R):
        raise NotThin(f"relation is {ab}-thin but not shift-closed")
    return _read_witness(R, ab)


def _read_witness(R: TernaryRelation, ab: str) -> ThinWitness:
    """thin_witness for a relation already known to be ab-thin and
    shift-closed: rho is then defined on 1..n-1, and thin_relation(n, ab, rho),
    the shifts of R's n-1 slot-a zero triples, is R."""
    a, b, c = (k - 1 for k in _AB_ELEMENT[ab])
    rho = {t[b]: t[c] for t in R.triples if t[a] == 0}
    derangement = all(rho[y] not in (0, y) for y in rho)
    return ThinWitness(ab, dict(sorted(rho.items())), derangement)


def _perfect_matching(n: int, adj: dict) -> dict:
    """One perfect matching of the bipartite graph rows -> columns, found by
    augmenting paths seeded in ascending vertex order."""
    match_right: dict = {}

    def augment(u: int, seen: set) -> bool:
        for v in adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match_right or augment(match_right[v], seen):
                match_right[v] = u
                return True
        return False

    for u in range(1, n):
        if not augment(u, set()):
            raise NotRegular(f"no perfect matching covers row {u}")
    return {u: v for v, u in match_right.items()}


def matching_decomposition(I: PairSet) -> tuple:
    """Split a regular index set of valency n_I into a tuple of exactly n_I
    disjoint perfect matchings (PairSets), each of which expands to a
    nontrivial 12-thin and 13-thin 3-circulant."""
    report = regularity_stats(I)
    if not report.ok:
        raise NotRegular(
            f"index set is not regular: {report.failure_witness}",
            witness=report.failure_witness,
        )
    n = I.n
    valency = report.n_I
    adj = {u: [v for v in range(1, n) if (u, v) in I] for u in range(1, n)}
    parts = []
    for _ in range(valency):
        matching = _perfect_matching(n, adj)
        parts.append(PairSet.from_pairs(n, sorted(matching.items())))
        for u, v in matching.items():
            adj[u].remove(v)
    _certify(I, parts)
    return tuple(parts)


def _certify(I: PairSet, parts: list) -> None:
    """Postcondition check: disjoint, union = I, every part a perfect matching.
    A matching's expansion needs no thinness check: its (1,2)-projection
    (x, x+i) meets each off-diagonal pair once because each row i holds one
    pair, and its (1,3)-projection (x, x+j) likewise by columns."""
    union = 0
    for part in parts:
        if part.mask & union:
            raise RuntimeError("matching decomposition produced overlapping parts")
        union |= part.mask
        stats = regularity_stats(part)
        if not (stats.ok and stats.n_I == 1):
            raise RuntimeError("matching decomposition produced a non-matching part")
    if union != I.mask:
        raise RuntimeError("matching decomposition does not cover the index set")
