"""Permutation-group constructions on the base set.

Groups are given by generator lists in disjoint-cycle notation over the
points 0..n-1. Orbits on pairwise-distinct triples are computed by plain
breadth-first closure (no group-order machinery) and assembled into a
candidate scheme with the trivial relations at ids 0..3. The one built-in
family is the affine group of a prime field, generated by the +1 shift and
multiplication by the least primitive root; everything else is supplied by
the caller as explicit generators.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import permutations
from operator import itemgetter, mul

from .core import (
    TRIPLE_N_CAP,
    CircastError,
    TriplePartition,
    json_typed,
    make_domain,
    strict_int,
    trivial_relations,
)


class MalformedCycles(CircastError, ValueError):
    """Cycle notation with repeated, out-of-range or unparsable points."""


class NotPrime(CircastError, ValueError):
    """The affine-group constructor needs a prime modulus."""


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0, ..., n-1}, stored as its image tuple."""

    images: tuple

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("images do not describe a bijection")

    @property
    def n(self) -> int:
        return len(self.images)

    def __repr__(self) -> str:
        return f"Permutation({cycles_string(self) or 'e'!r}, n={self.n})"


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse disjoint-cycle notation like "(0 1 2 3 4)" over 0..n-1; the empty
    string is the identity and fixed points may be omitted."""
    images = list(range(n))
    seen: set = set()
    body = text.strip()
    if body:
        if not re.fullmatch(r"(\s*\([^()]*\)\s*)+", body):
            raise MalformedCycles(f"cannot parse cycle notation {text!r}")
        for cycle_body in re.findall(r"\(([^()]*)\)", body):
            try:
                points = [int(tok) for tok in cycle_body.split()]
            except ValueError as exc:
                raise MalformedCycles(f"non-integer point in {text!r}") from exc
            for p in points:
                if not 0 <= p < n:
                    raise MalformedCycles(f"point {p} out of range for n={n}")
                if p in seen:
                    raise MalformedCycles(f"point {p} repeated")
                seen.add(p)
            if len(points) >= 2:
                for a, b in zip(points, points[1:]):
                    images[a] = b
                images[points[-1]] = points[0]
    return Permutation(tuple(images))


def cycles_string(p: Permutation) -> str:
    """Disjoint-cycle notation, fixed points omitted; "" for the identity."""
    out = []
    seen: set = set()
    for start in range(p.n):
        if start in seen or p.images[start] == start:
            continue
        cycle = [start]
        seen.add(start)
        x = p.images[start]
        while x != start:
            cycle.append(x)
            seen.add(x)
            x = p.images[x]
        out.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(out)


@dataclass(frozen=True)
class GroupSpec:
    """A permutation group given by generators on {0, ..., n-1}."""

    n: int
    generators: tuple

    def __post_init__(self) -> None:
        for g in self.generators:
            if not isinstance(g, Permutation) or g.n != self.n:
                raise ValueError("generators must act on the same base set")

    def to_obj(self) -> dict:
        return {"n": self.n, "generators": [cycles_string(g) for g in self.generators]}

    @classmethod
    def from_obj(cls, obj: dict) -> "GroupSpec":
        n = strict_int(obj["n"], "n", TRIPLE_N_CAP)
        generators = json_typed(obj["generators"], list, "generators", str)
        return cls(n, tuple(parse_cycles(text, n) for text in generators))


def _orbit(G: GroupSpec, start: tuple, table: list, rid) -> int:
    """The size of the orbit of the triple start under G acting on each
    coordinate; table, None at triples in no orbit yet, gets rid at each
    triple (x, y, z) of the orbit, at index x*n*n + y*n + z."""
    weights = (G.n * G.n, G.n, 1)
    table[sum(map(mul, start, weights))] = rid
    frontier = [start]
    size = 1
    while frontier:
        image = itemgetter(*frontier.pop())
        for g in G.generators:
            img = image(g.images)
            k = sum(map(mul, img, weights))
            if table[k] is None:
                table[k] = rid
                size += 1
                frontier.append(img)
    return size


def orbit_partition_on_triples(G: GroupSpec) -> TriplePartition:
    """The candidate scheme whose nontrivial relations are the orbits of G on
    pairwise-distinct triples, ids assigned by least triple. Each orbit's id
    goes into the relation-id table as the orbit is closed."""
    n = G.n
    table = [None] * n**3
    for rid, rel in enumerate(trivial_relations(n)):
        for x, y, z in rel.triples:
            table[(x * n + y) * n + z] = rid
    sizes = [n] + [n * (n - 1)] * 3
    for x, y, z in permutations(range(n), 3):
        if table[(x * n + y) * n + z] is None:
            sizes.append(_orbit(G, (x, y, z), table, len(sizes)))
    return TriplePartition.from_table(n, table, sizes)


def _least_primitive_root(p: int) -> int:
    for g in range(2, p):
        x = g
        order = 1
        while x != 1:
            x = x * g % p
            order += 1
        if order == p - 1:
            return g
    raise NotPrime(f"no primitive root mod {p}")


def agl1(p: int) -> GroupSpec:
    """The affine group of Z_p for prime p: the +1 shift together with
    multiplication by the least primitive root."""
    if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
        raise NotPrime(f"{p} is not prime")
    make_domain(p)  # p = 2 is prime but too small to carry a scheme
    shift = Permutation(tuple((x + 1) % p for x in range(p)))
    root = _least_primitive_root(p)
    mult = Permutation(tuple(root * x % p for x in range(p)))
    return GroupSpec(p, (shift, mult))


def shift_invariance_check(A: TriplePartition) -> bool:
    """True iff the scheme is circulant: every relation keeps its id under the
    diagonal shift."""
    return A.orbit == A.n
