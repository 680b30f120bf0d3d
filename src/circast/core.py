"""Base objects for ternary relations over the residues mod n.

The ground set is Omega = {0, ..., n-1}; pairs and triples are plain tuples
of residues. Index sets live inside the pair universe

    X(n) = {(i, j) : 1 <= i, j <= n-1, i != j}

and are stored as bitmasks keyed by the lexicographic rank of (i, j) in X(n);
the search works on raw masks, `|` serves `symmetrise` and `-` the benchmark's
input builders. Relations and the two partition types canonicalise their
contents: equal values compare equal and serialise to identical JSON. A triple
partition is its relation-id table and is a partition of Omega^3 by
construction: made from relations or read from JSON, it is checked once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, product, repeat
from typing import Iterable, Iterator, Optional

Pair = tuple[int, int]
Triple = tuple[int, int, int]


class CircastError(Exception):
    """Base class for the errors raised by this package; `witness`, when
    given, is the object that shows the failure."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class DomainTooSmall(CircastError, ValueError):
    """Raised for base sets with fewer than three points."""


def make_domain(n: int) -> int:
    """n, once checked to carry a scheme: the base set {0, ..., n-1}, on
    whose points all arithmetic is mod n, needs n >= 3."""
    if n < 3:
        raise DomainTooSmall(f"base set needs n >= 3, got n={n}")
    return n


# caps on n read from input, checked before anything of size n is built.
# Index-level input reads back every X(n) that gen-x writes; at the other two
# caps, building all n^3 triples and a search each peak below 200 MB, as does
# the JSON report that spells out the k^4 intersection numbers of k parts.
INDEX_N_CAP = 256
TRIPLE_N_CAP = 64
SEARCH_N_CAP = 100
JSON_PARTS_CAP = 48


def strict_int(value, what: str, cap: Optional[int] = None) -> int:
    """The value itself if it is an int, at most cap if one is given; bools,
    floats and strings raise ValueError instead of being read as a number."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if cap is not None and value > cap:
        raise ValueError(f"{what} = {value} is above this command's cap of {cap}")
    return value


def json_typed(value, kind: type, what: str, items: Optional[type] = None):
    """The value itself if json.load made it a `kind` (list, dict or str), each
    of its items an `items` if that is given; anything else raises ValueError
    naming the field, e.g. `parts[0][1] must be a JSON array`."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be a JSON {({list: 'array', dict: 'object', str: 'string'})[kind]}")
    for i, item in enumerate(value if items else ()):
        json_typed(item, items, f"{what}[{i}]")
    return value


def pair_capacity(n: int) -> int:
    """|X(n)| = (n-1)(n-2)."""
    return (n - 1) * (n - 2)


def in_pair_universe(n: int, pair: tuple) -> bool:
    """True iff pair is two ints (bools are not) i != j in 1..n-1."""
    if len(pair) != 2 or type(pair[0]) is not int or type(pair[1]) is not int:
        return False
    i, j = pair
    return 0 < i < n and 0 < j < n and i != j


def in_triple_space(n: int, triple: tuple) -> bool:
    """True iff triple is three ints (bools are not) in 0..n-1."""
    return len(triple) == 3 and all(type(x) is int and 0 <= x < n for x in triple)


def pair_rank(n: int, pair: Pair) -> int:
    """Lexicographic rank of a pair within X(n)."""
    i, j = pair
    return (i - 1) * (n - 2) + (j - 1 if j < i else j - 2)


def pair_unrank(n: int, rank: int) -> Pair:
    row, offset = divmod(rank, n - 2)
    i = row + 1
    j = offset + 1 if offset + 1 < i else offset + 2
    return (i, j)


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class PairSet:
    """A subset of X(n), held as a bitmask over the canonical pair ranks."""

    n: int
    mask: int = 0

    def __post_init__(self) -> None:
        make_domain(self.n)
        if self.mask < 0 or self.mask >> pair_capacity(self.n):
            raise ValueError("mask has bits outside the pair universe")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[Pair]) -> "PairSet":
        make_domain(n)  # before any pair is read against X(n)
        mask = 0
        for pair in pairs:
            pair = tuple(pair)
            if not in_pair_universe(n, pair):
                raise ValueError(f"{pair!r} is not in the pair universe for n={n}")
            mask |= 1 << pair_rank(n, pair)
        return cls(n, mask)

    @classmethod
    def universe(cls, n: int) -> "PairSet":
        make_domain(n)  # before a mask of (n-1)(n-2) bits is built
        return cls(n, (1 << pair_capacity(n)) - 1)

    def pairs(self) -> tuple[Pair, ...]:
        return tuple(pair_unrank(self.n, r) for r in iter_bits(self.mask))

    def __contains__(self, pair: object) -> bool:
        if not (isinstance(pair, tuple) and in_pair_universe(self.n, pair)):
            return False
        return bool(self.mask >> pair_rank(self.n, pair) & 1)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.pairs())

    def __len__(self) -> int:
        return self.mask.bit_count()

    def _same_universe(self, other: "PairSet") -> None:
        if not isinstance(other, PairSet) or other.n != self.n:
            raise ValueError("operands must share one pair universe")

    def __or__(self, other: "PairSet") -> "PairSet":
        self._same_universe(other)
        return PairSet(self.n, self.mask | other.mask)

    def __sub__(self, other: "PairSet") -> "PairSet":
        self._same_universe(other)
        return PairSet(self.n, self.mask & ~other.mask)

    def to_obj(self) -> dict:
        return {"n": self.n, "pairs": [list(p) for p in self.pairs()]}

    @classmethod
    def from_obj(cls, obj: dict) -> "PairSet":
        n = strict_int(obj["n"], "n", INDEX_N_CAP)
        return cls.from_pairs(n, json_typed(obj["pairs"], list, "pairs", list))

    def __repr__(self) -> str:
        return f"PairSet(n={self.n}, pairs={list(self.pairs())})"


@dataclass(frozen=True)
class TernaryRelation:
    """A set of triples over {0, ..., n-1}."""

    n: int
    triples: frozenset

    def __post_init__(self) -> None:
        make_domain(self.n)
        object.__setattr__(self, "triples", frozenset(self.triples))

    @classmethod
    def from_triples(cls, n: int, triples: Iterable[Triple]) -> "TernaryRelation":
        make_domain(n)  # before any triple is read against 0..n-1
        out = set()
        for t in triples:
            triple = tuple(t) if isinstance(t, (tuple, list)) else ()
            if not in_triple_space(n, triple):
                raise ValueError(f"{t!r} is not a triple over 0..{n - 1}")
            out.add(triple)
        return cls(n, frozenset(out))

    def sorted_triples(self) -> tuple[Triple, ...]:
        return tuple(sorted(self.triples))

    def __contains__(self, t: object) -> bool:
        return isinstance(t, tuple) and in_triple_space(self.n, t) and t in self.triples

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.sorted_triples())

    def __len__(self) -> int:
        return len(self.triples)

    def to_obj(self) -> dict:
        return {"n": self.n, "triples": [list(t) for t in self.sorted_triples()]}

    @classmethod
    def from_obj(cls, obj: dict) -> "TernaryRelation":
        return cls.from_triples(strict_int(obj["n"], "n"), json_typed(obj["triples"], list, "triples"))

    def __repr__(self) -> str:
        return f"TernaryRelation(n={self.n}, size={len(self.triples)})"


def trivial_relations(n: int) -> tuple[TernaryRelation, ...]:
    """R0..R3: the diagonal and the three 'two coordinates equal' relations.

    |R0| = n and |R1| = |R2| = |R3| = n(n-1); together they hold exactly the
    triples with a repeated coordinate.
    """
    r0 = frozenset((x, x, x) for x in range(n))
    r1 = frozenset((x, y, y) for x in range(n) for y in range(n) if x != y)
    r2 = frozenset((x, y, x) for x in range(n) for y in range(n) if x != y)
    r3 = frozenset((x, x, y) for x in range(n) for y in range(n) if x != y)
    return tuple(TernaryRelation(n, r) for r in (r0, r1, r2, r3))


def verify_trivial(A: "TriplePartition") -> bool:
    """True iff relations 0..3 are exactly the four trivial relations, read
    off the sizes and the table cells (x, y, y), (x, y, x) and (x, x, y)."""
    n, table = A.n, A.table
    return A.sizes[:4] == [n] + [n * (n - 1)] * 3 and all(
        (table[(x * n + y) * n + y], table[(x * n + y) * n + x], table[(x * n + x) * n + y])
        == ((0, 0, 0) if x == y else (1, 2, 3))
        for x, y in product(range(n), repeat=2)
    )


def _id_table(size: int, flats: list) -> list:
    """A table of size cells, cell i the position in flats of the last list holding i, else None."""
    table = [None] * size
    for rid, flat in enumerate(flats):
        any(map(table.__setitem__, flat, repeat(rid)))  # __setitem__ returns None
    return table


def _flat_indices(n: int, triples) -> list:
    """Each triple's index x*n*n + y*n + z, once C-level passes find ints in
    0..n-1 only (bytes() takes 0..255); else from_triples names the bad one."""
    nn = n * n
    try:
        values = list(chain.from_iterable(triples))
        if set(map(type, values)) <= {int} and not bytes(values).translate(None, bytes(range(256))[:n]):
            return [x * nn + y * n + z for x, y, z in triples]
    except (TypeError, ValueError):
        pass
    return [x * nn + y * n + z for x, y, z in TernaryRelation.from_triples(n, triples).triples]


@dataclass(frozen=True, init=False)
class TriplePartition:
    """A labelled partition of Omega^3 into nonempty relations: the id of
    (x, y, z) is `table[x*n*n + y*n + z]`, and relation i holds `sizes[i]`
    triples. Ids 0..3 are reserved for the trivial relations when present.

    Made from its relations or read by :meth:`from_obj`, a partition is
    checked once, by :meth:`validate`; circast's builders lay down tables that
    are partitions by construction (:meth:`from_table`). `relations` is a view
    built from the table when asked for.
    """

    n: int
    table: list
    sizes: list = field(compare=False)  # read off the table

    def __init__(self, n: int, relations: Iterable) -> None:
        make_domain(n)
        relations = tuple(relations)
        for rel in relations:
            if not isinstance(rel, TernaryRelation) or rel.n != n:
                raise ValueError("relations must be TernaryRelations over the same base set")
        sizes = [len(rel) for rel in relations]
        table = self.validate(n, sizes, lambda: self.triple_ids(n, relations))
        vars(self).update(n=n, table=table, sizes=sizes)

    @classmethod
    def from_table(cls, n: int, table: list, sizes: list) -> "TriplePartition":
        """The partition with this relation-id table and these sizes, trusted."""
        part = cls.__new__(cls)
        vars(part).update(n=n, table=table, sizes=sizes)
        return part

    @classmethod
    def validate(cls, n: int, sizes: list, build) -> list:
        """build(), the table of relations of these sizes, once none is empty
        and the sizes sum to n^3, so that a None left in the table for a
        triple in no relation means an overlap or a stray triple. Nothing of
        size n^3 is built for relations whose sizes fail."""
        if 0 in sizes:
            raise ValueError(f"relation {sizes.index(0)} is empty")
        if sum(sizes) == n**3 and None not in (table := build()):
            return table
        raise ValueError("relations do not partition the triple space")

    @classmethod
    def triple_ids(cls, n: int, relations: tuple) -> list:
        """The id of the relation holding each triple, laid out flat at
        x*n*n + y*n + z; None for a triple in no relation."""
        ids: dict = {}
        for rid, rel in enumerate(relations):
            ids.update(dict.fromkeys(rel.triples, rid))
        return list(map(ids.get, product(range(n), repeat=3)))

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.table)))

    @property
    def m(self) -> int:
        return len(self.sizes) - 1

    def _by_id(self, triples: Iterable) -> list:
        """Each relation's triples, in the given form and lexicographic order."""
        out = [[] for _ in self.sizes]
        for rid, t in zip(self.table, triples):
            out[rid].append(t)
        return out

    @cached_property
    def relations(self) -> tuple:
        triples = self._by_id(product(range(self.n), repeat=3))
        return tuple(TernaryRelation(self.n, frozenset(rel)) for rel in triples)

    @cached_property
    def orbit(self) -> int:
        """The number of triples that each triple of the fibre x = 0 stands
        for: n when the diagonal shift keeps every id of the table, else 1."""
        n = self.n
        rows = [self.table[start : start + n] for start in range(0, n**3, n)]  # (x, y, .) at x*n + y
        closed = all(  # row (x+1, y+1, .) is row (x, y, .) rotated right by one
            rows[(x + 1) % n * n + (y + 1) % n] == row[-1:] + row[:-1]
            for (x, y), row in zip(product(range(n), repeat=2), rows)
        )
        return n if closed else 1

    def to_obj(self) -> dict:
        rows = self._by_id(map(list, product(range(self.n), repeat=3)))
        return {"n": self.n, "relations": [{"id": rid, "triples": triples} for rid, triples in enumerate(rows)]}

    @classmethod
    def from_obj(cls, obj: dict) -> "TriplePartition":
        """Checked and stored as its table; a triple listed twice counts once."""
        n = make_domain(strict_int(obj["n"], "n"))
        entries = json_typed(obj["relations"], list, "relations", dict)
        ids = sorted(strict_int(e["id"], "relation id") for e in entries)
        if ids != list(range(len(entries))):
            raise ValueError("relation ids must be exactly 0..m")
        flats = [None] * len(entries)  # triple indices by relation id
        for k, e in enumerate(entries):
            flats[e["id"]] = _flat_indices(n, json_typed(e["triples"], list, f"relations[{k}].triples"))
        sizes = list(map(len, flats))
        if sum(sizes) != n**3:  # triples listed twice may make up the difference
            sizes = [len(set(flat)) for flat in flats]
        return cls.from_table(n, cls.validate(n, sizes, lambda: _id_table(n**3, flats)), sizes)

    def __repr__(self) -> str:
        return f"TriplePartition(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class IndexPartition:
    """A partition of X(n) into nonempty PairSets, sorted by least pair."""

    n: int
    parts: tuple

    def __post_init__(self) -> None:
        make_domain(self.n)
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("partition needs at least one part")
        union = 0
        for part in parts:
            if not isinstance(part, PairSet) or part.n != self.n:
                raise ValueError("parts must be PairSets over the same universe")
            if part.mask == 0:
                raise ValueError("parts must be nonempty")
            if part.mask & union:
                raise ValueError("parts must be pairwise disjoint")
            union |= part.mask
        if union != (1 << pair_capacity(self.n)) - 1:
            raise ValueError("parts must cover the whole pair universe")
        object.__setattr__(self, "parts", tuple(sorted(parts, key=lambda p: p.mask & -p.mask)))

    def to_obj(self) -> dict:
        return {"n": self.n, "parts": [[list(p) for p in part.pairs()] for part in self.parts]}

    @classmethod
    def from_obj(cls, obj: dict) -> "IndexPartition":
        n = strict_int(obj["n"], "n", INDEX_N_CAP)
        blocks = enumerate(json_typed(obj["parts"], list, "parts"))
        parts = tuple(PairSet.from_pairs(n, json_typed(b, list, f"parts[{k}]", list)) for k, b in blocks)
        return cls(n, parts)

    def __repr__(self) -> str:
        return f"IndexPartition(n={self.n}, parts={len(self.parts)})"
