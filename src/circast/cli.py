"""Command-line interface.

Every capability is a subcommand over the JSON file formats of the library:

    circast gen-x --n 5
    circast verify-partition --in partition.json --format json
    circast build --in partition.json --out ast.json
    circast extract --in ast.json
    circast verify-ast --in ast.json
    circast thin --in ast.json
    circast decompose --in pairset.json
    circast orbits --agl 5
    circast search --n 5 --dedupe multiplier
    circast symmetrise --in pairset.json
    circast params --in ast.json

The parser of every command is built on the first `main` call and reused by
every later call in the process; `search --jobs N` forks its workers, so no
process pool module is ever imported.

Exit codes: 0 success, 1 verification-negative, 2 usage or input error.
Reports go to stdout or the --out file (JSON with --format=json), written in
pieces of at most ROWS list items with the bytes of json.dumps(indent=2,
sort_keys=True); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import nullcontext
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

from .astcheck import symmetrise, verify_ast
from .circulant import (
    NotASTRegular,
    NotCirculantAST,
    build_ast,
    expand,
    extract_partition,
    is_ast_regular,
    is_circulant,
)
from .core import (
    INDEX_N_CAP,
    SEARCH_N_CAP,
    TRIPLE_N_CAP,
    IndexPartition,
    PairSet,
    TernaryRelation,
    TriplePartition,
    strict_int,
)
from .groups import GroupSpec, agl1, orbit_partition_on_triples, shift_invariance_check
from .search import SearchConfig, search_ast_regular
from .thin import NotRegular, _read_witness, matching_decomposition, thin_profile

_NEGATIVE_ERRORS = (NotCirculantAST, NotRegular)
_INPUT_ERRORS = (ValueError, KeyError, TypeError, OSError)


def _load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") if path != "-" else nullcontext(sys.stdin) as handle:
            obj = json.load(handle)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: input must be a JSON object")
    return obj


def _scalar(obj) -> str:
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        return "Infinity" if obj == math.inf else "-Infinity" if obj == -math.inf else float.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


ROWS = 2048  # items of one list or dict per piece handed to write


def _write(obj, indent: str, write) -> None:
    """Pass the text of json.dumps(obj, indent=2, sort_keys=True) to write in
    pieces, byte for byte. A list or dict goes ROWS items at a time: plain ints
    by one C-level map, equal-length plain-int lists (triples, pairs, tensor
    rows) by one % format, anything else item by item."""
    if not isinstance(obj, (dict, list, tuple)):
        write(_scalar(obj))
        return
    if not obj:
        write("{}" if isinstance(obj, dict) else "[]")
        return
    inner = indent + "  "
    separator = "," + inner
    heads = None
    if isinstance(obj, dict):
        keys, obj = zip(*sorted(obj.items()))
        heads = [encode_basestring_ascii(key if isinstance(key, str) else _scalar(key)) + ": " for key in keys]
    lead = ("[" if heads is None else "{") + inner
    for start in range(0, len(obj), ROWS):
        chunk = obj[start : start + ROWS]
        part = None if heads is None else heads[start : start + ROWS]
        if heads is None and set(map(type, chunk)) <= {list, tuple} and len(lengths := set(map(len, chunk))) == 1 and (
            0 not in lengths and set(map(type, flat := tuple(chain.from_iterable(chunk)))) <= {int}
        ):
            row = inner + "  "
            item = "[" + row + ("," + row).join(["%d"] * lengths.pop()) + inner + "]"
            write(lead + separator.join([item] * len(chunk)) % flat)
        elif set(map(type, chunk)) == {int}:
            texts = map(int.__repr__, chunk)
            write(lead + separator.join(texts if part is None else map(str.__add__, part, texts)))
        else:
            for head, value in zip(part or repeat(""), chunk):
                write(lead + head)
                _write(value, inner, write)
                lead = separator
        lead = separator
    write(indent + ("]" if heads is None else "}"))


def _emit(obj, out_path: str | None = None) -> None:
    """Write the report and a newline to out_path, or to stdout, in pieces."""
    with open(out_path, "w", encoding="utf-8") if out_path else nullcontext(sys.stdout) as handle:
        _write(obj, "\n", handle.write)
        handle.write("\n")


def _parse_seconds(text: str) -> float:
    return float(text[:-1] if text.endswith("s") else text)


def cmd_gen_x(args) -> int:
    X = PairSet.universe(strict_int(args.n, "n", INDEX_N_CAP))
    if args.format == "json":
        _emit(X.to_obj())
    else:
        print(f"pair universe for n={args.n}: {len(X)} pairs")
        for (i, j) in X:
            print(f"  ({i}, {j})")
    return 0


def cmd_verify_partition(args) -> int:
    P = IndexPartition.from_obj(_load(args.infile))
    report = is_ast_regular(P)
    if args.format == "json":
        _emit(report.to_obj())
    else:
        if report.ok:
            valencies = [s.n_I for s in report.part_stats]
            print(f"AST-regular: yes ({len(P.parts)} parts, n_I = {valencies})")
        else:
            print(f"AST-regular: no ({report.failure})")
    return 0 if report.ok else 1


def cmd_build(args) -> int:
    P = IndexPartition.from_obj(_load(args.infile))
    strict_int(P.n, "n", TRIPLE_N_CAP)  # the scheme holds all n^3 triples
    try:
        A = build_ast(P)
    except NotASTRegular as exc:
        _emit(exc.report.to_obj())
        print(f"not AST-regular: {exc.report.failure}", file=sys.stderr)
        return 1
    if args.format == "json" or args.out:
        _emit(A.to_obj(), args.out)
    if args.format != "json":
        print(f"scheme with {len(A.sizes)} relations, sizes {A.sizes}")
    return 0


def cmd_extract(args) -> int:
    A = TriplePartition.from_obj(_load(args.infile))
    P = extract_partition(A)
    if args.format == "json" or args.out:
        _emit(P.to_obj(), args.out)
    if args.format != "json":
        print(f"index partition with {len(P.parts)} parts over n={P.n}")
    return 0


def cmd_verify_ast(args) -> int:
    A = TriplePartition.from_obj(_load(args.infile))
    report = verify_ast(A)
    if args.format == "json":
        _emit(report.to_obj())
    else:
        if report.ok:
            print(f"AST: ok (m={A.m}, symmetric={report.symmetric})")
        else:
            print(f"AST: failed ({[f.to_obj() for f in report.failures]})")
    return 0 if report.ok else 1


def _thin_entry(rid, rel) -> dict:
    profile = sorted(thin_profile(rel))
    closed = bool(profile) and is_circulant(rel)
    witnesses = {ab: _read_witness(rel, ab).to_obj() if closed else None for ab in profile}
    return {"id": rid, "profile": profile, "witnesses": witnesses}


def cmd_thin(args) -> int:
    obj = _load(args.infile)
    if "relations" in obj:
        A = TriplePartition.from_obj(obj)
        entries = [_thin_entry(rid, rel) for rid, rel in enumerate(A.relations)]
        n = A.n
    elif "triples" in obj:
        rel = TernaryRelation.from_obj(obj)
        entries = [_thin_entry(None, rel)]
        n = rel.n
    else:
        raise ValueError("input must be a relation or a triple partition")
    if args.format == "json":
        _emit({"n": n, "relations": entries})
    else:
        for e in entries:
            label = "relation" if e["id"] is None else f"relation {e['id']}"
            print(f"{label}: thin for {e['profile'] or 'nothing'}")
    return 0


def cmd_decompose(args) -> int:
    I = PairSet.from_obj(_load(args.infile))
    parts = matching_decomposition(I)
    if args.format == "json":
        _emit([part.to_obj() for part in parts])
    else:
        print(f"{len(parts)} perfect matchings:")
        for part in parts:
            profile = sorted(thin_profile(expand(part)))
            print(f"  {list(part.pairs())}  thin for {profile}")
    return 0


def cmd_orbits(args) -> int:
    if args.agl is not None:
        G = agl1(strict_int(args.agl, "p", TRIPLE_N_CAP))
    else:
        G = GroupSpec.from_obj(_load(args.group))
    A = orbit_partition_on_triples(G)
    circulant = shift_invariance_check(A)
    ast_ok = verify_ast(A).ok
    if args.format == "json":
        _emit({"partition": A.to_obj(), "circulant": circulant, "ast_ok": ast_ok})
    else:
        sizes = A.sizes[4:]
        print(f"{len(sizes)} nontrivial orbits, sizes {sizes}")
        print(f"circulant: {circulant}; AST: {ast_ok}")
    return 0


def cmd_search(args) -> int:
    config = SearchConfig(
        n=strict_int(args.n, "n", SEARCH_N_CAP),
        max_nI=args.max_ni,
        require_all_thin=args.all_thin,
        require_symmetric=args.symmetric,
        dedupe=args.dedupe,
        limit=args.limit,
        time_budget=None if args.timeout is None else _parse_seconds(args.timeout),
    )
    result = search_ast_regular(config, jobs=args.jobs)
    if args.format == "json":
        _emit(result.to_obj())
    else:
        state = "complete" if result.complete else "partial (budget exceeded)"
        print(f"{len(result.hits)} partition(s), {state}, {result.nodes} nodes")
        for hit in result.hits:
            valencies = [s.n_I for s in hit.report.part_stats]
            print(f"  parts={len(hit.partition.parts)} n_I={valencies}")
    return 0


def cmd_symmetrise(args) -> int:
    I = PairSet.from_obj(_load(args.infile))
    closed = symmetrise(I)
    if args.format == "json":
        _emit(closed.to_obj())
    else:
        print(f"closure has {len(closed)} pairs: {list(closed.pairs())}")
    return 0


def cmd_params(args) -> int:
    A = TriplePartition.from_obj(_load(args.infile))
    report = verify_ast(A)
    if not report.ok:
        print(f"not an AST: {[f.to_obj() for f in report.failures]}", file=sys.stderr)
        return 1
    tensor = report.tensor
    if args.format == "json":
        _emit(tensor.to_obj()["marginals"])
    else:
        for rid in sorted(tensor.n3):
            print(f"relation {rid}: n1={tensor.n1[rid]} n2={tensor.n2[rid]} n3={tensor.n3[rid]}")
    return 0


_IN = ("--in", {"dest": "infile", "required": True})
_OUT = ("--out", {"default": None})
_GROUP_OR_AGL = [
    ("--group", {"help": "JSON file with generators in cycle notation"}),
    ("--agl", {"type": int, "help": "use the affine group of the prime p"}),
]

# name: (help, function, arguments); a list among the arguments is a group of
# which exactly one must be given. Every command also takes --format.
COMMANDS = {
    "gen-x": ("emit the pair universe X(n)", cmd_gen_x, [("--n", {"type": int, "required": True})]),
    "verify-partition": ("AST-regularity report for a partition of X", cmd_verify_partition, [_IN]),
    "build": ("build the scheme of an AST-regular partition", cmd_build, [_IN, _OUT]),
    "extract": ("recover the index partition of a circulant scheme", cmd_extract, [_IN, _OUT]),
    "verify-ast": ("run the axiom checker on a triple partition", cmd_verify_ast, [_IN]),
    "thin": ("thin profiles and witnesses of a relation or partition", cmd_thin, [_IN]),
    "decompose": ("split a regular index set into perfect matchings", cmd_decompose, [_IN]),
    "orbits": ("orbit scheme of a permutation group", cmd_orbits, [_GROUP_OR_AGL]),
    "search": (
        "enumerate AST-regular partitions of X(n)",
        cmd_search,
        [
            ("--n", {"type": int, "required": True}),
            ("--max-ni", {"dest": "max_ni", "type": int, "default": None}),
            ("--all-thin", {"dest": "all_thin", "action": "store_true"}),
            ("--symmetric", {"action": "store_true"}),
            ("--dedupe", {"choices": ("none", "multiplier"), "default": "none"}),
            ("--limit", {"type": int, "default": None}),
            ("--timeout", {"default": None, "help": "wall-clock budget in seconds, e.g. 60 or 60s"}),
            ("--jobs", {"type": int, "default": 1}),
        ],
    ),
    "symmetrise": ("smallest Sym(3)-closed index set containing the input", cmd_symmetrise, [_IN]),
    "params": ("marginal parameters of a verified scheme", cmd_params, [_IN]),
}


def _add_arguments(target, arguments) -> None:
    for argument in arguments:
        if isinstance(argument, list):
            _add_arguments(target.add_mutually_exclusive_group(required=True), argument)
        else:
            target.add_argument(argument[0], **argument[1])


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and shared by
    every later one; each parse_args makes a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="circast",
        description="Construct, verify, decompose and search circulant association schemes on triples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_arguments(p, arguments)
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _NEGATIVE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _INPUT_ERRORS as exc:
        print(f"error: input has no key {exc}" if isinstance(exc, KeyError) else f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
