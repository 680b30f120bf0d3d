import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import circast.search as search_module
import oracles
from circast import (
    IDENTITY,
    SYM3,
    DomainTooSmall,
    IndexPartition,
    PairSet,
    SearchConfig,
    build_ast,
    dedupe_multiplier,
    is_ast_regular,
    search_ast_regular,
    sym3_image,
    verify_ast,
)


def partition_keys(result):
    return {tuple(part.pairs() for part in hit.partition.parts) for hit in result.hits}


# --- the search ---------------------------------------------------------------------


def test_search_n3_unique():
    result = search_ast_regular(SearchConfig(3))
    assert result.complete
    assert len(result.hits) == 1
    assert result.hits[0].partition == IndexPartition(3, (PairSet.universe(3),))


def test_search_n4_matches_naive_oracle():
    result = search_ast_regular(SearchConfig(4))
    assert result.complete
    expected = {
        tuple(part.pairs() for part in P.parts)
        for P in oracles.naive_ast_regular_partitions(4)
    }
    assert partition_keys(result) == expected


def test_search_n3_matches_naive_oracle():
    result = search_ast_regular(SearchConfig(3))
    expected = {
        tuple(part.pairs() for part in P.parts)
        for P in oracles.naive_ast_regular_partitions(3)
    }
    assert partition_keys(result) == expected


def test_search_n5_contains_coarse_and_affine():
    result = search_ast_regular(SearchConfig(5))
    assert result.complete
    keys = partition_keys(result)
    coarse = tuple(part.pairs() for part in IndexPartition(5, (PairSet.universe(5),)).parts)
    affine = tuple(
        part.pairs() for part in oracles.multiplicative_orbit_partition(5).parts
    )
    assert coarse in keys and affine in keys


def test_search_output_is_sound():
    for n in (3, 4, 5, 6):
        result = search_ast_regular(SearchConfig(n))
        for hit in result.hits:
            assert is_ast_regular(hit.partition).ok
            assert verify_ast(build_ast(hit.partition)).ok
            assert hit.report.ok


def test_search_output_closed_under_index_maps():
    result = search_ast_regular(SearchConfig(5))
    for hit in result.hits:
        parts = set(hit.partition.parts)
        for part in parts:
            for g in SYM3:
                assert sym3_image(part, g) in parts


def test_all_thin_filter():
    result = search_ast_regular(SearchConfig(5, require_all_thin=True))
    assert len(result.hits) == 1
    assert all(s.n_I == 1 for s in result.hits[0].report.part_stats)
    # n=3: the unique partition qualifies
    result = search_ast_regular(SearchConfig(3, require_all_thin=True))
    assert len(result.hits) == 1


def test_symmetric_filter():
    result = search_ast_regular(SearchConfig(5, require_symmetric=True))
    keys = partition_keys(result)
    assert keys == {tuple(part.pairs() for part in IndexPartition(5, (PairSet.universe(5),)).parts)}


def test_max_valency_cap():
    capped = search_ast_regular(SearchConfig(5, max_nI=1))
    assert partition_keys(capped) == {
        tuple(part.pairs() for part in oracles.multiplicative_orbit_partition(5).parts)
    }


def test_limit():
    full = search_ast_regular(SearchConfig(5))
    limited = search_ast_regular(SearchConfig(5, limit=1))
    assert len(limited.hits) == 1
    assert limited.hits[0].partition == full.hits[0].partition


def test_dedupe_multiplier():
    plain = search_ast_regular(SearchConfig(5))
    deduped = search_ast_regular(SearchConfig(5, dedupe="multiplier"))
    assert partition_keys(deduped) <= partition_keys(plain)
    # both known partitions are fixed by every unit multiplier, so they survive
    assert len(deduped.hits) == len(plain.hits)
    # dedupe_multiplier collapses genuine multiplier translates
    shifted = dedupe_multiplier(list(plain.hits) + list(plain.hits), 5)
    assert len(shifted) == len(plain.hits)


def test_time_budget_reports_incomplete():
    result = search_ast_regular(SearchConfig(6, time_budget=1e-9))
    assert not result.complete


def test_time_budget_is_a_bound(monkeypatch):
    """At n = 11, 12 and 16 the search runs far longer than the budget; the
    candidate listing polls the deadline, in every forked worker too."""
    monkeypatch.setattr(search_module.os, "cpu_count", lambda: 2)
    for jobs in (1, 2):
        for n in (11, 12, 16):
            start = time.monotonic()
            result = search_ast_regular(SearchConfig(n, time_budget=1.0), jobs=jobs)
            assert time.monotonic() - start < 2.0
            assert not result.complete


def _universe_pairs(n):
    return [(i, j) for i in range(1, n) for j in range(1, n) if i != j]


@pytest.mark.parametrize(
    "n, nodes, parts",
    [
        # complete unfiltered searches: --jobs 1 and 2 agree, and the only
        # hit is the one-part partition
        (8, 1, [[_universe_pairs(8)]]),
        (9, 7, [[_universe_pairs(9)]]),
    ],
)
def test_complete_search_is_frozen(n, nodes, parts):
    result = search_ast_regular(SearchConfig(n), jobs=2)
    assert result.complete
    assert result.nodes == nodes
    assert [[sorted(part.pairs()) for part in hit.partition.parts] for hit in result.hits] == parts
    for hit in result.hits:
        assert is_ast_regular(hit.partition).ok
        assert verify_ast(build_ast(hit.partition)).ok
    serial = search_ast_regular(SearchConfig(n), jobs=1)
    assert json.dumps(serial.to_obj()) == json.dumps(result.to_obj())


def test_jobs_do_not_change_the_report(monkeypatch):
    """The report is byte-identical for every worker count; with eight CPUs
    reported, --jobs 3 and 5 fork that many workers less one."""
    monkeypatch.setattr(search_module.os, "cpu_count", lambda: 8)
    configs = [SearchConfig(n) for n in range(5, 10)] + [
        SearchConfig(10, require_symmetric=True),
        SearchConfig(11, require_all_thin=True),
    ]
    for config in configs:
        serial = search_ast_regular(config, jobs=1)
        for jobs in (2, 3, 5, search_module.MAX_JOBS):
            parallel = search_ast_regular(config, jobs=jobs)
            assert json.dumps(parallel.to_obj()) == json.dumps(serial.to_obj()), (config, jobs)
            assert parallel.nodes == serial.nodes


@pytest.mark.parametrize(
    "n, fixed, ks",
    [
        pytest.param(n, fixed, ks, id=f"n{n}-{'fixed' if fixed else 'placeable'}")
        for n in range(4, 11)
        for fixed in (False, True)
        # the unfiltered n = 10 root takes about 3 s to list, so one split only
        for ks in [(2,) if (n, fixed) == (10, False) else range(1, 5)]
    ],
)
def test_shares_split_the_root_listing(n, fixed, ks):
    """The k shares of the root list exactly its orbits, none twice, and two
    shares of a root with at least four orbits are both nonempty."""
    def listing(share=(0, 1)):
        return list(search_module._Search(n, n - 2, fixed, None).branches(0, share))

    root = listing()
    assert len(set(root)) == len(root)
    for k in ks:
        shares = [listing((w, k)) for w in range(k)]
        assert sorted(orbit for share in shares for orbit in share) == sorted(root)
        if k == 2 and len(root) >= 4:
            assert all(shares)


def test_listed_images_are_the_index_map_images():
    """Each (mask, images) that the root listing yields carries the five
    non-identity images of its part in SYM3 order, unpacked from their lanes."""
    yields = 0
    for n in range(4, 10):
        uni = search_module._Universe(n)
        for r in range(1, n - 1):
            for fixed in (False, True):
                for mask, images in uni.regular_subsets(r, uni.full, fixed):
                    P = PairSet(n, mask)
                    assert images == tuple(sym3_image(P, g).mask for g in SYM3 if g != IDENTITY)
                    yields += 1
    assert yields == 42


def test_config_validation():
    with pytest.raises(DomainTooSmall, match="^base set needs n >= 3, got n=2$"):
        SearchConfig(2)
    with pytest.raises(ValueError):
        SearchConfig(5, dedupe="frobnicate")
    for bad in (
        {"limit": -1},
        {"max_nI": 0},
        {"time_budget": 0},
        {"time_budget": float("nan")},
        {"time_budget": float("inf")},
    ):
        with pytest.raises(ValueError):
            SearchConfig(5, **bad)
    assert SearchConfig(5, limit=0, max_nI=1, time_budget=0.5).limit == 0
    for jobs in (0, search_module.MAX_JOBS + 1):
        with pytest.raises(ValueError):
            search_ast_regular(SearchConfig(5), jobs=jobs)


def test_workers_are_at_most_one_per_cpu(monkeypatch):
    """--jobs N runs min(N, CPUs) workers: share 0 in this process, each other
    in a forked child."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(search_module.os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(search_module.os, "cpu_count", lambda: 3)
    serial = search_ast_regular(SearchConfig(7), jobs=1)
    assert forks == []
    for jobs, workers in ((2, 2), (3, 3), (search_module.MAX_JOBS, 3)):
        forks.clear()
        result = search_ast_regular(SearchConfig(7), jobs=jobs)
        assert len(forks) == workers - 1
        assert json.dumps(result.to_obj()) == json.dumps(serial.to_obj())


def test_without_fork_jobs_run_in_this_process(monkeypatch):
    serial = search_ast_regular(SearchConfig(7), jobs=1)
    monkeypatch.delattr(search_module.os, "fork")
    result = search_ast_regular(SearchConfig(7), jobs=4)
    assert json.dumps(result.to_obj()) == json.dumps(serial.to_obj())


def test_a_failing_worker_is_named_and_every_child_reaped(monkeypatch, capfd):
    """The patched worker raises in the forked child; the search raises
    RuntimeError with the worker and its exit status, the child's traceback
    is on stderr, and no child is left to reap."""
    worker = search_module._branch_worker

    def failing(*task):
        if task[-1] == (1, 2):
            raise ValueError("share 1 fails")
        return worker(*task)

    monkeypatch.setattr(search_module, "_branch_worker", failing)
    monkeypatch.setattr(search_module.os, "cpu_count", lambda: 2)
    with pytest.raises(RuntimeError, match="search worker 1 exited with status 1"):
        search_ast_regular(SearchConfig(7), jobs=2)
    assert "ValueError: share 1 fails" in capfd.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_workers_run_no_atexit_hook_and_flush_no_inherited_buffer():
    """Output pending in this process's stdout buffer and its atexit hooks
    appear once, though forked workers inherit both."""
    code = (
        "import atexit, os, sys; os.cpu_count = lambda: 2; "
        "from circast.search import SearchConfig, search_ast_regular; "
        "atexit.register(print, 'atexit'); sys.stdout.write('pending '); "
        "print(search_ast_regular(SearchConfig(7), jobs=2).nodes)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(search_module.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "pending 10\natexit\n"


def test_each_hit_is_checked_once_at_index_level(monkeypatch):
    calls = []

    def counting(P):
        calls.append(P)
        return is_ast_regular(P)

    monkeypatch.setattr(search_module, "is_ast_regular", counting)
    result = search_ast_regular(SearchConfig(5))
    assert len(calls) == len(result.hits) == 2
    assert set(calls) == {hit.partition for hit in result.hits}


def _complete_hits(n):
    result = search_ast_regular(SearchConfig(n))
    assert result.complete
    return list(result.hits)


@pytest.mark.parametrize("n", range(3, 9))
def test_partition_key_is_the_key_of_the_multiplier_image(n):
    """The key of P under x -> cx is the key of the IndexPartition built from
    the image pairs, for every hit and every unit c."""
    units = [c for c in range(1, n) if math.gcd(c, n) == 1]
    for hit in _complete_hits(n):
        P = hit.partition
        assert search_module._partition_key(P) == tuple(part.pairs() for part in P.parts)
        for c in units:
            image = IndexPartition(
                n, tuple(PairSet.from_pairs(n, [(c * i % n, c * j % n) for i, j in part]) for part in P.parts)
            )
            assert search_module._partition_key(P, c) == tuple(part.pairs() for part in image.parts)


def test_dedupe_multiplier_ignores_the_input_order():
    hits = _complete_hits(7) * 2
    expected = [hit.partition for hit in dedupe_multiplier(hits, 7)]
    assert len(expected) < len(hits) // 2
    for seed in range(20):
        shuffled = hits[:]
        random.Random(seed).shuffle(shuffled)
        assert [hit.partition for hit in dedupe_multiplier(shuffled, 7)] == expected
