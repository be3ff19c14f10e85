"""Brute-force censuses, sharding, and the theorem suites."""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from itertools import combinations_with_replacement, islice, permutations, product
from math import comb
from pathlib import Path

import pytest

import treepark.bijections
import treepark.parking
import treepark.trees
from treepark import (
    InputError,
    InvalidShardError,
    LimitExceededError,
    catalan_number,
    census,
    census_counts,
    enumerate_plane_trees,
    enumerate_rooted_trees,
    parse_plane_tree,
    path_image_suite,
    path_tree,
    roundtrip_suite,
    theorem53_suite,
)
import reference_census
from reference_census import (
    crossing_ordered,
    reference_buckets,
    reference_counts,
    reference_roundtrip,
    reference_slacks,
    reference_standard_primes,
    shape_code,
    simulated_standard_column,
    simulated_standard_count,
)
from treepark.bijections import _avoids_132, _out_of_crossing_order
from treepark.census import (
    CENSUS_COLUMNS,
    _avoiders_132,
    _classes,
    _orderings,
    _parking_vectors,
    _prime_sequences,
    _standard_orderings,
)
from treepark.trees import RootedTree, _flatten, _shape_parents

census_module = importlib.import_module("treepark.census")  # the package exports a census function


def nested_classes(n, start, step):
    """The classes of one shard of ``_classes``, each keyed by the nested
    code of the tree whose parent list names it: a class's representative
    may carry any labels, and the nested code forgets them."""
    return Counter({
        shape_code(RootedTree(parents[1:])): count for parents, count in _classes(n, (start, step)).items()
    })


def unmemoized_counts(n):
    """The census columns summed over every labeled tree straight from the
    bucket pass, deciding each tree's buckets afresh."""
    buckets = reference_buckets(n)
    counts = dict.fromkeys(CENSUS_COLUMNS, 0)
    for tree in enumerate_rooted_trees(n):
        leaves = sum(1 for v in range(1, n + 1) if v not in tree.parents)
        for seqs, slack in reference_slacks((0,) + tree.parents, buckets):
            if slack >= 0:
                counts["parking"] += len(seqs)
                counts["distribution"] += 1
                counts["marked_distribution"] += leaves
            if slack >= 1:
                counts["prime"] += len(seqs)
                counts["prime_distribution"] += 1
                counts["marked_prime"] += leaves
    for shape in enumerate_plane_trees(n):
        counts["standard_prime"] += sum(1 for _ in reference_standard_primes(shape, buckets))
    return counts


class TestCensus:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_all_columns_pass(self, n):
        report = census(n, allow_large=True)
        assert report.passed, [(c.name, c.counted, c.expected) for c in report.columns]

    def test_known_row_three(self):
        counted = {c.name: c.counted for c in census(3).columns}
        assert counted["parking"] == 132
        assert counted["prime"] == 24
        assert counted["prime_distribution"] == 12
        assert counted["distribution"] == 39

    def test_row_one_all_ones(self):
        assert all(c.counted == 1 for c in census(1).columns)

    def test_guard(self):
        with pytest.raises(LimitExceededError):
            census_counts(8)
        with pytest.raises(LimitExceededError):
            census_counts(7)  # needs allow_large

    def test_guard_message_matches_the_walk(self):
        with pytest.raises(LimitExceededError) as caught:
            census_counts(7)
        stated = re.search(
            r"walks (\d+) trees, weighs the (\d+) count vectors that park on their"
            r" (\d+) isomorphism classes and searches the (\d+) prime sequences on"
            r" the (\d+) plane trees",
            str(caught.value),
        )
        trees = list(enumerate_rooted_trees(7))
        classes = set(map(shape_code, trees))
        shapes = list(enumerate_plane_trees(7))
        walked = (
            len(trees),
            sum(1 for code in classes for _ in _parking_vectors(_shape_parents(code), 0)),
            len(classes),
            sum(1 for shape in shapes for _ in _prime_sequences(_shape_parents(shape))),
            len(shapes),
        )
        assert tuple(map(int, stated.groups())) == walked == (117649, 4696, 48, 153504, 132)

    def test_shards_sum_to_full(self):
        for n in (4, 5):
            full = census_counts(n)
            parts = [census_counts(n, shard=(k, 3)) for k in range(3)]
            summed = {name: sum(p[name] for p in parts) for name in CENSUS_COLUMNS}
            assert summed == full

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_every_tree_decided_afresh(self, n):
        assert census_counts(n) == unmemoized_counts(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_the_bucket_census(self, n):
        assert census_counts(n, allow_large=True) == reference_counts(n)

    @pytest.mark.parametrize("n, k", [(n, k) for n in (4, 5) for k in range(3)])
    def test_shards_match_the_bucket_census(self, n, k):
        assert census_counts(n, shard=(k, 3)) == reference_counts(n, shard=(k, 3))

    def test_huge_modulus_holds_one_tree(self):
        # 9 rooted trees and 2 plane shapes at n = 3.  islice refuses a step
        # above sys.maxsize, and at sys.maxsize its next index overflows.
        assert census_counts(3, shard=(0, 10**30)) == census_counts(3, shard=(0, 9))
        assert census_counts(3, shard=(5, 10**30)) == census_counts(3, shard=(5, 9))
        assert census_counts(3, shard=(5, sys.maxsize)) == census_counts(3, shard=(5, 9))
        assert census_counts(3, shard=(10**30, 10**30 + 1)) == dict.fromkeys(CENSUS_COLUMNS, 0)

    @pytest.mark.parametrize("n, classes", enumerate([1, 1, 2, 4, 9, 20], start=1))
    def test_leaves_are_counted_once_per_class(self, n, classes, monkeypatch):
        calls = []
        real = census_module._leaf_count
        monkeypatch.setattr(census_module, "_leaf_count", lambda parents: calls.append(parents) or real(parents))
        census_counts(n, allow_large=True)
        assert len(calls) == classes

    def test_shape_code_names_isomorphism_classes(self):
        # unlabeled rooted trees on n vertices (OEIS A000081)
        classes = [len(_classes(n, (0, 1))) for n in range(1, 8)]
        assert classes == [1, 1, 2, 4, 9, 20, 48]

    @pytest.mark.parametrize("n, start, step", [(n, 0, 1) for n in range(1, 8)] + [(6, 1, 3)])
    def test_class_shapes_match_the_nested_code(self, n, start, step):
        # each class's parent list is a tree of that class, and counts its trees
        assert nested_classes(n, start, step) == Counter(
            map(shape_code, islice(enumerate_rooted_trees(n), start, None, step))
        )

    @pytest.mark.parametrize("n, step", [(n, m) for n in (5, 6) for m in (1, 2, 3, n - 1, n, n + 1, 13)])
    def test_shards_of_the_rerooted_walk_match_the_nested_code(self, n, step):
        # a step below n splits a word's rootings between shards (unevenly at
        # n - 1), and one of n or more leaves every rooting alone in its shard
        codes = list(map(shape_code, enumerate_rooted_trees(n)))
        for start in range(step):
            assert nested_classes(n, start, step) == Counter(codes[start::step]), start

    @pytest.mark.parametrize("n, step", [(n, m) for n in (5, 6) for m in (2, 3, n, n + 1, 13)])
    def test_shards_of_the_rerooted_walk_match_the_bucket_census(self, n, step):
        for start in range(step):
            assert census_counts(n, shard=(start, step)) == reference_counts(n, shard=(start, step)), start

    @pytest.mark.parametrize("n, shard", [(n, shard) for n in range(1, 7) for shard in ((0, 1), (1, 3), (2, 5))])
    def test_each_class_is_named_by_a_tree_of_its_shard(self, n, shard):
        start, step = shard
        walked = {(0,) + tree.parents for tree in islice(enumerate_rooted_trees(n), start, None, step)}
        keys = list(_classes(n, shard))
        assert set(keys) <= walked
        codes = [shape_code(RootedTree(parents[1:])) for parents in keys]
        assert len(set(codes)) == len(codes)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_only_the_plane_shapes_are_flattened(self, n, monkeypatch):
        # the class loop takes its parent lists from the walk; only the
        # standard column flattens a shape, once per plane shape
        calls = []
        real = census_module._shape_parents
        monkeypatch.setattr(census_module, "_shape_parents", lambda shape: calls.append(shape) or real(shape))
        census_counts(n)
        assert len(calls) == catalan_number(n - 1)

    def test_deterministic(self):
        assert census_counts(3) == census_counts(3)

    @pytest.mark.parametrize("shard", [(0, 0), (0, -1), (5, 3), (3, 3), (-1, 3)])
    def test_bad_shard_is_named(self, shard):
        with pytest.raises(InvalidShardError, match=rf"shard \({shard[0]}, {shard[1]}\)"):
            census_counts(3, shard=shard)


class TestStandardSearch:
    """The standard column searches each prime vector's orderings prefix by
    prefix; the reference parks every prime sequence and checks its run."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_each_shape_matches_the_simulation(self, n):
        for shape in enumerate_plane_trees(n):
            parents = _shape_parents(shape)
            searched = sum(_standard_orderings(parents, vector) for vector in _parking_vectors(parents, 1))
            assert searched == simulated_standard_count(shape), shape

    @pytest.mark.parametrize("n", range(1, 6))
    def test_the_maps_sibling_check_matches_the_reference_rule(self, n):
        # the search and the maps' check pair siblings with one sweep; the
        # reference pairs them by its own rule
        for shape in enumerate_plane_trees(n):
            parents = _shape_parents(shape)
            tree = RootedTree(tuple(parents[1:]))
            for seq in _prime_sequences(parents):
                crossings = treepark.parking.run_parking(tree, seq).crossings
                standard = _out_of_crossing_order(parents, crossings) is None
                assert standard == crossing_ordered(parents, crossings), (shape, seq)

    @pytest.mark.parametrize("n, k", [(n, k) for n in (5, 6) for k in range(3)])
    def test_shards_match_the_simulation(self, n, k):
        counted = census_counts(n, shard=(k, 3), allow_large=True)["standard_prime"]
        assert counted == simulated_standard_column(n, shard=(k, 3))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_a_prefix_state_depends_on_its_counts_alone(self, n):
        # the premise of counting completions once per count vector: every
        # ordering of a prefix occupies the same vertices and crosses the
        # same edges
        for shape in enumerate_plane_trees(n):
            tree = RootedTree(tuple(_shape_parents(shape)[1:]))
            states = {}
            for k in range(n + 1):
                for prefix in product(range(1, n + 1), repeat=k):
                    outcome = treepark.parking.run_parking(tree, prefix)
                    state = set(outcome.spots), set(outcome.crossings)
                    assert states.setdefault(tuple(sorted(prefix)), state) == state, (shape, prefix)

    def test_census_parks_no_driver(self, monkeypatch):
        calls = []
        real = treepark.parking.run_parking
        for name, module in list(sys.modules.items()):  # every module that holds the kernel
            if name.split(".")[0] == "treepark" and getattr(module, "run_parking", None) is real:
                monkeypatch.setattr(module, "run_parking", lambda tree, prefs: calls.append(prefs) or real(tree, prefs))
        assert census_counts(6, allow_large=True)["standard_prime"] == 5040
        assert calls == []

    def test_a_cut_prefix_is_not_counted(self):
        # A root over a cherry, post-order labels: leaves 1 and 2 below 3,
        # below the root 4.  The second driver to prefer a leaf crosses its
        # edge, and 2 -> 3 must be crossed first, so of the six orderings of
        # 1 1 2 2 the standard ones end in 1: 1 2 2 1, 2 1 2 1 and 2 2 1 1.
        parents = _shape_parents((((), ()),))
        assert parents == [0, 3, 3, 4, 0]
        assert _standard_orderings(parents, (0, 2, 2, 0, 0)) == 3 == simulated_standard_count((((), ()),))


def subtrees_below_root(up):
    """Each non-root vertex of a parent list (slot 0 unused) -> the vertices
    of its subtree, found by walking every vertex up to the root."""
    subtrees = {v: set() for v in range(1, len(up)) if up[v]}
    for u in range(1, len(up)):
        v = u
        while up[v]:
            subtrees[v].add(u)
            v = up[v]
    return subtrees


def slack(subtrees, counts):
    """The least, over the non-root subtrees, of the drivers of the count
    vector ``counts`` preferring the subtree less its size (1 when there is
    none).  The vector parks when it is >= 0 and is prime when it is >= 1."""
    return min((sum(counts[u] for u in sub) - len(sub) for sub in subtrees.values()), default=1)


def filtered_vectors(up):
    """The parking count vectors of a parent list (slot 0 unused) with their
    slacks, by filtering all C(2n-1, n) count vectors."""
    n = len(up) - 1
    subtrees = subtrees_below_root(up)
    found = []
    for multiset in combinations_with_replacement(range(1, n + 1), n):
        counts = tuple(multiset.count(v) for v in range(n + 1))
        least = slack(subtrees, counts)
        if least >= 0:
            found.append((counts, least))
    return sorted(found)


def sequences_of(counts):
    """n! / prod(c_v!), as a product of binomials."""
    total, left = 1, sum(counts)
    for count in counts:
        total *= comb(left, count)
        left -= count
    return total


class TestParkingVectors:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_path_counts(self, n):
        up = (0,) + path_tree(n).parents
        vectors, primes = (list(_parking_vectors(up, least)) for least in (0, 1))
        assert len(vectors) == comb(2 * n, n) // (n + 1)
        assert len(primes) == comb(2 * n - 2, n - 1) // n
        assert sum(sequences_of(counts) for counts in vectors) == (n + 1) ** (n - 1)
        assert sum(sequences_of(counts) for counts in primes) == (n - 1) ** (n - 1)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_labeled_tree_matches_a_filter(self, n):
        for tree in enumerate_rooted_trees(n):
            up = (0,) + tree.parents
            filtered = filtered_vectors(up)
            for least in (0, 1):
                walked = sorted(_parking_vectors(up, least))
                assert walked == [counts for counts, kept in filtered if kept >= least], (tree, least)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_the_prime_walk_keeps_the_order_of_the_parking_walk(self, n):
        # every plane shape, and every labeled tree up to n = 5: the order of
        # _prime_sequences and _iter_primes, and so of the round-trip suite's
        # failures, is that of the parking walk
        ups = list(map(_shape_parents, enumerate_plane_trees(n)))
        if n <= 5:
            ups += [(0,) + tree.parents for tree in enumerate_rooted_trees(n)]
        for up in ups:
            subtrees = subtrees_below_root(up)
            primes = [counts for counts in _parking_vectors(up, 0) if slack(subtrees, counts) >= 1]
            assert list(_parking_vectors(up, 1)) == primes, up

    @pytest.mark.parametrize("n", range(1, 7))
    def test_orderings_are_distinct_and_multinomial_many(self, n):
        seen = []
        for multiset in combinations_with_replacement(range(1, n + 1), n):
            counts = tuple(multiset.count(v) for v in range(n + 1))
            orderings = list(_orderings(counts))
            assert orderings == sorted(set(orderings)), counts  # distinct, lexicographic
            assert len(orderings) == sequences_of(counts), counts
            assert all(sorted(seq) == list(multiset) for seq in orderings), counts
            seen += orderings
        assert sorted(seen) == list(product(range(1, n + 1), repeat=n))


class TestRoundtripSuite:
    def test_n1(self):
        report = roundtrip_suite(1)
        assert report.passed and report.cases == 2

    def test_n2(self):
        report = roundtrip_suite(2)
        assert report.passed and report.cases == 4

    def test_n4_is_720_each_way(self):
        report = roundtrip_suite(4)
        assert report.passed
        assert report.cases == 1440

    def test_guard(self):
        with pytest.raises(LimitExceededError):
            roundtrip_suite(5)

    @pytest.mark.parametrize("n", [1, 4])
    def test_lists_the_labeled_plane_trees_once(self, monkeypatch, n):
        # the backward half reads one list for every permutation
        calls = []
        real = census_module.enumerate_labeled_plane_trees
        monkeypatch.setattr(census_module, "enumerate_labeled_plane_trees", lambda m: calls.append(m) or real(m))
        assert roundtrip_suite(n).passed
        assert calls == [n]

    def test_each_case_is_validated_once(self, monkeypatch):
        # the suite enumerates its own pairs and trees and composes the
        # kernels, so no public gate or map runs; the kernels still check
        # the pairs they build, by simulation
        names = ("check_preferences", "validate_rooted_tree", "_check_labels", "check_permutation",
                 "standardize", "decode_prime", "prime_to_pair", "pair_to_prime", "_standardize", "_decode_prime")
        calls = Counter()

        def counted(name, real):
            return lambda *args, **kwargs: calls.update((name,)) or real(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):  # every module that binds a name
            if module_name.split(".")[0] == "treepark":
                for name in names:
                    if name in vars(module):
                        monkeypatch.setattr(module, name, counted(name, vars(module)[name]))
        assert roundtrip_suite(4).passed
        assert {name: calls[name] for name in names} == dict.fromkeys(names[:8], 0) | {
            "_standardize": 720,
            "_decode_prime": 720,
        }


# Each doctored half, by the name the census module calls it under.
DOCTORED = {
    "honest": {},
    "decoder-broken-on-some-words": {"_backward": reference_census.decoder_broken_on_some_words},
    "encoder-not-injective": {"_forward": reference_census.encoder_not_injective},
    "encoder-missing-one-pair": {"_forward": reference_census.encoder_missing_one_pair},
}


class TestRoundtripCountChecks:
    """A suite whose enumeration falls short reports it, so it cannot pass
    on fewer cases than the closed form names."""

    def test_a_missing_prime_pair_is_a_failure(self, monkeypatch):
        real = census_module._iter_primes
        monkeypatch.setattr(census_module, "_iter_primes", lambda n: islice(real(n), 23))
        report = roundtrip_suite(3)
        assert not report.passed
        assert report.failures == ("found 23 prime pairs, expected 24",)

    def test_a_missing_plane_tree_is_a_failure(self, monkeypatch):
        real = census_module.enumerate_labeled_plane_trees
        monkeypatch.setattr(census_module, "enumerate_labeled_plane_trees", lambda n: list(real(n))[1:])
        report = roundtrip_suite(3)
        assert not report.passed
        assert report.failures == ("enumerated 18 (permutation, tree) pairs",)


class TestRoundtripAgainstTheReference:
    """The suite runs each map once per object and answers the backward half
    from the forward half's table; its report is the two-loop reference's,
    string for string, with the honest maps and with doctored ones."""

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("doctored", sorted(DOCTORED))
    def test_same_report(self, monkeypatch, doctored, n):
        calls = []

        def counting(name, real):
            def call(*args):
                calls.append(name)
                return real(*args)
            return call

        for name, fake in DOCTORED[doctored].items():
            monkeypatch.setattr(census_module, name, fake)
        for name in ("_forward", "_backward"):
            monkeypatch.setattr(census_module, name, counting(name, getattr(census_module, name)))
        expected = reference_roundtrip(n)
        calls.clear()
        report = roundtrip_suite(n)
        assert (report.cases, report.failures) == expected
        forward = report.cases // 2
        if doctored == "honest":
            assert report.failures == () and calls.count("_forward") == calls.count("_backward") == forward
        elif n >= 2:
            assert report.failures
        if doctored == "encoder-missing-one-pair" and n >= 2:
            # the missed pair runs both maps, the pair its image went to the encoding again
            assert (calls.count("_backward"), calls.count("_forward")) == (forward + 1, forward + 2)

    def test_same_report_under_optimize(self, monkeypatch):
        # the suite's checks are no asserts, which python -O strips
        monkeypatch.setattr(census_module, "_backward", reference_census.decoder_broken_on_some_words)
        expected = reference_roundtrip(3)
        assert expected[1]
        probe = (
            "import importlib, reference_census\n"
            "census = importlib.import_module('treepark.census')\n"
            "census._backward = reference_census.decoder_broken_on_some_words\n"
            "report = census.roundtrip_suite(3)\n"
            "print(repr((report.cases, report.failures)))\n"
        )
        paths = [str(Path(census_module.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        runs = [
            subprocess.run([sys.executable, *flags, "-c", probe], env=env, capture_output=True, text=True, check=True)
            for flags in ([], ["-O"])
        ]
        assert [run.stdout for run in runs] == [repr(expected) + "\n"] * 2


class TestTheoremSuite:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_passes(self, n):
        report = theorem53_suite(n)
        assert report.passed, report.failures[:3]

    def test_case_counts_are_catalan(self):
        assert [theorem53_suite(n).cases for n in range(1, 6)] == [1, 2, 5, 14, 42]

    @pytest.mark.parametrize("n", range(9))
    def test_built_avoiders_are_the_filtered_ones_in_order(self, n):
        assert _avoiders_132(n) == [w for w in permutations(range(1, n + 1)) if _avoids_132(w)]

    def test_each_built_word_is_checked(self, monkeypatch):
        # five words, as many as Catalan(3), so the count check alone passes
        built = [(1, 2, 3), (1, 2, 3), (1, 3, 2), (1, 2, 2), (3, 2, 1)]
        monkeypatch.setattr(census_module, "_avoiders_132", lambda n: built)
        report = theorem53_suite(3)
        assert report.cases == 5
        assert report.failures == (
            "sigma=(1, 2, 3): built twice",
            "sigma=(1, 3, 2): not a 132-avoiding permutation of 1..3",
            "sigma=(1, 2, 2): not a 132-avoiding permutation of 1..3",
        )

    def test_guard(self):
        with pytest.raises(LimitExceededError):
            theorem53_suite(8)

    def test_each_word_is_validated_once(self, monkeypatch):
        # the suite checks each word itself and hands it to the kernels, so
        # no public gate runs again; the decoder still checks what it decodes
        names = ("check_permutation", "_check_labels", "labeled_path", "decode_prime", "borie_map",
                 "_decode_prime", "_borie_map")
        calls = Counter()

        def counted(name, real):
            return lambda *args, **kwargs: calls.update((name,)) or real(*args, **kwargs)

        for module in (treepark.trees, treepark.bijections, census_module):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        assert theorem53_suite(6).passed
        assert {name: calls[name] for name in names} == dict.fromkeys(names[:5], 0) | {
            "_decode_prime": 132,
            "_borie_map": 132,
        }

    def test_a_decoded_tree_off_the_path_is_a_failure(self, monkeypatch):
        real = census_module._decode_prime
        monkeypatch.setattr(census_module, "_decode_prime", lambda labels, kids: ([0], *real(labels, kids)[1:]))
        report = theorem53_suite(2)
        assert not report.passed and report.cases == 2
        assert report.failures == (
            "sigma=(1, 2): decoded tree is not a path",
            "sigma=(2, 1): decoded tree is not a path",
        )

    def test_a_statistic_map_off_the_decoded_tail_is_a_failure(self, monkeypatch):
        real = census_module._borie_map
        monkeypatch.setattr(census_module, "_borie_map", lambda word: (0,) * len(word))
        report = theorem53_suite(2)
        assert not report.passed and report.cases == 2
        assert report.failures == tuple(
            f"sigma={word}: statistic map (0, 0) != decoded tail {real(word)}" for word in ((1, 2), (2, 1))
        )

    def test_a_missing_avoider_is_a_failure(self, monkeypatch):
        real = census_module._avoiders_132
        monkeypatch.setattr(census_module, "_avoiders_132", lambda n: real(n)[:-1])
        report = theorem53_suite(3)
        assert not report.passed and report.cases == 4
        assert report.failures == ("saw 4 avoiders, expected 5",)


class TestPathImageSuite:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_bijection_onto_labeled_paths(self, n):
        report = path_image_suite(n)
        assert report.passed, report.failures[:3]

    def test_a_sequence_that_is_not_standard_is_a_failure(self, monkeypatch):
        # with the simulation doctored to call every pair not prime, each
        # growth sequence is recorded by name, and the run ends with a report
        monkeypatch.setattr(treepark.bijections, "_prime_outcome", lambda up, order, prefs: (False, None))
        report = path_image_suite(2)
        assert report.cases == 2
        assert report.failures == (
            "seq=(1, 1, 1): not a standard prime pair: underlying pair is not prime",
            "seq=(1, 1, 2): not a standard prime pair: underlying pair is not prime",
            "images cover 0 labeled paths out of 2",
        )

    def test_guard(self):
        with pytest.raises(LimitExceededError):
            path_image_suite(7)

    def test_an_image_off_the_path_is_a_failure(self, monkeypatch):
        monkeypatch.setattr(census_module, "_encode", lambda parents, prefs, outcome: _flatten(parse_plane_tree("*[1 2]")))
        report = path_image_suite(2)
        assert not report.passed and report.cases == 2
        assert report.failures == (
            "seq=(1, 1, 1): image is not a path",
            "seq=(1, 1, 2): image is not a path",
            "images cover 0 labeled paths out of 2",
        )

    def test_a_missing_growth_sequence_is_a_failure(self, monkeypatch):
        real = census_module.product
        monkeypatch.setattr(census_module, "product", lambda *ranges: list(real(*ranges))[:-1])
        report = path_image_suite(3)
        assert not report.passed and report.cases == 5
        assert report.failures == (
            "enumerated 5 growth sequences, expected 6",
            "images cover 5 labeled paths out of 6",
        )


def test_the_suites_import_only_kernels_from_bijections():
    # the suites check what they enumerate themselves and call kernels, so
    # none may slip back through a public gate or map of the bijection layer
    tree = ast.parse(Path(census_module.__file__).read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "bijections" and node.level == 1
        for alias in node.names
    ]
    assert imported
    assert [name for name in imported if not name.startswith("_")] == []


@pytest.mark.parametrize("suite, n", [(roundtrip_suite, 4), (path_image_suite, 6), (theorem53_suite, 7)])
def test_suites_build_no_nested_tree(suite, n, monkeypatch):
    # the suites read every labeled plane tree through its flat form, and
    # build none to be flattened
    calls = []
    real = treepark.trees._labeled_tree
    monkeypatch.setattr(treepark.trees, "_labeled_tree", lambda *flat: calls.append(flat) or real(*flat))
    built = []
    init = treepark.trees.LabeledPlaneTree.__init__
    monkeypatch.setattr(
        treepark.trees.LabeledPlaneTree, "__init__", lambda self, *args: built.append(args) or init(self, *args)
    )
    assert suite(n).passed
    assert calls == []
    assert built == []


@pytest.mark.parametrize(
    "suite, n",
    [(roundtrip_suite, -1), (roundtrip_suite, 0), (theorem53_suite, -1), (path_image_suite, -1)],
)
def test_suite_size_below_range_is_named(suite, n):
    with pytest.raises(InputError, match=f"needs n >= [01], got n={n}$"):
        suite(n)


@pytest.mark.parametrize("suite", [theorem53_suite, path_image_suite])
def test_suite_size_zero_is_one_case(suite):
    report = suite(0)
    assert report.passed and report.cases == 1
