"""Brute-force censuses, sharding, and the theorem suites."""

import importlib
import re
import sys
from itertools import combinations_with_replacement, product
from math import comb

import pytest

from treepark import (
    InputError,
    InvalidShardError,
    LimitExceededError,
    census,
    census_counts,
    enumerate_plane_trees,
    enumerate_rooted_trees,
    path_image_suite,
    path_tree,
    roundtrip_suite,
    theorem53_suite,
)
from reference_census import (
    reference_buckets,
    reference_counts,
    reference_slacks,
    reference_standard_primes,
)
from treepark.census import CENSUS_COLUMNS, _orderings, _parking_vectors, _prime_sequences, _shape_code
from treepark.trees import _shape_parents

census_module = importlib.import_module("treepark.census")  # the package exports a census function


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
            census_counts(7)
        with pytest.raises(LimitExceededError):
            census_counts(6)  # needs allow_large

    def test_guard_message_matches_the_walk(self):
        with pytest.raises(LimitExceededError) as caught:
            census_counts(6)
        stated = re.search(
            r"walks (\d+) trees, weighs the (\d+) count vectors that park on their"
            r" (\d+) isomorphism classes and simulates (\d+) prime sequences on"
            r" (\d+) plane trees",
            str(caught.value),
        )
        classes = {_shape_code(tree) for tree in enumerate_rooted_trees(6)}
        shapes = list(enumerate_plane_trees(6))
        walked = (
            sum(1 for _ in enumerate_rooted_trees(6)),
            sum(1 for code in classes for _ in _parking_vectors(_shape_parents(code))),
            len(classes),
            sum(1 for shape in shapes for _ in _prime_sequences(_shape_parents(shape))),
            len(shapes),
        )
        assert tuple(map(int, stated.groups())) == walked == (7776, 853, 20, 7105, 42)

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
        classes = [len({_shape_code(t) for t in enumerate_rooted_trees(n)}) for n in range(1, 7)]
        assert classes == [1, 1, 2, 4, 9, 20]

    def test_deterministic(self):
        assert census_counts(3) == census_counts(3)

    @pytest.mark.parametrize("shard", [(0, 0), (0, -1), (5, 3), (3, 3), (-1, 3)])
    def test_bad_shard_is_named(self, shard):
        with pytest.raises(InvalidShardError, match=rf"shard \({shard[0]}, {shard[1]}\)"):
            census_counts(3, shard=shard)


def filtered_vectors(up):
    """The parking count vectors of a parent list (slot 0 unused) with their
    slacks, by filtering all C(2n-1, n) count vectors; each subtree is found
    by walking every vertex up to the root."""
    n = len(up) - 1
    subtrees = {v: set() for v in range(1, n + 1) if up[v]}  # non-root v -> its subtree
    for u in range(1, n + 1):
        v = u
        while up[v]:
            subtrees[v].add(u)
            v = up[v]
    found = []
    for multiset in combinations_with_replacement(range(1, n + 1), n):
        counts = tuple(multiset.count(v) for v in range(n + 1))
        slack = min((sum(counts[u] for u in sub) - len(sub) for sub in subtrees.values()), default=1)
        if slack >= 0:
            found.append((counts, slack))
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
        vectors = list(_parking_vectors((0,) + path_tree(n).parents))
        primes = [counts for counts, slack in vectors if slack >= 1]
        assert len(vectors) == comb(2 * n, n) // (n + 1)
        assert len(primes) == comb(2 * n - 2, n - 1) // n
        assert sum(sequences_of(counts) for counts, _ in vectors) == (n + 1) ** (n - 1)
        assert sum(sequences_of(counts) for counts in primes) == (n - 1) ** (n - 1)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_labeled_tree_matches_a_filter(self, n):
        for tree in enumerate_rooted_trees(n):
            up = (0,) + tree.parents
            assert sorted(_parking_vectors(up)) == filtered_vectors(up), tree

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


class TestTheoremSuite:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_passes(self, n):
        report = theorem53_suite(n)
        assert report.passed, report.failures[:3]

    def test_case_counts_are_catalan(self):
        assert [theorem53_suite(n).cases for n in range(1, 6)] == [1, 2, 5, 14, 42]

    def test_guard(self):
        with pytest.raises(LimitExceededError):
            theorem53_suite(8)


class TestPathImageSuite:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_bijection_onto_labeled_paths(self, n):
        report = path_image_suite(n)
        assert report.passed, report.failures[:3]

    def test_guard(self):
        with pytest.raises(LimitExceededError):
            path_image_suite(7)


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
