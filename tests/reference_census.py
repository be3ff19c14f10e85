"""References for ``treepark.census``, kept for the tests to compare with.

The bucket census builds all n^n preference sequences, groups them by count
vector (a bucket), and decides each (tree, bucket) pair with one subtree
pass.  The package enumerates only the count vectors that park instead.

The nested class code names a tree's isomorphism class by sorted nested
tuples.  The package interns each subtree class as a small id instead.

The simulated standard column parks every prime sequence of the buckets on
each plane tree and checks the sibling order of the whole run by its own
rule (``crossing_ordered``).  The package searches the orderings of each prime
vector prefix by prefix instead, and pairs siblings with
``bijections._sibling_pairs``.

The two-loop round-trip suite runs both composites of the maps on every
object, from each side.  The package runs each map once per object and
answers the backward half from the forward half's table.
"""

import importlib
from collections import Counter
from functools import cache
from itertools import islice, permutations, product
from math import factorial

from treepark import (
    RootedTree,
    catalan_number,
    enumerate_labeled_plane_trees,
    labeled_path,
    enumerate_plane_trees,
    enumerate_rooted_trees,
    format_plane_tree,
    format_rooted_tree,
)
from treepark import bijections
from treepark.census import CENSUS_COLUMNS, _iter_primes
from treepark.parking import run_parking
from treepark.trees import _bottom_up, _shape_parents, _subtree_sums

census = importlib.import_module("treepark.census")  # the package exports a census function


def shape_code(tree):
    """The tree's isomorphism class as a canonical nested tuple (the AHU
    encoding): each vertex's code is the sorted tuple of its children's."""
    up = (0,) + tree.parents
    below = [[] for _ in up]
    for v in _bottom_up(up):  # slot 0 collects the root's code
        below[up[v]].append(tuple(sorted(below[v])))
    return below[0][0]


def crossing_ordered(parents, crossings):
    """Whether the run whose crossing log is ``crossings`` leaves the
    post-order labeled shape ``parents`` (slot 0 unused) standard: list each
    vertex's children by ascending label, left to right, and each child's
    edge must be first crossed after its right sibling's."""
    first = {}
    for i, (child, _) in enumerate(crossings):
        first.setdefault(child, i)
    children = [[] for _ in parents]
    for v in range(1, len(parents)):
        if parents[v]:
            children[parents[v]].append(v)
    return all(first[left] > first[right] for kids in children for left, right in zip(kids, kids[1:]))


def simulated_standard_count(shape):
    """How many prime sequences form a standard pair with the post-order
    labeled shape: each one simulated, its whole run checked for order.  The
    prime sequences come from the n^n buckets, built once per n, not from
    the package's count vectors."""
    n = len(_shape_parents(shape)) - 1
    return sum(1 for _ in reference_standard_primes(shape, _buckets_of_size(n)))


def simulated_standard_column(n, shard=(0, 1)):
    """The standard-pair column of one shard, simulated shape by shape."""
    which, mod = shard
    return sum(simulated_standard_count(shape) for shape in islice(enumerate_plane_trees(n), which, None, mod))


def reference_buckets(n):
    """The n^n preference sequences grouped by count vector.  Slot v of a key
    is the number of drivers preferring v, less one (slot 0 is unused); the
    keys stand for the C(2n-1, n) multisets."""
    buckets = {}
    for seq in product(range(1, n + 1), repeat=n):
        buckets.setdefault(tuple(seq.count(v) - 1 for v in range(n + 1)), []).append(seq)
    return buckets


_buckets_of_size = cache(reference_buckets)  # read, never changed


def reference_slacks(up, buckets):
    """Each bucket's sequences with their slack on the tree whose parent list
    is ``up``, slot 0 unused: the least, over non-root v, of the drivers
    preferring the subtree of v less its size.  They park when the slack is
    >= 0 and are prime when it is >= 1."""
    order = _bottom_up(up)
    below_root = order[:-1]
    for weights, seqs in buckets.items():
        excess = _subtree_sums(order, up, weights)
        yield seqs, min((excess[v] for v in below_root), default=1)


def reference_standard_primes(shape, buckets):
    """The sequences that form a standard pair with the post-order labeled shape."""
    parents = _shape_parents(shape)
    tree = RootedTree(tuple(parents[1:]))
    for seqs, slack in reference_slacks(parents, buckets):
        if slack >= 1:
            for seq in seqs:
                if crossing_ordered(parents, run_parking(tree, seq).crossings):
                    yield seq


def reference_counts(n, shard=(0, 1)):
    """The census columns of one shard, the buckets decided once per
    isomorphism class met in the shard."""
    which, mod = shard
    buckets = reference_buckets(n)
    classes = Counter(shape_code(tree) for tree in islice(enumerate_rooted_trees(n), which, None, mod))
    counts = dict.fromkeys(CENSUS_COLUMNS, 0)
    for code, trees in classes.items():
        parents = _shape_parents(code)
        leaves = sum(1 for v in range(1, n + 1) if v not in parents)
        for seqs, slack in reference_slacks(parents, buckets):
            if slack >= 0:
                counts["parking"] += trees * len(seqs)
                counts["distribution"] += trees
                counts["marked_distribution"] += trees * leaves
            if slack >= 1:
                counts["prime"] += trees * len(seqs)
                counts["prime_distribution"] += trees
                counts["marked_prime"] += trees * leaves
    for shape in islice(enumerate_plane_trees(n), which, None, mod):
        counts["standard_prime"] += sum(1 for _ in reference_standard_primes(shape, buckets))
    return counts


def reference_roundtrip(n):
    """``(cases, failures)`` of the round-trip suite at size n, both
    composites run on every object.  The maps are read off the census module
    at each call, so that a test that replaces them there replaces them here."""
    failures = []
    images = set()
    forward = 0
    for tree, prefs in _iter_primes(n):
        forward += 1
        word, plt = census.prime_to_pair(tree, prefs)
        images.add((word, plt))
        back_tree, back_prefs = census.pair_to_prime(word, plt)
        if back_tree != tree or back_prefs != prefs:
            failures.append(
                f"forward roundtrip broke at tree={format_rooted_tree(tree)} seq={prefs}"
            )
    if len(images) != forward:
        failures.append(f"image has {forward - len(images)} duplicate pairs")
    if forward != factorial(2 * n - 2):
        failures.append(f"found {forward} prime pairs, expected {factorial(2 * n - 2)}")

    backward = 0
    for word in permutations(range(1, n + 1)):
        for plt in enumerate_labeled_plane_trees(n):
            backward += 1
            tree, prefs = census.pair_to_prime(word, plt)
            word2, plt2 = census.prime_to_pair(tree, prefs)
            if word2 != word or plt2 != plt:
                failures.append(
                    f"backward roundtrip broke at sigma={word} ptree={format_plane_tree(plt)}"
                )
    if backward != factorial(n) * factorial(n - 1) * catalan_number(n - 1):
        failures.append(f"enumerated {backward} (permutation, tree) pairs")
    return forward + backward, tuple(failures)


# Doctored maps for the suites, each wrong in one way; every one still maps
# into the other side's domain, so that neither suite raises.

def decoder_broken_on_some_words(word, plt):
    """Decodes a word that starts with 1 as if it were rotated by one place."""
    if word[0] == 1:
        word = word[1:] + word[:1]
    return bijections.pair_to_prime(word, plt)


def encoder_not_injective(tree, prefs):
    """Swaps the letters 1 and 2 of a word that starts with 2, so that it
    meets the image of another pair."""
    word, plt = bijections.prime_to_pair(tree, prefs)
    if word[0] == 2:
        word = tuple({1: 2, 2: 1}.get(letter, letter) for letter in word)
    return word, plt


def encoder_missing_one_pair(tree, prefs):
    """Sends the one pair whose image is the identity word with the path
    labeled 1..n-1 downward to the image of the reversed word's pair."""
    word, plt = bijections.prime_to_pair(tree, prefs)
    n = len(word)
    if word == tuple(range(1, n + 1)) and plt == labeled_path(range(1, n)):
        word = word[::-1]
    return word, plt
