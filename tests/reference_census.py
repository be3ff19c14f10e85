"""The bucket census, kept as the tests' reference for ``treepark.census``.

It builds all n^n preference sequences, groups them by count vector (a
bucket), and decides each (tree, bucket) pair with one subtree pass.  The
package enumerates only the count vectors that park instead; the tests
compare the two.
"""

from collections import Counter
from itertools import islice, product

from treepark import RootedTree, enumerate_plane_trees, enumerate_rooted_trees
from treepark.bijections import _out_of_crossing_order
from treepark.census import CENSUS_COLUMNS, _shape_code
from treepark.parking import run_parking
from treepark.trees import _bottom_up, _shape_parents, _subtree_sums


def reference_buckets(n):
    """The n^n preference sequences grouped by count vector.  Slot v of a key
    is the number of drivers preferring v, less one (slot 0 is unused); the
    keys stand for the C(2n-1, n) multisets."""
    buckets = {}
    for seq in product(range(1, n + 1), repeat=n):
        buckets.setdefault(tuple(seq.count(v) - 1 for v in range(n + 1)), []).append(seq)
    return buckets


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
                if _out_of_crossing_order(parents, run_parking(tree, seq).crossings) is None:
                    yield seq


def reference_counts(n, shard=(0, 1)):
    """The census columns of one shard, the buckets decided once per
    isomorphism class met in the shard."""
    which, mod = shard
    buckets = reference_buckets(n)
    classes = Counter(_shape_code(tree) for tree in islice(enumerate_rooted_trees(n), which, None, mod))
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
