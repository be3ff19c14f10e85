"""Exhaustive brute-force censuses and theorem-level verification suites.

Every count here is obtained by enumerating objects one by one; the closed
forms appear only on the *expected* side of each report.  Parking and
primality depend on a sequence only through its count vector, so the census
enumerates only the count vectors that park on a tree (a depth-first pass
over its vertices) and weights each by its n!/prod(c_v!) sequences; only
the standard-pair column and the round-trip suite spell a vector's
sequences out.  The census still walks every labeled tree, but keeps only
its isomorphism class and decides the vectors once per class met in a
call, on the class's own code read as a plane shape: relabeling a tree
permutes its vectors and keeps each vector's weight and slack, so a tree's
parking and prime totals depend only on its unlabeled shape.  The tree
space can be sharded: ``shard=(k, m)`` keeps the trees (or shapes) whose
enumeration index is congruent to k mod m, and the per-shard counts sum to
the full run.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import islice, permutations, product
from math import factorial, prod
from typing import Iterator, Sequence

from .bijections import (
    _avoids_132,
    _flat_parents,
    _out_of_crossing_order,
    borie_map,
    decode_prime,
    encode_prime,
    labeled_path,
    pair_to_prime,
    prime_to_pair,
    standard_path_prime,
)
from .errors import InputError, InvalidShardError, LimitExceededError, _at_least, _ints
from .parking import run_parking
from .series import catalan_number, closed_counts
from .trees import (
    RootedTree,
    _bottom_up,
    _flatten,
    _shape_parents,
    enumerate_labeled_plane_trees,
    enumerate_plane_trees,
    enumerate_rooted_trees,
    format_plane_tree,
    format_rooted_tree,
    path_shape,
)

CENSUS_COLUMNS = (
    "parking",
    "prime",
    "distribution",
    "prime_distribution",
    "marked_prime",
    "marked_distribution",
    "standard_prime",
)

# The largest n of each exhaustive run; the census needs allow_large at its cap.
CAPS = {"census": 6, "roundtrip": 4, "thm53": 7, "paths": 6}


def _parking_vectors(up: Sequence[int]) -> Iterator[tuple[tuple[int, ...], int]]:
    """The count vectors that park on the tree whose parent list is ``up``
    (slot 0 unused), each with its slack.  Slot v of a vector is how many of
    the n drivers prefer v (slot 0 holds 0); the vector parks when every
    subtree gets at least as many preferences as it has vertices.  The slack
    is the least, over non-root v, of the drivers preferring the subtree of v
    less its size (1 when n = 1); the vector's sequences are prime when it is
    >= 1.  A depth-first pass places the vertices children first and carries
    each vertex's surplus over the children placed so far."""
    *below_root, root = _bottom_up(up)
    counts = [0] * len(up)
    surplus = [0] * len(up)

    def place(i: int, left: int, slack: int) -> Iterator[tuple[tuple[int, ...], int]]:
        if i == len(below_root):
            counts[root] = left  # the root's subtree is the whole tree: surplus 0
            yield tuple(counts), slack
            return
        v = below_root[i]
        for count in range(max(0, 1 - surplus[v]), left + 1):
            excess = surplus[v] + count - 1
            counts[v] = count
            surplus[up[v]] += excess
            yield from place(i + 1, left - count, min(slack, excess))
            surplus[up[v]] -= excess

    # slacks never exceed 1: the root's children's excesses sum to 1 less its count
    yield from place(0, len(up) - 1, 1)


def _orderings(counts: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The distinct sequences in which ``counts[v]`` drivers prefer v, in
    lexicographic order (the next-permutation step, Knuth's Algorithm L)."""
    seq = [v for v, count in enumerate(counts) for _ in range(count)]
    while True:
        yield tuple(seq)
        i = len(seq) - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(seq) - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1:] = seq[:i:-1]


def _prime_sequences(up: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every prime preference sequence on the tree whose parent list is ``up``."""
    for counts, slack in _parking_vectors(up):
        if slack >= 1:
            yield from _orderings(counts)


def _shape_code(tree: RootedTree) -> tuple:
    """The tree's isomorphism class as a canonical nested tuple (the AHU
    encoding): each vertex's code is the sorted tuple of its children's."""
    up = (0,) + tree.parents
    below: list[list[tuple]] = [[] for _ in up]
    for v in _bottom_up(up):  # slot 0 collects the root's code
        below[up[v]].append(tuple(sorted(below[v])))
    return below[0][0]


def _leaf_count(parents: Sequence[int]) -> int:
    """How many vertices of a parent list with slot 0 unused are no one's parent:
    its n + 1 entries less its distinct ones, the inner vertices and 0."""
    return len(parents) - len(set(parents))


def census_counts(n: int, shard: tuple[int, int] = (0, 1), allow_large: bool = False) -> dict[str, int]:
    """Raw enumeration counts for one shard of the tree space at size n."""
    cap = CAPS["census"]
    guard = f"census is guarded to 1 <= n <= {cap}, got {n}"
    if _at_least(n, 1, "n", LimitExceededError, guard) > cap:
        raise LimitExceededError(guard)
    if n == cap and not allow_large:
        raise LimitExceededError(
            "the n=6 census walks 7776 trees, weighs the 853 count vectors that park"
            " on their 20 isomorphism classes and simulates 7105 prime sequences on"
            " 42 plane trees; pass allow_large"
        )
    which_mod = _ints(shard, InvalidShardError, "shard entry {}:")
    if len(which_mod) != 2 or which_mod[1] < 1 or not 0 <= which_mod[0] < which_mod[1]:
        raise InvalidShardError(f"shard {shard}: need m >= 1 and 0 <= k < m")
    # k or m past the n^(n-1) trees (no fewer than the plane shapes) changes no
    # shard, and keeps islice's index arithmetic inside sys.maxsize
    which, mod = (min(entry, n ** (n - 1)) for entry in which_mod)

    walk = islice(enumerate_rooted_trees(n), which, None, mod)
    classes = Counter(_shape_code(tree) for tree in walk)  # shape code -> trees of that class

    counts = dict.fromkeys(CENSUS_COLUMNS, 0)
    for code, trees in classes.items():
        parents = _shape_parents(code)  # a code is also a plane shape
        parking = prime = distribution = prime_distribution = 0
        for vector, slack in _parking_vectors(parents):
            sequences = factorial(n) // prod(map(factorial, vector))
            parking += sequences
            distribution += 1
            if slack >= 1:
                prime += sequences
                prime_distribution += 1
        leaves = _leaf_count(parents)
        row = (
            parking, prime, distribution, prime_distribution,
            leaves * prime_distribution, leaves * distribution,
        )
        for name, value in zip(CENSUS_COLUMNS, row):
            counts[name] += trees * value

    for shape in islice(enumerate_plane_trees(n), which, None, mod):
        parents = _shape_parents(shape)
        tree = RootedTree(tuple(parents[1:]))
        counts["standard_prime"] += sum(
            _out_of_crossing_order(parents, run_parking(tree, seq).crossings) is None
            for seq in _prime_sequences(parents)
        )
    return counts


@dataclass(frozen=True)
class ColumnCheck:
    name: str
    counted: int
    expected: int

    @property
    def passed(self) -> bool:
        return self.counted == self.expected


@dataclass(frozen=True)
class CensusReport:
    n: int
    columns: tuple[ColumnCheck, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.columns)


def census(n: int, allow_large: bool = False) -> CensusReport:
    """Full census at size n, compared column by column with the closed forms."""
    start = time.perf_counter()
    counted = census_counts(n, allow_large=allow_large)
    expected = asdict(closed_counts(n).row(n))  # a field per column but standard_prime
    expected["standard_prime"] = factorial(n - 1) * catalan_number(n - 1)
    columns = tuple(
        ColumnCheck(name, counted[name], expected[name]) for name in CENSUS_COLUMNS
    )
    return CensusReport(n, columns, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteReport:
    name: str
    n: int
    cases: int
    failures: tuple[str, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.failures


def _iter_primes(n: int):
    """All prime pairs on n vertices, by enumeration and the strict criterion."""
    for tree in enumerate_rooted_trees(n):
        for seq in _prime_sequences((0,) + tree.parents):
            yield tree, seq


def roundtrip_suite(n: int) -> SuiteReport:
    """Both composites of the prime <-> (permutation, plane tree) maps are
    identities, and the forward image has no duplicates.

    Each map runs once on every object of its domain.  The forward half
    records, for each image, whether it decoded back to the pair it came
    from, or else the pair it decoded to.  An image that decoded back needs
    no run in the backward half: the maps are functions, so encoding the
    decoded pair gives the image again.  The backward half runs the maps
    only on a pair the forward image missed (both maps), or on the decoded
    pair of a failed forward round trip (the encoding).  The report is the
    one that running both composites on every object would give.  An image
    is keyed by its word and its tree's flat form, which compare as the
    pair does, so the table holds no nested trees.
    """
    if _at_least(n, 1, "n", InputError, f"the round-trip suite needs n >= 1, got n={n}") > CAPS["roundtrip"]:
        raise LimitExceededError(f"the round-trip suite is guarded to n <= {CAPS['roundtrip']}")
    start = time.perf_counter()
    failures: list[str] = []
    # each image -> True if it decoded back to the pair it came from, else the
    # pair it decoded to; a later pair with the same image writes over it
    decoded: dict = {}
    forward = 0
    for tree, prefs in _iter_primes(n):
        forward += 1
        word, plt = prime_to_pair(tree, prefs)
        image = word, _flatten(plt)
        decoded[image] = True
        back_tree, back_prefs = pair_to_prime(word, plt)
        if back_tree != tree or back_prefs != prefs:
            decoded[image] = back_tree, back_prefs
            failures.append(
                f"forward roundtrip broke at tree={format_rooted_tree(tree)} seq={prefs}"
            )
    if len(decoded) != forward:
        failures.append(f"image has {forward - len(decoded)} duplicate pairs")
    if forward != factorial(2 * n - 2):
        failures.append(f"found {forward} prime pairs, expected {factorial(2 * n - 2)}")

    backward = 0
    for word in permutations(range(1, n + 1)):
        for plt in enumerate_labeled_plane_trees(n):
            backward += 1
            back = decoded.get((word, _flatten(plt)))
            if back is True:
                continue
            tree, prefs = pair_to_prime(word, plt) if back is None else back
            word2, plt2 = prime_to_pair(tree, prefs)
            if word2 != word or plt2 != plt:
                failures.append(
                    f"backward roundtrip broke at sigma={word} ptree={format_plane_tree(plt)}"
                )
    if backward != factorial(n) * factorial(n - 1) * catalan_number(n - 1):
        failures.append(f"enumerated {backward} (permutation, tree) pairs")

    return SuiteReport("roundtrip", n, forward + backward, tuple(failures), time.perf_counter() - start)


def theorem53_suite(n: int) -> SuiteReport:
    """For every 132-avoiding permutation, the statistic map agrees with the
    decoded labeled path after dropping its leading 1."""
    if _at_least(n, 0, "n", InputError, f"the pattern suite needs n >= 0, got n={n}") > CAPS["thm53"]:
        raise LimitExceededError(f"the pattern suite is guarded to n <= {CAPS['thm53']}")
    start = time.perf_counter()
    failures: list[str] = []
    cases = 0
    path = _shape_parents(path_shape(n + 1))
    for word in permutations(range(1, n + 1)):
        if not _avoids_132(word):  # permutations() makes valid words
            continue
        cases += 1
        sp = decode_prime(labeled_path(word))
        if _flat_parents(sp) != path:
            failures.append(f"sigma={word}: decoded tree is not a path")
            continue
        if sp.prefs[0] != 1 or borie_map(word) != sp.prefs[1:]:
            failures.append(
                f"sigma={word}: statistic map {borie_map(word)} != decoded tail {sp.prefs[1:]}"
            )
    if cases != catalan_number(n):
        failures.append(f"saw {cases} avoiders, expected {catalan_number(n)}")
    return SuiteReport("thm53", n, cases, tuple(failures), time.perf_counter() - start)


def path_image_suite(n: int) -> SuiteReport:
    """Encoding restricted to growth sequences (s_1 = 1, s_i <= i-1) on the
    (n+1)-spot path is a bijection onto all n! labeled paths."""
    if _at_least(n, 0, "n", InputError, f"the path-image suite needs n >= 0, got n={n}") > CAPS["paths"]:
        raise LimitExceededError(f"the path-image suite is guarded to n <= {CAPS['paths']}")
    start = time.perf_counter()
    failures: list[str] = []
    seen: set[tuple[int, ...]] = set()
    cases = 0
    ranges = [range(1, 2)] + [range(1, i) for i in range(2, n + 2)]
    for seq in product(*ranges):
        cases += 1
        labels, kids = _flatten(encode_prime(standard_path_prime(seq)))
        if any(len(k) > 1 for k in kids):
            failures.append(f"seq={seq}: image is not a path")
        else:
            seen.add(tuple(labels[1:]))  # a path's pre-order reads it downward
    if cases != factorial(n):
        failures.append(f"enumerated {cases} growth sequences, expected {factorial(n)}")
    if len(seen) != factorial(n):
        failures.append(f"images cover {len(seen)} labeled paths out of {factorial(n)}")
    return SuiteReport("paths", n, cases, tuple(failures), time.perf_counter() - start)
