"""Exhaustive brute-force censuses and theorem-level verification suites.

Every count here is obtained by enumerating objects one by one; the closed
forms appear only on the *expected* side of each report.  Parking and
primality depend on a sequence only through its count vector, so the census
enumerates count vectors, not sequences, and weights each by its
n!/prod(c_v!) sequences.  One depth-first pass over a tree's vertices
yields the vectors in which every non-root subtree gets at least as many
preferences as it has vertices (those that park), and the same pass with
the bound raised by one yields the prime ones.  The standard-pair column
searches a prime vector's orderings on each plane tree, prefix by prefix,
and only the round-trip suite spells a vector's sequences out.  The census
still walks every labeled tree, but keeps only its isomorphism class and
decides the vectors once per class met in a call, on the first tree of the
class it met: relabeling a tree permutes its vectors and keeps each
vector's weight, so a tree's parking and prime totals depend only on its
unlabeled shape.  The walk meets each Pruefer word's n rootings back to
back, and the first one met gets two passes: its class codes bottom up,
then every vertex's code as root top down.  The tree space can be sharded:
``shard=(k, m)`` keeps the trees (or shapes) whose enumeration index is
congruent to k mod m, and the per-shard counts sum to the full run.  The
pattern suite builds its 132-avoiders instead of filtering all n! words,
checks each word once, and hands it to the decoding and statistic-map
kernels, which check it no further.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from itertools import count, islice, permutations, product
from math import factorial, prod
from typing import Iterator, Sequence

from .bijections import (
    _avoids_132,
    _borie_map,
    _check_standard,
    _decode_prime,
    _encode,
    _sibling_pairs,
    pair_to_prime,
    prime_to_pair,
)
from .errors import (
    CAPS,
    InputError,
    InvalidShardError,
    LimitExceededError,
    NotStandardPrimeError,
    _at_least,
    _ints,
    _shown,
)
from .series import catalan_number, closed_counts
from .trees import (
    _bottom_up,
    _flatten,
    _shape_parents,
    enumerate_labeled_plane_trees,
    enumerate_plane_trees,
    enumerate_rooted_trees,
    format_plane_tree,
    format_rooted_tree,
    path_tree,
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


def _parking_vectors(up: Sequence[int], least: int) -> Iterator[tuple[int, ...]]:
    """The count vectors on the tree whose parent list is ``up`` (slot 0
    unused) in which every non-root subtree gets at least ``least`` more
    preferences than it has vertices.  Slot v of a vector is how many of the
    n drivers prefer v (slot 0 holds 0).  With ``least`` 0 these are the
    vectors that park, and with ``least`` 1 those whose sequences are prime;
    the second walk yields the first's prime vectors in the same order.  A
    depth-first pass places the vertices children first and carries each
    vertex's surplus over the children placed so far."""
    *below_root, root = _bottom_up(up)
    counts = [0] * len(up)
    surplus = [0] * len(up)

    def place(i: int, left: int) -> Iterator[tuple[int, ...]]:
        if i == len(below_root):
            counts[root] = left  # the root's subtree is the whole tree: surplus 0
            yield tuple(counts)
            return
        v = below_root[i]
        for drivers in range(max(0, 1 + least - surplus[v]), left + 1):
            excess = surplus[v] + drivers - 1
            counts[v] = drivers
            surplus[up[v]] += excess
            yield from place(i + 1, left - drivers)
            surplus[up[v]] -= excess

    yield from place(0, len(up) - 1)


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
    for counts in _parking_vectors(up, 1):
        yield from _orderings(counts)


def _standard_orderings(parents: Sequence[int], counts: Sequence[int]) -> int:
    """How many orderings of the prime count vector ``counts`` form a
    standard pair with the plane shape whose post-order parent array is
    ``parents``.  Every driver of a prime vector parks, so no walk passes
    the root.

    A depth-first search over prefixes (a backtrack, Knuth TAOCP 4B
    section 7.2.2) parks one driver per step on an occupied/crossed state
    and undoes the step on the way back.  A prime sequence crosses every
    edge, so it is standard unless some driver crosses an edge while its
    right sibling's edge is still uncrossed (the rule of
    ``bijections._out_of_crossing_order``, on the same ``_sibling_pairs``);
    a prefix is cut at the first such crossing.

    The state after a prefix depends only on how many of its drivers
    prefer each vertex: a vertex is occupied once a driver reaches it, and
    an edge crossed once a driver leaves the subtree below it, and how many
    drivers reach a vertex follows from the counts in its subtree alone.
    So the standard completions of a prefix are counted once per count
    vector of the drivers still to come.
    """
    right = [0] * len(parents)  # each vertex's right sibling, 0 for none
    for u, v in _sibling_pairs(parents):
        right[u] = v
    taken = [False] * len(parents)  # slot 0, above the root, is never taken
    crossed = [True] + [False] * (len(parents) - 1)  # slot 0 stands for no right sibling
    left = list(counts)
    wanted = [v for v, count in enumerate(counts) if count]
    completions: dict[tuple[int, ...], int] = {(0,) * len(counts): 1}

    def extend() -> int:
        found = completions.get(tuple(left))
        if found is not None:
            return found
        found = 0
        for want in wanted:
            if not left[want]:
                continue
            new = []  # the edges this driver crosses first
            v = want
            while taken[v]:
                if not crossed[v]:
                    if not crossed[right[v]]:
                        break  # v's right sibling is still uncrossed
                    new.append(v)
                v = parents[v]
            else:  # v is the driver's spot
                left[want] -= 1
                taken[v] = True
                for c in new:
                    crossed[c] = True
                found += extend()
                for c in new:
                    crossed[c] = False
                taken[v] = False
                left[want] += 1
        completions[tuple(left)] = found
        return found

    return extend()


class _Weights(dict):
    """Class keys -> the weights of the classes they name: a key met for the
    first time gets the next id j, and its class the weight 2^(bits j)."""

    def __init__(self, bits: int) -> None:
        super().__init__()
        self.bits = bits

    def __missing__(self, key: int) -> int:
        weight = self[key] = 1 << (self.bits * len(self))
        return weight


def _classes(n: int, shard: tuple[int, int]) -> dict[tuple[int, ...], int]:
    """How many of the n-vertex rooted trees in the walk's ``shard=(k, m)``
    (the trees whose enumeration index is congruent to k mod m) fall in each
    isomorphism class, keyed by the parent list ``(0,) + tree.parents`` of
    the first tree of that class met in the shard.

    Each class of subtree met gets a small id j and stands for the weight
    2^(b j), with b the bit length of n.  A vertex's key is the sum of its
    children's weights: the multiset of their ids, one b-bit digit per id
    (no vertex has n children), so equal keys are equal classes and no
    child list is sorted.  A tree's class is the weight of its root's key.

    The walk yields each Pruefer word's n rootings back to back, so tree i
    is word i // n rooted at i % n + 1.  The first tree of a word met in the
    shard gets two passes.  The first computes the keys bottom up.  The
    second computes top down each vertex's key as root: the keys are
    additive, so taking v's weight out of its parent's key as root leaves
    the key of the parent's side seen from v, and v's key as root is its own
    key plus that side's weight.  Every rooting of the word in the shard
    then reads its class off that table.
    """
    which, mod = shard
    weights = _Weights(n.bit_length())
    met: dict[int, list] = {}  # class weight -> [the parent list of its first tree, its trees]
    word = -1
    walk = islice(enumerate_rooted_trees(n), which, None, mod)
    for i, tree in zip(count(which, mod), walk):
        if i // n != word:  # the first tree met of its word
            word = i // n
            up = (0,) + tree.parents
            key = [0] * len(up)
            order = _bottom_up(up)
            for v in order:
                key[up[v]] += weights[key[v]]
            as_root = key[:]  # the root's key as root is its own key
            for v in reversed(order[:-1]):
                as_root[v] = key[v] + weights[as_root[up[v]] - weights[key[v]]]
        named = weights[as_root[i % n + 1]]
        if named not in met:
            met[named] = [(0,) + tree.parents, 0]
        met[named][1] += 1
    return dict(met.values())


def _sequences(counts: Sequence[int]) -> int:
    """How many sequences have the count vector ``counts``: n!/prod(c_v!)."""
    return factorial(sum(counts)) // prod(map(factorial, counts))


def _leaf_count(parents: Sequence[int]) -> int:
    """How many vertices of a parent list with slot 0 unused are no one's parent:
    its n + 1 entries less its distinct ones, the inner vertices and 0."""
    return len(parents) - len(set(parents))


def census_counts(n: int, shard: tuple[int, int] = (0, 1), allow_large: bool = False) -> dict[str, int]:
    """Raw enumeration counts for one shard of the tree space at size n."""
    cap = CAPS["census"]
    _at_least(n, 1, "n", LimitExceededError, "census is guarded to 1 <= n <= {most}, got {value}", most=cap)
    if n == cap and not allow_large:
        raise LimitExceededError(
            "the n=7 census walks 117649 trees, weighs the 4696 count vectors that park"
            " on their 48 isomorphism classes and searches the 153504 prime sequences"
            " on the 132 plane trees for standard pairs; pass allow_large"
        )
    which_mod = _ints(shard, InvalidShardError, "shard entry {}:")
    if len(which_mod) != 2 or which_mod[1] < 1 or not 0 <= which_mod[0] < which_mod[1]:
        raise InvalidShardError(f"shard {_shown(shard)}: need m >= 1 and 0 <= k < m")
    # k or m past the n^(n-1) trees (no fewer than the plane shapes) changes no
    # shard, and keeps islice's index arithmetic inside sys.maxsize
    which, mod = (min(entry, n ** (n - 1)) for entry in which_mod)

    counts = dict.fromkeys(CENSUS_COLUMNS, 0)
    for parents, trees in _classes(n, (which, mod)).items():
        parks, primes = (list(_parking_vectors(parents, least)) for least in (0, 1))
        leaves = _leaf_count(parents)
        row = (
            sum(map(_sequences, parks)), sum(map(_sequences, primes)), len(parks), len(primes),
            leaves * len(primes), leaves * len(parks),
        )
        for name, value in zip(CENSUS_COLUMNS, row):
            counts[name] += trees * value

    for shape in islice(enumerate_plane_trees(n), which, None, mod):
        parents = _shape_parents(shape)
        counts["standard_prime"] += sum(
            _standard_orderings(parents, vector) for vector in _parking_vectors(parents, 1)
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
    if _at_least(n, 1, "n", InputError, "the round-trip suite needs n >= 1, got n={value}") > CAPS["roundtrip"]:
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
    plane_trees = list(enumerate_labeled_plane_trees(n))
    for word in permutations(range(1, n + 1)):
        for plt in plane_trees:
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


def _avoiders_132(n: int) -> list[tuple[int, ...]]:
    """The 132-avoiding permutations of 1..n, in the lexicographic order of
    ``permutations``.  Split at n, an avoider is an avoider of the k largest
    letters below n, then n, then an avoider of the n - 1 - k smallest: every
    letter left of n is larger than every letter right of it, and both sides
    avoid 132."""
    by_size: list[list[tuple[int, ...]]] = [[()]]
    for size in range(1, n + 1):
        built = []
        for k in range(size):
            rights = by_size[size - 1 - k]
            for left in by_size[k]:
                head = tuple(x + size - 1 - k for x in left) + (size,)
                built.extend(head + right for right in rights)
        by_size.append(built)
    return sorted(by_size[n])


def theorem53_suite(n: int) -> SuiteReport:
    """For every 132-avoiding permutation, the statistic map agrees with the
    decoded labeled path after dropping its leading 1.  The avoiders are
    built, not filtered out of all n! words; each one is checked here, once,
    to be a new 132-avoiding permutation of 1..n, and Catalan(n) such words
    are all of them.  A checked word goes straight to the kernels
    :func:`_decode_prime`, as its labeled path's pre-order arrays, and
    :func:`_borie_map`, which check it no further; the decoder still checks
    the pair it decodes."""
    if _at_least(n, 0, "n", InputError, "the pattern suite needs n >= 0, got n={value}") > CAPS["thm53"]:
        raise LimitExceededError(f"the pattern suite is guarded to n <= {CAPS['thm53']}")
    start = time.perf_counter()
    failures: list[str] = []
    cases = 0
    path = [0, *path_tree(n + 1).parents]
    kids = tuple((v,) for v in range(1, n + 1)) + ((),)  # each labeled path's pre-order children
    letters = list(range(1, n + 1))
    seen: set[tuple[int, ...]] = set()
    for word in _avoiders_132(n):
        cases += 1
        if word in seen:
            failures.append(f"sigma={word}: built twice")
            continue
        seen.add(word)
        if sorted(word) != letters or not _avoids_132(word):
            failures.append(f"sigma={word}: not a 132-avoiding permutation of 1..{n}")
            continue
        parents, prefs, _ = _decode_prime((None, *word), kids)
        if parents != path:
            failures.append(f"sigma={word}: decoded tree is not a path")
            continue
        tail = _borie_map(word)
        if prefs[0] != 1 or tail != prefs[1:]:
            failures.append(f"sigma={word}: statistic map {tail} != decoded tail {prefs[1:]}")
    if cases != catalan_number(n):
        failures.append(f"saw {cases} avoiders, expected {catalan_number(n)}")
    return SuiteReport("thm53", n, cases, tuple(failures), time.perf_counter() - start)


def path_image_suite(n: int) -> SuiteReport:
    """Encoding restricted to growth sequences (s_1 = 1, s_i <= i-1) on the
    (n+1)-spot path is a bijection onto all n! labeled paths.  A sequence
    the standard-pair check refuses is a failure that names it."""
    if _at_least(n, 0, "n", InputError, "the path-image suite needs n >= 0, got n={value}") > CAPS["paths"]:
        raise LimitExceededError(f"the path-image suite is guarded to n <= {CAPS['paths']}")
    start = time.perf_counter()
    failures: list[str] = []
    seen: set[tuple[int, ...]] = set()
    cases = 0
    path = [0, *path_tree(n + 1).parents]  # every case encodes this flat pair's tree
    ranges = [range(1, 2)] + [range(1, i) for i in range(2, n + 2)]
    for seq in product(*ranges):
        cases += 1
        try:
            labels, kids = _flatten(_encode(path, *_check_standard(path, seq)))
        except NotStandardPrimeError as exc:
            failures.append(f"seq={seq}: not a standard prime pair: {exc}")
            continue
        if any(len(k) > 1 for k in kids):
            failures.append(f"seq={seq}: image is not a path")
        else:
            seen.add(tuple(labels[1:]))  # a path's pre-order reads it downward
    if cases != factorial(n):
        failures.append(f"enumerated {cases} growth sequences, expected {factorial(n)}")
    if len(seen) != factorial(n):
        failures.append(f"images cover {len(seen)} labeled paths out of {factorial(n)}")
    return SuiteReport("paths", n, cases, tuple(failures), time.perf_counter() - start)
