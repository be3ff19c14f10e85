"""Bijections between prime parking functions and labeled plane trees.

The pipeline factors a prime pair through a *standard form*:

* :func:`standardize` orders siblings by the time their parent edge is
  first crossed and relabels by post-order, splitting off the relabeling
  permutation.  :func:`destandardize` undoes it.
* :func:`encode_prime` turns a standard pair into a plane tree whose
  non-root vertices are labeled by [n-1], by cutting along the edges the
  final driver is the first to cross and encoding the pieces the same way.
  :func:`decode_prime` inverts it and is total on labeled plane trees.
* :func:`prime_to_pair` / :func:`pair_to_prime` compose the two steps, so
  prime pairs on n vertices correspond to (permutation, labeled plane tree)
  pairs, (2n-2)! of them in total.

Validation sits at the public boundaries, behind the input gate
``parking.check_preferences``.  :func:`check_standard_prime`,
:func:`encode_prime`, :func:`decode_prime`, :func:`decompose` and
:func:`destandardize` check their standard pair with one simulation;
:func:`standardize` checks primality with one simulation and confirms the
sibling order of its result from the same crossing log.  Below that boundary each level of the decomposition parks
its piece once, all drivers but the final one, and checks every piece it
cuts against that one log (primality by the subtree criterion, sibling order
by the crossing ticks), raising :class:`InvariantError` on a disagreement.

Inside the maps a standard pair is flat: the parent array of its post-order
labels (slot 0 unused, the root last), so that a piece is at most two
relabeled runs of its parent's labels.  Nothing recurses; the nested plane
shapes and labeled plane trees of the public types are converted once, at
the boundary.

The module also covers the path specializations: preference sequences whose
image is a labeled path, and Borie's statistic map on 132-avoiding
permutations.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    InputError,
    InvariantError,
    LabelOutOfRangeError,
    LengthMismatchError,
    Not132AvoidingError,
    NotPrimeError,
    NotStandardPrimeError,
    _ints,
)
from .parking import (
    Edge,
    _preferences,
    _prime_outcome,
    check_preferences,
    is_parking_function,
    is_prime,
    run_parking,
)
from .trees import (
    LabeledPlaneTree,
    PlaneShape,
    RootedTree,
    _check_labels,
    _flatten,
    _labeled_tree,
    _parents_shape,
    _shape_parents,
    _shape_repr,
    _subtree_sums,
    check_permutation,
    inverse_permutation,
    path_shape,
    path_tree,
)


@dataclass(frozen=True)
class StandardPrime:
    """Prime pair in standard form.

    The tree is a plane shape whose vertices are implicitly labeled by
    post-order; siblings sit left to right in order of *decreasing* first
    crossing time of their parent edge, and ``prefs`` is the preference
    sequence under those labels.
    """

    shape: PlaneShape
    prefs: tuple[int, ...]

    # The shape nests one tuple per level, so equality and hashing compare
    # flat post-order parent arrays and repr writes it out with a stack.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.prefs == other.prefs and (
            self.shape is other.shape or _shape_parents(self.shape) == _shape_parents(other.shape)
        )

    def __hash__(self) -> int:
        try:  # a bad shape raises InputError, so only the prefs can be unhashable
            return hash((tuple(_shape_parents(self.shape)), self.prefs))
        except TypeError:
            raise InputError(f"preferences {self.prefs!r} are not hashable") from None

    def __repr__(self) -> str:
        return f"StandardPrime(shape={_shape_repr(self.shape)}, prefs={self.prefs!r})"


@dataclass(frozen=True)
class MarkedSet:
    """A sorted set of driver indices with one distinguished element."""

    elements: tuple[int, ...]
    marked: int

    def __post_init__(self) -> None:
        elements = _ints(self.elements, InputError, "element {}:")
        _ints((self.marked,), InputError, "marked index")
        if any(a >= b for a, b in zip(elements, elements[1:])):
            raise InputError(f"elements {self.elements!r} are not strictly increasing")
        if self.marked not in elements:
            raise InputError(f"marked index {self.marked} is not among {self.elements}")

    def unmarked(self) -> tuple[int, ...]:
        return tuple(e for e in self.elements if e != self.marked)


@dataclass(frozen=True)
class Component:
    """One piece of the final-driver decomposition of a standard pair."""

    vertices: tuple[int, ...]  # original labels, ascending (not always a run)
    marked_vertex: int  # where the cut edge (or the last preference) points
    drivers: MarkedSet  # indices of the drivers preferring this piece
    piece: StandardPrime  # the pair, relabeled by rank to its own scale


def _out_of_crossing_order(parents: Sequence[int], crossings: Sequence[Edge]) -> int | None:
    """The first vertex whose children are not in decreasing first-crossing
    order of their parent edges, or None.

    ``parents`` is a post-order parent array (slot 0 unused), so siblings
    carry increasing labels from left to right; vertices whose entry is 0
    have no parent edge to order, and every other edge must have been crossed.
    """
    tick = [0] * len(parents)
    for i, (c, _) in enumerate(crossings):
        tick[c] = i
    last = [0] * len(parents)  # each vertex's latest child so far
    bad = None
    for v in range(1, len(parents)):
        p = parents[v]
        if p:
            if last[p] and tick[last[p]] <= tick[v] and (bad is None or p < bad):
                bad = p
            last[p] = v
    return bad


def _standard_parents(sp: StandardPrime) -> list[int]:
    """The flat parent array of a standard pair's shape."""
    if not isinstance(sp, StandardPrime):
        raise NotStandardPrimeError(f"{sp!r} is not a StandardPrime")
    return _shape_parents(sp.shape)


def _check_standard(parents: list[int], prefs: Sequence[int]) -> tuple[int, ...]:
    """Validate a flat standard pair with one simulation; returns its prefs."""
    try:  # the tree comes from a shape, so only the preferences pass the gate
        prefs = _preferences(len(parents) - 1, prefs)
    except LabelOutOfRangeError as exc:  # a preference outside 1..n, or not an int
        raise NotStandardPrimeError(str(exc)) from exc
    prime, outcome = _prime_outcome(RootedTree(tuple(parents[1:])), prefs)
    if not prime:
        raise NotStandardPrimeError("underlying pair is not prime")
    v = _out_of_crossing_order(parents, outcome.crossings)
    if v is not None:
        raise NotStandardPrimeError(f"children of vertex {v} are out of crossing order")
    return prefs


def check_standard_prime(sp: StandardPrime) -> int:
    """Validate a standard pair; returns n.

    Checks that the pair is prime when the plane order is forgotten and that
    each child list is ordered by decreasing first-crossing time of the
    child's parent edge.
    """
    parents = _standard_parents(sp)
    _check_standard(parents, sp.prefs)
    return len(parents) - 1


def standardize(
    tree: RootedTree, prefs: Sequence[int]
) -> tuple[tuple[int, ...], StandardPrime]:
    """Order siblings by crossing time, relabel by post-order.

    Returns the relabeling permutation sigma (old label -> new label) and
    the resulting standard pair.
    """
    prefs = check_preferences(tree, prefs)
    prime, outcome = _prime_outcome(tree, prefs)
    if not prime:
        raise NotPrimeError("standard form is only defined for prime pairs")
    n = tree.n
    # A prime pair crosses every edge once, so reading the log backwards
    # lists each vertex's children by decreasing first-crossing time.
    kids: list[list[int]] = [[] for _ in range(n + 1)]
    for c, p in reversed(outcome.crossings):
        kids[p].append(c)
    sigma = [0] * (n + 1)
    label, stack = n, [tree.root]
    while stack:  # pre-order, children right to left: post-order reversed
        v = stack.pop()
        sigma[v] = label
        label -= 1
        stack.extend(kids[v])
    parents = [0] * (n + 1)
    for v, p in enumerate(tree.parents, start=1):
        if p:
            parents[sigma[v]] = sigma[p]
    relabeled = [(sigma[c], sigma[p]) for c, p in outcome.crossings]
    if _out_of_crossing_order(parents, relabeled) is not None:
        raise InvariantError("the standard form breaks the crossing order", tree, prefs)
    return tuple(sigma[1:]), StandardPrime(_parents_shape(parents), tuple(sigma[p] for p in prefs))


def _inverse_relabeling(word: Sequence[int], std_parents: list[int]) -> tuple[int, ...]:
    """The inverse of ``word``, checked as a relabeling of the pair's vertices."""
    word = check_permutation(word)
    n = len(std_parents) - 1
    if len(word) != n:
        raise LengthMismatchError(f"permutation of length {len(word)} for {n} vertices")
    return inverse_permutation(word)


def _destandardize(
    inv: Sequence[int], std_parents: list[int], prefs: Sequence[int]
) -> tuple[RootedTree, tuple[int, ...]]:
    """The pair of a flat standard pair under the inverse relabeling ``inv``."""
    n = len(std_parents) - 1
    parents = [0] * n
    for v in range(1, n + 1):
        p = std_parents[v]
        parents[inv[v - 1] - 1] = inv[p - 1] if p else 0
    return RootedTree(tuple(parents)), tuple(inv[q - 1] for q in prefs)


def destandardize(
    word: Sequence[int], sp: StandardPrime
) -> tuple[RootedTree, tuple[int, ...]]:
    """Apply the inverse relabeling and forget the plane order.

    The permutation is checked first, then the standard pair, with the one
    simulation of :func:`check_standard_prime`.
    """
    std_parents = _standard_parents(sp)
    inv = _inverse_relabeling(word, std_parents)
    return _destandardize(inv, std_parents, _check_standard(std_parents, sp.prefs))


# ---------------------------------------------------------------------------
# The final-driver decomposition and the plane-tree encoding
# ---------------------------------------------------------------------------

# One piece of a flat decomposition: its root, the vertex its cut edge (or the
# last preference) points at, the drivers preferring it, the marked one among
# them, and the piece itself as a flat standard pair.
_Part = tuple[int, int, tuple[int, ...], int, list[int], list[int]]


def _split(parents: list[int], prefs: Sequence[int]) -> tuple[list[int], list[_Part]]:
    """The final-driver decomposition of a flat standard pair on m >= 2
    vertices, from one simulation of all drivers but the last.

    The head run crosses every edge except those on the final walk, so
    every head driver parks inside her own piece and the log, restricted to
    a piece, is the piece's own run: every driver parks and every piece edge
    is crossed.  Each piece is checked against that one log.  Returns each
    vertex's piece root (0 at the root) and the pieces along the final walk.
    """
    m = len(parents) - 1
    tree = RootedTree(tuple(parents[1:]))

    def check(holds: bool, invariant: str) -> None:
        if not holds:
            raise InvariantError(invariant, tree, prefs)

    head_prefs = prefs[:-1]
    head = run_parking(tree, head_prefs)
    check(head.all_parked, "all but the final driver must park in a prime pair")
    crossed = [False] * (m + 1)
    for c, _ in head.crossings:
        crossed[c] = True

    cut_roots = []
    v = prefs[-1]
    while parents[v]:
        if not crossed[v]:
            cut_roots.append(v)
        v = parents[v]
    check(
        len(cut_roots) + len(head.crossings) == m - 1,
        "every unused edge lies on the final walk",
    )
    check(
        bool(cut_roots) and parents[cut_roots[-1]] == m,
        "the final walk leaves through an unused root edge",
    )

    # In post-order a subtree is the run of labels that ends at its root, and
    # each cut root's run holds the runs of the cut roots below it on the
    # walk.  So a piece is its root's run less the run below: labels
    # s..lo-1 and hi+1..rho, ranked in that order.
    home = [0] * (m + 1)
    rank = [0] * (m + 1)
    forest = parents[:]  # the pieces: no parent above a cut root
    runs = []
    s = cut_roots[0]
    lo, hi = s, s - 1
    for rho in cut_roots:
        while s > 1 and parents[s - 1] <= rho:
            s -= 1
        first = lo - s
        home[s:lo] = [rho] * first
        home[hi + 1 : rho + 1] = [rho] * (rho - hi)
        rank[s:lo] = range(1, first + 1)
        rank[hi + 1 : rho + 1] = range(first + 1, first + rho - hi + 1)
        forest[rho] = 0
        runs.append((s, lo, hi))
        lo, hi = s, rho
    check(s == 1, "the pieces cover every vertex but the root")

    weights = [-1] * (m + 1)
    for q in head_prefs:
        weights[q] += 1
    excess = _subtree_sums(range(1, m), forest, weights)
    check(
        all(excess[rho] == 0 for rho in cut_roots),
        "each piece is preferred exactly its size many times",
    )
    check(
        all(excess[v] > 0 for v in range(1, m) if forest[v]),
        "every piece is prime by the subtree criterion, as the head run shows",
    )
    check(
        _out_of_crossing_order(forest, head.crossings) is None,
        "every piece keeps its siblings in crossing order",
    )

    drivers: dict[int, list[int]] = {rho: [] for rho in cut_roots}
    piece_prefs: dict[int, list[int]] = {rho: [] for rho in cut_roots}
    for j, q in enumerate(head_prefs, start=1):
        drivers[home[q]].append(j)
        piece_prefs[home[q]].append(rank[q])

    parts: list[_Part] = []
    marked_vertex = prefs[-1]
    for rho, (s, lo, hi) in zip(cut_roots, runs):
        ds = tuple(drivers[rho])
        piece_parents = [0] + [rank[p] for p in parents[s:lo] + parents[hi + 1 : rho]] + [0]
        parts.append((rho, marked_vertex, ds, ds[rank[marked_vertex] - 1], piece_parents, piece_prefs[rho]))
        marked_vertex = parents[rho]
    return home, parts


def decompose(sp: StandardPrime) -> list[Component]:
    """Split a standard pair along the edges only the final driver crosses.

    Parking all but the last driver uses every edge except those on her
    walk to the root; deleting them (and the root, which stays isolated)
    leaves plane pieces that are standard pairs once relabeled by rank.
    The pieces come back ordered along the final walk, each carrying the
    driver indices that prefer it, with one index marked to remember where
    the walk re-entered.
    """
    parents = _standard_parents(sp)
    n = len(parents) - 1
    if n < 2:
        raise InputError(f"the decomposition needs at least 2 vertices, got {n}")
    home, parts = _split(parents, _check_standard(parents, sp.prefs))
    members: dict[int, list[int]] = {part[0]: [] for part in parts}
    for u in range(1, n):
        members[home[u]].append(u)
    return [
        Component(
            tuple(members[rho]),
            marked_vertex,
            MarkedSet(drivers, marked),
            StandardPrime(_parents_shape(piece_parents), tuple(piece_prefs)),
        )
        for rho, marked_vertex, drivers, marked, piece_parents, piece_prefs in parts
    ]


def _encode(parents: list[int], prefs: Sequence[int]) -> LabeledPlaneTree:
    """The plane-tree image of a valid flat standard pair.

    Each piece's image hangs below its frame's root in walk order: its root
    takes the marked driver's label, and its vertices below take the labels
    of the unmarked drivers, in order.  ``names[l - 1]`` is the label in the
    final tree of a frame's local driver l.
    """
    labels: list[int | None] = [None]
    kids: list[list[int]] = [[]]
    work = [(parents, prefs, 0, range(1, len(prefs)))]
    while work:
        parents, prefs, node, names = work.pop()
        if len(prefs) == 1:
            continue
        for _, _, drivers, marked, piece_parents, piece_prefs in _split(parents, prefs)[1]:
            child = len(labels)
            labels.append(names[marked - 1])
            kids.append([])
            kids[node].append(child)
            sub_names = [names[d - 1] for d in drivers if d != marked]
            work.append((piece_parents, piece_prefs, child, sub_names))
    return _labeled_tree(labels, kids)


def encode_prime(sp: StandardPrime) -> LabeledPlaneTree:
    """Map a standard pair to a plane tree with non-root labels in [n-1]."""
    parents = _standard_parents(sp)
    return _encode(parents, _check_standard(parents, sp.prefs))


def _decode(labels: list[int | None], kids: list[list[int]]) -> tuple[list[int], list[int]]:
    """The flat standard pair of a valid root-unlabeled plane tree, given as
    its pre-order arrays (see :func:`_flatten`).

    Every vertex x stands for the pair decoded from its subtree with x's own
    label dropped and the others ranked, so the vertices are decoded
    children first.  A vertex's branches are the pieces along the final
    walk, bottom-up: each piece is re-attached as the leftmost child of the
    vertex the cut edge pointed at, recovered as the rank of the next
    piece's marked driver, and the last piece hangs under a fresh root.
    """
    # vertex -> (parent array, prefs, sorted labels of its subtree)
    done: dict[int, tuple[list[int], list[int], list[int]]] = {}
    for x in range(len(labels) - 1, -1, -1):
        branches = kids[x]
        if not branches:
            parents, prefs, below = [0, 0], [1], []
        elif len(branches) == 1:
            # One piece: the pair gains a root above it, and its final driver
            # prefers the vertex at the marked driver's rank.
            parents, prefs, below = done.pop(branches[0])
            m = len(prefs)
            parents[m] = m + 1
            parents.append(0)
            prefs.append(bisect_left(below, labels[branches[0]]) + 1)
        else:
            parents, prefs, below = _assemble(
                [done.pop(b) for b in branches], [labels[b] for b in branches]
            )
        if labels[x] is not None:
            insort(below, labels[x])
        done[x] = (parents, prefs, below)
    parents, prefs, _ = done[0]
    return parents, prefs


def _assemble(
    pieces: list[tuple[list[int], list[int], list[int]]], marks: list[int]
) -> tuple[list[int], list[int], list[int]]:
    """Join decoded pieces (parent array, prefs, sorted labels), given in walk
    order with their marked labels, into the pair of their common parent.

    Post-order labels the joined tree blockwise: piece i's vertices before
    the attachment vertex's subtree, then everything hung below it, then
    the rest of piece i.
    """
    below = sorted(label for _, _, labels in pieces for label in labels)
    n = len(below) + 1
    rank = {label: r for r, label in enumerate(below, start=1)}
    parents = [0] * (n + 1)
    prefs = [0] * n
    base, total, above = 0, n - 1, n  # block offset, block size, where the block's root hangs
    for i in range(len(pieces) - 1, -1, -1):
        piece_parents, piece_prefs, labels = pieces[i]
        m = len(piece_prefs)
        lower = total - m  # vertices hung below this piece
        if i:
            at = bisect_left(labels, marks[i]) + 1
            start = at  # the first label of at's subtree
            while start > 1 and piece_parents[start - 1] <= at:
                start -= 1
        else:
            start = m + 1
        g = [0, *range(base + 1, base + start), *range(base + lower + start, base + lower + m + 1)]
        for v in range(1, m):
            parents[g[v]] = g[piece_parents[v]]
        parents[g[m]] = above
        for label, q in zip(labels, piece_prefs):
            prefs[rank[label] - 1] = g[q]
        if i:
            above = g[at]
            base += start - 1
            total = lower
    prefs[n - 1] = g[bisect_left(pieces[0][2], marks[0]) + 1]
    if 0 in parents[1:n] or 0 in prefs:
        raise InvariantError(
            "the pieces' post-order labels must cover the joined tree once",
            RootedTree(tuple(parents[1:])),
            prefs,
        )
    return parents, prefs, below


def decode_prime(plt: LabeledPlaneTree) -> StandardPrime:
    """Inverse of :func:`encode_prime`; total on labeled plane trees."""
    labels, kids = _flatten(plt)
    _check_labels(labels, root_labeled=False)
    parents, prefs = _decode(labels, kids)
    _check_standard(parents, prefs)
    return StandardPrime(_parents_shape(parents), tuple(prefs))


# ---------------------------------------------------------------------------
# The composed correspondence
# ---------------------------------------------------------------------------


def prime_to_pair(
    tree: RootedTree, prefs: Sequence[int]
) -> tuple[tuple[int, ...], LabeledPlaneTree]:
    """Prime pair -> (permutation, labeled plane tree)."""
    word, sp = standardize(tree, prefs)
    return word, encode_prime(sp)


def pair_to_prime(
    word: Sequence[int], plt: LabeledPlaneTree
) -> tuple[RootedTree, tuple[int, ...]]:
    """(permutation, labeled plane tree) -> prime pair."""
    sp = decode_prime(plt)  # a valid standard pair: only the word is left to check
    std_parents = _shape_parents(sp.shape)
    return _destandardize(_inverse_relabeling(word, std_parents), std_parents, sp.prefs)


# ---------------------------------------------------------------------------
# Path specializations
# ---------------------------------------------------------------------------


def is_132_avoiding(word: Sequence[int]) -> bool:
    """No positions i < j < k with word[i] < word[k] < word[j]."""
    return _avoids_132(check_permutation(word))


def _avoids_132(word: Sequence[int]) -> bool:
    """:func:`is_132_avoiding` of a checked permutation."""
    smallest = None
    for j in range(len(word)):
        if smallest is not None:
            for k in range(j + 1, len(word)):
                if smallest < word[k] < word[j]:
                    return False
        value = word[j]
        smallest = value if smallest is None else min(smallest, value)
    return True


def borie_map(word: Sequence[int]) -> tuple[int, ...]:
    """Statistic map from a 132-avoiding permutation to an increasing
    classical parking function of the same length.

    Entry m (read from m = n down to 1) is one more than the number of
    positions with at least m larger letters to their left.
    """
    word = check_permutation(word)
    if not _avoids_132(word):
        raise Not132AvoidingError(f"{list(word)} contains a 132 pattern")
    n = len(word)
    left_larger = [
        sum(1 for j in range(i) if word[j] > word[i]) for i in range(n)
    ]
    out = tuple(
        sum(1 for c in left_larger if c >= m) + 1 for m in range(n, 0, -1)
    )
    if n and not all(a <= b for a, b in zip(out, out[1:])):
        raise InvariantError("the statistic map must be weakly increasing", path_tree(n), out)
    if n and not is_parking_function(path_tree(n), out):
        raise InvariantError("the statistic map must be a parking function", path_tree(n), out)
    return out


def path_preimage_seq(word: Sequence[int]) -> tuple[int, ...]:
    """Preference sequence of length n+1 whose plane-tree image is the path
    labeled by ``word`` read away from the root.

    The sequence starts with 1 and satisfies s_i <= i-1 afterwards; it is
    prime on the path with n+1 spots.
    """
    word = check_permutation(word)
    n = len(word)
    seq = [1]
    for i in range(2, n + 2):
        pivot = n + 2 - i  # 1-based position into word
        below = sum(1 for j in range(pivot + 1, n + 1) if word[j - 1] < word[pivot - 1])
        seq.append(below + 1)
    if not all(seq[i - 1] <= i - 1 for i in range(2, n + 2)):
        raise InvariantError("a path preimage must be a growth sequence", path_tree(n + 1), seq)
    if not is_prime(path_tree(n + 1), seq):
        raise InvariantError("a path preimage must be prime", path_tree(n + 1), seq)
    return tuple(seq)


def labeled_path(word: Sequence[int]) -> LabeledPlaneTree:
    """The path on n+1 vertices reading ``word`` downward from an unlabeled root."""
    word = check_permutation(word)
    node = None
    for label in reversed(word):
        node = LabeledPlaneTree(label, () if node is None else (node,))
    return LabeledPlaneTree(None, () if node is None else (node,))


def standard_path_prime(prefs: Sequence[int]) -> StandardPrime:
    """Wrap a preference sequence on the n-spot path as a standard pair."""
    prefs = _ints(prefs, LabelOutOfRangeError, "driver {}: preference", 1)
    return StandardPrime(path_shape(len(prefs)), prefs)
