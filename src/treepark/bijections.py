"""Bijections between prime parking functions and labeled plane trees.

The pipeline factors a prime pair through a *standard form*:

* :func:`standardize` orders siblings by the time their parent edge is
  first crossed and relabels by post-order, splitting off the relabeling
  permutation.  :func:`destandardize` undoes it.
* :func:`encode_prime` turns a standard pair into a plane tree whose
  non-root vertices are labeled by [n-1], by cutting along the edges the
  final driver is the first to cross and recursing on the pieces.
  :func:`decode_prime` inverts it and is total on labeled plane trees.
* :func:`prime_to_pair` / :func:`pair_to_prime` compose the two steps, so
  prime pairs on n vertices correspond to (permutation, labeled plane tree)
  pairs, (2n-2)! of them in total.

The module also covers the path specializations: preference sequences whose
image is a labeled path, and Borie's statistic map on 132-avoiding
permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    InputError,
    InvariantError,
    LengthMismatchError,
    Not132AvoidingError,
    NotPrimeError,
    NotStandardPrimeError,
)
from .parking import Edge, _prime_outcome, is_parking_function, is_prime, run_parking
from .trees import (
    LabeledPlaneTree,
    PlaneShape,
    RootedTree,
    check_labeled_plane_tree,
    check_permutation,
    inverse_permutation,
    path_shape,
    path_tree,
    shape_size,
    shape_to_parents,
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


@dataclass(frozen=True)
class MarkedSet:
    """A sorted set of driver indices with one distinguished element."""

    elements: tuple[int, ...]
    marked: int

    def __post_init__(self) -> None:
        if self.marked not in self.elements:
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


def _tree_of_shape(shape: PlaneShape) -> tuple[RootedTree, list[list[int]]]:
    parents, children = shape_to_parents(shape)
    return RootedTree(parents), children


def _out_of_crossing_order(children: list[list[int]], crossings: Sequence[Edge]) -> int | None:
    """The first vertex whose children are not in decreasing first-crossing
    order of their parent edges, or None; every edge must have been crossed."""
    tick = {edge: i for i, edge in enumerate(crossings)}
    for v, kids in enumerate(children):
        times = [tick[(c, v)] for c in kids]
        if any(a <= b for a, b in zip(times, times[1:])):
            return v
    return None


def check_standard_prime(sp: StandardPrime) -> int:
    """Validate a standard pair; returns n.

    Checks that the pair is prime when the plane order is forgotten and that
    each child list is ordered by decreasing first-crossing time of the
    child's parent edge.
    """
    n = shape_size(sp.shape)
    if len(sp.prefs) != n:
        raise LengthMismatchError(f"{len(sp.prefs)} preferences for {n} vertices")
    tree, children = _tree_of_shape(sp.shape)
    try:
        prime, outcome = _prime_outcome(tree, sp.prefs)
    except InputError as exc:  # out-of-range preferences and the like
        raise NotStandardPrimeError(str(exc)) from exc
    if not prime:
        raise NotStandardPrimeError("underlying pair is not prime")
    v = _out_of_crossing_order(children, outcome.crossings)
    if v is not None:
        raise NotStandardPrimeError(f"children of vertex {v} are out of crossing order")
    return n


def standardize(
    tree: RootedTree, prefs: Sequence[int]
) -> tuple[tuple[int, ...], StandardPrime]:
    """Order siblings by crossing time, relabel by post-order.

    Returns the relabeling permutation sigma (old label -> new label) and
    the resulting standard pair.
    """
    prime, outcome = _prime_outcome(tree, prefs)
    if not prime:
        raise NotPrimeError("standard form is only defined for prime pairs")
    tick = {edge: i for i, edge in enumerate(outcome.crossings)}
    kids = tree.children()
    for v in range(1, tree.n + 1):
        kids[v].sort(key=lambda c: tick[(c, v)], reverse=True)

    sigma = [0] * (tree.n + 1)
    counter = [0]

    def visit(v: int) -> PlaneShape:
        down = tuple(visit(c) for c in kids[v])
        counter[0] += 1
        sigma[v] = counter[0]
        return down

    shape = visit(tree.root)
    word = tuple(sigma[1:])
    sp = StandardPrime(shape, tuple(sigma[p] for p in prefs))
    check_standard_prime(sp)
    return word, sp


def destandardize(
    word: Sequence[int], sp: StandardPrime
) -> tuple[RootedTree, tuple[int, ...]]:
    """Apply the inverse relabeling and forget the plane order."""
    word = check_permutation(word)
    n = shape_size(sp.shape)
    if len(word) != n:
        raise LengthMismatchError(f"permutation of length {len(word)} for {n} vertices")
    inv = inverse_permutation(word)
    std_parents, _ = shape_to_parents(sp.shape)
    parents = [0] * n
    for v in range(1, n + 1):
        p = std_parents[v - 1]
        parents[inv[v - 1] - 1] = inv[p - 1] if p else 0
    return RootedTree(tuple(parents)), tuple(inv[q - 1] for q in sp.prefs)


# ---------------------------------------------------------------------------
# The final-driver decomposition and the plane-tree encoding
# ---------------------------------------------------------------------------


def _postorder_vertices(
    children: list[list[int]], root: int, exclude: int | None
) -> list[int]:
    out: list[int] = []

    def visit(v: int) -> None:
        for c in children[v]:
            if c != exclude:
                visit(c)
        out.append(v)

    visit(root)
    return out


def _extract_shape(children: list[list[int]], root: int, exclude: int | None) -> PlaneShape:
    return tuple(
        _extract_shape(children, c, exclude) for c in children[root] if c != exclude
    )


def decompose(sp: StandardPrime) -> list[Component]:
    """Split a standard pair along the edges only the final driver crosses.

    Parking all but the last driver uses every edge except those on her
    walk to the root; deleting them (and the root, which stays isolated)
    leaves plane pieces that are standard pairs once relabeled by rank.
    The pieces come back ordered along the final walk, each carrying the
    driver indices that prefer it, with one index marked to remember where
    the walk re-entered.
    """
    n = shape_size(sp.shape)
    if n < 2:
        raise InputError(f"the decomposition needs at least 2 vertices, got {n}")
    tree, children = _tree_of_shape(sp.shape)

    def check(holds: bool, invariant: str) -> None:
        if not holds:
            raise InvariantError(invariant, tree, sp.prefs)

    head = run_parking(tree, sp.prefs[:-1])
    check(head.all_parked, "all but the final driver must park in a prime pair")
    used = set(head.crossings)

    walk = tree.path_to_root(sp.prefs[-1])
    cut_roots = [v for v in walk[:-1] if (v, tree.parent(v)) not in used]
    all_unused = {v for v in range(1, n) if (v, tree.parent(v)) not in used}
    check(set(cut_roots) == all_unused, "every unused edge lies on the final walk")
    check(
        bool(cut_roots) and tree.parent(cut_roots[-1]) == tree.root,
        "the final walk leaves through an unused root edge",
    )

    cut_set = set(cut_roots)
    home = [0] * (n + 1)  # vertex -> root of its piece
    for v in range(n - 1, 0, -1):  # parents carry larger post-order labels
        home[v] = v if v in cut_set else home[tree.parent(v)]

    out: list[Component] = []
    previous: int | None = None
    for i, rho in enumerate(cut_roots):
        verts = [u for u in range(1, n) if home[u] == rho]
        m = len(verts)
        # The global post-order restricted to a piece is the piece's own
        # post-order, so relabeling by rank puts its labels in post-order.
        rank = {g: t for t, g in enumerate(verts, start=1)}
        marked_vertex = sp.prefs[-1] if i == 0 else tree.parent(previous)
        drivers = tuple(j for j in range(1, n) if home[sp.prefs[j - 1]] == rho)
        check(len(drivers) == m, "each piece is preferred exactly its size many times")
        marked = MarkedSet(drivers, drivers[rank[marked_vertex] - 1])
        check(
            _postorder_vertices(children, rho, previous) == verts,
            "a piece's post-order is the global post-order restricted to it",
        )
        piece = StandardPrime(
            _extract_shape(children, rho, previous),
            tuple(rank[sp.prefs[j - 1]] for j in drivers),
        )
        check_standard_prime(piece)
        out.append(Component(tuple(verts), marked_vertex, marked, piece))
        previous = rho
    return out


def _relabel_encoded(image: LabeledPlaneTree, drivers: MarkedSet) -> LabeledPlaneTree:
    unmarked = drivers.unmarked()

    def rebuild(node: LabeledPlaneTree) -> LabeledPlaneTree:
        kids = tuple(rebuild(c) for c in node.children)
        if node.label is None:
            return LabeledPlaneTree(drivers.marked, kids)
        return LabeledPlaneTree(unmarked[node.label - 1], kids)

    return rebuild(image)


def _encode(sp: StandardPrime) -> LabeledPlaneTree:
    if shape_size(sp.shape) == 1:
        return LabeledPlaneTree(None, ())
    branches = tuple(
        _relabel_encoded(_encode(comp.piece), comp.drivers) for comp in decompose(sp)
    )
    return LabeledPlaneTree(None, branches)


def encode_prime(sp: StandardPrime) -> LabeledPlaneTree:
    """Map a standard pair to a plane tree with non-root labels in [n-1]."""
    check_standard_prime(sp)
    return _encode(sp)


def _strip_root_label(node: LabeledPlaneTree, ranks: dict[int, int]) -> LabeledPlaneTree:
    def rebuild(t: LabeledPlaneTree, is_root: bool) -> LabeledPlaneTree:
        kids = tuple(rebuild(c, False) for c in t.children)
        return LabeledPlaneTree(None if is_root else ranks[t.label], kids)

    return rebuild(node, True)


def _decode(plt: LabeledPlaneTree) -> StandardPrime:
    n = plt.size
    if n == 1:
        return StandardPrime((), (1,))

    pieces: list[tuple[list[int], int, StandardPrime]] = []
    for branch in plt.children:
        labels = sorted(branch.labels())
        marked = branch.label
        ranks = {
            lab: r for r, lab in enumerate((x for x in labels if x != marked), start=1)
        }
        pieces.append((labels, marked, _decode(_strip_root_label(branch, ranks))))

    # Assemble the plane structure on (piece, local label) ids: each piece is
    # re-attached as the leftmost child of the vertex the cut edge pointed at,
    # recovered as the rank of the next piece's marked driver; the last piece
    # hangs under the fresh root.
    kids: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for index, (labels, _, piece) in enumerate(pieces):
        _, sub_children = shape_to_parents(piece.shape)
        for v in range(1, len(labels) + 1):
            kids[(index, v)] = [(index, c) for c in sub_children[v]]
    for i in range(len(pieces) - 1):
        labels, marked, _ = pieces[i + 1]
        k = labels.index(marked) + 1
        kids[(i + 1, k)].insert(0, (i, len(pieces[i][0])))
    top = (len(pieces) - 1, len(pieces[-1][0]))

    # Global labels are the post-order positions of the assembled tree; the
    # pieces need not occupy consecutive runs of them.
    global_label: dict[tuple[int, int], int] = {}

    def visit(node: tuple[int, int]) -> PlaneShape:
        shape = tuple(visit(c) for c in kids[node])
        global_label[node] = len(global_label) + 1
        return shape

    shape = (visit(top),)
    assert len(global_label) == n - 1

    prefs = [0] * n
    for index, (labels, _, piece) in enumerate(pieces):
        for position, q in zip(labels, piece.prefs):
            prefs[position - 1] = global_label[(index, q)]
    first_labels, first_marked, _ = pieces[0]
    prefs[n - 1] = global_label[(0, first_labels.index(first_marked) + 1)]

    return StandardPrime(shape, tuple(prefs))


def decode_prime(plt: LabeledPlaneTree) -> StandardPrime:
    """Inverse of :func:`encode_prime`; total on labeled plane trees."""
    check_labeled_plane_tree(plt)
    sp = _decode(plt)
    check_standard_prime(sp)
    return sp


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
    sp = decode_prime(plt)
    return destandardize(word, sp)


# ---------------------------------------------------------------------------
# Path specializations
# ---------------------------------------------------------------------------


def is_132_avoiding(word: Sequence[int]) -> bool:
    """No positions i < j < k with word[i] < word[k] < word[j]."""
    check_permutation(word)
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
    if not is_132_avoiding(word):
        raise Not132AvoidingError(f"{list(word)} contains a 132 pattern")
    n = len(word)
    left_larger = [
        sum(1 for j in range(i) if word[j] > word[i]) for i in range(n)
    ]
    out = tuple(
        sum(1 for c in left_larger if c >= m) + 1 for m in range(n, 0, -1)
    )
    assert all(a <= b for a, b in zip(out, out[1:]))
    assert n == 0 or is_parking_function(path_tree(n), out)
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
    assert all(seq[i - 1] <= i - 1 for i in range(2, n + 2))
    assert is_prime(path_tree(n + 1), seq)
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
    return StandardPrime(path_shape(len(prefs)), tuple(prefs))
