"""Rooted labeled trees, plane trees, and their exhaustive enumeration.

Conventions used throughout the package:

* Rooted trees live on the labels 1..n with every edge oriented towards the
  root.  The text form is the parent list: the i-th entry is the parent of
  vertex i, and 0 marks the root (``3 3 5 5 0``).
* A plane-tree *shape* is a nested tuple of child shapes, ordered left to
  right; the empty tuple is a single vertex.
* Permutations are one-line words: ``word[i - 1]`` is the image of ``i``.
* The labeled plane-tree text form is ``*[6[3] 2[5 4] 8[7[1]]]``: ``*`` is
  the unlabeled root, each labeled vertex is ``label[children...]``, and
  brackets are omitted on leaves.

The two nested types are walked in one place each, into a flat form that
every other reader takes: :func:`_shape_parents` turns a plane shape into
its post-order parent array, and :func:`_flatten` turns a labeled plane tree
into pre-order label and child arrays; both refuse a vertex of the wrong
type.  ``repr`` and the labeled enumeration walk a shape too.  A rooted tree
is put in children-first order in one place, :func:`_bottom_up`, over its
parent list with slot 0 unused; a post-order parent array is in that order
already, and the primality kernel (``parking._prime_outcome``) takes either
order and refuses one that reaches a parent before its child.  A public
function checks a tree it is given with :func:`_check_tree`.

A value the package builds from a flat form keeps it, outside the fields,
so that it is not walked again: every labeled plane tree the package returns
(parsed, enumerated, relabeled, encoded, or a labeled path) holds its
pre-order arrays (:func:`_carried_tree`), and a standard pair built by the
bijections holds its post-order parent array (``bijections._standard_prime``).
That is safe because both types are frozen and the forms are tuples, or a
list that nothing mutates: a held form cannot drift from the nested value.
``==``, ``hash`` and ``repr`` give what they give on a value built by hand.
Copies and pickles carry the flat form alone, at any depth, and are rebuilt
from it by hand (:func:`_labeled_tree` alone builds nested nodes), so they
hold the fields and no form.  The nested field, a carried tree's ``children``
and a standard pair's ``shape``, is built on first read by the package's one
rule for it, ``errors._built_on_read``.  A value built by hand, by calling
:class:`LabeledPlaneTree` or ``StandardPrime``, holds no form, and is walked
and checked on every read.

What walks the nested fields itself still recurses, once per level.  At
the default recursion limit, ``dataclasses.asdict`` and ``astuple`` raise
``RecursionError`` on a labeled path from about 332 vertices, and ``==``
between two raw nested ``shape`` tuples on a path from about 999.  ``==``,
``hash`` and ``repr`` of the two types, copies, pickles, the text formats
and both maps go through the flat forms, and do not recurse at any depth.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field
from itertools import permutations, product
from typing import Iterator, Sequence

from .errors import (
    CycleDetectedError,
    InputError,
    LabelOutOfRangeError,
    MultipleRootsError,
    NoRootError,
    VertexOutOfRangeError,
    _at_least,
    _built_on_read,
    _ints,
    _shown,
    _token,
)

# A plane-tree shape: tuple of child shapes, left to right.
PlaneShape = tuple


@dataclass(frozen=True)
class RootedTree:
    """Labeled rooted tree stored as its parent list (entry 0 marks the root)."""

    parents: tuple[int, ...]

    @property
    def n(self) -> int:
        try:
            return len(self.parents)
        except TypeError:
            raise InputError(f"parent list {_shown(self.parents)} is not a tuple of integers") from None

    @property
    def root(self) -> int:
        try:
            return self.parents.index(0) + 1
        except ValueError:
            raise NoRootError(f"parent list {_shown(self.parents)} marks no root") from None
        except (AttributeError, TypeError):
            raise InputError(f"parent list {_shown(self.parents)} is not a tuple of integers") from None

    def __hash__(self) -> int:  # the generated hash, naming an unhashable parent list
        try:
            return hash((self.parents,))
        except TypeError:
            raise InputError(f"parent list {_shown(self.parents)} is not hashable") from None


def validate_rooted_tree(entries: Sequence[int]) -> RootedTree:
    """Check a parent list and wrap it as a :class:`RootedTree`.

    Raises :class:`NoRootError`, :class:`MultipleRootsError`,
    :class:`CycleDetectedError` or :class:`LabelOutOfRangeError`, each naming
    the offending vertex.
    """
    entries = _ints(entries, LabelOutOfRangeError, "vertex {}: parent", 0)
    n = len(entries)
    if n == 0:
        raise NoRootError("empty parent list")
    # Every parent chain must reach the root, so a parent list without a 0
    # has a cycle; a vertex met twice on one walk pins the cycle down.  A
    # walk that meets an earlier walk stops: that one reached the root.
    walker = [-1] + [0] * n  # the walk that first met each vertex; -1 above the root
    for v in range(1, n + 1):
        u = v
        while not walker[u]:
            walker[u] = v
            u = entries[u - 1]
        if walker[u] == v:
            raise CycleDetectedError(f"cycle through vertex {u}")
    if entries.count(0) > 1:
        roots = [v for v, p in enumerate(entries, start=1) if p == 0]
        raise MultipleRootsError(f"vertices {roots} all marked as root")
    return RootedTree(entries)


def _check_tree(tree: RootedTree) -> RootedTree:
    """``tree`` itself if it is a :class:`RootedTree` whose parent tuple
    passes :func:`validate_rooted_tree`; else an error naming the fault."""
    if not isinstance(tree, RootedTree) or not isinstance(tree.parents, tuple):
        raise InputError(f"{_shown(tree)} is not a RootedTree over a tuple of parents")
    validate_rooted_tree(tree.parents)
    return tree


def _bottom_up(up: Sequence[int]) -> list[int]:
    """The vertices of a parent list with slot 0 unused (``up[v]`` is the
    parent of v, 0 at the root), every child before its parent."""
    kids: list[list[int]] = [[] for _ in up]
    for v in range(1, len(up)):
        kids[up[v]].append(v)
    order = kids[0]  # the root
    for v in order:  # grows while iterating: breadth-first sweep
        order.extend(kids[v])
    return order[::-1]


def _subtree_sums(order: Sequence[int], parents: Sequence[int], weights: Sequence[int]) -> list[int]:
    """The sum of ``weights`` over each subtree.  ``order`` lists children before
    their parents, and ``parents[v]`` is 0 at a root (unused slot 0 takes its sum)."""
    sums = list(weights)
    for v in order:
        sums[parents[v]] += sums[v]
    return sums


def subtree_size(tree: RootedTree, v: int) -> int:
    """Number of vertices whose path to the root passes through v, v included."""
    _ints((v,), VertexOutOfRangeError, "vertex", 1, _check_tree(tree).n)
    up = (0,) + tree.parents
    return _subtree_sums(_bottom_up(up), up, [1] * len(up))[v]


def path_tree(n: int) -> RootedTree:
    """The path 1 -> 2 -> ... -> n rooted at n (the classical parking lot)."""
    _at_least(n, 1, "n", VertexOutOfRangeError, "path needs at least one vertex")
    return RootedTree(tuple(range(2, n + 1)) + (0,))


# ---------------------------------------------------------------------------
# Exhaustive generation
# ---------------------------------------------------------------------------


def enumerate_rooted_trees(n: int) -> Iterator[RootedTree]:
    """All n^(n-1) labeled rooted trees: every Pruefer word crossed with every root.

    The decode removes the smallest leaf at each letter, and that letter is
    the leaf's one neighbour left, so it is the leaf's parent towards n,
    which is never removed; the last other survivor hangs below n.  Rooting
    at r then reverses the path from r up to n.
    """
    if _at_least(n, 1, "n", VertexOutOfRangeError, "need n >= 1") == 1:
        yield RootedTree((0,))
        return
    for seq in product(range(1, n + 1), repeat=n - 2):
        degree = [1] * (n + 1)
        for a in seq:
            degree[a] += 1
        leaves = [v for v in range(1, n + 1) if degree[v] == 1]
        heapq.heapify(leaves)
        up = [0] * n  # the parents towards n
        for a in seq:
            up[heapq.heappop(leaves) - 1] = a
            degree[a] -= 1
            if degree[a] == 1:
                heapq.heappush(leaves, a)
        up[leaves[0] - 1] = n  # the heap holds that survivor and n
        for root in range(1, n + 1):
            parents = up[:]
            below, v = 0, root
            while v:
                parents[v - 1], below, v = below, v, up[v - 1]
            yield RootedTree(tuple(parents))


def _compositions(total: int) -> Iterator[tuple[int, ...]]:
    """Ordered positive parts of ``total >= 1``, in lexicographic order.

    Between consecutive units a 0 cuts and a 1 joins; a cut where the other
    word joins ends a smaller part, so the words in lexicographic order give
    the compositions in lexicographic order.
    """
    for joins in product((0, 1), repeat=total - 1):
        cuts = [i for i, join in enumerate(joins, start=1) if not join]
        yield tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))


def enumerate_plane_trees(n: int) -> Iterator[PlaneShape]:
    """All plane-tree shapes on n vertices; there are Catalan(n-1) of them.

    A root goes over the forests of each composition of n - 1 in turn, in
    ``itertools.product`` order.  The shapes come one at a time and none is
    held, between calls or within one: the first shape of any size is the
    star, one forest of single vertices."""
    _at_least(n, 1, "n", VertexOutOfRangeError, "need n >= 1")
    yield from _shapes(n)


def _shapes(k: int) -> Iterator[PlaneShape]:
    """The shapes on k >= 1 vertices, one at a time: the root's forests."""
    if k == 1:
        yield ()
        return
    for sizes in _compositions(k - 1):
        yield from _forests(sizes)


def _forests(sizes: tuple[int, ...]) -> Iterator[tuple[PlaneShape, ...]]:
    """``product(*map(_shapes, sizes))``, in its order, the first tree varying
    slowest.  A tree's shapes are generated again for each choice of the
    trees to its left.  The generators sit on a stack, one per tree, so they
    nest as deep as the shapes, not as long as the forest."""
    forest: list[PlaneShape] = []  # the shapes chosen left of the last run
    runs = [_shapes(sizes[0])]
    while runs:
        shape = next(runs[-1], None)
        del forest[len(runs) - 1:]
        if shape is None:
            runs.pop()
        elif len(runs) == len(sizes):
            yield (*forest, shape)
        else:
            forest.append(shape)
            runs.append(_shapes(sizes[len(runs)]))


def _shape_parents(shape: PlaneShape) -> list[int]:
    """The parent array of a shape under post-order labels, slot 0 unused:
    entry v is the parent of v, and 0 at the root, which is the last label.

    Post-order is the reverse of the pre-order that visits children right to
    left, so the k-th vertex that walk meets has label n + 1 - k.
    """
    above: list[int] = []  # visit number of each visited vertex's parent, 0 at the root
    stack = [(shape, 0)]
    while stack:
        node, p = stack.pop()
        if not isinstance(node, tuple):  # a string would iterate to itself forever
            raise InputError(f"plane shape: vertex {_shown(node)} is not a tuple of child shapes")
        above.append(p)
        here = len(above)
        stack.extend((c, here) for c in node)
    n = len(above)
    parents = [0] * (n + 1)
    for k, p in enumerate(above, start=1):
        if p:
            parents[n + 1 - k] = n + 1 - p
    return parents


def _shape_repr(shape: PlaneShape) -> str:
    """``repr(shape)``, written out with an explicit stack once
    :func:`_shape_parents` has refused any vertex that is not a tuple."""
    _shape_parents(shape)
    out: list[str] = []
    stack: list[PlaneShape | str] = [shape]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        out.append("(")
        stack.append(",)" if len(item) == 1 else ")")
        for i in range(len(item) - 1, -1, -1):
            stack.append(item[i])
            if i:
                stack.append(", ")
    return "".join(out)


def _parents_shape(parents: Sequence[int]) -> PlaneShape:
    """Inverse of :func:`_shape_parents`.  In post-order a vertex's children
    are the last finished subtrees that are still unattached."""
    roots: list[int] = []
    shapes: list[PlaneShape] = []
    for v in range(1, len(parents)):
        k = len(roots)
        while k and parents[roots[k - 1]] == v:
            k -= 1
        shape = tuple(shapes[k:])
        del roots[k:], shapes[k:]
        roots.append(v)
        shapes.append(shape)
    return shapes[0]


# ---------------------------------------------------------------------------
# Labeled plane trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabeledPlaneTree:
    """Plane tree with integer labels; ``None`` marks an unlabeled root."""

    label: int | None
    # a factory, so that the class holds no ``children`` to shadow __getattr__
    children: tuple["LabeledPlaneTree", ...] = field(default_factory=tuple)

    # Equality, hashing, repr, copies and pickles read the flat form, so that
    # deep trees go through them without recursion.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or _flatten(self) == _flatten(other)

    def __hash__(self) -> int:
        labels, kids = _flatten(self)
        try:
            return hash((labels, tuple(map(len, kids))))
        except TypeError:
            raise InputError(f"plane tree: labels {_shown(list(labels))} are not all hashable") from None

    def __repr__(self) -> str:
        return f"parse_plane_tree({format_plane_tree(self)!r})"

    def __getattr__(self, name: str):
        return _built_on_read(self, name, "children", "_flat", lambda flat: _labeled_tree(*flat).children)

    def __reduce__(self):
        """Copies and pickles rebuild the tree by hand from its flat form."""
        return _labeled_tree, _flatten(self)


_Flat = tuple[tuple[int | None, ...], tuple[tuple[int, ...], ...]]  # pre-order labels, children


def _flatten(t: LabeledPlaneTree) -> _Flat:
    """A labeled plane tree as pre-order arrays: the label of node i and the
    nodes of its children, left to right.  Children come after their parent.
    A tree from :func:`_carried_tree` hands back the arrays it was built from."""
    if isinstance(t, LabeledPlaneTree):
        flat = t.__dict__.get("_flat")
        if flat is not None:
            return flat
    labels: list[int | None] = []
    kids: list[list[int]] = []
    nodes, ups = [t], [-1]  # the nodes still to visit, and their parents' ids
    while nodes:
        node, p = nodes.pop(), ups.pop()
        if not isinstance(node, LabeledPlaneTree):
            raise InputError(f"plane tree: vertex {_shown(node)} is not a LabeledPlaneTree")
        children = node.children
        if not isinstance(children, tuple):
            raise InputError(f"plane tree: children {_shown(children)} of {_shown(node.label)} are not a tuple")
        i = len(labels)
        labels.append(node.label)
        kids.append([])
        if p >= 0:
            kids[p].append(i)
        nodes += children[::-1]
        ups += [i] * len(children)
    return tuple(labels), tuple(map(tuple, kids))


def _labeled_tree(labels: Sequence[int | None], kids: Sequence[Sequence[int]]) -> LabeledPlaneTree:
    """Inverse of :func:`_flatten`: node 0 is the root and every child has a
    larger number than its parent."""
    made: list[LabeledPlaneTree | None] = [None] * len(labels)
    for i in range(len(labels) - 1, -1, -1):
        made[i] = LabeledPlaneTree(labels[i], tuple(made[c] for c in kids[i]))
    return made[0]


def _carried_tree(labels: tuple[int | None, ...], kids: tuple[tuple[int, ...], ...]) -> LabeledPlaneTree:
    """The labeled plane tree of arrays in the pre-order :func:`_flatten`
    gives, as tuples, built as its root alone.  The arrays are attached as an
    instance attribute, where :func:`_flatten` reads them, and ``children``
    is built from them on first read (``LabeledPlaneTree.__getattr__``).
    The arrays are no field, so ``==``, ``hash``, ``repr`` and
    ``dataclasses.replace`` see only the tree."""
    t = object.__new__(LabeledPlaneTree)
    t.__dict__.update(label=labels[0], _flat=(labels, kids))
    return t


def _check_labels(labels: Sequence[int | None], root_labeled: bool) -> int:
    """Validate the pre-order labels of a plane tree (see :func:`_flatten`)
    and return its size n.  Everywhere labeled, the labels are a bijection
    onto [n]; otherwise the root is unlabeled and the others are a bijection
    onto [n-1]."""
    if root_labeled:
        named, what, unlabeled = labels, "label", "every vertex must carry a label"
    else:
        if labels[0] is not None:
            raise InputError(f"root carries label {_shown(labels[0])}; expected an unlabeled root")
        named, what, unlabeled = labels[1:], "non-root label", "unlabeled vertex below the root"
    if None in named:
        raise InputError(unlabeled)
    _ints(
        named, LabelOutOfRangeError, what,
        permutation=lambda word: f"{what}s {_shown(sorted(word))} are not a bijection onto 1..{len(word)}",
    )
    return len(labels)


def post_order_relabel(t: LabeledPlaneTree) -> tuple[tuple[int, ...], LabeledPlaneTree]:
    """Relabel an everywhere-labeled plane tree by post-order.

    Returns the permutation ``sigma`` (old label -> new label) together with
    the relabeled tree.  Running it again on the output yields the identity.
    """
    labels, kids = _flatten(t)
    n = _check_labels(labels, root_labeled=True)
    # post-order is the reverse of the pre-order that visits children right to left
    order, stack = [], [0]
    while stack:
        i = stack.pop()
        order.append(i)
        stack.extend(kids[i])
    new = [0] * len(labels)
    for k, i in enumerate(order):
        new[i] = n - k
    mapping = [0] * (n + 1)
    for i, label in enumerate(labels):
        mapping[label] = new[i]
    return tuple(mapping[1:]), _carried_tree(tuple(new), kids)


def enumerate_labeled_plane_trees(n: int) -> Iterator[LabeledPlaneTree]:
    """All Catalan(n-1) * (n-1)! plane trees with non-root labels from [n-1]:
    each shape in turn, with every word of [n-1] written on it in pre-order.
    Each shape's :func:`_flatten` child arrays are read off it with one stack."""
    for shape in enumerate_plane_trees(n):
        kids: list[list[int]] = [[]]  # in pre-order, the root first
        stack = [(c, 0) for c in reversed(shape)]  # shapes still to visit, with their parents
        while stack:
            node, p = stack.pop()
            kids[p].append(len(kids))  # node's id, the next one free
            kids.append([])
            stack += ((c, len(kids) - 1) for c in reversed(node))
        flat = tuple(map(tuple, kids))
        for word in permutations(range(1, n)):
            yield _carried_tree((None, *word), flat)


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------


def check_permutation(word: Sequence[int]) -> tuple[int, ...]:
    return _ints(
        word, InputError, "permutation entry {}:",
        permutation=lambda word: f"{_shown(list(word))} is not a permutation of 1..{len(word)}",
    )


def inverse_permutation(word: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(word)
    for i, image in enumerate(word, start=1):
        inv[image - 1] = i
    return tuple(inv)


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------


def _parse_ints(text: str, what: str) -> list[int]:
    """The integers of ``text``; else an InputError naming the first token
    that ``int`` refuses, cut to ten characters, or ``text`` if no string."""
    out, tok = [], text
    try:
        for tok in text.split():
            out.append(int(tok))
    except (ValueError, AttributeError):  # AttributeError: ``text`` is no string
        raise InputError(f"{what}: expected whitespace-separated integers, got {_token(tok)}") from None
    return out


def parse_rooted_tree(text: str) -> RootedTree:
    return validate_rooted_tree(_parse_ints(text, "tree"))


def format_rooted_tree(tree: RootedTree) -> str:
    return " ".join(str(p) for p in _check_tree(tree).parents)


def parse_preferences(text: str) -> tuple[int, ...]:
    return tuple(_parse_ints(text, "sequence"))


def parse_permutation(text: str) -> tuple[int, ...]:
    return check_permutation(_parse_ints(text, "permutation"))


def _written(x: int, name: str, i: int) -> str:
    """``str(x)``, or an InputError naming ``name.format(i)`` if x has more digits than ``str`` writes."""
    try:
        return str(x)
    except ValueError:
        raise InputError(f"{name.format(i)} has {x.bit_length()} bits, too many digits to write") from None


def format_word(word: Sequence[int]) -> str:
    word = _ints(word, InputError, "word entry {}:")
    return " ".join(_written(x, "word entry {}", i) for i, x in enumerate(word, start=1))


def format_plane_tree(t: LabeledPlaneTree) -> str:
    labels, kids = _flatten(t)
    for label in labels:  # another label writes text that parses to another tree, or to none
        if label is not None and (type(label) is not int or label < 0):
            raise InputError(f"plane tree: label {_shown(label)} is neither None nor an integer >= 0")
    depth = [0] * len(labels)
    for i, below in enumerate(kids):
        for c in below:
            depth[c] = depth[i] + 1
    # In pre-order a vertex no deeper than the one before it follows a leaf,
    # and is a sibling of one of its ancestors: the brackets between close.
    out: list[str] = []
    for i, label in enumerate(labels):
        if i and depth[i] <= depth[i - 1]:
            out.append("]" * (depth[i - 1] - depth[i]) + " ")
        out.append("*" if label is None else _written(label, "plane tree: label {} in pre-order", i + 1))
        if kids[i]:
            out.append("[")
    out.append("]" * depth[-1])
    return "".join(out)


# A token, or else the character that cannot start one.
_TOKEN = re.compile(r"\s*(?:(\*|\d+|\[|\])|(\S))")


def parse_plane_tree(text: str) -> LabeledPlaneTree:
    if not isinstance(text, str):
        raise InputError(f"plane tree: expected text, got {_shown(text)}")
    tokens: list[str] = []
    for m in _TOKEN.finditer(text):
        if m.group(2) is not None:
            raise InputError(f"plane tree: unexpected character at {text[m.start():]!r}")
        tokens.append(m.group(1))
    if not tokens:
        raise InputError("plane tree: empty input")

    # The pre-order arrays of _flatten, each vertex listed below its parent
    # when read, and the vertices whose bracket is open.
    labels: list[int | None] = []
    kids: list[list[int]] = []
    open_: list[int] = []
    for i, tok in enumerate(tokens):
        if labels and not open_:
            raise InputError("plane tree: trailing tokens")
        if tok == "[":
            if i == 0 or tokens[i - 1] in "[]":
                raise InputError("plane tree: expected a vertex")
        elif tok == "]":
            if not open_:  # the first token
                raise InputError("plane tree: expected a vertex")
            if not kids[open_.pop()]:
                raise InputError("plane tree: empty bracket pair")
        else:
            try:
                labels.append(None if tok == "*" else int(tok))
            except ValueError:  # more digits than ``int`` converts
                raise InputError(f"plane tree: label {tok[:10]}... of {len(tok)} digits is too long") from None
            if open_:
                kids[open_[-1]].append(len(kids))
            if tokens[i + 1 : i + 2] == ["["]:
                open_.append(len(kids))
            kids.append([])
    if open_:
        raise InputError("plane tree: missing closing bracket")
    return _carried_tree(tuple(labels), tuple(map(tuple, kids)))
