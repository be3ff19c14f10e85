"""Bijections between prime parking functions and labeled plane trees.

The pipeline factors a prime pair through a *standard form*:

* :func:`standardize` orders siblings by the time their parent edge is
  first crossed and relabels by post-order, splitting off the relabeling
  permutation.  :func:`destandardize` undoes it.
* :func:`encode_prime` turns a standard pair into a plane tree whose
  non-root vertices are labeled by [n-1], by cutting along the edges the
  final driver is the first to cross and encoding the pieces the same way.
  :func:`decode_prime` inverts it and is total on labeled plane trees.  It
  reads the pair back in two flat passes, one up the tree over plain lists
  of sorted labels, preferences and post-orders, one along the post-order.
* :func:`prime_to_pair` / :func:`pair_to_prime` compose the two steps, so
  prime pairs on n vertices correspond to (permutation, labeled plane tree)
  pairs, (2n-2)! of them in total.

Validation sits at the public boundaries, behind the input gate
``parking.check_preferences``, and each pair is checked by one simulation.
:func:`standardize` checks primality and the sibling order of its result
from one crossing log, and :func:`decode_prime` checks the pair it decodes;
both attach that run, relabeled (parking is equivariant), to the standard
pair they return.  The other readers of a standard pair use an attached run
and check any other pair with one simulation.  The encoding and the
decomposition read every level off that one run; O(n) checks on the
reading raise :class:`InvariantError` with the pair as witness.

Inside the maps a standard pair is flat: the parent array of its post-order
labels (slot 0 unused, the root last), where a subtree is the run of labels
ending at its root.  Nothing recurses: the nested plane shapes and labeled
plane trees of the public types are converted once, at the boundary, and a
value the maps build carries its flat form (see :mod:`treepark.trees`): a
standard pair builds its nested ``shape`` only when it is read.

The module also covers the path specializations: preference sequences whose
image is a labeled path, and Borie's statistic map on 132-avoiding
permutations.
"""

from __future__ import annotations

from bisect import bisect_left
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
    VertexOutOfRangeError,
    _NoAttributeError,
    _ints,
    _shown,
)
from .parking import (
    Edge,
    ParkingOutcome,
    _preferences,
    _prime_outcome,
    check_preferences,
)
from .trees import (
    LabeledPlaneTree,
    PlaneShape,
    RootedTree,
    _check_labels,
    _carried_tree,
    _flatten,
    _parents_shape,
    _shape_parents,
    _shape_repr,
    check_permutation,
    inverse_permutation,
    path_tree,
)


@dataclass(frozen=True)
class StandardPrime:
    """Prime pair in standard form.

    The tree is a plane shape whose vertices are implicitly labeled by
    post-order; siblings sit left to right in order of *decreasing* first
    crossing time of their parent edge, and ``prefs`` is the preference
    sequence under those labels.  A pair the package builds also carries the
    run that checked it, outside the fields, and builds ``shape`` from that
    run's parent array on first read (see :func:`_standard_prime`).
    A copy or pickle, at any depth, is rebuilt by hand from the post-order
    parent array and ``prefs``, and holds the two fields alone.
    """

    shape: PlaneShape
    prefs: tuple[int, ...]

    # The shape nests one tuple per level, so equality, hashing, copies and
    # pickles read the flat post-order parents; repr writes it with a stack.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.prefs == other.prefs and _flat_parents(self) == _flat_parents(other)

    def __hash__(self) -> int:
        try:  # a bad shape raises InputError, so only the prefs can be unhashable
            return hash((tuple(_flat_parents(self)), self.prefs))
        except TypeError:
            raise InputError(f"preferences {_shown(self.prefs)} are not hashable") from None

    def __repr__(self) -> str:
        return f"StandardPrime(shape={_shape_repr(self.shape)}, prefs={_shown(self.prefs)})"

    def __getattr__(self, name: str):
        # Reached only for a name the instance does not hold: ``shape`` on a
        # pair the package built, before it is read.  Build it once.
        held = self.__dict__
        if name == "shape" and "_run" in held:
            shape = held["shape"] = _parents_shape(held["_run"][0])
            return shape
        raise _NoAttributeError(f"{type(self).__name__!r} object has no attribute {_shown(name)}")

    def __reduce__(self):
        """Copies and pickles rebuild the pair by hand from its flat form."""
        return _hand_built, (tuple(_flat_parents(self)), self.prefs)


def _hand_built(parents: Sequence[int], prefs: tuple[int, ...]) -> StandardPrime:
    """The standard pair built by hand from its post-order parent array."""
    return StandardPrime(_parents_shape(parents), prefs)


def _flat_parents(sp: StandardPrime) -> list[int]:
    """The post-order parent array of a standard pair's shape: its run's if
    it carries one, else walked off the shape."""
    if not isinstance(sp, StandardPrime):
        raise NotStandardPrimeError(f"{_shown(sp)} is not a StandardPrime")
    run = sp.__dict__.get("_run")
    return _shape_parents(sp.shape) if run is None else run[0]


@dataclass(frozen=True)
class MarkedSet:
    """A sorted set of driver indices with one distinguished element."""

    elements: tuple[int, ...]
    marked: int

    def __post_init__(self) -> None:
        elements = _ints(self.elements, InputError, "element {}:")
        _ints((self.marked,), InputError, "marked index")
        if any(a >= b for a, b in zip(elements, elements[1:])):
            raise InputError(f"elements {_shown(self.elements)} are not strictly increasing")
        if self.marked not in elements:
            raise InputError(f"marked index {_shown(self.marked)} is not among {_shown(self.elements)}")

    def unmarked(self) -> tuple[int, ...]:
        return tuple(e for e in self.elements if e != self.marked)


@dataclass(frozen=True)
class Component:
    """One piece of the final-driver decomposition of a standard pair."""

    vertices: tuple[int, ...]  # original labels, ascending (not always a run)
    marked_vertex: int  # where the cut edge (or the last preference) points
    drivers: MarkedSet  # indices of the drivers preferring this piece
    piece: StandardPrime  # the pair, relabeled by rank to its own scale


def _sibling_pairs(parents: Sequence[int]) -> list[tuple[int, int]]:
    """Each pair (u, v) of a post-order parent array (slot 0 unused) with v
    the next sibling right of u.  Siblings carry increasing labels from left
    to right, so one sweep meets each child just after its left sibling."""
    last, pairs = [0] * len(parents), []  # last: each vertex's latest child so far
    for v in range(1, len(parents)):
        p = parents[v]
        if p:
            if last[p]:
                pairs.append((last[p], v))
            last[p] = v
    return pairs


def _out_of_crossing_order(parents: Sequence[int], crossings: Sequence[Edge]) -> int | None:
    """The first vertex whose children are not in decreasing first-crossing
    order of their parent edges, or None: a child whose edge is crossed no
    later than its right sibling's breaks the order.

    ``parents`` is a post-order parent array (slot 0 unused); vertices whose
    entry is 0 have no parent edge to order, and every other edge must have
    been crossed.  Siblings are paired by :func:`_sibling_pairs`, as in the
    census's standard search; a path builds no table of crossing times.
    """
    pairs = _sibling_pairs(parents)
    if not pairs:
        return None
    tick = [0] * len(parents)
    for i, (c, _) in enumerate(crossings):
        tick[c] = i
    return min((parents[v] for u, v in pairs if tick[u] <= tick[v]), default=None)


def _check_standard(parents: list[int], prefs: Sequence[int]) -> tuple[tuple[int, ...], ParkingOutcome]:
    """Validate a flat standard pair with one simulation; returns its prefs
    and the simulation's outcome."""
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
    return prefs, outcome


def _broken(parents: list[int], prefs: Sequence[int], invariant: str) -> InvariantError:
    """The error for a flat pair that breaks ``invariant``, naming the pair."""
    return InvariantError(invariant, RootedTree(tuple(parents[1:])), prefs)


_Run = tuple[list[int], tuple[int, ...], ParkingOutcome]  # flat parents, prefs, the check's run


def _standard_prime(parents: list[int], prefs: tuple[int, ...], outcome: ParkingOutcome) -> StandardPrime:
    """The standard pair of a checked flat pair, carrying that check's run as
    an instance attribute: not a field, so ``==``, ``hash``, ``repr`` and
    ``dataclasses.replace`` ignore it.  Nothing mutates the run.  The nested
    ``shape`` is left out until it is read (``StandardPrime.__getattr__``)."""
    sp = object.__new__(StandardPrime)
    sp.__dict__.update(prefs=prefs, _run=(parents, prefs, outcome))
    return sp


def _checked(sp: StandardPrime, parents: list[int] | None = None) -> _Run:
    """The flat pair and run of a valid standard pair: the run attached by
    :func:`_standard_prime`, or else one simulation checks the pair.  A
    caller that has read ``_flat_parents(sp)`` passes it, to walk no shape twice."""
    if parents is None:
        parents = _flat_parents(sp)
    return sp.__dict__.get("_run") or (parents, *_check_standard(parents, sp.prefs))


def check_standard_prime(sp: StandardPrime) -> int:
    """Validate a standard pair; returns n.

    Checks that the pair is prime when the plane order is forgotten and that
    each child list is ordered by decreasing first-crossing time of the
    child's parent edge.
    """
    return len(_checked(sp)[1])


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
    relabeled = tuple((sigma[c], sigma[p]) for c, p in outcome.crossings)
    if _out_of_crossing_order(parents, relabeled) is not None:
        raise InvariantError("the standard form breaks the crossing order", tree, prefs)
    run = ParkingOutcome(tuple(sigma[s] for s in outcome.spots), relabeled)
    return tuple(sigma[1:]), _standard_prime(parents, tuple(sigma[p] for p in prefs), run)


def _inverse_relabeling(word: Sequence[int], n: int) -> tuple[int, ...]:
    """The inverse of ``word``, checked as a relabeling of n vertices."""
    word = check_permutation(word)
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

    The permutation is checked first, then the standard pair, as in
    :func:`check_standard_prime`.
    """
    parents = _flat_parents(sp)
    inv = _inverse_relabeling(word, len(parents) - 1)
    std_parents, prefs, _ = _checked(sp, parents)
    return _destandardize(inv, std_parents, prefs)


# ---------------------------------------------------------------------------
# The final-driver decomposition and the plane-tree encoding
# ---------------------------------------------------------------------------


def _image(parents: list[int], prefs: Sequence[int], outcome: ParkingOutcome):
    """The image's shape, read off a checked flat standard pair's one run:
    each vertex's image children (ascending), parked driver and marked
    vertex, the image pre-order, and each vertex's place in it and subtree size.

    Vertex v < n stands for the piece it roots at some level, n for the root.
    The edge above v is cut at the level whose final driver first crosses it,
    and she parks at the root of the piece v hangs below.  A piece's vertices
    are its image subtree, its drivers those parked there.  A driver's new
    crossings are the next log entries on her walk, the edges above v with
    start[v] <= pref <= v < spot, as no later driver newly crosses an edge
    of an earlier walk.  A piece's first child is marked at the preference of
    its final driver, each later child at the parent of the child before it.
    """
    n = len(prefs)
    start = list(range(n + 1))  # the first post-order label of each subtree
    for v in range(1, n):
        start[parents[v]] = min(start[parents[v]], start[v])
    up, log, k = [0] * n, outcome.crossings, 0  # up: the image parent of each vertex below n
    for q, spot in zip(prefs, outcome.spots):
        while k < len(log) and start[log[k][0]] <= q <= log[k][0] < spot:
            up[log[k][0]] = spot
            k += 1
    if not all(start[up[v]] <= v < up[v] for v in range(1, n)):
        raise _broken(parents, prefs, "the first crosser of each edge parks above it")
    drivers, kids, size = [0] * (n + 1), [[] for _ in start], [1] * (n + 1)
    for i, spot in enumerate(outcome.spots, start=1):
        drivers[spot] = i
    for v in range(1, n):
        kids[up[v]].append(v)
        size[up[v]] += size[v]
    marked, at, order = [n] * (n + 1), [0] * (n + 1), [n] * n
    for v in range(n, 0, -1):
        t, w = at[v] + 1, prefs[drivers[v] - 1]
        for c in kids[v]:
            at[c], order[t], marked[c] = t, c, w
            t, w = t + size[c], parents[c]
    if not all(at[s] <= at[q] < at[s] + size[s] for q, s in zip(prefs, outcome.spots)):
        raise _broken(parents, prefs, "every driver prefers the image subtree of her spot")
    return kids, drivers, marked, order, at, size


def decompose(sp: StandardPrime) -> list[Component]:
    """Split a standard pair along the edges only the final driver crosses.

    Parking all but the last driver uses every edge except those on her
    walk to the root; deleting them (and the root, which stays isolated)
    leaves plane pieces that are standard pairs once relabeled by rank: the
    root's image children in :func:`_image`, in walk order, each with the
    drivers that prefer it, one marked where the walk re-entered.
    """
    parents = _flat_parents(sp)
    n = len(parents) - 1
    if n < 2:
        raise InputError(f"the decomposition needs at least 2 vertices, got {n}")
    parents, prefs, outcome = _checked(sp, parents)
    kids, drivers, marked, order, at, size = _image(parents, prefs, outcome)
    components = []
    for c in kids[n]:
        vertices = sorted(order[at[c] : at[c] + size[c]])
        ds = sorted(drivers[v] for v in vertices)
        rank = {v: r for r, v in enumerate(vertices, start=1)}
        shape = _parents_shape([0] + [rank[parents[v]] for v in vertices[:-1]] + [0])
        piece = StandardPrime(shape, tuple(rank[prefs[d - 1]] for d in ds))
        marks = MarkedSet(tuple(ds), ds[rank[marked[c]] - 1])
        components.append(Component(tuple(vertices), marked[c], marks, piece))
    return components


_BLOCK = 4096  # entries per block of a _Shrinking list


class _Shrinking:
    """A sorted list of distinct ints that only loses entries, cut into blocks
    of ``_BLOCK``.  A value's block is found by bisecting the blocks' first
    maxima, which stay separators, and its rank adds up the lengths of the
    blocks before it; a pop walks the blocks by their lengths.  A delete
    moves at most one block."""

    __slots__ = ("blocks", "tops")

    def __init__(self, items: list[int]) -> None:
        self.blocks = [items[:_BLOCK]]
        for i in range(_BLOCK, len(items), _BLOCK):
            self.blocks.append(items[i : i + _BLOCK])
        self.tops = items[_BLOCK - 1 : -1 : _BLOCK] + items[-1:]

    def rank(self, x: int, drop: bool = False) -> int | None:
        """The rank of x, from 0, or None if x is absent; ``drop`` deletes x."""
        b, blocks = bisect_left(self.tops, x), self.blocks
        block = blocks[b] if b < len(blocks) else []
        i = bisect_left(block, x)
        if i == len(block) or block[i] != x:
            return None
        if drop:
            del block[i]
        return i + sum(map(len, blocks[:b])) if b else i  # one block: no sum to set up

    def pop(self, r: int) -> int:
        """Delete and return the entry of rank r."""
        for block in self.blocks:
            if r < len(block):
                break
            r -= len(block)
        return block.pop(r)


def _encode(parents: list[int], prefs: Sequence[int], outcome: ParkingOutcome) -> LabeledPlaneTree:
    """The plane-tree image of a checked flat standard pair, on the shape
    that :func:`_image` reads off its one run.

    Let piece P's image subtree carry the labels L; the root's carries 1..n,
    n on the root itself.  A child piece Q of P takes its label and those
    below it from L less P's label, at the ranks of Q's drivers among P's
    (P's final driver, the largest, hands none down), and Q's own label is
    the k-th smallest of them, k the rank in Q of its marked vertex.

    A heavy path keeps its vertices, drivers and names L, aligned rank for
    rank with the drivers, as :class:`_Shrinking` lists; other children's
    entries go to fresh ones, so an entry moves O(log n) times.  The pieces
    above stay in: larger, with their final drivers, they change no rank.
    A list shorter than ``_BLOCK`` is one plain list, where a rank or a pop
    is one bisection or index and one shift.
    """
    n = len(prefs)
    kids, drivers, marked, order, at, size = _image(parents, prefs, outcome)
    labels: list[int | None] = [0] * (n + 1)
    every = list(range(1, n + 1))
    work = [(n, _Shrinking(every), _Shrinking(every), _Shrinking(every))]
    while work:
        v, vertices, driven, names = work.pop()
        while True:
            r = vertices.rank(marked[v])  # the piece: what is still in, up to v
            if r is None or marked[v] > v:
                raise _broken(parents, prefs, "each piece's marked vertex lies in the piece")
            labels[v] = names.pop(r)
            if not kids[v]:
                break
            heavy = max(kids[v], key=size.__getitem__)
            for c in kids[v]:
                if c == heavy:
                    continue
                if size[c] == 1 and marked[c] == c:  # a one-vertex piece takes its one name
                    vertices.rank(c, drop=True)
                    labels[c] = names.pop(driven.rank(drivers[c], drop=True))
                    continue
                members = sorted(order[at[c] : at[c] + size[c]])
                ds = sorted([drivers[u] for u in members])
                sub_names = [names.pop(driven.rank(d, drop=True)) for d in ds]
                for u in members:
                    vertices.rank(u, drop=True)
                work.append((c, _Shrinking(members), _Shrinking(ds), _Shrinking(sub_names)))
            v = heavy
    if sorted(labels[1:n]) != list(range(1, n)):
        raise _broken(parents, prefs, "the image carries each label 1..n-1 once")
    labels[n] = None
    kid_ids = tuple(tuple(map(at.__getitem__, kids[v])) for v in order)
    return _carried_tree(tuple(map(labels.__getitem__, order)), kid_ids)


def encode_prime(sp: StandardPrime) -> LabeledPlaneTree:
    """Map a standard pair to a plane tree with non-root labels in [n-1]."""
    return _encode(*_checked(sp))


_FEW = 256  # entries a merge inserts one by one; past that, one sort costs less


def _merge(parts: list[tuple[Sequence[int], Sequence[int]]]) -> tuple[list[int], list[int]]:
    """Sorted labels with the preferences aligned to them, as one pair of
    lists, from several such pairs: the longest pair takes the others'
    entries at their labels' ranks, or all are sorted at once past ``_FEW``."""
    sizes = [len(labels) for labels, _ in parts]
    big = sizes.index(max(sizes))
    below, wants = parts[big]
    if sum(sizes) - sizes[big] > _FEW:
        pairs: dict[int, int] = {}
        for part in parts:
            pairs.update(zip(*part))
        below = sorted(pairs)
        return below, [pairs[label] for label in below]
    for j, (labels, prefer) in enumerate(parts):
        if j != big:
            for label, w in zip(labels, prefer):
                i = bisect_left(below, label)
                below[i:i], wants[i:i] = (label,), (w,)
    return below, wants


def _decode(labels: Sequence[int | None], kids: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """The flat standard pair of a valid root-unlabeled plane tree, given as
    its pre-order arrays (see :func:`_flatten`): one pass up the tree, one
    along the pair's post-order, and no pair rebuilt on the way.

    Vertex x stands for the piece it roots in :func:`_image`: its vertices
    are x's subtree, x its largest post-order label.  Going up, vertices are
    named by pre-order id, and each finished subtree leaves three lists:

    * ``below``, its labels, sorted; the root's label counts as n;
    * ``wants``, what the piece's drivers prefer, in driver order.  The
      encoder hands a piece the labels at its drivers' ranks, so the k-th
      label goes with the k-th driver: x's children's pairs merge by label
      (:func:`_merge`), then x's label goes in at its rank r(x), and the
      preference of x's driver, the piece's largest, goes last;
    * ``order``, its post-order.  x takes its first child's; each later
      child c hangs what is built so far as the leftmost child of c's marked
      vertex m, entry r(c) of c's own list, that is just before m's
      leftmost leaf, found down leftmost-child links; x goes last.

    x's driver prefers its first child's marked vertex, or x at a leaf.  A
    child's parent is its next sibling's marked vertex, and the last
    child's is x.  ``up`` and ``first`` keep only what differs from the
    plane tree: c's parent is ``up.get(c, c - 1)`` and v's leftmost child
    ``first.get(v, v + 1)`` wherever v has one, so a path, filling neither,
    takes the same pass.  Post-order labels are places in the root's list.

    Every step is a bisection or a shift inside a list, and a label moves
    O(log n) times, so the decode is near-linear but for the shifts, which
    are quadratic in C on a path.  Two O(n) checks close it: each driver
    takes one preference, and each vertex one post-order label.
    """
    n = len(labels)
    # The subtree being built, and r of its top.  It starts as the root
    # alone, which a larger tree sets aside at its first leaf.
    below, wants, order, r = [n], [0], [0], 0
    stack = []  # finished subtrees whose parent is still to come
    up: dict[int, int] = {}  # a child c's parent, where it is not c - 1
    first: dict[int, int] = {}  # a vertex v's leftmost child, where it is not v + 1
    for x in range(n - 1, -1, -1):
        k = kids[x]
        if not k:
            if kids[x - 1]:  # a first child starts the lists; a later one waits for its parent
                stack.append((below, wants, order, r))
                below, wants, order, r = [labels[x]], [x], [x], 0
            continue
        w = order[r]
        if len(k) > 1:
            parts = [(below, wants)]
            c = x + 1  # the child before the next
            for later in k[1:]:
                if kids[later]:
                    *part, own, at = stack.pop()
                    parts.append(part)
                    v = m = own[at]
                    while v in first or kids[v]:  # down to m's leftmost leaf
                        v = first.get(v, v + 1)
                    p = own.index(v)
                    if p:
                        own[p:p] = order
                        order = own
                    else:
                        order += own
                else:  # a leaf: its lists are itself
                    parts.append(((labels[later],), (later,)))
                    m = later
                    order.append(later)
                up[c] = m
                first[m] = c
                c = later
            up[c] = x
            first[x] = c
            below, wants = _merge(parts)
        wants.append(w)
        label = labels[x] or n
        r = bisect_left(below, label)
        below[r:r] = (label,)  # a slice assignment moves the tail in one block
        order.append(x)
    place, parents = [0] * (n + 1), [0] * (n + 1)  # place[n] = 0 stands for no parent
    for i, v in enumerate(reversed(order)):
        place[v] = n - i
    for v in range(n):
        parents[place[v]] = place[up.get(v, v - 1)]
    prefs = [place[w] for w in wants]
    if len(order) != n or place.count(0) > 1:
        raise _broken(parents, prefs, "each vertex takes one post-order label")
    if len(prefs) != n:
        raise _broken(parents, prefs, "each driver takes one preference")
    return parents, prefs


def _decode_prime(labels: Sequence[int | None], kids: Sequence[Sequence[int]]) -> _Run:
    """:func:`decode_prime` of checked pre-order arrays: the flat pair
    :func:`_decode` reads, checked by one simulation, and that run."""
    parents, prefs = _decode(labels, kids)
    try:
        return parents, *_check_standard(parents, prefs)
    except NotStandardPrimeError as exc:
        raise _broken(parents, prefs, f"the decoded pair is a standard prime, but {exc}") from exc


def decode_prime(plt: LabeledPlaneTree) -> StandardPrime:
    """Inverse of :func:`encode_prime`; total on labeled plane trees, so a
    decoded pair that is not a standard prime is the decoder's fault.  The
    gate checks the labels; the kernel :func:`_decode_prime` decodes."""
    labels, kids = _flatten(plt)
    _check_labels(labels, root_labeled=False)
    return _standard_prime(*_decode_prime(labels, kids))


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
    std_parents, prefs, _ = _checked(decode_prime(plt))  # only the word is left to check
    return _destandardize(_inverse_relabeling(word, len(prefs)), std_parents, prefs)


# ---------------------------------------------------------------------------
# Path specializations
# ---------------------------------------------------------------------------


def is_132_avoiding(word: Sequence[int]) -> bool:
    """No positions i < j < k with word[i] < word[k] < word[j]."""
    return _avoids_132(check_permutation(word))


def _avoids_132(word: Sequence[int]) -> bool:
    """:func:`is_132_avoiding` of a checked permutation, scanned right to
    left: ``middle`` is the largest letter read that has a larger one to its
    left (it left the stack then), so a smaller letter further left is a 132."""
    middle, stack = 0, []
    for letter in reversed(word):
        if letter < middle:
            return False
        while stack and stack[-1] < letter:
            middle = stack.pop()
        stack.append(letter)
    return True


def borie_map(word: Sequence[int]) -> tuple[int, ...]:
    """Statistic map from a 132-avoiding permutation to an increasing
    classical parking function of the same length.

    Entry m (read from m = n down to 1) is one more than the number of
    positions with at least m larger letters to their left.  The gate checks
    the word; the kernel :func:`_borie_map` maps it.
    """
    word = check_permutation(word)
    if not _avoids_132(word):
        raise Not132AvoidingError(f"{list(word)} contains a 132 pattern")
    return _borie_map(word)


def _borie_map(word: Sequence[int]) -> tuple[int, ...]:
    """:func:`borie_map` of a checked 132-avoiding permutation."""
    n = len(word)
    # Left of each letter, a 132-avoider has its larger letters first and
    # then its smaller ones, so the larger ones number 1 + the place of the
    # previous larger letter, found on a stack.
    at_least = [0] * (n + 1)
    stack: list[int] = []  # places of the letters read with no larger one after them yet
    for i, letter in enumerate(word):
        while stack and word[stack[-1]] < letter:
            stack.pop()
        at_least[stack[-1] + 1 if stack else 0] += 1
        stack.append(i)
    for m in range(n - 1, 0, -1):  # suffix sums: at_least[m] positions have m or more
        at_least[m] += at_least[m + 1]
    out = tuple(at_least[m] + 1 for m in range(n, 0, -1))
    if n and not all(a <= b for a, b in zip(out, out[1:])):
        raise InvariantError("the statistic map must be weakly increasing", path_tree(n), out)
    if not _increasing_parks(out):
        raise InvariantError("the statistic map must be a parking function", path_tree(n), out)
    return out


def _increasing_parks(prefs: Sequence[int]) -> bool:
    """Whether a weakly increasing sequence parks on ``path_tree(n)``, the
    classical lot: its i-th entry is at most i, for i = 1..n."""
    return all(pref <= i for i, pref in enumerate(prefs, start=1))


def path_preimage_seq(word: Sequence[int]) -> tuple[int, ...]:
    """Preference sequence of length n+1 whose plane-tree image is the path
    labeled by ``word`` read away from the root.

    The sequence starts with 1 and satisfies s_i <= i-1 afterwards; it is
    prime on the path with n+1 spots.
    """
    word = check_permutation(word)
    n = len(word)
    right = _Shrinking(list(range(1, n + 1)))  # the letters not yet passed
    below = [right.rank(letter, drop=True) for letter in word]  # the smaller letters right of each
    seq = [1, *(b + 1 for b in reversed(below))]
    path = path_tree(n + 1)
    if not all(seq[i - 1] <= i - 1 for i in range(2, n + 2)):
        raise InvariantError("a path preimage must be a growth sequence", path, seq)
    if not _prime_outcome(path, seq)[0]:
        raise InvariantError("a path preimage must be prime", path, seq)
    return tuple(seq)


def labeled_path(word: Sequence[int]) -> LabeledPlaneTree:
    """The path on n+1 vertices reading ``word`` downward from an unlabeled root."""
    word = check_permutation(word)
    n = len(word)
    return _carried_tree((None, *word), tuple((v,) for v in range(1, n + 1)) + ((),))


def standard_path_prime(prefs: Sequence[int]) -> StandardPrime:
    """Wrap a prime preference sequence on the n-spot path as a standard
    pair, checked here once; raises :class:`NotStandardPrimeError` if it is
    not prime there.  A path has no siblings to order."""
    prefs = _ints(prefs, LabelOutOfRangeError, "driver {}: preference", 1)
    if not prefs:
        raise VertexOutOfRangeError(f"the path needs at least one vertex, got preferences {prefs}")
    parents = [0, *path_tree(len(prefs)).parents]
    return _standard_prime(parents, *_check_standard(parents, prefs))
