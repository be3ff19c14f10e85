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
plane trees of the public types are converted once, at the boundary.

The module also covers the path specializations: preference sequences whose
image is a labeled path, and Borie's statistic map on 132-avoiding
permutations.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable, Sequence

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
    ParkingOutcome,
    _preferences,
    _prime_outcome,
    check_preferences,
    is_parking_function,
    is_prime,
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
    sequence under those labels.  A pair the package builds also carries the
    run that checked it, outside the fields (see :func:`_standard_prime`).
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
    ``dataclasses.replace`` ignore it.  Nothing mutates the run."""
    sp = StandardPrime(_parents_shape(parents), prefs)
    object.__setattr__(sp, "_run", (parents, prefs, outcome))
    return sp


def _checked(sp: StandardPrime, first: Callable[[int], object] | None = None) -> _Run:
    """The flat pair and run of a valid standard pair: the run attached by
    :func:`_standard_prime`, or else one simulation checks the pair.
    ``first(n)`` runs ahead of that check, for an argument reported first."""
    if not isinstance(sp, StandardPrime):
        raise NotStandardPrimeError(f"{sp!r} is not a StandardPrime")
    run = sp.__dict__.get("_run")
    parents = _shape_parents(sp.shape) if run is None else run[0]
    if first is not None:
        first(len(parents) - 1)
    return run or (parents, *_check_standard(parents, sp.prefs))


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
    inv: list[int] = []
    std_parents, prefs, _ = _checked(sp, lambda n: inv.extend(_inverse_relabeling(word, n)))
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
    parents, prefs, outcome = _checked(sp, _decomposable)
    n = len(prefs)
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


def _decomposable(n: int) -> None:
    if n < 2:
        raise InputError(f"the decomposition needs at least 2 vertices, got {n}")


# Fenwick trees (Fenwick 1994) of present positions 1..m: entry i counts those
# in (i - (i & -i), i], so [i & -i for i in range(m + 1)] has all present.
def _rank(fen: list[int], i: int) -> int:
    """How many present positions are at most i."""
    r = 0
    while i:
        r += fen[i]
        i &= i - 1
    return r


def _remove(fen: list[int], i: int) -> None:
    end = len(fen)
    while i < end:
        fen[i] -= 1
        i += i & -i


def _take(fen: list[int], k: int) -> int:
    """Remove the k-th smallest present position and return it."""
    i, end = 0, len(fen)
    step = 1 << (end - 1).bit_length() >> 1
    while step:
        if i + step < end and fen[i + step] < k:
            i += step
            k -= fen[i]
        step >>= 1
    _remove(fen, i + 1)
    return i + 1


def _encode(parents: list[int], prefs: Sequence[int], outcome: ParkingOutcome) -> LabeledPlaneTree:
    """The plane-tree image of a checked flat standard pair, on the shape
    that :func:`_image` reads off its one run.

    Let piece P's image subtree carry the labels L; the root's carries 1..n,
    n on the root itself.  A child piece Q of P takes its label and those
    below it from L less P's label, at the ranks of Q's drivers among P's
    (P's final driver, the largest, hands none down), and Q's own label is
    the k-th smallest of them, k the rank in Q of its marked vertex.

    A piece keeps a Fenwick tree each over its vertices, drivers and labels,
    by rank; its largest child inherits them less the other children's
    entries, which go to fresh ones, so an entry moves O(log n) times.  Its
    root and final driver, the largest, stay in and change no rank below.
    """
    n = len(prefs)
    kids, drivers, marked, order, at, size = _image(parents, prefs, outcome)
    labels: list[int | None] = [0] * (n + 1)
    vertex_at, driver_at = list(range(n + 1)), list(range(n + 1))  # ranks in the current piece
    full = [i & -i for i in range(n + 1)]  # every position present; sliced, never changed
    work = [(n, full[:], full[:], full[:], range(1, n + 1))]
    while work:
        v, vertex_fen, driver_fen, label_fen, names = work.pop()
        while True:
            if not at[v] <= at[marked[v]] < at[v] + size[v]:
                raise _broken(parents, prefs, "each piece's marked vertex lies in the piece")
            labels[v] = names[_take(label_fen, _rank(vertex_fen, vertex_at[marked[v]])) - 1]
            if not kids[v]:
                break
            heavy = max(kids[v], key=size.__getitem__)
            for c in kids[v]:
                if c == heavy:
                    continue
                vertices = sorted(order[at[c] : at[c] + size[c]])
                for u in vertices:
                    _remove(vertex_fen, vertex_at[u])
                sub_names = []
                for r, (u, d) in enumerate(zip(vertices, sorted(drivers[u] for u in vertices)), start=1):
                    rank = _rank(driver_fen, driver_at[d])
                    _remove(driver_fen, driver_at[d])
                    sub_names.append(names[_take(label_fen, rank) - 1])
                    vertex_at[u] = driver_at[d] = r
                fresh = full[: size[c] + 1]
                work.append((c, fresh, fresh[:], fresh[:], sub_names))
            v = heavy
    if sorted(labels[1:n]) != list(range(1, n)):
        raise _broken(parents, prefs, "the image carries each label 1..n-1 once")
    labels[n] = None
    return _labeled_tree([labels[v] for v in order], [[at[c] for c in kids[v]] for v in order])


def encode_prime(sp: StandardPrime) -> LabeledPlaneTree:
    """Map a standard pair to a plane tree with non-root labels in [n-1]."""
    return _encode(*_checked(sp))


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
        raise _broken(parents, prefs, "the pieces' post-order labels must cover the joined tree once")
    return parents, prefs, below


def decode_prime(plt: LabeledPlaneTree) -> StandardPrime:
    """Inverse of :func:`encode_prime`; total on labeled plane trees."""
    labels, kids = _flatten(plt)
    _check_labels(labels, root_labeled=False)
    parents, prefs = _decode(labels, kids)
    return _standard_prime(parents, *_check_standard(parents, prefs))


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
