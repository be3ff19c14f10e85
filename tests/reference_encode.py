"""The Fenwick label pass, kept as a fast second reference for the encoder.

``fenwick_encode`` is the encoding as it stood before the label pass moved
to sorted block lists: the image read off the pair's run by ``_image``,
kept here as it stood then, and labels taken by order statistics on three
Fenwick trees (Fenwick 1994) per piece.  It is O(n log^2 n) on every input,
so it checks the block lists at sizes where the level-by-level
``reference_encode`` is too slow (~10 s at 3000 vertices).  It shares no
code with the encoder it checks but the error it raises; the level
reference checks the encoder's own ``_image``.
"""

from treepark.bijections import _broken
from treepark.trees import _carried_tree


def _image(parents, prefs, outcome):
    """The image's shape, read off a checked flat standard pair's one run:
    each vertex's image children (ascending), parked driver and marked
    vertex, the image pre-order, and each vertex's place in it and subtree
    size (see ``bijections._image``)."""
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


# Fenwick trees of present positions 1..m: entry i counts those in
# (i - (i & -i), i], so [i & -i for i in range(m + 1)] has all present.
def _rank(fen, i):
    """How many present positions are at most i."""
    r = 0
    while i:
        r += fen[i]
        i &= i - 1
    return r


def _remove(fen, i):
    end = len(fen)
    while i < end:
        fen[i] -= 1
        i += i & -i


def _take(fen, k):
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


def fenwick_encode(parents, prefs, outcome):
    """The plane-tree image of a checked flat standard pair (see
    ``bijections._checked``).  A piece keeps a Fenwick tree each over its
    vertices, drivers and labels, by rank; its largest child inherits them
    less the other children's entries, which go to fresh ones."""
    n = len(prefs)
    kids, drivers, marked, order, at, size = _image(parents, prefs, outcome)
    labels = [0] * (n + 1)
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
    return _carried_tree(tuple(labels[v] for v in order), tuple(tuple(at[c] for c in kids[v]) for v in order))
