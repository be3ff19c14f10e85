"""The Fenwick label pass, kept as a fast second reference for the encoder.

``fenwick_encode`` is the encoding as it stood before the label pass moved
to sorted block lists: the same image (``bijections._image``), and labels
taken by order statistics on three Fenwick trees (Fenwick 1994) per piece.
It is O(n log^2 n) on every input, so it checks the block lists at sizes
where the level-by-level ``reference_encode`` is too slow (~10 s at 3000
vertices).  It shares only ``_image`` with the code it checks; the level
reference checks ``_image``.
"""

from treepark.bijections import _broken, _image
from treepark.trees import _carried_tree


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
