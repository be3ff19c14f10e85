"""The piece-by-piece decoder, kept as the reference for the flat one.

``piecewise_decode`` is the decoding as it stood before it moved to two
flat passes: every vertex stands for the pair decoded from its subtree, and
``_assemble`` rebuilds that pair (a sorted label list, a rank dict, every
parent and preference) at each vertex with two or more branches.  It is
quadratic on caterpillars (about 4 s at 10^4 vertices), so it checks the
new decoder up to 10^3 vertices.  It shares no code with what it checks.
"""

from bisect import bisect_left, insort


def piecewise_decode(labels, kids):
    """The flat standard pair (post-order parents with slot 0 unused, and
    preferences) of a valid root-unlabeled plane tree, given as its
    pre-order arrays (see ``trees._flatten``).

    Every vertex x stands for the pair decoded from its subtree with x's own
    label dropped and the others ranked, so the vertices are decoded
    children first.  A vertex's branches are the pieces along the final
    walk, bottom-up: each piece is re-attached as the leftmost child of the
    vertex the cut edge pointed at, recovered as the rank of the next
    piece's marked driver, and the last piece hangs under a fresh root.
    """
    # vertex -> (parent array, prefs, sorted labels of its subtree)
    done = {}
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


def _assemble(pieces, marks):
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
        raise AssertionError(f"the pieces' post-order labels must cover the joined tree once: {parents}, {prefs}")
    return parents, prefs, below
