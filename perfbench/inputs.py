"""Seeded input builders, written without any ``treepark`` code.

Plane trees come out as ``(labels, kids)`` arrays over vertex ids: id 0 is
the root, ``labels[v]`` is the label of id v (``None`` on the root) and
``kids[v]`` lists its children from left to right.  The workloads turn them
into the package's tree objects bottom-up, so no builder recurses.
"""

from __future__ import annotations

import random


def random_dyck(rng: random.Random, m: int) -> list[int]:
    """Uniform Dyck word of semilength m (+1 up, -1 down), by the cycle lemma:
    shuffle m ups and m+1 downs, rotate to start just after the first lowest
    point, and drop the final down step."""
    steps = [1] * m + [-1] * (m + 1)
    rng.shuffle(steps)
    low, low_at, height = 0, 0, 0
    for i, s in enumerate(steps):
        height += s
        if height < low:
            low, low_at = height, i
    rotated = steps[low_at + 1 :] + steps[: low_at + 1]
    return rotated[:-1]


def dyck_to_plane(word: list[int]) -> list[list[int]]:
    """Children lists of the plane tree a Dyck word walks (ids in pre-order)."""
    kids: list[list[int]] = [[]]
    stack = [0]
    for s in word:
        if s > 0:
            kids.append([])
            kids[stack[-1]].append(len(kids) - 1)
            stack.append(len(kids) - 1)
        else:
            stack.pop()
    return kids


def random_plane_pair(rng: random.Random, n: int):
    """A uniform (permutation of [n], plane tree on n vertices with non-root
    labels a uniform bijection onto [n-1]) pair."""
    kids = dyck_to_plane(random_dyck(rng, n - 1))
    names = list(range(1, n))
    rng.shuffle(names)
    labels = [None] + names
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return tuple(word), labels, kids


def labeled_path_pair(rng: random.Random, n: int):
    """A path on n vertices hanging from the root, labels in random order."""
    kids = [[v + 1] for v in range(n - 1)] + [[]]
    names = list(range(1, n))
    rng.shuffle(names)
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return tuple(word), [None] + names, kids


def caterpillar_pair(rng: random.Random, spine: int, legs: int):
    """A spine of ``spine`` vertices below the root with ``legs`` leaves hung
    off random spine vertices, each at a random place among its siblings.
    Spine vertices are ids 1..spine; the leaves follow."""
    n = 1 + spine + legs
    kids: list[list[int]] = [[1]] + [[] for _ in range(n - 1)]
    for leaf in range(spine + 1, n):
        host = kids[rng.randrange(1, spine + 1)]
        host.insert(rng.randrange(len(host) + 1), leaf)
    for v in range(1, spine):
        kids[v].insert(rng.randrange(len(kids[v]) + 1), v + 1)
    names = list(range(1, n))
    rng.shuffle(names)
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return tuple(word), [None] + names, kids
