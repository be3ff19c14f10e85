"""Independent oracle for the benchmark's output checks.

Pure Python that imports nothing from ``treepark``: every value the
workloads compare against comes from here, computed by the plainest method
that is fast enough at the sizes used.  Trees are parent lists in the same
text convention the package uses (entry i is the parent of vertex i, 0 marks
the root); that is the data format, not shared code.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb, factorial


def is_rooted_tree(parents) -> bool:
    """One root, every entry in 0..n, and every parent chain reaches the root."""
    n = len(parents)
    if n == 0 or list(parents).count(0) != 1:
        return False
    if any(not isinstance(p, int) or p < 0 or p > n for p in parents):
        return False
    for v in range(1, n + 1):
        u, steps = v, 0
        while parents[u - 1] != 0:
            u = parents[u - 1]
            steps += 1
            if steps > n:
                return False
    return True


def is_path(parents) -> bool:
    """Every vertex has at most one child."""
    kids = [p for p in parents if p]
    return len(kids) == len(set(kids))


def subtree_members(parents) -> list[set[int]]:
    """members[v] is the set of vertices whose walk to the root passes v."""
    n = len(parents)
    members = [set() for _ in range(n + 1)]
    for u in range(1, n + 1):
        v = u
        while v:
            members[v].add(u)
            v = parents[v - 1]
    return members


def _subtree_excess(parents, prefs, members=None) -> list[int]:
    """For each vertex v: preferences landing in its subtree minus its size."""
    members = members or subtree_members(parents)
    hits = [0] * (len(parents) + 1)
    for s in prefs:
        hits[s] += 1
    return [0] + [
        sum(hits[u] for u in members[v]) - len(members[v])
        for v in range(1, len(parents) + 1)
    ]


def is_parking(parents, prefs, members=None) -> bool:
    """Every subtree receives at least as many preferences as it has vertices."""
    if len(prefs) != len(parents) or any(not 1 <= s <= len(parents) for s in prefs):
        return False
    excess = _subtree_excess(parents, prefs, members)
    return all(excess[v] >= 0 for v in range(1, len(parents) + 1))


def is_prime(parents, prefs, members=None) -> bool:
    """A parking function in which every proper subtree receives strictly
    more preferences than it has vertices."""
    if not is_parking(parents, prefs, members):
        return False
    excess = _subtree_excess(parents, prefs, members)
    return all(excess[v] > 0 for v in range(1, len(parents) + 1) if parents[v - 1])


def park(parents, prefs) -> list[int | None]:
    """Plain simulation: each driver walks rootwards to the first free spot."""
    taken = set()
    spots: list[int | None] = []
    for want in prefs:
        v = want
        while v and v in taken:
            v = parents[v - 1]
        if v:
            taken.add(v)
        spots.append(v or None)
    return spots


def first_crossings(parents, prefs) -> list[tuple[int, int]]:
    """Edges (child, parent) crossed by drivers walking past a taken spot,
    each listed once, in the order they are first crossed."""
    taken = set()
    seen: list[tuple[int, int]] = []
    for want in prefs:
        v = want
        while v and v in taken:
            edge = (v, parents[v - 1])
            if edge[1] and edge not in seen:
                seen.append(edge)
            v = parents[v - 1]
        if v:
            taken.add(v)
    return seen


def leaves(parents) -> int:
    """Vertices with no children; a lone root counts."""
    return len(parents) - len({p for p in parents if p})


# -- closed forms ------------------------------------------------------------


def parking_pairs(n: int) -> int:
    """((n-1)!)^2 * sum_{i<n} (n-i) (2n)^i / i!, kept in integers."""
    return factorial(n - 1) * sum(
        (n - i) * (2 * n) ** i * (factorial(n - 1) // factorial(i)) for i in range(n)
    )


def prime_pairs(n: int) -> int:
    return factorial(2 * n - 2)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def schroder(n: int) -> int:
    """Large Schroeder numbers from (n+1) S_n = 3(2n-1) S_{n-1} - (n-2) S_{n-2}."""
    if n < 2:
        return (1, 2)[n]
    value, rest = divmod(3 * (2 * n - 1) * schroder(n - 1) - (n - 2) * schroder(n - 2), n + 1)
    if rest:
        raise ArithmeticError(f"Schroeder recurrence left remainder {rest} at n={n}")
    return value


def prime_distributions(n: int) -> int:
    return factorial(n - 1) * schroder(n - 1)


def standard_primes(n: int) -> int:
    return factorial(n - 1) * catalan(n - 1)


# -- brute enumeration ---------------------------------------------------------


def rooted_trees(n: int):
    """Every labeled rooted tree on n vertices, by filtering all parent lists."""
    for parents in product(range(n + 1), repeat=n):
        if is_rooted_tree(parents):
            yield parents


BRUTE_LIMIT = 5


@lru_cache(maxsize=None)
def brute_distributions(n: int) -> dict[str, int]:
    """Weakly increasing parking and prime sequences over every tree on n
    vertices, plain and weighted by the tree's leaf count."""
    if not 1 <= n <= BRUTE_LIMIT:
        raise ValueError(f"brute enumeration is limited to 1 <= n <= {BRUTE_LIMIT}")
    out = dict.fromkeys(
        ("distribution", "prime_distribution", "marked_distribution", "marked_prime"), 0
    )
    multisets = list(combinations_with_replacement(range(1, n + 1), n))
    for parents in rooted_trees(n):
        members = subtree_members(parents)
        weight = leaves(parents)
        for seq in multisets:
            if is_parking(parents, seq, members):
                out["distribution"] += 1
                out["marked_distribution"] += weight
                if is_prime(parents, seq, members):
                    out["prime_distribution"] += 1
                    out["marked_prime"] += weight
    return out


def brute_pairs(n: int) -> dict[str, int]:
    """Parking and prime (tree, sequence) pairs by full enumeration; tiny n only."""
    out = {"parking": 0, "prime": 0, "parks_by_simulation": 0}
    for parents in rooted_trees(n):
        members = subtree_members(parents)
        for seq in product(range(1, n + 1), repeat=n):
            out["parking"] += is_parking(parents, seq, members)
            out["prime"] += is_prime(parents, seq, members)
            out["parks_by_simulation"] += None not in park(parents, seq)
    return out
