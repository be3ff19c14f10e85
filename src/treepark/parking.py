"""The parking procedure on rooted trees and the predicates built on it.

Drivers are processed in index order.  Driver i parks at her preferred
vertex if it is free; otherwise she follows the unique path towards the
root and takes the first free vertex, leaving the tree if there is none.
An edge is *used* once some driver crosses it after finding her preferred
spot occupied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    InvariantError,
    LabelOutOfRangeError,
    LengthMismatchError,
    NotAParkingFunctionError,
    _ints,
    _shown,
)
from .trees import RootedTree, _bottom_up, _check_tree, _subtree_sums

Edge = tuple[int, int]  # (child, parent) with the edge oriented child -> parent


@dataclass(frozen=True)
class ParkingOutcome:
    """Result of running the procedure.

    ``spots[i - 1]`` is where driver i parked (None if she left the tree),
    and ``crossings`` lists each edge once, in the order of first crossing.
    """

    spots: tuple[int | None, ...]
    crossings: tuple[Edge, ...]

    @property
    def all_parked(self) -> bool:
        return None not in self.spots


def check_preferences(tree: RootedTree, prefs: Sequence[int]) -> tuple[int, ...]:
    """The input gate of a pair: a checked tree and one preference in 1..n
    per vertex, returned as a tuple that callers use in place of ``prefs``."""
    return _preferences(_check_tree(tree).n, prefs)


def _preferences(n: int, prefs: Sequence[int]) -> tuple[int, ...]:
    """The gate's half for a tree that the package built itself.  A wrong
    length is reported before a bad entry."""
    try:
        count = len(prefs)
    except TypeError:
        raise LabelOutOfRangeError(f"{_shown(prefs)} is not a sequence of integers") from None
    if count != n:
        raise LengthMismatchError(f"{count} preferences for a tree on {n} vertices")
    return _ints(prefs, LabelOutOfRangeError, "driver {}: preference", 1, n)


def run_parking(tree: RootedTree | Sequence[int], prefs: Sequence[int]) -> ParkingOutcome:
    """Simulate any prefix of drivers; no length check.  Inside the package
    ``tree`` may also be the tree's parent list with slot 0 unused.

    Two union-find link arrays with path halving (Tarjan 1975) stand in for
    the walk to the root.  ``free[v]`` leads to the nearest empty vertex at or
    above v (0 once the path to the root is full), and ``edge[v]`` to the
    nearest vertex at or above v whose parent edge no driver has crossed yet
    (the root ends every chain).  A crossed edge has an occupied lower end, so
    an empty vertex ends every ``edge`` chain below it: a driver's new
    crossings are the ``edge`` chain from her preferred vertex up to her spot.
    """
    up = (0,) + tree.parents if isinstance(tree, RootedTree) else tree
    free = list(range(len(up)))
    edge = free[:]
    spots: list[int | None] = []
    crossings: list[Edge] = []
    add_spot, cross = spots.append, crossings.append
    for want in prefs:
        spot = free[want]
        if spot == want:
            free[want] = up[want]
            add_spot(want)
            continue
        while free[spot] != spot:
            free[spot] = spot = free[free[spot]]
        free[want] = spot
        if spot:
            free[spot] = up[spot]
            add_spot(spot)
        else:
            add_spot(None)
        v = edge[want]
        while True:
            while edge[v] != v:
                edge[v] = v = edge[edge[v]]
            p = up[v]
            if v == spot or not p:
                break
            cross((v, p))
            edge[v] = v = p
        edge[want] = v
    return ParkingOutcome(tuple(spots), tuple(crossings))


def park(tree: RootedTree, prefs: Sequence[int]) -> ParkingOutcome:
    """Run the full parking procedure for all n drivers."""
    return run_parking(tree, check_preferences(tree, prefs))


def _subtree_excess(tree: RootedTree, prefs: Sequence[int]) -> list[int]:
    """For each vertex v: how many drivers prefer the subtree of v, less its size."""
    up = (0,) + tree.parents
    weights = [-1] * len(up)
    for s in prefs:
        weights[s] += 1
    return _subtree_sums(_bottom_up(up), up, weights)


def is_parking_function(tree: RootedTree, prefs: Sequence[int]) -> bool:
    """Subtree criterion: every subtree receives at least as many preferences
    as it has vertices.  Agrees with simulation success; the test suite checks
    that exhaustively."""
    excess = _subtree_excess(tree, check_preferences(tree, prefs))
    return all(excess[v] >= 0 for v in range(1, tree.n + 1))


def used_edges(tree: RootedTree, prefs: Sequence[int]) -> tuple[Edge, ...]:
    """Edges used by a parking function, in chronological first-crossing order.

    Computed twice: by the strict subtree criterion and by simulation.  The
    two sets must agree; the simulation supplies the order.
    """
    prefs = check_preferences(tree, prefs)
    excess = _subtree_excess(tree, prefs)
    if any(excess[v] < 0 for v in range(1, tree.n + 1)):
        raise NotAParkingFunctionError("used edges are only defined for parking functions")
    criterion = {(v, p) for v, p in enumerate(tree.parents, start=1) if p and excess[v] > 0}
    outcome = run_parking(tree, prefs)
    if criterion != set(outcome.crossings):
        raise InvariantError("edge criterion disagrees with simulation", tree, prefs)
    return outcome.crossings


def _prime_outcome(
    up: Sequence[int], order: Iterable[int], prefs: Sequence[int]
) -> tuple[bool, ParkingOutcome]:
    """Primality of a pair that has passed :func:`check_preferences`,
    evaluated both ways, by the strict criterion (every proper subtree
    receives strictly more preferences than its size) and as "a parking
    function that uses every edge" (simulation), which must agree; returns
    the verdict with the one simulation's outcome.

    ``up`` is the parent list with slot 0 unused (0 at the root) and
    ``order`` lists its vertices, the root optional, every child before its
    parent: :func:`trees._bottom_up` of any tree, or 1..n-1 for a post-order
    array.  One loop sums each subtree's surplus into its parent, reads the
    criterion and refuses an order that reaches a parent before its child:
    a vertex's entry is spent (None) once it is passed on, so adding a
    child's to it raises.
    """
    surplus: list[int | None] = [-1] * len(up)  # preferences in each subtree, less its size
    for s in prefs:
        surplus[s] += 1
    by_criterion = True
    try:
        for v in order:
            p = up[v]
            excess = surplus[v]
            if excess <= 0 < p:  # slot 0 takes the root's, which the criterion skips
                by_criterion = False
            surplus[v] = None  # spent
            surplus[p] += excess
    except TypeError:  # None + int: v's parent was spent before v
        witness = RootedTree(tuple(up[1:]))
        raise InvariantError(f"the order reaches vertex {v} after its parent", witness, prefs) from None
    outcome = run_parking(up, prefs)
    by_simulation = outcome.all_parked and len(outcome.crossings) == len(up) - 2
    if by_criterion != by_simulation:
        raise InvariantError("primality characterizations disagree", RootedTree(tuple(up[1:])), prefs)
    return by_criterion, outcome


def is_prime(tree: RootedTree, prefs: Sequence[int]) -> bool:
    """Every proper subtree receives strictly more preferences than its size.

    Evaluated both ways: by the strict criterion and as "a parking function
    that uses every edge" (simulation).  The two must agree.
    """
    prefs = check_preferences(tree, prefs)
    up = (0,) + tree.parents
    return _prime_outcome(up, _bottom_up(up), prefs)[0]


def is_parking_distribution(tree: RootedTree, prefs: Sequence[int]) -> bool:
    """Weakly increasing parking function."""
    prefs = check_preferences(tree, prefs)
    increasing = all(a <= b for a, b in zip(prefs, prefs[1:]))
    return increasing and min(_subtree_excess(tree, prefs)[1:]) >= 0
