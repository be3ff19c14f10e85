"""The benchmark's oracle against counts small enough to check by hand.

Run with ``python3 -m pytest perfbench/test_oracle.py``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402

PATH3 = (2, 3, 0)  # 1 -> 2 -> 3, rooted at 3
CHERRY = (3, 3, 0)  # two leaves under the root 3


def test_tree_recognition():
    assert oracle.is_rooted_tree(PATH3) and oracle.is_rooted_tree(CHERRY)
    assert not oracle.is_rooted_tree((2, 1, 0))  # cycle 1 <-> 2
    assert not oracle.is_rooted_tree((0, 0, 1))  # two roots
    assert not oracle.is_rooted_tree((2, 4, 0))  # parent out of range
    assert oracle.is_path(PATH3) and not oracle.is_path(CHERRY)


def test_rooted_tree_counts():
    # Cayley: n^(n-1) labeled rooted trees.
    assert [len(list(oracle.rooted_trees(n))) for n in (1, 2, 3)] == [1, 2, 9]


def test_simulation_by_hand():
    assert oracle.park(PATH3, (1, 1, 1)) == [1, 2, 3]
    assert oracle.park(PATH3, (3, 3, 1)) == [3, None, 1]
    assert oracle.park(CHERRY, (1, 1, 2)) == [1, 3, 2]
    assert oracle.park(CHERRY, (3, 1, 1)) == [3, 1, None]
    assert oracle.first_crossings(PATH3, (1, 1, 1)) == [(1, 2), (2, 3)]
    assert oracle.first_crossings(CHERRY, (1, 1, 2)) == [(1, 3)]
    assert oracle.first_crossings(CHERRY, (1, 2, 3)) == []


def test_predicates_by_hand():
    assert oracle.is_parking(PATH3, (1, 1, 1)) and oracle.is_prime(PATH3, (1, 1, 1))
    assert oracle.is_parking(PATH3, (1, 2, 3)) and not oracle.is_prime(PATH3, (1, 2, 3))
    assert not oracle.is_parking(PATH3, (3, 3, 1))
    # The cherry has two proper subtrees, each needing two preferences: no primes.
    assert oracle.is_parking(CHERRY, (1, 2, 3)) and not oracle.is_prime(CHERRY, (1, 2, 1))
    assert not oracle.is_parking(PATH3, (1, 1))  # wrong length


def test_closed_forms_by_hand():
    assert [oracle.parking_pairs(n) for n in (1, 2, 3)] == [1, 6, 132]
    assert [oracle.prime_pairs(n) for n in (1, 2, 3)] == [1, 2, 24]
    assert [oracle.catalan(n) for n in range(5)] == [1, 1, 2, 5, 14]
    assert [oracle.schroder(n) for n in range(6)] == [1, 2, 6, 22, 90, 394]
    assert [oracle.prime_distributions(n) for n in (1, 2, 3)] == [1, 2, 12]
    assert [oracle.standard_primes(n) for n in (1, 2, 3)] == [1, 1, 4]


def test_brute_pairs_match_closed_forms():
    for n in (1, 2, 3):
        counts = oracle.brute_pairs(n)
        assert counts["parking"] == oracle.parking_pairs(n)
        assert counts["parks_by_simulation"] == counts["parking"]
        assert counts["prime"] == oracle.prime_pairs(n)


def test_brute_distributions_by_hand():
    assert oracle.brute_distributions(1) == {
        "distribution": 1,
        "prime_distribution": 1,
        "marked_distribution": 1,
        "marked_prime": 1,
    }
    # Two trees on two vertices; each has one leaf, takes (1,1) and (1,2) as
    # distributions and only (1,1) as a prime distribution.
    assert oracle.brute_distributions(2) == {
        "distribution": 4,
        "prime_distribution": 2,
        "marked_distribution": 4,
        "marked_prime": 2,
    }
    three = oracle.brute_distributions(3)
    assert three["distribution"] == 39 and three["prime_distribution"] == 12
    assert three["marked_prime"] == 3 * 2 * oracle.prime_distributions(2)
    assert three["marked_distribution"] == 2 * 3 * 2 * 4


def test_brute_limit():
    try:
        oracle.brute_distributions(oracle.BRUTE_LIMIT + 1)
    except ValueError:
        return
    raise AssertionError("brute enumeration accepted a size beyond its limit")
