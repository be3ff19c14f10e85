"""Parking procedure, predicates, and their agreement laws."""

import os
import random
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import treepark
from treepark import (
    InvariantError,
    LabelOutOfRangeError,
    LengthMismatchError,
    NotAParkingFunctionError,
    enumerate_rooted_trees,
    is_parking_distribution,
    is_parking_function,
    is_prime,
    park,
    parse_rooted_tree,
    path_tree,
    used_edges,
)
from treepark.parking import run_parking
from treepark.trees import RootedTree

FIG_TREE = parse_rooted_tree("3 3 5 5 0")


def random_tree(rng: random.Random, n: int):
    """Uniform rooted tree via a random parent-chain-free attachment order."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    parents = [0] * n
    for i in range(1, n):
        parents[labels[i] - 1] = labels[rng.randrange(i)]
    return parse_rooted_tree(" ".join(map(str, parents)))


class TestPark:
    def test_figure_example(self):
        outcome = park(FIG_TREE, (2, 2, 1, 4, 2))
        assert outcome.spots == (2, 3, 1, 4, 5)
        assert outcome.all_parked

    def test_classical_path(self):
        outcome = park(path_tree(5), (1, 3, 4, 4, 1))
        assert outcome.all_parked
        assert set(outcome.crossings) == {(1, 2), (4, 5)}

    def test_failure_leaves_low_spots_empty(self):
        outcome = park(path_tree(5), (3, 3, 3, 4, 5))
        assert not outcome.all_parked
        parked = {s for s in outcome.spots if s is not None}
        assert 1 not in parked and 2 not in parked

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            park(FIG_TREE, (1, 2, 3))

    def test_preference_out_of_range(self):
        with pytest.raises(LabelOutOfRangeError, match="driver 2"):
            park(FIG_TREE, (1, 9, 1, 1, 1))


def walk_to_root(parents, prefs):
    """Reference simulation: each driver walks parent by parent from her
    preferred vertex; spots and first crossings as ``run_parking`` reports."""
    taken, spots, crossings, seen = set(), [], [], set()
    for v in prefs:
        while v in taken:
            p = parents[v - 1]
            if p == 0:
                v = None
                break
            if (v, p) not in seen:
                seen.add((v, p))
                crossings.append((v, p))
            v = p
        if v is not None:
            taken.add(v)
        spots.append(v)
    return tuple(spots), tuple(crossings)


class TestKernelAgainstWalk:
    """The union-find kernel against the plain walk to the root."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_tree_and_sequence(self, n):
        # Every length up to n covers every prefix, and drivers leave the
        # tree whenever a sequence is not a parking function.  The n^n
        # full-length sequences at n = 5 are compared in
        # TestParkingFunction.test_criterion_matches_simulation_n5, which
        # simulates each of them already.
        for tree in enumerate_rooted_trees(n):
            for length in range(n + 1 if n < 5 else n):
                for seq in product(range(1, n + 1), repeat=length):
                    outcome = run_parking(tree, seq)
                    assert (outcome.spots, outcome.crossings) == walk_to_root(tree.parents, seq)

    @pytest.mark.parametrize("seed", range(6))
    def test_deep_paths_and_caterpillars(self, seed):
        rng = random.Random(seed)
        n = rng.randint(300, 500)
        spine = n if seed % 2 else rng.randint(n // 2, n - 1)
        parents = [v + 1 for v in range(1, spine)] + [0]
        parents += [rng.randint(1, spine) for _ in range(spine, n)]  # legs
        tree = RootedTree(tuple(parents))
        for prefs in (
            [1] * n,  # everyone walks from the bottom of the spine
            [rng.randint(1, n) for _ in range(n + 20)],  # more drivers than spots
            [rng.randint(1, min(n, 30)) for _ in range(rng.randint(1, n))],
        ):
            outcome = run_parking(tree, prefs)
            assert (outcome.spots, outcome.crossings) == walk_to_root(tree.parents, prefs)


class TestParkingFunction:
    def test_figure_example(self):
        assert is_parking_function(FIG_TREE, (2, 2, 1, 4, 2))

    def test_constant_root_on_short_path(self):
        assert not is_parking_function(path_tree(2), (2, 2))

    def test_singleton(self):
        assert is_parking_function(path_tree(1), (1,))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_criterion_matches_simulation_exhaustively(self, n):
        for tree in enumerate_rooted_trees(n):
            for seq in product(range(1, n + 1), repeat=n):
                assert is_parking_function(tree, seq) == park(tree, seq).all_parked

    def test_criterion_matches_simulation_n5(self):
        # all 5^4 * 5^5 pairs; the criterion side is decided once per
        # (tree, count-vector bucket) by the reference bucket census, and
        # each simulation is also checked against the plain walk to the root
        from reference_census import reference_buckets, reference_slacks

        buckets = reference_buckets(5)
        assert sum(len(seqs) for seqs in buckets.values()) == 5**5
        for tree in enumerate_rooted_trees(5):
            for seqs, slack in reference_slacks((0,) + tree.parents, buckets):
                for seq in seqs:
                    outcome = run_parking(tree, seq)
                    assert (outcome.spots, outcome.crossings) == walk_to_root(tree.parents, seq)
                    assert outcome.all_parked == (slack >= 0)
                    prime = outcome.all_parked and len(outcome.crossings) == 4
                    assert prime == (slack >= 1)


class TestUsedEdges:
    def test_classical_path(self):
        assert set(used_edges(path_tree(5), (1, 3, 4, 4, 1))) == {(1, 2), (4, 5)}

    def test_chronological_order(self):
        assert used_edges(FIG_TREE, (2, 2, 1, 4, 2)) == ((2, 3), (3, 5))

    def test_no_failures_no_edges(self):
        assert used_edges(path_tree(4), (1, 2, 3, 4)) == ()

    def test_refuses_non_parking_function(self):
        with pytest.raises(NotAParkingFunctionError):
            used_edges(path_tree(5), (3, 3, 3, 4, 5))


class TestPrime:
    def test_figure_prime(self):
        assert is_prime(parse_rooted_tree("2 4 4 5 0"), (1, 3, 2, 3, 1))

    def test_figure_not_prime(self):
        assert not is_prime(FIG_TREE, (2, 2, 1, 4, 2))

    def test_singleton(self):
        assert is_prime(path_tree(1), (1,))

    def test_prime_implies_parking(self):
        for tree in enumerate_rooted_trees(3):
            for seq in product((1, 2, 3), repeat=3):
                if is_prime(tree, seq):
                    assert is_parking_function(tree, seq)


class TestInvariants:
    """Each predicate's two evaluations are checked by a raise, not an assert."""

    @staticmethod
    def parks_nobody(tree, prefs):
        return treepark.ParkingOutcome((None,) * len(prefs), ())

    def test_prime_disagreement_names_the_pair(self, monkeypatch):
        monkeypatch.setattr(treepark.parking, "run_parking", self.parks_nobody)
        tree = parse_rooted_tree("2 4 4 5 0")
        with pytest.raises(InvariantError, match="primality") as caught:
            is_prime(tree, (1, 3, 2, 3, 1))
        assert caught.value.tree == tree and caught.value.prefs == (1, 3, 2, 3, 1)

    def test_used_edges_disagreement_names_the_pair(self, monkeypatch):
        monkeypatch.setattr(treepark.parking, "run_parking", self.parks_nobody)
        with pytest.raises(InvariantError, match="edge criterion") as caught:
            used_edges(FIG_TREE, (2, 2, 1, 4, 2))
        assert caught.value.tree == FIG_TREE and caught.value.prefs == (2, 2, 1, 4, 2)

    def test_checked_under_optimize(self):
        # python -O strips asserts; the invariants must still raise
        probe = (
            "import treepark\n"
            "from treepark import InvariantError, is_prime, parse_rooted_tree, used_edges\n"
            "treepark.parking.run_parking = lambda tree, prefs: "
            "treepark.ParkingOutcome((None,) * len(prefs), ())\n"
            "for check in (is_prime, used_edges):\n"
            "    try:\n"
            "        check(parse_rooted_tree('2 4 4 5 0'), (1, 3, 2, 3, 1))\n"
            "    except InvariantError:\n"
            "        print('raised')\n"
        )
        src = Path(treepark.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-O", "-c", probe],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout == "raised\nraised\n"


class TestDistribution:
    def test_classical_increasing(self):
        assert is_parking_distribution(path_tree(5), (1, 1, 2, 3, 3))

    def test_not_increasing(self):
        assert not is_parking_distribution(FIG_TREE, (2, 2, 1, 4, 2))

    def test_two_vertex_prime(self):
        tree = parse_rooted_tree("2 0")
        assert is_parking_distribution(tree, (1, 1))
        assert is_prime(tree, (1, 1))


class TestInvariance:
    """Reordering the drivers never changes the verdicts or the used-edge set."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_exhaustive_small(self, n):
        for tree in enumerate_rooted_trees(n):
            for seq in product(range(1, n + 1), repeat=n):
                base = is_parking_function(tree, seq)
                edges = set(used_edges(tree, seq)) if base else None
                for sigma in permutations(range(n)):
                    reordered = tuple(seq[i] for i in sigma)
                    assert is_parking_function(tree, reordered) == base
                    if base:
                        assert set(used_edges(tree, reordered)) == edges

    @given(st.integers(5, 8), st.randoms(use_true_random=False))
    def test_random_larger(self, n, rng):
        tree = random_tree(rng, n)
        seq = tuple(rng.randrange(1, n + 1) for _ in range(n))
        reordered = tuple(rng.sample(seq, n))
        assert is_parking_function(tree, seq) == is_parking_function(tree, reordered)
        if is_parking_function(tree, seq):
            assert set(used_edges(tree, seq)) == set(used_edges(tree, reordered))


class TestFinalDriverLaw:
    @pytest.mark.parametrize("n", range(2, 5))
    def test_prime_final_driver_hits_root(self, n):
        for tree in enumerate_rooted_trees(n):
            for seq in product(range(1, n + 1), repeat=n):
                if is_prime(tree, seq):
                    assert park(tree, seq).spots[-1] == tree.root
