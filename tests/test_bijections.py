"""Standard form, the plane-tree encoding, and the path specializations."""

import copy
import dataclasses
import os
import pickle
import random
import re
import subprocess
import sys
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import treepark
from treepark import (
    InputError,
    InvariantError,
    LabelOutOfRangeError,
    LabeledPlaneTree,
    LengthMismatchError,
    MarkedSet,
    Not132AvoidingError,
    NotPrimeError,
    NotStandardPrimeError,
    StandardPrime,
    borie_map,
    catalan_number,
    decode_prime,
    decompose,
    destandardize,
    encode_prime,
    enumerate_labeled_plane_trees,
    enumerate_plane_trees,
    enumerate_rooted_trees,
    format_plane_tree,
    is_132_avoiding,
    is_parking_distribution,
    is_parking_function,
    is_prime,
    labeled_path,
    pair_to_prime,
    parse_plane_tree,
    parse_rooted_tree,
    path_preimage_seq,
    post_order_relabel,
    path_tree,
    prime_to_pair,
    roundtrip_suite,
    standard_path_prime,
    standardize,
    validate_rooted_tree,
)
from treepark.bijections import (
    _BLOCK,
    Component,
    _Shrinking,
    _avoids_132,
    _checked,
    _increasing_parks,
    _standard_prime,
    check_standard_prime,
)
from treepark.census import _iter_primes
from treepark.parking import ParkingOutcome, run_parking
from treepark.trees import RootedTree, _carried_tree, _flatten, _labeled_tree, _parents_shape, _shape_parents

from reference_decode import piecewise_decode
from reference_encode import fenwick_encode

# the standard form of the figure pair (tree 0 3 4 1 4, preferences 2 5 3 5 2)
FIG_SP = StandardPrime(((((),), ()),), (1, 3, 2, 3, 1))


def iter_primes(n):
    for tree in enumerate_rooted_trees(n):
        for seq in product(range(1, n + 1), repeat=n):
            if is_prime(tree, seq):
                yield tree, seq


def has_132_brute(word) -> bool:
    """Oracle: scan all index triples."""
    return any(
        word[i] < word[k] < word[j] for i, j, k in combinations(range(len(word)), 3)
    )


# ---------------------------------------------------------------------------
# The level-by-level encoder, kept as the reference for the one-run encoding
# ---------------------------------------------------------------------------


def reference_split(parents, prefs):
    """The final-driver decomposition of a flat standard pair on m >= 2
    vertices, by parking all drivers but the last: each vertex's piece root
    (0 at the root) and, along the final walk, each piece as (root, marked
    vertex, drivers, marked driver, flat parents, prefs)."""
    m = len(parents) - 1
    tree = RootedTree(tuple(parents[1:]))
    head_prefs = prefs[:-1]
    head = run_parking(tree, head_prefs)
    assert head.all_parked
    crossed = [False] * (m + 1)
    for c, _ in head.crossings:
        crossed[c] = True
    cut_roots = []
    v = prefs[-1]
    while parents[v]:
        if not crossed[v]:
            cut_roots.append(v)
        v = parents[v]
    assert len(cut_roots) + len(head.crossings) == m - 1 and parents[cut_roots[-1]] == m

    # A piece is its root's post-order run less the run below: labels
    # s..lo-1 and hi+1..rho, ranked in that order.
    home = [0] * (m + 1)
    rank = [0] * (m + 1)
    runs = []
    s = cut_roots[0]
    lo, hi = s, s - 1
    for rho in cut_roots:
        while s > 1 and parents[s - 1] <= rho:
            s -= 1
        first = lo - s
        home[s:lo] = [rho] * first
        home[hi + 1 : rho + 1] = [rho] * (rho - hi)
        rank[s:lo] = range(1, first + 1)
        rank[hi + 1 : rho + 1] = range(first + 1, first + rho - hi + 1)
        runs.append((s, lo, hi))
        lo, hi = s, rho
    assert s == 1

    drivers = {rho: [] for rho in cut_roots}
    piece_prefs = {rho: [] for rho in cut_roots}
    for j, q in enumerate(head_prefs, start=1):
        drivers[home[q]].append(j)
        piece_prefs[home[q]].append(rank[q])
    parts = []
    marked_vertex = prefs[-1]
    for rho, (s, lo, hi) in zip(cut_roots, runs):
        ds = tuple(drivers[rho])
        piece_parents = [0] + [rank[p] for p in parents[s:lo] + parents[hi + 1 : rho]] + [0]
        parts.append((rho, marked_vertex, ds, ds[rank[marked_vertex] - 1], piece_parents, piece_prefs[rho]))
        marked_vertex = parents[rho]
    return home, parts


def reference_decompose(sp):
    check_standard_prime(sp)
    parents = _shape_parents(sp.shape)
    home, parts = reference_split(parents, sp.prefs)
    members = {part[0]: [] for part in parts}
    for u in range(1, len(parents) - 1):
        members[home[u]].append(u)
    return [
        Component(
            tuple(members[rho]),
            marked_vertex,
            MarkedSet(drivers, marked),
            StandardPrime(_parents_shape(piece_parents), tuple(piece_prefs)),
        )
        for rho, marked_vertex, drivers, marked, piece_parents, piece_prefs in parts
    ]


def reference_encode(sp):
    """The image of a standard pair, one decomposition level at a time: each
    piece hangs below its frame's root in walk order, takes the name of its
    marked driver, and hands the names of its unmarked drivers down in order.
    ``names[l - 1]`` is the final label of a frame's local driver l."""
    check_standard_prime(sp)
    labels, kids = [None], [[]]
    work = [(_shape_parents(sp.shape), sp.prefs, 0, range(1, len(sp.prefs)))]
    while work:
        parents, prefs, node, names = work.pop()
        if len(prefs) == 1:
            continue
        for _, _, drivers, marked, piece_parents, piece_prefs in reference_split(parents, prefs)[1]:
            child = len(labels)
            labels.append(names[marked - 1])
            kids.append([])
            kids[node].append(child)
            work.append((piece_parents, piece_prefs, child, [names[d - 1] for d in drivers if d != marked]))
    return _labeled_tree(labels, kids)


class TestMarkedSet:
    def test_marked_must_be_an_element(self):
        assert MarkedSet((1, 2), 2).unmarked() == (1,)
        with pytest.raises(InputError):
            MarkedSet((1, 2), 5)

    @pytest.mark.parametrize(
        "elements, marked, bad",
        [
            ((3, 1), 1, "(3, 1)"),
            ((1, 1), 1, "(1, 1)"),
            ((1, 2.0), 1, "2.0"),
            ((True, 2), 2, "True"),
            ((1, 2), 1.0, "1.0"),
            (None, 1, "None"),
        ],
    )
    def test_elements_are_increasing_ints(self, elements, marked, bad):
        with pytest.raises(InputError, match=re.escape(bad)):
            MarkedSet(elements, marked)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_decompose_builds_increasing_sets(self, n):
        for plt in enumerate_labeled_plane_trees(n):
            for component in decompose(decode_prime(plt)):
                elements = component.drivers.elements
                assert list(elements) == sorted(set(elements))

    def test_checked_under_optimize(self):
        # the check must not be an assert, which python -O strips
        probe = (
            "from treepark import InputError, MarkedSet\n"
            "try:\n    MarkedSet((1, 2), 5)\nexcept InputError:\n    print('rejected')"
        )
        src = Path(treepark.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-O", "-c", probe],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout == "rejected\n"


class TestPieces:
    """Each piece of the final-driver decomposition is a standard prime of
    its own size, checked by its own simulation, and the pieces split the
    non-root vertices and the drivers 1..n-1: on every decoded pair on 2 to
    6 vertices."""

    def test_every_piece_is_a_standard_prime(self):
        pairs = pieces = 0
        for n in range(2, 7):
            for plt in enumerate_labeled_plane_trees(n):
                components = decompose(decode_prime(plt))
                pairs += 1
                pieces += len(components)
                for c in components:
                    assert check_standard_prime(c.piece) == len(c.vertices) == len(c.drivers.elements), c
                assert sorted(v for c in components for v in c.vertices) == list(range(1, n)), plt
                assert sorted(d for c in components for d in c.drivers.elements) == list(range(1, n)), plt
        assert (pairs, pieces) == (5411, 11533)


class TestOneSimulation:
    """Each standard-pair check parks the drivers once and reuses the outcome,
    and the encoding and the decomposition read everything off that run.  A
    standard pair the package builds carries its run, so it is not checked again."""

    @pytest.fixture
    def simulations(self, monkeypatch):
        calls = []
        real = treepark.parking.run_parking

        def counting(tree, prefs):
            calls.append(tuple(prefs))
            return real(tree, prefs)

        for name, module in list(sys.modules.items()):  # every module that holds the kernel
            if name.split(".")[0] == "treepark" and getattr(module, "run_parking", None) is real:
                monkeypatch.setattr(module, "run_parking", counting)
        return calls

    def test_check_standard_prime(self, simulations):
        assert check_standard_prime(FIG_SP) == 5
        assert simulations == [(1, 3, 2, 3, 1)]

    def test_standardize(self, simulations):
        # the crossing order of the one run also confirms the result's order
        standardize(validate_rooted_tree([0, 3, 4, 1, 4]), (2, 5, 3, 5, 2))
        assert simulations == [(2, 5, 3, 5, 2)]

    def test_prime_to_pair(self, simulations):
        word, plt = prime_to_pair(validate_rooted_tree([0, 3, 4, 1, 4]), (2, 5, 3, 5, 2))
        assert (word, format_plane_tree(plt)) == ((5, 1, 2, 4, 3), "*[1 3 4[2]]")
        assert simulations == [(2, 5, 3, 5, 2)]  # standardize's; encode_prime reads its run

    def test_encode_prime_of_a_standardized_pair(self, simulations):
        _, sp = standardize(validate_rooted_tree([0, 3, 4, 1, 4]), (2, 5, 3, 5, 2))
        simulations.clear()
        assert format_plane_tree(encode_prime(sp)) == "*[1 3 4[2]]"
        assert simulations == []

    def test_roundtrip_suite(self, simulations):
        # 24 prime pairs at n = 3, each through both maps: one run per map.
        # Each of the 24 (permutation, plane tree) pairs is one of their
        # images, which decoded back, so the backward half runs no map.
        assert roundtrip_suite(3).failures == ()
        assert len(simulations) == 48

    def test_pair_to_prime(self, simulations):
        tree, prefs = pair_to_prime((5, 1, 2, 4, 3), parse_plane_tree("*[1 3 4[2]]"))
        assert (tree.parents, prefs) == ((0, 3, 4, 1, 4), (2, 5, 3, 5, 2))
        assert simulations == [(1, 3, 2, 3, 1)]  # decode_prime's check

    def test_decompose(self, simulations):
        decompose(FIG_SP)
        assert simulations == [(1, 3, 2, 3, 1)]

    @pytest.fixture
    def walks(self, monkeypatch):
        shapes = []
        real = treepark.bijections._shape_parents
        monkeypatch.setattr(treepark.bijections, "_shape_parents", lambda shape: shapes.append(shape) or real(shape))
        return shapes

    def test_standard_path_prime(self, simulations, walks):
        # checked once where it is built, and read off that run: no shape walk
        sp = standard_path_prime((1, 1, 2, 3))
        assert check_standard_prime(sp) == check_standard_prime(sp) == 4
        assert encode_prime(sp) == labeled_path((3, 2, 1))  # path_preimage_seq((3, 2, 1)) == (1, 1, 2, 3)
        assert (simulations, walks) == ([(1, 1, 2, 3)], [])

    def test_destandardize_walks_a_hand_built_shape_once(self, simulations, walks):
        assert destandardize((5, 1, 2, 4, 3), FIG_SP) == (validate_rooted_tree([0, 3, 4, 1, 4]), (2, 5, 3, 5, 2))
        assert (simulations, walks) == ([(1, 3, 2, 3, 1)], [FIG_SP.shape])

    def test_decompose_walks_a_hand_built_shape_once(self, simulations, walks):
        assert len(decompose(FIG_SP)) == 3
        assert (simulations, walks) == ([(1, 3, 2, 3, 1)], [FIG_SP.shape])


def with_spots(spots):
    """The package's simulation with its log kept and its spots replaced."""
    real = treepark.bijections._prime_outcome

    def doctored(tree, prefs):
        prime, outcome = real(tree, prefs)
        return prime, ParkingOutcome(spots, outcome.crossings)

    return doctored


def with_marked(vertex, value):
    """The image reader with the marked vertex of one piece replaced."""
    real = treepark.bijections._image

    def doctored(parents, prefs, outcome):
        kids, drivers, marked, order, at, size = real(parents, prefs, outcome)
        marked[vertex] = value
        return kids, drivers, marked, order, at, size

    return doctored


class TestDecomposeInvariants:
    """Each O(n) check on the reading of the one run raises with the standard
    pair as witness.  The figure pair's run parks drivers 1..5 at 1, 3, 2, 4, 5
    and logs the edges above 3, 1, 2 and 4, in that order."""

    WITNESS = ((2, 4, 4, 5, 0), FIG_SP.prefs)

    def test_broken_invariant_names_the_pair(self, monkeypatch):
        # with every driver parked at 1, no log entry lies on a walk
        monkeypatch.setattr(treepark.bijections, "_prime_outcome", with_spots((1,) * 5))
        with pytest.raises(InvariantError, match="first crosser of each edge parks above it") as caught:
            decompose(FIG_SP)
        assert (caught.value.tree.parents, caught.value.prefs) == self.WITNESS

    def test_drivers_prefer_the_image_subtree_of_their_spot(self, monkeypatch):
        # drivers 1 and 3 swap spots: the walks are the same, but driver 1
        # now parks at 2, a sibling of her preference 1 in the image
        monkeypatch.setattr(treepark.bijections, "_prime_outcome", with_spots((2, 3, 1, 4, 5)))
        with pytest.raises(InvariantError, match="prefers the image subtree of her spot") as caught:
            encode_prime(FIG_SP)
        assert (caught.value.tree.parents, caught.value.prefs) == self.WITNESS

    def test_image_carries_each_label_once(self, monkeypatch):
        # every piece takes the smallest of its names, and none is used up
        monkeypatch.setattr(treepark.bijections._Shrinking, "pop", lambda names, r: names.blocks[0][0])
        with pytest.raises(InvariantError, match="each label 1..n-1 once") as caught:
            encode_prime(FIG_SP)
        assert (caught.value.tree.parents, caught.value.prefs) == self.WITNESS

    def test_marked_vertex_lies_in_its_piece(self, monkeypatch):
        # The image pieces are {1}, {2} and {3, 4} below the root 5.  Vertex 4
        # marked at 1, in another piece, would take a wrong label silently;
        # marked at 5, the root, it would rank past the piece's labels.  The
        # one-vertex piece {1} marked at 2 is checked too.
        for piece, outside in ((4, 1), (4, 5), (1, 2)):
            monkeypatch.setattr(treepark.bijections, "_image", with_marked(piece, outside))
            with pytest.raises(InvariantError, match="marked vertex lies in the piece") as caught:
                encode_prime(FIG_SP)
            assert (caught.value.tree.parents, caught.value.prefs) == self.WITNESS
            monkeypatch.undo()  # each case doctors the real reader alone

    def test_checked_under_optimize(self):
        # python -O strips asserts; the checks must still raise
        probe = (
            "import treepark\n"
            "from treepark import InvariantError, ParkingOutcome, StandardPrime, decode_prime, decompose\n"
            "real = treepark.bijections._prime_outcome\n"
            "def doctored(tree, prefs):\n"
            "    prime, outcome = real(tree, prefs)\n"
            "    return prime, ParkingOutcome((1,) * len(prefs), outcome.crossings)\n"
            "treepark.bijections._prime_outcome = doctored\n"
            "try:\n"
            "    decompose(StandardPrime(((((),), ()),), (1, 3, 2, 3, 1)))\n"
            "except InvariantError:\n"
            "    print('raised')\n"
            "treepark.bijections._prime_outcome = real\n"
            "pop = treepark.bijections._Shrinking.pop\n"
            "treepark.bijections._Shrinking.pop = lambda names, r: names.blocks[0][0]\n"
            "try:\n"
            "    treepark.encode_prime(StandardPrime(((((),), ()),), (1, 3, 2, 3, 1)))\n"
            "except InvariantError:\n"
            "    print('raised')\n"
            "treepark.bijections._Shrinking.pop = pop\n"
            "image = treepark.bijections._image\n"
            "def doctored(parents, prefs, outcome):\n"
            "    found = image(parents, prefs, outcome)\n"
            "    found[2][4] = 5\n"
            "    return found\n"
            "treepark.bijections._image = doctored\n"
            "try:\n"
            "    treepark.encode_prime(StandardPrime(((((),), ()),), (1, 3, 2, 3, 1)))\n"
            "except InvariantError:\n"
            "    print('raised')\n"
            "treepark.bijections._image = image\n"
            "merge = treepark.bijections._merge\n"
            "treepark.bijections._merge = lambda parts: [found[:-1] for found in merge(parts)]\n"
            "try:\n"
            "    decode_prime(treepark.parse_plane_tree('*[1 3 4[2]]'))\n"
            "except InvariantError as caught:\n"
            "    print('raised', caught.tree.parents, caught.prefs)\n"
            "treepark.bijections._merge = merge\n"
            "try:\n"
            "    decode_prime(treepark.trees._carried_tree((None, 1, 2), ((1, 2), (2,), ())))\n"
            "except InvariantError as caught:\n"
            "    print('raised', caught)\n"
        )
        src = Path(treepark.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-O", "-c", probe],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.splitlines() == [
            "raised",
            "raised",
            "raised",
            "raised (2, 4, 4, 5, 0) (1, 3, 2, 1)",
            "raised each vertex takes one post-order label (witness: parents (0, 0, 0), prefs (0, 0, 0, 0))",
        ]

    def test_needs_two_vertices(self):
        with pytest.raises(InputError, match="at least 2 vertices"):
            decompose(StandardPrime((), (1,)))

    def test_refuses_a_pair_that_is_not_standard(self):
        with pytest.raises(NotStandardPrimeError):
            decompose(StandardPrime((((),),), (1, 2, 3)))  # parking but not prime


class TestStandardizeInvariant:
    def test_broken_sibling_order_names_the_pair(self, monkeypatch):
        monkeypatch.setattr(treepark.bijections, "_out_of_crossing_order", lambda parents, crossings: 1)
        with pytest.raises(InvariantError, match="crossing order") as caught:
            standardize(validate_rooted_tree([0, 3, 4, 1, 4]), (2, 5, 3, 5, 2))
        assert caught.value.tree.parents == (0, 3, 4, 1, 4)
        assert caught.value.prefs == (2, 5, 3, 5, 2)


class TestDecodeInvariants:
    """The decoder's two O(n) checks raise with the pair it decoded as the
    witness.  The figure tree's root has three children, so its lists go
    through ``_merge``."""

    def test_each_driver_takes_one_preference(self, monkeypatch):
        # a merge that loses its last entry leaves a driver without a preference
        merge = treepark.bijections._merge
        monkeypatch.setattr(treepark.bijections, "_merge", lambda parts: [found[:-1] for found in merge(parts)])
        with pytest.raises(InvariantError, match="each driver takes one preference") as caught:
            decode_prime(parse_plane_tree("*[1 3 4[2]]"))
        assert (caught.value.tree.parents, caught.value.prefs) == ((2, 4, 4, 5, 0), (1, 3, 2, 1))

    def test_each_vertex_takes_one_label(self):
        # flat arrays that hang vertex 2 below both 0 and 1: it is listed twice
        doctored = _carried_tree((None, 1, 2), ((1, 2), (2,), ()))
        with pytest.raises(InvariantError, match="each vertex takes one post-order label"):
            decode_prime(doctored)

    def test_a_decoded_pair_that_is_not_standard_is_a_fault(self, monkeypatch):
        # a merge that swaps its first and last preference decodes a pair
        # that is not standard: the decoder's fault, not a bad input
        merge = treepark.bijections._merge

        def swapped(parts):
            below, wants = merge(parts)
            wants[0], wants[-1] = wants[-1], wants[0]
            return below, wants

        monkeypatch.setattr(treepark.bijections, "_merge", swapped)
        with pytest.raises(InvariantError, match="decoded pair is a standard prime, but children of vertex 4") as caught:
            decode_prime(parse_plane_tree("*[1 2[4 5[3]]]"))
        assert (caught.value.tree.parents, caught.value.prefs) == ((2, 4, 4, 5, 6, 0), (2, 3, 2, 3, 1, 1))
        assert not isinstance(caught.value, InputError)


class TestPathInvariants:
    """The self-checks of the path maps raise, with the witness, and are not
    asserts that python -O strips."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_image_check_matches_the_subtree_criterion(self, n):
        # the statistic map's last check, on every weakly increasing sequence
        for prefs in combinations_with_replacement(range(1, n + 1), n):
            assert _increasing_parks(prefs) == is_parking_function(path_tree(n), prefs), prefs

    def test_statistic_map_checks_its_image(self, monkeypatch):
        monkeypatch.setattr(treepark.bijections, "_increasing_parks", lambda prefs: False)
        with pytest.raises(InvariantError, match="parking function") as caught:
            borie_map((2, 1))
        assert caught.value.tree.parents == (2, 0)
        assert caught.value.prefs == (1, 2)

    def test_preimage_checks_primality(self, monkeypatch):
        monkeypatch.setattr(treepark.bijections, "_prime_outcome", lambda tree, prefs: (False, None))
        with pytest.raises(InvariantError, match="prime") as caught:
            path_preimage_seq((2, 1))
        assert caught.value.tree.parents == (2, 3, 0)
        assert caught.value.prefs == (1, 1, 2)

    def test_checked_under_optimize(self):
        probe = (
            "import treepark\n"
            "from treepark import InvariantError, borie_map, path_preimage_seq\n"
            "treepark.bijections._prime_outcome = lambda tree, prefs: (False, None)\n"
            "treepark.bijections._increasing_parks = lambda prefs: False\n"
            "for call in (lambda: path_preimage_seq((2, 1)), lambda: borie_map((2, 1))):\n"
            "    try:\n"
            "        call()\n"
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


class TestDeepValues:
    """Equality, hashing and repr of a 1200-vertex path pair, which nests
    deeper than the default recursion limit."""

    N = 1200

    def test_standard_prime(self):
        labels = tuple(range(1, self.N))
        a, b = decode_prime(labeled_path(labels)), decode_prime(labeled_path(labels))
        assert a.shape is not b.shape
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != StandardPrime(a.shape, a.prefs[:-1] + (2,))
        assert a != StandardPrime(((),) * (self.N - 1), a.prefs)  # a star, not a path
        k = self.N - 1
        assert repr(a) == f"StandardPrime(shape={'(' * k}(){',)' * k}, prefs={a.prefs!r})"

    def test_labeled_plane_tree(self):
        t = labeled_path(tuple(range(1, self.N)))
        assert repr(t) == f"parse_plane_tree({format_plane_tree(t)!r})"
        assert eval(repr(t), {"parse_plane_tree": parse_plane_tree}) == t

    @pytest.mark.parametrize("shape", [(), ((),), ((), ()), ((((),), ()),), (((),), (), ((), ((),)))])
    def test_small_reprs_are_unchanged(self, shape):
        # the same text as the generated dataclass repr
        assert repr(StandardPrime(shape, (1, 2))) == f"StandardPrime(shape={shape!r}, prefs=(1, 2))"


class TestShapeNodes:
    """A plane shape whose vertex is not a tuple is named at every entry."""

    ENTRIES = (
        "check_standard_prime(sp)",
        "encode_prime(sp)",
        "decompose(sp)",
        "destandardize((1, 2), sp)",
        "hash(sp)",
    )

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_non_tuple_child(self, entry):
        sp = StandardPrime(((), 1), (1, 1))
        with pytest.raises(InputError, match="^plane shape: vertex 1 is not a tuple of child shapes$"):
            eval(entry, vars(treepark) | {"sp": sp})

    def test_string_shape_returns(self):
        # a one-character string iterates to itself, so an unchecked walk never ends
        probe = (
            "from treepark import *\n"
            "sp = StandardPrime('ab', (1, 1))\n"
            f"for entry in {self.ENTRIES!r}:\n"
            "    try:\n        eval(entry)\n"
            "    except InputError as exc:\n        print(exc)\n"
        )
        src = Path(treepark.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=2,
            check=True,
        )
        assert done.stdout == "plane shape: vertex 'ab' is not a tuple of child shapes\n" * 5


class TestStandardize:
    def test_figure_example(self):
        tree = validate_rooted_tree([0, 3, 4, 1, 4])
        word, sp = standardize(tree, (2, 5, 3, 5, 2))
        assert word == (5, 1, 2, 4, 3)
        assert sp.prefs == (1, 3, 2, 3, 1)
        # root - 4 - {2 left, 3 right} - 1 below 2, under post-order labels
        assert sp.shape == ((((),), ()),)

    def test_singleton(self):
        word, sp = standardize(path_tree(1), (1,))
        assert word == (1,)
        assert sp == StandardPrime((), (1,))

    def test_rejects_non_prime(self):
        with pytest.raises(NotPrimeError):
            standardize(parse_rooted_tree("3 3 5 5 0"), (2, 2, 1, 4, 2))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_roundtrip_exhaustive(self, n):
        for tree, seq in iter_primes(n):
            word, sp = standardize(tree, seq)
            assert destandardize(word, sp) == (tree, seq)

    @pytest.mark.parametrize(
        "sp",
        [
            StandardPrime(((),), (1, 0)),  # preference 0 would wrap to the last label
            StandardPrime(((),), (1, 9)),
            StandardPrime(((),), (2, 2)),  # not prime: nobody parks at vertex 1
        ],
        ids=["zero", "nine", "not-prime"],
    )
    def test_destandardize_validates_the_pair(self, sp):
        with pytest.raises(NotStandardPrimeError):
            destandardize((1, 2), sp)

    def test_destandardize_checks_the_word_first(self):
        with pytest.raises(LengthMismatchError, match="permutation of length 3 for 2 vertices"):
            destandardize((1, 2, 3), StandardPrime(((),), (1, 9)))

    def test_validation_catches_wrong_sibling_order(self):
        # swapping the sibling order of a valid standard pair breaks it
        tree = validate_rooted_tree([0, 3, 4, 1, 4])
        _, sp = standardize(tree, (2, 5, 3, 5, 2))
        (kids,) = sp.shape
        flipped = ((kids[1], kids[0]),)
        relabeled_prefs = {1: 2, 2: 3, 3: 1}  # post-order labels move with the flip
        prefs = tuple(relabeled_prefs.get(p, p) for p in sp.prefs)
        with pytest.raises(NotStandardPrimeError):
            check_standard_prime(StandardPrime(flipped, prefs))


class TestEncode:
    def test_running_example(self):
        tree = validate_rooted_tree([2, 3, 4, 5, 8, 7, 8, 9, 0])
        prefs = (6, 4, 1, 3, 3, 1, 6, 7, 2)
        word, sp = standardize(tree, prefs)
        assert word == tuple(range(1, 10))  # already standard
        image = encode_prime(sp)
        assert format_plane_tree(image) == "*[6[3] 2[5 4] 8[7[1]]]"

    def test_running_example_marks(self):
        tree = validate_rooted_tree([2, 3, 4, 5, 8, 7, 8, 9, 0])
        _, sp = standardize(tree, (6, 4, 1, 3, 3, 1, 6, 7, 2))
        comps = decompose(sp)
        assert [c.drivers.elements for c in comps] == [(3, 6), (2, 4, 5), (1, 7, 8)]
        assert [c.drivers.marked for c in comps] == [6, 2, 8]
        assert [c.vertices for c in comps] == [(1, 2), (3, 4, 5), (6, 7, 8)]

    def test_singleton(self):
        assert encode_prime(StandardPrime((), (1,))) == LabeledPlaneTree(None, ())

    @pytest.mark.parametrize("n", range(1, 5))
    def test_image_labels_are_a_bijection(self, n):
        for tree, seq in iter_primes(n):
            _, sp = standardize(tree, seq)
            labels, _ = _flatten(encode_prime(sp))
            assert labels[0] is None and sorted(labels[1:]) == list(range(1, n))

    def test_decode_running_example(self):
        sp = decode_prime(parse_plane_tree("*[6[3] 2[5 4] 8[7[1]]]"))
        assert sp.prefs == (6, 4, 1, 3, 3, 1, 6, 7, 2)

    def test_rejects_non_standard(self):
        with pytest.raises(NotStandardPrimeError):
            encode_prime(StandardPrime((((),),), (1, 2, 3)))  # parking but not prime

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("*[1 *]", InputError, "unlabeled vertex below the root"),
            ("*[*]", InputError, "unlabeled vertex below the root"),
            ("*[2[*] 1]", InputError, "unlabeled vertex below the root"),
            ("*[1 3]", LabelOutOfRangeError, r"non-root labels \[1, 3\] are not a bijection onto 1..2"),
            ("2[1]", InputError, "root carries label 2; expected an unlabeled root"),
        ],
        ids=["inner-leaf", "only-child", "deep-leaf", "label-gap", "labeled-root"],
    )
    def test_decode_names_a_malformed_tree(self, text, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            decode_prime(parse_plane_tree(text))


def standard_pairs(n):
    """Every standard pair on n vertices, shape by shape."""
    from reference_census import reference_buckets, reference_standard_primes

    buckets = reference_buckets(n)
    for shape in enumerate_plane_trees(n):
        for seq in reference_standard_primes(shape, buckets):
            yield StandardPrime(shape, seq)


def random_plane_tree(rng, n):
    """A plane tree on n vertices with non-root labels a random bijection
    onto [n-1].  Each vertex hangs below a uniform earlier vertex, or below
    one of the last three for a deep tree."""
    deep = rng.random() < 0.5
    kids = [[] for _ in range(n)]
    for v in range(1, n):
        kids[max(0, v - 1 - rng.randrange(3)) if deep else rng.randrange(v)].append(v)
    names = list(range(1, n))
    rng.shuffle(names)
    return _labeled_tree([None] + names, kids)


class TestAgainstTheLevelEncoder:
    """The one-run encoding and decomposition give what the level-by-level
    reference gives, bit for bit."""

    def test_every_standard_pair_to_six(self):
        total = 0
        for n in range(1, 7):
            for sp in standard_pairs(n):
                assert encode_prime(sp) == reference_encode(sp), sp
                total += 1
        assert total == sum(factorial(n - 1) * catalan_number(n - 1) for n in range(1, 7)) == 5412

    @pytest.mark.parametrize("n", range(2, 6))
    def test_every_decomposition_to_five(self, n):
        for sp in standard_pairs(n):
            assert decompose(sp) == reference_decompose(sp), sp

    def test_random_pairs(self):
        rng = random.Random(20180917)
        for _ in range(100):
            plt = random_plane_tree(rng, rng.randint(2, 300))
            sp = decode_prime(plt)
            assert encode_prime(sp) == reference_encode(sp) == plt

    @pytest.mark.parametrize("n", [1200, 3000])
    def test_deep_paths(self, n):
        # The reference takes about 10 s on the two 3000-vertex paths, so
        # there the images are the ones it gives (checked once when the
        # one-run encoder was written): the identity path for the all-ones
        # prime, and the labeled path itself for its decoded pair.
        word = list(range(1, n))
        random.Random(n).shuffle(word)
        ones, labeled = standard_path_prime((1,) * n), decode_prime(labeled_path(word))
        images = [encode_prime(ones), encode_prime(labeled)]
        assert images == [labeled_path(range(1, n)), labeled_path(word)]
        if n < 2000:
            assert images == [reference_encode(ones), reference_encode(labeled)]


def star_tree(rng, n):
    """The root with n - 1 leaves, labels shuffled."""
    names = list(range(1, n))
    rng.shuffle(names)
    return _labeled_tree([None] + names, [list(range(1, n))] + [[] for _ in range(n - 1)])


def caterpillar_tree(rng, n):
    """A spine of 3/5 of the n vertices below the root, the other vertices
    leaves hung off random spine vertices at random places among their
    siblings, labels shuffled."""
    spine = 3 * n // 5
    kids = [[1]] + [[] for _ in range(n - 1)]
    for leaf in range(spine + 1, n):
        host = kids[rng.randrange(1, spine + 1)]
        host.insert(rng.randrange(len(host) + 1), leaf)
    for v in range(1, spine):
        kids[v].insert(rng.randrange(len(kids[v]) + 1), v + 1)
    names = list(range(1, n))
    rng.shuffle(names)
    return _labeled_tree([None] + names, kids)


def shuffled_path(rng, n):
    word = list(range(1, n))
    rng.shuffle(word)
    return labeled_path(word)


class TestShrinking:
    """The block lists against plain sorted lists, with the block size set
    low so that short lists are cut into many blocks, and at the earlier block
    size, 1024, and ``_BLOCK``."""

    @pytest.mark.parametrize("block", [1, 2, 3, 1024, _BLOCK])
    def test_against_a_plain_list(self, monkeypatch, block):
        monkeypatch.setattr(treepark.bijections, "_BLOCK", block)
        rng = random.Random(block)
        for _ in range(200):
            model = sorted(rng.sample(range(1, 60), rng.randint(1, 40)))
            seq = _Shrinking(list(model))
            assert len(seq.blocks) == -(-len(model) // block)
            while model:
                x = rng.randrange(62)
                assert seq.rank(x) == (model.index(x) if x in model else None)
                if rng.random() < 0.5:
                    r = rng.randrange(len(model))
                    assert seq.pop(r) == model.pop(r)
                else:
                    x = rng.choice(model)
                    assert seq.rank(x, drop=True) == model.index(x)
                    model.remove(x)
                assert [x for block in seq.blocks for x in block] == model

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_encoder_at_small_blocks(self, monkeypatch, block):
        monkeypatch.setattr(treepark.bijections, "_BLOCK", block)
        for n in range(1, 6):
            for sp in standard_pairs(n):
                assert encode_prime(sp) == fenwick_encode(*_checked(sp)), sp
        rng = random.Random(block)
        for _ in range(30):
            plt = random_plane_tree(rng, rng.randint(2, 200))
            assert encode_prime(decode_prime(plt)) == plt


class TestAgainstTheFenwickEncoder:
    """The block lists give what the Fenwick label pass gives, bit for bit, at
    the sizes first checked, 1000-5000, and where the root's lists fill one,
    two and four blocks of ``_BLOCK``."""

    SIZES = (1000, 2000, 5000, _BLOCK - 1, _BLOCK + 1, 3 * _BLOCK + 1)

    @staticmethod
    def check(plt):
        sp = decode_prime(plt)
        assert encode_prime(sp) == fenwick_encode(*_checked(sp)) == plt

    @pytest.mark.parametrize("n", SIZES)
    def test_paths(self, n):
        ones = standard_path_prime((1,) * n)
        assert encode_prime(ones) == fenwick_encode(*_checked(ones)) == labeled_path(range(1, n))
        self.check(shuffled_path(random.Random(n), n))

    @pytest.mark.parametrize("n", SIZES)
    def test_star(self, n):
        self.check(star_tree(random.Random(n), n))

    @pytest.mark.parametrize("n", (1000, 2000, 3000, _BLOCK - 1, _BLOCK + 1, 3 * _BLOCK + 1))
    def test_caterpillar(self, n):
        self.check(caterpillar_tree(random.Random(n), n))

    @pytest.mark.parametrize("n", SIZES)
    def test_random_pairs(self, n):
        rng = random.Random(n)
        for _ in range(3):
            self.check(random_plane_tree(rng, n))


class TestAgainstThePiecewiseDecoder:
    """The decoding gives what the piece-by-piece decoder it replaced gave
    (``reference_decode``), bit for bit: every labeled plane tree to six
    vertices, seeded random pairs, and the shapes that made that decoder
    slow, at 10^3 vertices."""

    @staticmethod
    def check(plt):
        sp = decode_prime(plt)
        parents, prefs = piecewise_decode(*_flatten(plt))
        assert (_checked(sp)[0], sp.prefs) == (parents, tuple(prefs)), format_plane_tree(plt)

    def test_every_labeled_plane_tree_to_six(self):
        total = 0
        for n in range(1, 7):
            for plt in enumerate_labeled_plane_trees(n):
                self.check(plt)
                total += 1
        assert total == sum(factorial(n - 1) * catalan_number(n - 1) for n in range(1, 7)) == 5412

    def test_random_pairs(self):
        rng = random.Random(20181101)
        for _ in range(300):
            self.check(random_plane_tree(rng, rng.randint(2, 400)))

    @pytest.mark.parametrize("shape", [shuffled_path, star_tree, caterpillar_tree])
    def test_shapes_at_a_thousand(self, shape):
        self.check(shape(random.Random(1000), 1000))

    @pytest.mark.parametrize("few", [0, 1, 3])
    def test_merges_by_sorting(self, monkeypatch, few):
        # with the cut set low, most merges sort instead of inserting
        monkeypatch.setattr(treepark.bijections, "_FEW", few)
        for n in range(1, 6):
            for plt in enumerate_labeled_plane_trees(n):
                self.check(plt)
        rng = random.Random(few)
        for _ in range(30):
            self.check(random_plane_tree(rng, rng.randint(2, 200)))


class TestGrowth:
    """10^4-vertex paths, star, caterpillar and random pair through both maps
    (no timing: the bench measures)."""

    N = 10**4

    def test_all_ones_path(self):
        tree, prefs = path_tree(self.N), (1,) * self.N
        word, plt = prime_to_pair(tree, prefs)
        assert plt == labeled_path(range(1, self.N))
        assert pair_to_prime(word, plt) == (tree, prefs)

    def test_labeled_path(self):
        rng = random.Random(self.N)
        labels, word = list(range(1, self.N)), list(range(1, self.N + 1))
        rng.shuffle(labels)
        rng.shuffle(word)
        plt = labeled_path(labels)
        tree, prefs = pair_to_prime(word, plt)
        assert len(set(tree.parents)) == self.N  # no vertex has two children: a path
        assert prime_to_pair(tree, prefs) == (tuple(word), plt)

    @pytest.mark.parametrize("shape, n", [(star_tree, N), (caterpillar_tree, N), (random_plane_tree, N)])
    def test_star_and_caterpillar(self, shape, n):
        rng = random.Random(n)
        plt, word = shape(rng, n), list(range(1, n + 1))
        rng.shuffle(word)
        tree, prefs = pair_to_prime(word, plt)
        assert prime_to_pair(tree, prefs) == (tuple(word), plt)


def post_order_parents(shape):
    """Oracle: the parent tuple of a plane shape under post-order labels, by
    recursion on the nested tuples."""
    parents = []

    def label(node):
        below = [label(child) for child in node]
        parents.append(0)
        for child in below:
            parents[child - 1] = len(parents)
        return len(parents)

    label(shape)
    return tuple(parents)


def without_run(sp):
    """A fresh copy of a standard pair, with no run attached."""
    return StandardPrime(sp.shape, sp.prefs)


def random_pairs(seed):
    """100 (permutation, plane tree) pairs on 2..300 vertices."""
    rng = random.Random(seed)
    for _ in range(100):
        plt = random_plane_tree(rng, rng.randint(2, 300))
        word = list(range(1, len(_flatten(plt)[0]) + 1))
        rng.shuffle(word)
        yield tuple(word), plt


class TestAttachedRun:
    """The run a built standard pair carries is the pair's own: the oracle
    parks the tree its shape spells under a recursive post-order labeling."""

    @staticmethod
    def assert_own_run(sp):
        parents, prefs, outcome = sp._run
        tree = RootedTree(post_order_parents(sp.shape))
        assert (tuple(parents[1:]), prefs) == (tree.parents, sp.prefs)
        assert outcome == run_parking(tree, sp.prefs)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_standardize_on_every_prime_pair_to_five(self, n):
        for tree, prefs in _iter_primes(n):
            word, sp = standardize(tree, prefs)
            self.assert_own_run(sp)
            if n < 5:  # two encodings of 40 320 pairs take seconds; the random pairs go larger
                assert prime_to_pair(tree, prefs) == (word, encode_prime(without_run(sp)))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_decode_prime_on_every_plane_tree_to_five(self, n):
        rng = random.Random(n)
        for plt in enumerate_labeled_plane_trees(n):
            sp = decode_prime(plt)
            self.assert_own_run(sp)
            word = rng.sample(range(1, n + 1), n)
            assert pair_to_prime(word, plt) == destandardize(word, without_run(sp))

    def test_random_pairs(self):
        for word, plt in random_pairs(20180917):
            sp = decode_prime(plt)
            self.assert_own_run(sp)
            tree, prefs = pair_to_prime(word, plt)
            assert (tree, prefs) == destandardize(word, without_run(sp))
            again, sp = standardize(tree, prefs)
            self.assert_own_run(sp)
            assert prime_to_pair(tree, prefs) == (again, encode_prime(without_run(sp))) == (word, plt)

    @pytest.mark.parametrize("built", ["standardize", "decode_prime"])
    def test_value_semantics_ignore_the_run(self, built):
        if built == "standardize":
            sp = standardize(validate_rooted_tree([0, 3, 4, 1, 4]), (2, 5, 3, 5, 2))[1]
        else:
            sp = decode_prime(parse_plane_tree("*[1 3 4[2]]"))
        plain = without_run(sp)
        assert "_run" in vars(sp) and "_run" not in vars(plain)
        assert dataclasses.fields(sp) == dataclasses.fields(plain)
        assert (repr(sp), hash(sp)) == (repr(plain), hash(plain))
        assert sp == plain == FIG_SP
        assert "_run" not in vars(dataclasses.replace(sp))
        for copied in (copy.copy(sp), pickle.loads(pickle.dumps(sp))):
            assert copied == sp
            assert encode_prime(copied) == encode_prime(plain) == parse_plane_tree("*[1 3 4[2]]")

    def test_readers_leave_the_run_alone(self):
        word, plt = next(random_pairs(5))
        for sp in (decode_prime(plt), standardize(*pair_to_prime(word, plt))[1]):
            run = sp._run
            kept = (list(run[0]), run[1], run[2])
            encode_prime(sp)
            decompose(sp)
            destandardize(word, sp)
            check_standard_prime(sp)
            assert sp._run is run and (run[0], run[1], run[2]) == kept


def walked(t):
    """The pre-order arrays of a tree's nested value, walked: the root is
    built again, so that it carries no flat form."""
    return _flatten(LabeledPlaneTree(t.label, t.children))


class TestCarriedForms:
    """A value the package builds carries its flat form.  The form is the
    nested value's own, and the value reads, compares, hashes, copies and
    pickles as the same value built by hand, which carries none."""

    @staticmethod
    def assert_as_by_hand(made, hand, copies=True):
        """``made()`` gives the package's value afresh, ``hand`` is built by
        hand; ``copies`` also checks what copying and pickling give."""
        assert made() == hand and hand == made() and hash(made()) == hash(hand)
        if copies:
            assert repr(made()) == repr(hand)
            for copied in (copy.copy(made()), copy.deepcopy(made()), pickle.loads(pickle.dumps(made())),
                           dataclasses.replace(made())):
                assert copied == hand and vars(copied) == vars(hand)

    def assert_tree(self, t, copies=True):
        hand = _labeled_tree(*_flatten(t))
        assert "_flat" in vars(t) and "_flat" not in vars(hand)
        assert _flatten(t) == walked(t) == _flatten(hand)
        self.assert_as_by_hand(lambda: t, hand, copies)

    # Copies and pickles are checked to n = 5: 372 trees of each kind.
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_enumerated_tree(self, n):
        for t in enumerate_labeled_plane_trees(n):
            self.assert_tree(t, copies=n <= 5)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_the_image_of_every_standard_pair(self, n):
        for sp in standard_pairs(n):
            self.assert_tree(encode_prime(sp), copies=n <= 5)

    def test_paths_and_relabelings(self):
        for word in [(), (1,), (3, 1, 2), tuple(range(40, 0, -1))]:
            self.assert_tree(labeled_path(word))
        for t in enumerate_labeled_plane_trees(4):
            self.assert_tree(parse_plane_tree(format_plane_tree(t)))
            self.assert_tree(post_order_relabel(parse_plane_tree(format_plane_tree(t).replace("*", "4")))[1])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_standard_pairs_build_their_shape_when_read(self, n):
        by_hand = {sp: sp for sp in standard_pairs(n)}
        built = [decode_prime(plt) for plt in enumerate_labeled_plane_trees(n)]
        assert all("shape" not in vars(sp) for sp in built)
        assert len({by_hand[sp] for sp in built}) == len(by_hand)  # == and hash, the shapes unread
        assert all("shape" not in vars(sp) for sp in built)
        for sp in built:
            hand = by_hand[sp]
            self.assert_as_by_hand(lambda: _standard_prime(*sp._run), hand, copies=n <= 5)  # shape unread
            assert sp.shape == hand.shape and "shape" in vars(sp)
            self.assert_as_by_hand(lambda: sp, hand, copies=n <= 5)
        assert dataclasses.fields(StandardPrime) == dataclasses.fields(without_run(built[0]))
        assert [f.name for f in dataclasses.fields(StandardPrime)] == ["shape", "prefs"]

    def test_a_missing_name_is_an_attribute_error(self):
        sp = decode_prime(parse_plane_tree("*[1 3 4[2]]"))
        assert not hasattr(sp, "nope") and getattr(sp, "nope", 5) == 5
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            sp.nope
        assert "shape" not in vars(sp)


class TestComposedMap:
    def test_singleton(self):
        word, plt = prime_to_pair(path_tree(1), (1,))
        assert word == (1,)
        assert plt == LabeledPlaneTree(None, ())

    def test_n2_image_is_everything(self):
        images = {prime_to_pair(t, s) for t, s in iter_primes(2)}
        assert images == {
            ((1, 2), LabeledPlaneTree(None, (LabeledPlaneTree(1),))),
            ((2, 1), LabeledPlaneTree(None, (LabeledPlaneTree(1),))),
        }

    @pytest.mark.parametrize("n", range(1, 5))
    def test_image_count(self, n):
        images = {prime_to_pair(t, s) for t, s in iter_primes(n)}
        assert len(images) == factorial(2 * n - 2)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_roundtrip(self, n):
        for tree, seq in iter_primes(n):
            word, plt = prime_to_pair(tree, seq)
            assert pair_to_prime(word, plt) == (tree, seq)

    def test_pieces_need_not_be_label_runs(self):
        # Smallest pairs whose final-walk pieces are not consecutive label
        # runs (a left sibling hangs below the walk); the rank-based label
        # correspondence must still round-trip them.
        sp = StandardPrime(((((), ((),)),),), (1, 2, 3, 3, 1, 2))
        comps = decompose(sp)
        assert [c.vertices for c in comps] == [(2,), (1, 3, 4, 5)]
        assert decode_prime(encode_prime(sp)) == sp

        tree = validate_rooted_tree([3, 1, 7, 0, 4, 7, 5])
        seq = (6, 2, 2, 3, 3, 6, 1)
        word, plt = prime_to_pair(tree, seq)
        assert pair_to_prime(word, plt) == (tree, seq)

    def test_encode_decode_exhaustive_n6(self):
        # all 5! * Catalan(5) standard pairs, including every non-run case
        total = 0
        for sp in standard_pairs(6):
            total += 1
            assert decode_prime(encode_prime(sp)) == sp
        assert total == factorial(5) * catalan_number(5)

    def test_roundtrip_random_larger(self):
        # prime pairs are rare (about 1 in 50 at n=5), so sample by rejection
        import random

        rng = random.Random(271828)
        found = 0
        while found < 150:
            n = rng.randint(5, 7)
            labels = list(range(1, n + 1))
            rng.shuffle(labels)
            parents = [0] * n
            for i in range(1, n):
                parents[labels[i] - 1] = labels[rng.randrange(i)]
            tree = validate_rooted_tree(parents)
            seq = tuple(rng.randint(1, n) for _ in range(n))
            if not is_prime(tree, seq):
                continue
            found += 1
            word, plt = prime_to_pair(tree, seq)
            assert pair_to_prime(word, plt) == (tree, seq)


class TestStandardCensus:
    """Counting standard pairs directly over shapes and sequences."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_standard_prime_count(self, n):
        found = 0
        for shape in enumerate_plane_trees(n):
            for seq in product(range(1, n + 1), repeat=n):
                try:
                    check_standard_prime(StandardPrime(shape, seq))
                except NotStandardPrimeError:
                    continue
                found += 1
        assert found == factorial(n - 1) * catalan_number(n - 1)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_prime_count_factors(self, n):
        # primes on n vertices = n! times the number of standard pairs
        primes = sum(1 for _ in iter_primes(n))
        standard = {standardize(t, s)[1] for t, s in iter_primes(n)}
        assert primes == factorial(n) * len(standard)


class TestPatternAvoidance:
    def test_51243_contains_132(self):
        assert not is_132_avoiding((5, 1, 2, 4, 3))

    def test_identity_avoids(self):
        assert is_132_avoiding(tuple(range(1, 8)))

    def test_count_at_n4(self):
        avoiders = [w for w in permutations(range(1, 5)) if is_132_avoiding(w)]
        assert len(avoiders) == 14

    @given(st.permutations(list(range(1, 9))))
    def test_matches_brute_force(self, word):
        assert is_132_avoiding(tuple(word)) == (not has_132_brute(tuple(word)))

    def test_scan_matches_every_triple_to_eight(self):
        # the scan shared by is_132_avoiding, borie_map and theorem53_suite
        for n in range(9):
            for word in permutations(range(1, n + 1)):
                assert _avoids_132(word) == (not has_132_brute(word)), word


def borie_loops(word):
    """Oracle: the statistic map by its definition, two quadratic loops."""
    n = len(word)
    left_larger = [sum(1 for j in range(i) if word[j] > word[i]) for i in range(n)]
    return tuple(sum(1 for c in left_larger if c >= m) + 1 for m in range(n, 0, -1))


def avoiders_132(n):
    """Every 132-avoiding permutation of [n]: the letters left of n are all
    larger than those right of it, and both sides avoid 132."""
    if n == 0:
        yield ()
        return
    for k in range(n):
        for left in avoiders_132(k):
            for right in avoiders_132(n - 1 - k):
                yield tuple(x + n - 1 - k for x in left) + (n,) + right


class TestBorieMap:
    def test_avoiders_are_every_132_avoider_to_seven(self):
        for n in range(8):
            assert sorted(avoiders_132(n)) == [
                w for w in permutations(range(1, n + 1)) if not has_132_brute(w)
            ]

    def test_one_pass_matches_the_loops_to_nine(self):
        total = 0
        for n in range(10):
            for word in avoiders_132(n):
                assert borie_map(word) == borie_loops(word), word
                total += 1
        assert total == sum(catalan_number(n) for n in range(10)) == 6918

    def test_identity_two(self):
        assert borie_map((1, 2)) == (1, 1)

    def test_descent_two(self):
        assert borie_map((2, 1)) == (1, 2)

    def test_rejects_pattern(self):
        with pytest.raises(Not132AvoidingError):
            borie_map((1, 3, 2))

    def test_bijective_onto_increasing_parking_functions_n3(self):
        images = {
            borie_map(w) for w in permutations(range(1, 4)) if is_132_avoiding(w)
        }
        expected = {
            s
            for s in product(range(1, 4), repeat=3)
            if tuple(sorted(s)) == s and is_parking_distribution(path_tree(3), s)
        }
        assert images == expected
        assert len(images) == 5


def counted_preimage(word):
    """Oracle: the path preimage by its definition, counting for each place
    the smaller letters to its right, from the last place to the first."""
    n = len(word)
    seq = [1]
    for pivot in range(n, 0, -1):
        seq.append(1 + sum(1 for j in range(pivot, n) if word[j] < word[pivot - 1]))
    return tuple(seq)


class TestPathPreimages:
    def test_hand_values(self):
        assert path_preimage_seq((1, 2)) == (1, 1, 1)
        assert path_preimage_seq((2, 1)) == (1, 1, 2)

    def test_growth_and_prime(self):
        for word in permutations(range(1, 5)):
            seq = path_preimage_seq(word)
            assert seq[0] == 1
            assert all(seq[i] <= i for i in range(1, len(seq)))
            assert is_prime(path_tree(len(seq)), seq)

    def test_image_is_the_labeled_path(self):
        for word in permutations(range(1, 5)):
            seq = path_preimage_seq(word)
            image = encode_prime(standard_path_prime(seq))
            assert image == labeled_path(word)

    def test_all_paths_occur(self):
        images = {
            encode_prime(standard_path_prime(path_preimage_seq(w)))
            for w in permutations(range(1, 5))
        }
        assert len(images) == 24

    @pytest.mark.parametrize("n", range(8))
    def test_every_word_against_the_count(self, n):
        for word in permutations(range(1, n + 1)):
            assert path_preimage_seq(word) == counted_preimage(word), word

    def test_seeded_words_against_the_count(self):
        rng = random.Random(1000)
        for _ in range(5):
            word = list(range(1, 1001))
            rng.shuffle(word)
            assert path_preimage_seq(word) == counted_preimage(word)

    def test_ten_thousand_letters(self):
        # no timing; at this size the counting loop takes seconds, the block list milliseconds
        word = list(range(1, 10**4 + 1))
        random.Random(10**4).shuffle(word)
        assert encode_prime(standard_path_prime(path_preimage_seq(word))) == labeled_path(word)


class TestTheoremAgreement:
    """The statistic map equals the decoded labeled path minus its leading 1."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_agreement(self, n):
        for word in permutations(range(1, n + 1)):
            if not is_132_avoiding(word):
                continue
            sp = decode_prime(labeled_path(word))
            assert sp.prefs[0] == 1
            assert borie_map(word) == sp.prefs[1:]
            assert sp.prefs == path_preimage_seq(word)
