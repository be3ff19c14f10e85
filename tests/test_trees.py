"""Tree representations, validation, traversal, and enumeration."""

import heapq
import tracemalloc
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

import reference_parse
import treepark
from treepark import (
    CycleDetectedError,
    LabeledPlaneTree,
    LabelOutOfRangeError,
    MultipleRootsError,
    NoRootError,
    RootedTree,
    VertexOutOfRangeError,
    decode_prime,
    enumerate_labeled_plane_trees,
    enumerate_plane_trees,
    enumerate_rooted_trees,
    format_plane_tree,
    format_rooted_tree,
    format_word,
    parse_permutation,
    parse_plane_tree,
    parse_preferences,
    parse_rooted_tree,
    path_tree,
    post_order_relabel,
    subtree_size,
    validate_rooted_tree,
)
from treepark.errors import InputError
from treepark.trees import _flatten, _shape_parents


def brute_subtree_size(tree: RootedTree, v: int) -> int:
    """Independent oracle: count vertices whose parent chain passes through v."""
    hits = 0
    for u in range(1, tree.n + 1):
        w = u
        while True:
            if w == v:
                hits += 1
                break
            w = tree.parents[w - 1]
            if w == 0:
                break
    return hits


def reference_rooted_trees(n: int):
    """The former enumeration, kept as the oracle: each Pruefer word decoded
    to an edge list, then oriented towards every root by a depth-first search."""
    if n == 1:
        yield RootedTree((0,))
        return
    for word in product(range(1, n + 1), repeat=n - 2):
        degree = [1] * (n + 1)
        for a in word:
            degree[a] += 1
        heap = [v for v in range(1, n + 1) if degree[v] == 1]
        heapq.heapify(heap)
        edges = []
        for a in word:
            leaf = heapq.heappop(heap)
            edges.append((leaf, a))
            degree[leaf] -= 1
            degree[a] -= 1
            if degree[a] == 1:
                heapq.heappush(heap, a)
        edges.append((heapq.heappop(heap), heapq.heappop(heap)))
        adjacent = [[] for _ in range(n + 1)]
        for u, v in edges:
            adjacent[u].append(v)
            adjacent[v].append(u)
        for root in range(1, n + 1):
            parents = [0] * n
            stack, seen = [root], {root}
            while stack:
                u = stack.pop()
                for w in adjacent[u]:
                    if w not in seen:
                        seen.add(w)
                        parents[w - 1] = u
                        stack.append(w)
            yield RootedTree(tuple(parents))


def reference_compositions(total: int):
    """Ordered positive parts of ``total``, smallest first part first."""
    if total == 0:
        yield ()
    for first in range(1, total + 1):
        for rest in reference_compositions(total - first):
            yield (first, *rest)


REFERENCE_SHAPES = [(), ((),)]


def reference_plane_trees(n: int):
    """The former enumeration, kept as the oracle of its order: every size up
    to n built in full and held, a root over the product of the shapes of
    each composition of n - 1."""
    while len(REFERENCE_SHAPES) <= n:
        k = len(REFERENCE_SHAPES)
        REFERENCE_SHAPES.append(
            tuple(
                combo
                for sizes in reference_compositions(k - 1)
                for combo in product(*(REFERENCE_SHAPES[size] for size in sizes))
            )
        )
    return REFERENCE_SHAPES[n]


def catalan_by_recursion(k: int) -> int:
    """Oracle for Catalan numbers via C_n = sum C_i C_{n-1-i}."""
    values = [1]
    for n in range(1, k + 1):
        values.append(sum(values[i] * values[n - 1 - i] for i in range(n)))
    return values[k]


class TestValidation:
    def test_figure_tree(self):
        tree = validate_rooted_tree([3, 3, 5, 5, 0])
        assert tree.root == 5
        assert tree.parents[0] == 3 and tree.parents[3] == 5

    def test_singleton(self):
        assert validate_rooted_tree([0]).n == 1

    def test_two_vertices(self):
        assert validate_rooted_tree([2, 0]).root == 2

    def test_multiple_roots(self):
        with pytest.raises(MultipleRootsError):
            validate_rooted_tree([0, 0])

    def test_no_root(self):
        with pytest.raises(NoRootError):
            validate_rooted_tree([])

    def test_cycle_names_vertex(self):
        with pytest.raises(CycleDetectedError, match="vertex 2"):
            validate_rooted_tree([2, 3, 2])

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRangeError, match="vertex 2"):
            validate_rooted_tree([0, 7])

    def test_text_roundtrip(self):
        text = "3 3 5 5 0"
        assert format_rooted_tree(parse_rooted_tree(text)) == text

    def test_hash_is_the_field_tuple_hash(self):
        # the hash the dataclass would generate, for every tree on 4 vertices
        for tree in enumerate_rooted_trees(4):
            assert hash(tree) == hash((tree.parents,))
        assert len({RootedTree((2, 0)), RootedTree((2, 0)), RootedTree((0, 1))}) == 2


class TestSubtreeSize:
    def test_figure_value(self):
        tree = validate_rooted_tree([3, 3, 5, 5, 0])
        assert subtree_size(tree, 3) == 3

    def test_root_and_leaf(self):
        tree = validate_rooted_tree([3, 3, 5, 5, 0])
        assert subtree_size(tree, 5) == tree.n
        assert subtree_size(tree, 1) == 1

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            subtree_size(path_tree(3), 4)

    def test_against_brute_force(self):
        for tree in enumerate_rooted_trees(4):
            for v in range(1, 5):
                assert subtree_size(tree, v) == brute_subtree_size(tree, v)


class TestPathTree:
    def test_five(self):
        assert path_tree(5).parents == (2, 3, 4, 5, 0)

    def test_small(self):
        assert path_tree(1).parents == (0,)
        assert path_tree(2).parents == (2, 0)


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_rooted_tree_count_and_distinctness(self, n):
        trees = list(enumerate_rooted_trees(n))
        assert len(trees) == n ** (n - 1)
        assert len(set(t.parents for t in trees)) == len(trees)
        for t in trees:
            validate_rooted_tree(list(t.parents))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rooted_trees_match_the_edge_list_reference(self, n):
        assert list(enumerate_rooted_trees(n)) == list(reference_rooted_trees(n))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_plane_tree_count(self, n):
        shapes = list(enumerate_plane_trees(n))
        assert len(shapes) == catalan_by_recursion(n - 1)
        assert len(set(shapes)) == len(shapes)
        assert all(len(_shape_parents(s)) - 1 == n for s in shapes)

    def test_plane_trees_n3(self):
        # the path and the two-child star
        assert set(enumerate_plane_trees(3)) == {(((),),), ((), ())}

    def test_labeled_plane_tree_count(self):
        trees = list(enumerate_labeled_plane_trees(4))
        assert len(trees) == catalan_by_recursion(3) * 6
        assert len(set(trees)) == len(trees)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_labeled_plane_trees_match_a_recursive_reference(self, n):
        def build(shape, labels, label=None):
            return LabeledPlaneTree(label, tuple(build(c, labels, next(labels)) for c in shape))

        expected = [
            build(shape, iter(word))
            for shape in reference_plane_trees(n)
            for word in permutations(range(1, n))
        ]
        assert list(enumerate_labeled_plane_trees(n)) == expected

    @pytest.mark.parametrize("n", range(1, 11))
    def test_plane_trees_come_in_the_former_order(self, n):
        assert list(enumerate_plane_trees(n)) == list(reference_plane_trees(n))

    def test_a_large_size_streams(self):
        # n = 14 first: an enumeration that holds every shape fails there, at
        # ~90 MB, before n = 40 could exhaust memory
        for n in (14, 40):
            tracemalloc.start()
            try:
                shapes = enumerate_plane_trees(n)
                first, second = next(shapes), next(shapes)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert first == ((),) * (n - 1)  # the star
            assert second == ((),) * (n - 3) + (((),),)
            assert peak < 100_000

    def test_a_long_forest_nests_no_deeper_than_its_shapes(self):
        # the star's forest has n - 1 trees; one generator nested per tree
        # would pass the default recursion limit of 1000
        shapes = enumerate_plane_trees(3000)
        assert next(shapes) == ((),) * 2999
        assert next(shapes) == ((),) * 2997 + (((),),)


class TestPostOrder:
    def test_figure_relabeling(self):
        # root 1, child 4; 4's children 3 (left) and 5 (right); 3's child 2
        tree = LabeledPlaneTree(
            1,
            (
                LabeledPlaneTree(
                    4,
                    (
                        LabeledPlaneTree(3, (LabeledPlaneTree(2),)),
                        LabeledPlaneTree(5),
                    ),
                ),
            ),
        )
        word, relabeled = post_order_relabel(tree)
        assert word == (5, 1, 2, 4, 3)
        assert relabeled.label == 5

    def test_idempotent(self):
        tree = LabeledPlaneTree(
            3, (LabeledPlaneTree(1), LabeledPlaneTree(4, (LabeledPlaneTree(2),)))
        )
        _, once = post_order_relabel(tree)
        word, twice = post_order_relabel(once)
        assert word == tuple(range(1, 5))
        assert twice == once

    def test_left_path(self):
        tree = LabeledPlaneTree(1, (LabeledPlaneTree(2, (LabeledPlaneTree(3),)),))
        word, _ = post_order_relabel(tree)
        assert word == (3, 2, 1)

    def test_shape_parents_root_is_last(self):
        for shape in enumerate_plane_trees(5):
            parents = _shape_parents(shape)
            assert len(parents) == 6 and parents[5] == 0
            assert all(1 <= parents[v] <= 5 for v in range(1, 5))


class TestOneFlatten:
    """Each boundary that reads a labeled plane tree flattens it once and
    hands the same arrays to its check and to its work."""

    @pytest.fixture
    def flattens(self, monkeypatch):
        calls = []
        real = treepark.trees._flatten

        def counting(t):
            calls.append(t)
            return real(t)

        monkeypatch.setattr(treepark.trees, "_flatten", counting)
        monkeypatch.setattr(treepark.bijections, "_flatten", counting)
        return calls

    def test_decode_prime(self, flattens):
        plt = parse_plane_tree("*[6[3] 2[5 4] 8[7[1]]]")
        assert decode_prime(plt).prefs == (6, 4, 1, 3, 3, 1, 6, 7, 2)
        assert flattens == [plt]

    def test_post_order_relabel(self, flattens):
        tree = parse_plane_tree("1[4[3[2] 5]]")
        assert post_order_relabel(tree)[0] == (5, 1, 2, 4, 3)
        assert flattens == [tree]


def test_a_plane_tree_with_an_unhashable_label_refuses_a_hash():
    # a set hashes its members, so it names the label list too
    tree = LabeledPlaneTree(None, (LabeledPlaneTree([1]),))
    for call in (hash, lambda t: {t}):
        with pytest.raises(InputError) as caught:
            call(tree)
        assert type(caught.value) is InputError
        assert str(caught.value) == "plane tree: labels [None, [1]] are not all hashable"


class TestWordText:
    """A refused token or entry is named alone: the message never echoes
    the whole payload, nor writes an integer too long for ``str``."""

    def test_a_bad_token_is_named_alone(self):
        with pytest.raises(InputError, match=r"^tree: expected whitespace-separated integers, got 'x'$"):
            parse_rooted_tree("1 " * 10**5 + "x")

    @pytest.mark.parametrize(
        "parse, what", [(parse_rooted_tree, "tree"), (parse_preferences, "sequence"), (parse_permutation, "permutation")]
    )
    def test_a_long_bad_token_is_cut_to_ten_characters(self, parse, what):
        with pytest.raises(InputError) as raised:
            parse("1 2 " + "y" * 10**5 + " 3")
        assert str(raised.value) == f"{what}: expected whitespace-separated integers, got 'yyyyyyyyyy'... of 100000 characters"

    def test_a_word_entry_too_long_to_write(self):
        with pytest.raises(InputError, match=r"^word entry 2 has 14617 bits, too many digits to write$"):
            format_word((1, 10**4400))


class TestPlaneTreeText:
    def test_figure_output_string(self):
        text = "*[6[3] 2[5 4] 8[7[1]]]"
        assert format_plane_tree(parse_plane_tree(text)) == text

    def test_singleton(self):
        assert parse_plane_tree("*") == LabeledPlaneTree(None, ())

    def test_rejects_garbage(self):
        for bad in ("", "*[", "*[]", "* 1", "*[1] x"):
            with pytest.raises(InputError):
                parse_plane_tree(bad)

    def test_a_parsed_tree_carries_its_arrays(self):
        tree = parse_plane_tree("*[6[3] 2[5 4] 8[7[1]]]")
        assert set(vars(tree)) == {"label", "_flat"}
        assert _flatten(tree) == ((None, 6, 3, 2, 5, 4, 8, 7, 1), ((1, 3, 6), (2,), (), (4, 5), (), (), (7,), (8,), ()))
        assert [c.label for c in tree.children] == [6, 2, 8] and "children" in vars(tree)

    def test_matches_the_reference_parser(self):
        # every string of up to six tokens: the same flat form, or the same error
        def outcome(parse, text):
            try:
                return _flatten(parse(text))
            except Exception as exc:
                return type(exc), str(exc)

        alphabet = ("*", "1", "12", "[", "]", " ", "x")
        texts = ["".join(word) for k in range(7) for word in product(alphabet, repeat=k)]
        assert len(texts) == 137_257
        parsed = [outcome(parse_plane_tree, text) for text in texts]
        assert parsed == [outcome(reference_parse.parse_plane_tree, text) for text in texts]
        assert sum(type(found[0]) is tuple for found in parsed) == 1050  # the trees among them

    def test_a_label_too_long_to_read(self):
        # the reference lets ``int``'s own ValueError through
        text = "*[1" + "0" * 4400 + "]"
        with pytest.raises(ValueError) as raised:
            reference_parse.parse_plane_tree(text)
        assert not isinstance(raised.value, InputError)
        with pytest.raises(InputError, match=r"^plane tree: label 1000000000\.\.\. of 4401 digits is too long$"):
            parse_plane_tree(text)

    def test_a_label_too_long_to_write(self):
        tree = LabeledPlaneTree(None, (LabeledPlaneTree(1), LabeledPlaneTree(10**4400)))
        with pytest.raises(InputError, match=r"^plane tree: label 3 in pre-order has 14617 bits, too many digits to write$"):
            format_plane_tree(tree)

    def test_repr_of_a_label_too_long_to_write(self):
        with pytest.raises(InputError, match=r"^plane tree: label 1 in pre-order has 14617 bits, too many digits to write$"):
            repr(LabeledPlaneTree(10**4400))

    @given(st.integers(1, 5), st.data())
    def test_roundtrip_random(self, n, data):
        trees = list(enumerate_labeled_plane_trees(n))
        tree = data.draw(st.sampled_from(trees))
        assert parse_plane_tree(format_plane_tree(tree)) == tree
