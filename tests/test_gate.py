"""The input gate: every public function, and every CLI subcommand, either
answers or refuses a bad input with a named ``InputError`` subclass."""

import argparse
import contextlib
import inspect
import io
import itertools
import operator
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import treepark
from treepark import (
    BranchUndefinedError,
    CycleDetectedError,
    IDENTITY_NAMES,
    InputError,
    InvalidShardError,
    LabeledPlaneTree,
    LabelOutOfRangeError,
    LengthMismatchError,
    LimitExceededError,
    MarkedSet,
    NoRootError,
    NotStandardPrimeError,
    OrderMismatchError,
    RootedTree,
    Series,
    StandardPrime,
    VertexOutOfRangeError,
    census,
    census_counts,
    check_identities,
    check_identity,
    decode_prime,
    encode_prime,
    format_plane_tree,
    format_word,
    is_prime,
    labeled_path,
    pair_to_prime,
    park,
    parking_count,
    parking_series,
    parse_plane_tree,
    parse_rooted_tree,
    path_tree,
    roundtrip_suite,
    standard_path_prime,
    standardize,
    subtree_size,
    validate_rooted_tree,
)
from treepark.cli import build_parser, main
from treepark.trees import check_permutation

# An int with more digits than ``str`` writes, and how a refusal names it.
BIG, SHOWN = 10**4400, "<int of 14617 bits>"

# Each bad call with the exact error class its call site raises, and the bad
# value the message must name.
REPRODUCTIONS = [
    ("park-two-cycle", lambda: park(RootedTree((2, 1)), (1, 1)), CycleDetectedError, "vertex 1"),
    ("shard-float", lambda: census_counts(3, shard=(0.5, 2)), InvalidShardError, "0.5"),
    ("labeled-path-float", lambda: labeled_path((1.0,)), InputError, "1.0"),
    ("subtree-size-bool", lambda: subtree_size(path_tree(3), True), VertexOutOfRangeError, "True"),
    ("is-prime-self-loop", lambda: is_prime(RootedTree((1, 0)), (1, 1)), CycleDetectedError, "vertex 1"),
    ("is-prime-parent-range", lambda: is_prime(RootedTree((3, 0)), (1, 1)), LabelOutOfRangeError, "parent 3"),
    ("park-float-parent", lambda: park(RootedTree((2.0, 0)), (1, 1)), LabelOutOfRangeError, "2.0"),
    ("standardize-float", lambda: standardize(path_tree(2), (1, 1.0)), LabelOutOfRangeError, "1.0"),
    ("park-bool", lambda: park(path_tree(2), (True, 1)), LabelOutOfRangeError, "True"),
    ("validate-bool", lambda: validate_rooted_tree((True, 0)), LabelOutOfRangeError, "True"),
    (
        "decode-str-label",
        lambda: decode_prime(LabeledPlaneTree(None, (LabeledPlaneTree("a"), LabeledPlaneTree(1)))),
        LabelOutOfRangeError,
        "'a'",
    ),
    ("encode-float", lambda: encode_prime(StandardPrime(((),), (1.0, 1))), NotStandardPrimeError, "1.0"),
    ("standardize-float-2", lambda: standardize(path_tree(2), (1, 2.0)), LabelOutOfRangeError, "2.0"),
    ("pair-to-prime-float", lambda: pair_to_prime((1.0, 2), parse_plane_tree("*[1]")), InputError, "1.0"),
    ("decode-int-child", lambda: decode_prime(LabeledPlaneTree(None, (5,))), InputError, "5"),
    ("park-no-prefs", lambda: park(path_tree(2), None), LabelOutOfRangeError, "None"),
    ("park-length-before-range", lambda: park(path_tree(2), (5,)), LengthMismatchError, "1 preferences"),
    (
        "encode-length-before-range",
        lambda: encode_prime(StandardPrime(((),), (5,))),
        LengthMismatchError,
        "1 preferences",
    ),
    ("park-not-a-tree", lambda: park((2, 0), (1, 1)), InputError, "(2, 0)"),
    ("park-list-parents", lambda: park(RootedTree([2, 0]), (1, 1)), InputError, "[2, 0]"),
    ("subtree-size-float", lambda: subtree_size(path_tree(3), 1.5), VertexOutOfRangeError, "1.5"),
    ("standard-path-prime-empty", lambda: standard_path_prime(()), VertexOutOfRangeError, "()"),
    ("standard-path-prime-not-prime", lambda: standard_path_prime((2, 2)), NotStandardPrimeError, "not prime"),
    ("standard-path-prime-zero-first", lambda: standard_path_prime((2, 0)), LabelOutOfRangeError, "0"),
    ("format-plane-tree-none", lambda: format_plane_tree(None), InputError, "None"),
    ("format-word-none", lambda: format_word(None), InputError, "None"),
    ("children-not-a-tuple", lambda: format_plane_tree(LabeledPlaneTree(1, None)), InputError, "None"),
    (
        "format-plane-tree-text-label",
        lambda: format_plane_tree(LabeledPlaneTree(None, (LabeledPlaneTree("2[3]"),))),
        InputError,
        "'2[3]'",
    ),
    ("plane-tree-repr-bool-label", lambda: repr(LabeledPlaneTree(True)), InputError, "True"),
    ("format-plane-tree-negative-label", lambda: format_plane_tree(LabeledPlaneTree(-5)), InputError, "-5"),
    ("format-plane-tree-float-label", lambda: format_plane_tree(LabeledPlaneTree(1.5)), InputError, "1.5"),
    ("encode-none", lambda: encode_prime(None), NotStandardPrimeError, "None"),
    ("series-none", lambda: Series((None,)), InputError, "None"),
    ("identity-list", lambda: check_identity(["x"], 3), InputError, "['x']"),
    ("parse-tree-none", lambda: parse_rooted_tree(None), InputError, "None"),
    ("parse-plane-tree-none", lambda: parse_plane_tree(None), InputError, "None"),
    ("suite-float", lambda: roundtrip_suite(2.0), InputError, "2.0"),
    ("census-str", lambda: census_counts("3"), LimitExceededError, "'3'"),
    ("truncate-negative", lambda: Series((1, 2, 3)).truncate(-2), OrderMismatchError, "-2"),
    ("constant-negative-order", lambda: Series.constant(1, -3), OrderMismatchError, "-3"),
    ("constant-float-order", lambda: Series.constant(1, 2.5), OrderMismatchError, "2.5"),
    ("coefficient-float", lambda: Series((1, 2, 3)).coefficient(1.5), OrderMismatchError, "1.5"),
    ("coefficient-bool", lambda: Series((1, 2, 3)).coefficient(True), OrderMismatchError, "True"),
    ("marked-set-decreasing", lambda: MarkedSet((3, 1), 1), InputError, "(3, 1)"),
    ("marked-set-repeated", lambda: MarkedSet((1, 1), 1), InputError, "(1, 1)"),
    ("identity-names-str", lambda: check_identities(3, "parking-gf"), InputError, "'parking-gf'"),
    ("series-add-str", lambda: Series((1, 2)) + "a", InputError, "'a'"),
    ("series-radd-str", lambda: "a" + Series((1, 2)), InputError, "'a'"),
    ("series-sub-none", lambda: Series((1, 2)) - None, InputError, "None"),
    ("series-rsub-none", lambda: None - Series((1, 2)), InputError, "None"),
    ("series-mul-list", lambda: Series((1, 2)) * [1], InputError, "[1]"),
    ("scale-argument-none", lambda: Series((1, 2)).scale_argument(None), InputError, "None"),
    ("integral-str", lambda: Series((1, 2)).integral("x"), InputError, "'x'"),
    ("constant-str", lambda: Series.constant("x", 2), InputError, "'x'"),
    ("compose-int", lambda: Series((1, 2)).compose(3), InputError, "3"),
    ("root-without-zero", lambda: RootedTree((1,)).root, NoRootError, "(1,)"),
    ("size-of-none", lambda: RootedTree(None).n, InputError, "None"),
    ("hash-list-parents", lambda: hash(RootedTree([2, 0])), InputError, "[2, 0]"),
    ("hash-list-entry", lambda: hash(RootedTree((2, [0]))), InputError, "(2, [0])"),
    ("root-of-none", lambda: RootedTree(None).root, InputError, "None"),
    ("root-of-str", lambda: RootedTree("a0").root, InputError, "'a0'"),
    ("standard-prime-repr-int-shape", lambda: repr(StandardPrime(5, (1,))), InputError, "vertex 5"),
    ("standard-prime-hash-list", lambda: hash(StandardPrime(((),), [1, 1])), InputError, "[1, 1]"),
    # order -1: what derivative() of a constant and shift_down() of (0,) return
    ("exp-order-minus-one", lambda: Series((5,)).derivative().exp(), OrderMismatchError, "order -1"),
    ("log-order-minus-one", lambda: Series((5,)).derivative().log(), OrderMismatchError, "order -1"),
    ("sqrt-order-minus-one", lambda: Series((0,)).shift_down().sqrt(), OrderMismatchError, "order -1"),
    ("inverse-order-minus-one", lambda: Series(()).inverse(), OrderMismatchError, "order -1"),
    ("shift-down-order-minus-one", lambda: Series((0,)).shift_down().shift_down(), OrderMismatchError, "order -1"),
    ("compose-order-minus-one", lambda: Series((0, 1)).compose(Series(())), OrderMismatchError, "and -1"),
    ("compose-onto-order-minus-one", lambda: Series(()).compose(Series((0, 1))), OrderMismatchError, "orders -1"),
    ("add-to-order-minus-one", lambda: Series(()) + 1, OrderMismatchError, "order -1"),
    ("sqrt-negative", lambda: Series((-4, 1)).sqrt(), BranchUndefinedError, "-4"),
    ("big-parent", lambda: validate_rooted_tree((BIG,)), LabelOutOfRangeError, f"parent {SHOWN} outside"),
    ("big-permutation-entry", lambda: check_permutation((BIG,)), InputError, f"[{SHOWN}] is not a permutation"),
    ("big-preference", lambda: park(path_tree(2), (BIG, 1)), LabelOutOfRangeError, f"preference {SHOWN} outside"),
    ("big-path-label", lambda: labeled_path((BIG,)), InputError, f"[{SHOWN}] is not a permutation"),
    ("big-vertex", lambda: subtree_size(path_tree(3), BIG), VertexOutOfRangeError, f"vertex {SHOWN} outside"),
    ("big-census", lambda: census(BIG), LimitExceededError, f"n <= 7, got {SHOWN}"),
    ("big-census-counts", lambda: census_counts(BIG), LimitExceededError, f"n <= 7, got {SHOWN}"),
    ("big-shard", lambda: census_counts(3, shard=(BIG, 1)), InvalidShardError, f"shard ({SHOWN}, 1)"),
    ("big-suite", lambda: roundtrip_suite(BIG), LimitExceededError, "guarded to n <= 4"),
    ("big-negative-suite", lambda: roundtrip_suite(-BIG), InputError, f"got n=<negative {SHOWN[1:]}"),
    ("big-negative-order", lambda: check_identity("parking-gf", -BIG), OrderMismatchError, f"<negative {SHOWN[1:]}"),
    ("big-negative-count", lambda: parking_count(-BIG), OrderMismatchError, f"got <negative {SHOWN[1:]}"),
    ("big-coefficient", lambda: parking_series(5).coefficient(BIG), OrderMismatchError, f"coefficient {SHOWN} beyond"),
    ("big-truncate", lambda: Series((0, 1, 0, 0)).truncate(BIG), OrderMismatchError, f"order 3 to {SHOWN}"),
]


@pytest.mark.parametrize(
    "call, error, bad", [case[1:] for case in REPRODUCTIONS], ids=[case[0] for case in REPRODUCTIONS]
)
def test_bad_input_raises_a_named_error(call, error, bad):
    with pytest.raises(InputError, match=re.escape(bad)) as caught:
        call()
    assert type(caught.value) is error


# ---------------------------------------------------------------------------
# Junk over every export
# ---------------------------------------------------------------------------

def pick(values):
    """``st.sampled_from`` by index: hypothesis hashes the values it samples,
    and a junk tree may refuse to be hashed."""
    return st.sampled_from(range(len(values))).map(values.__getitem__)


# Valid sizes stay small, so that a junk call that happens to be valid is quick.
SMALL = st.integers(-2, 4)
# An int with more digits than ``str`` writes, which a refusal must still
# name.  It is built by ``map``, since hypothesis writes out the strategies
# it validates; a valid size that large would never return, so it is negative.
HUGE = st.just(4400).map(lambda digits: -(10**digits))
SCALAR_JUNK = st.one_of(
    pick([None, 1.0, 2.5, float("nan"), True, False, "3", "", b"1", [], (), [1], object()]), HUGE
)
INT = st.one_of(SMALL, SCALAR_JUNK)


def sequences(entry):
    return st.one_of(st.lists(entry, max_size=5).map(tuple), st.lists(entry, max_size=5))


SEQ = st.one_of(
    sequences(INT), SCALAR_JUNK, pick(["12", ((1,),), ((), ()), ((1, 2),)])
)
PARENTS = st.one_of(
    sequences(INT),
    pick(
        [(2, 1), (0, 0), (1, 0), (3, 0), (2.0, 0), (True, 0), [2, 0], None, (), (0,), (2, 0), (3, 3, 0)]
    ),
)
TREE = st.one_of(
    PARENTS.map(RootedTree),
    pick([None, (2, 0), "2 0", path_tree(1), path_tree(2), path_tree(3)]),
)
LABEL = st.one_of(st.none(), INT)
LABELED_TREES = st.recursive(
    st.builds(LabeledPlaneTree, LABEL),
    lambda below: st.builds(LabeledPlaneTree, LABEL, st.lists(below, max_size=3).map(tuple)),
    max_leaves=5,
)
PLANE = st.one_of(
    LABELED_TREES,
    pick(
        [
            LabeledPlaneTree(None, (5,)),
            LabeledPlaneTree(1, None),
            LabeledPlaneTree(None, [LabeledPlaneTree(1)]),
            LabeledPlaneTree(None, "ab"),
            None,
            "*[1]",
            parse_plane_tree("*[1]"),
            parse_plane_tree("*[2[1]]"),
        ]
    ),
)
SHAPE = st.one_of(
    st.recursive(st.just(()), lambda below: st.lists(below, max_size=3).map(tuple), max_leaves=5),
    pick(["ab", ((), 1), None, [()], 5]),
)
PAIR = st.one_of(
    st.builds(StandardPrime, SHAPE, SEQ),
    pick([None, "sp", StandardPrime(((),), (1, 1)), StandardPrime((((),), ()), (1, 1, 1))]),
)
TEXT = st.one_of(st.text(alphabet="0123 *[]x-.", max_size=8), SCALAR_JUNK)
NAME = st.one_of(pick(IDENTITY_NAMES[:2] + ("nope", "")), SCALAR_JUNK)
NAMES = st.one_of(
    st.none(), pick([[], (), "parking-gf", ["parking-gf"], ("nope",), 5, [None], [["x"]]])
)
FLAG = st.one_of(st.booleans(), SCALAR_JUNK)
ANY = st.one_of(INT, SEQ, TREE, PLANE, PAIR, TEXT)

# One strategy per positional argument of every exported callable.
JUNK = {
    # bijections
    "Component": (ANY, ANY, ANY, ANY),
    "MarkedSet": (SEQ, INT),
    "StandardPrime": (SHAPE, SEQ),
    "borie_map": (SEQ,),
    "check_standard_prime": (PAIR,),
    "decode_prime": (PLANE,),
    "decompose": (PAIR,),
    "destandardize": (SEQ, PAIR),
    "encode_prime": (PAIR,),
    "is_132_avoiding": (SEQ,),
    "labeled_path": (SEQ,),
    "pair_to_prime": (SEQ, PLANE),
    "path_preimage_seq": (SEQ,),
    "prime_to_pair": (TREE, SEQ),
    "standard_path_prime": (SEQ,),
    "standardize": (TREE, SEQ),
    # census
    "CensusReport": (ANY, ANY, ANY),
    "SuiteReport": (ANY, ANY, ANY, ANY, ANY),
    "census": (INT, FLAG),
    "census_counts": (INT, SEQ, FLAG),
    "path_image_suite": (INT,),
    "roundtrip_suite": (INT,),
    "theorem53_suite": (INT,),
    # parking
    "ParkingOutcome": (ANY, ANY),
    "is_parking_distribution": (TREE, SEQ),
    "is_parking_function": (TREE, SEQ),
    "is_prime": (TREE, SEQ),
    "park": (TREE, SEQ),
    "used_edges": (TREE, SEQ),
    # series
    "CountRow": (INT,) * 9,
    "CountTable": (ANY,),
    "DistributionSeries": (ANY, ANY, ANY, ANY),
    "IdentityResult": (ANY, ANY, ANY, ANY),
    "Series": (SEQ,),
    "catalan_number": (INT,),
    "catalan_series": (INT,),
    "check_identities": (INT, NAMES),
    "check_identity": (NAME, INT),
    "closed_counts": (INT,),
    "distribution_series": (INT,),
    "parking_count": (INT,),
    "parking_series": (INT,),
    "prime_count": (INT,),
    "prime_distribution_count": (INT,),
    "prime_distribution_series": (INT,),
    "prime_series": (INT,),
    "schroder_number": (INT,),
    "schroder_series": (INT,),
    "tree_function": (INT,),
    # trees
    "LabeledPlaneTree": (LABEL, ANY),
    "RootedTree": (ANY,),
    "enumerate_labeled_plane_trees": (INT,),
    "enumerate_plane_trees": (INT,),
    "enumerate_rooted_trees": (INT,),
    "format_plane_tree": (PLANE,),
    "format_rooted_tree": (TREE,),
    "format_word": (SEQ,),
    "parse_permutation": (TEXT,),
    "parse_plane_tree": (TEXT,),
    "parse_preferences": (TEXT,),
    "parse_rooted_tree": (TEXT,),
    "path_tree": (INT,),
    "post_order_relabel": (PLANE,),
    "subtree_size": (TREE, INT),
    "validate_rooted_tree": (PARENTS,),
}


def exported_callables() -> set[str]:
    """Every public callable of the package, less the exception classes (they
    are what the gate raises) and aliases of builtins such as ``PlaneShape``."""
    return {
        name
        for name, value in inspect.getmembers(treepark, callable)
        if not name.startswith("_")
        and getattr(value, "__module__", "").startswith("treepark")
        and not (inspect.isclass(value) and issubclass(value, BaseException))
    }


def test_every_export_has_a_junk_case():
    # a new public function must be added to JUNK, so that it meets the gate
    assert exported_callables() == set(JUNK)


@pytest.mark.parametrize("name", sorted(JUNK))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_junk_returns_or_raises_an_input_error(name, data):
    args = data.draw(st.tuples(*JUNK[name]))
    try:
        result = getattr(treepark, name)(*args)
        if inspect.isgenerator(result):
            list(itertools.islice(result, 3))
    except InputError:
        pass  # every other exception, InvariantError included, fails the test


# ---------------------------------------------------------------------------
# Junk through the methods of Series
# ---------------------------------------------------------------------------

# Receivers of every order, -1 (no coefficients) included, and every kind of
# constant term: zero, one, a square, a non-square, a negative square.
SERIES = pick(
    [Series(()), Series((0,)), Series((1,)), Series((0, 1, 2)), Series((1, -4, 0, 0)), Series((4, 1, 0)),
     Series((Fraction(1, 4), 3)), Series((2, 0, 1)), Series((-4, 1))]
)
NUMBER = st.one_of(SMALL, SCALAR_JUNK, pick(["1/2", "x", Fraction(1, 3), float("inf")]), SERIES)

# One strategy per positional argument of every method and operator.
SERIES_JUNK = {
    "__add__": (NUMBER,),
    "__eq__": (NUMBER,),
    "__mul__": (NUMBER,),
    "__neg__": (),
    "__radd__": (NUMBER,),
    "__rmul__": (NUMBER,),
    "__rsub__": (NUMBER,),
    "__sub__": (NUMBER,),
    "coefficient": (INT,),
    "compose": (NUMBER,),
    "constant": (NUMBER, INT),
    "derivative": (),
    "exp": (),
    "first_nonzero": (),
    "integral": (NUMBER,),
    "inverse": (),
    "log": (),
    "scale_argument": (NUMBER,),
    "shift_down": (),
    "shift_up": (),
    "sqrt": (),
    "truncate": (INT,),
    "x_derivative": (),
}


def series_methods() -> set[str]:
    """The public methods of ``Series`` and the operators it defines, as the
    :mod:`operator` module names them (a reflected one less its ``r``)."""
    return {
        name
        for name, value in vars(Series).items()
        if callable(value) and (not name.startswith("_") or name.replace("__r", "__", 1) in vars(operator))
    }


def test_every_series_method_has_a_junk_case():
    # a new method or operator must be added to SERIES_JUNK, so that it meets the gate
    assert series_methods() == set(SERIES_JUNK)


@pytest.mark.parametrize("name", sorted(SERIES_JUNK))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_series_junk_returns_or_raises_an_input_error(name, data):
    series = data.draw(SERIES)
    args = data.draw(st.tuples(*SERIES_JUNK[name]))
    try:
        getattr(series, name)(*args)
    except InputError:
        pass  # every other exception fails the test


# ---------------------------------------------------------------------------
# Junk through the methods of the input types
# ---------------------------------------------------------------------------

# Junk field values of each input type; building a receiver from them may
# itself refuse them.
FIELDS = {
    RootedTree: (st.one_of(PARENTS, ANY),),
    LabeledPlaneTree: (LABEL, st.one_of(ANY, st.lists(PLANE, max_size=3).map(tuple))),
    StandardPrime: (st.one_of(SHAPE, ANY), SEQ),
    MarkedSet: (SEQ, INT),
}

# One strategy per positional argument of every method and property that
# these classes write out; a property takes none.
METHOD_JUNK = {
    (RootedTree, "n"): (),
    (RootedTree, "root"): (),
    (RootedTree, "__hash__"): (),
    (LabeledPlaneTree, "__eq__"): (ANY,),
    (LabeledPlaneTree, "__hash__"): (),
    (LabeledPlaneTree, "__repr__"): (),
    (LabeledPlaneTree, "__getattr__"): (st.one_of(pick(["children", "label", "_flat", "nope"]), ANY),),
    (LabeledPlaneTree, "__reduce__"): (),
    (StandardPrime, "__eq__"): (ANY,),
    (StandardPrime, "__hash__"): (),
    (StandardPrime, "__repr__"): (),
    (StandardPrime, "__getattr__"): (st.one_of(pick(["shape", "prefs", "_run", "nope"]), ANY),),
    (StandardPrime, "__reduce__"): (),
    (MarkedSet, "unmarked"): (),
}


def written_methods() -> set[tuple[type, str]]:
    """The methods and properties written in the bodies of the input types
    (dataclass generates the rest), less ``__post_init__``, the constructor's
    own gate, which every receiver passes through."""
    return {
        (cls, name)
        for cls in FIELDS
        for name, value in vars(cls).items()
        if name != "__post_init__"
        and inspect.isfunction(fn := value.fget if isinstance(value, property) else value)
        and fn.__code__.co_filename == inspect.getfile(cls)
    }


def test_every_method_has_a_junk_case():
    # a new method or property must be added to METHOD_JUNK, so that it meets the gate
    assert written_methods() == set(METHOD_JUNK)


@pytest.mark.parametrize(
    "cls, name", sorted(METHOD_JUNK, key=lambda case: (case[0].__name__, case[1])),
    ids=lambda value: getattr(value, "__name__", value),
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_method_junk_returns_or_raises_an_input_error(cls, name, data):
    fields = data.draw(st.tuples(*FIELDS[cls]))
    args = data.draw(st.tuples(*METHOD_JUNK[cls, name]))
    try:
        value = getattr(cls(*fields), name)  # a property is read here
        if callable(value):
            value(*args)
    except InputError:
        pass  # every other exception fails the test


# ---------------------------------------------------------------------------
# Junk through the command line
# ---------------------------------------------------------------------------

BAD_TREES = ["2 1", "0 0", "1 0", "3 0", "2.0 0", "x 0", "", "-1 0", "@missing.txt", "@binary.txt"]
GOOD_TREES = ["0", "2 0", "2 3 0"]
BAD_SEQS = ["", "1 2 3 4 5", "0 1 1", "9 9 9", "1.5", "a b", "@missing.txt", "@binary.txt"]
PAIR_ARGS = st.one_of(
    st.tuples(st.sampled_from(BAD_TREES), st.sampled_from(BAD_SEQS + ["1", "1 1", "1 1 1"])),
    st.tuples(st.sampled_from(GOOD_TREES), st.sampled_from(BAD_SEQS)),
).map(lambda pair: ["--tree", pair[0], "--seq", pair[1]])
BAD_PERMS = ["1 1", "0", "2", "1.0", "x", "1 3", "@missing.txt", "@binary.txt"]
PLANE_TEXTS = ["*", "*[1]", "*[2[1]]", "*[1 *]", "2[1]", "*[", "*[]", "*[2]", "x", "*[1[2[3]]]", "@binary.txt"]
TOO_LONG = "1" + "0" * 4400  # a size with more digits than ``int`` converts from text

CLI_JUNK = {
    "park": PAIR_ARGS,
    "check": PAIR_ARGS,
    "prime": PAIR_ARGS,
    "used-edges": PAIR_ARGS,
    "psi": PAIR_ARGS,
    "psi-inv": st.one_of(
        st.tuples(st.sampled_from(BAD_PERMS), st.sampled_from(PLANE_TEXTS)),
        st.tuples(st.sampled_from(["1", "1 2", "2 1"]), st.sampled_from(PLANE_TEXTS[3:])),
    ).map(lambda pair: ["--perm", pair[0], "--ptree", pair[1]]),
    "borie": st.sampled_from(BAD_PERMS + ["1 3 2"]).map(lambda perm: ["--perm", perm]),
    "series": st.sampled_from(
        [["--order", "0"], ["--order", "-1"], ["--order", "x"], ["--order", "1.5"], ["--order", TOO_LONG],
         ["--identity", "nope"]]
    ),
    "counts": st.sampled_from(
        [["--max", "0"], ["--max", "-3"], ["--max", "x"], ["--max", TOO_LONG], ["--format", "xml"]]
    ),
    "verify": st.sampled_from(
        [
            ["--suite", "nope"],
            ["--max-n", "0"],
            ["--max-n", "x"],
            ["--max-n", TOO_LONG],
            ["--suite", "census", "--max-n", "7"],
            ["--suite", "roundtrip", "--max-n", "5"],
            ["--suite", "thm53", "--max-n", "8"],
        ]
    ),
}


def test_every_subcommand_has_a_junk_case():
    (commands,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands) == set(CLI_JUNK)


@pytest.fixture(scope="module")
def payload_dir(tmp_path_factory):
    folder = tmp_path_factory.mktemp("payloads")
    (folder / "binary.txt").write_bytes(b"\xff\xfe\x00\x81 0\n")
    return folder


@pytest.mark.parametrize("command", sorted(CLI_JUNK))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_cli_junk_exits_two(command, data, payload_dir):
    argv = [command] + [
        f"@{payload_dir / arg[1:]}" if arg.startswith("@") else arg
        for arg in data.draw(CLI_JUNK[command])
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an uncaught exception fails the test
    assert code == 2, (argv, out.getvalue(), err.getvalue())
    assert err.getvalue() and "Traceback" not in err.getvalue()
    # a refusal names what it refuses in a line, and cuts a long token short
    assert max(map(len, err.getvalue().splitlines())) < 1000, (argv[:2], err.getvalue()[:200])
