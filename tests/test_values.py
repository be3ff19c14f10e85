"""The value types treepark exports survive copying and pickling.

``copy.copy``, ``copy.deepcopy`` and a pickle round trip give back an equal
value, and the two tree types do so at any depth, at the default recursion
limit.  A worker process of a sharded run hands its results back by pickle,
and an ``InvariantError`` carries its witness along.  The types whose fields
are built on first read refuse an unknown name the same way.
"""

import ast
import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import treepark
from treepark import (
    IDENTITY_NAMES,
    InputError,
    InvariantError,
    LabeledPlaneTree,
    MarkedSet,
    Series,
    StandardPrime,
    catalan_series,
    census,
    check_identity,
    closed_counts,
    decode_prime,
    decompose,
    distribution_series,
    enumerate_labeled_plane_trees,
    format_plane_tree,
    labeled_path,
    park,
    parse_plane_tree,
    parse_rooted_tree,
    path_tree,
    post_order_relabel,
    prime_to_pair,
    roundtrip_suite,
    standardize,
)
from treepark.trees import _flatten, _labeled_tree, _parents_shape


def round_trips(value) -> dict:
    """The copy, the deep copy and the pickle round trip of ``value``."""
    return {
        "copy": copy.copy(value),
        "deepcopy": copy.deepcopy(value),
        "pickle": pickle.loads(pickle.dumps(value)),
    }


def by_hand(text: str) -> LabeledPlaneTree:
    """The plane tree of ``text`` built by hand: nested nodes, no flat form."""
    return _labeled_tree(*_flatten(parse_plane_tree(text)))


def figure_pair() -> StandardPrime:
    """The standard pair of the figure example."""
    return standardize(parse_rooted_tree("0 3 4 1 4"), (2, 5, 3, 5, 2))[1]


# Small samples of every dataclass and NamedTuple that treepark exports, and
# of InvariantError: values the package builds, and some built by hand.
SAMPLES = {
    "RootedTree": lambda: [path_tree(3), parse_rooted_tree("3 3 0")],
    "LabeledPlaneTree": lambda: [labeled_path((2, 1)), by_hand("*[1 3[2]]")],
    "StandardPrime": lambda: [
        figure_pair(), decode_prime(parse_plane_tree("*[1 3[2]]")), StandardPrime(((((),), ()),), (1, 3, 2, 3, 1)),
    ],
    "MarkedSet": lambda: [MarkedSet((1, 3, 4), 3)],
    "Component": lambda: decompose(figure_pair()),
    "ParkingOutcome": lambda: [park(parse_rooted_tree("3 3 0"), (3, 3, 1))],
    "CensusReport": lambda: [census(2)],
    "SuiteReport": lambda: [roundtrip_suite(2)],
    "Series": lambda: [catalan_series(4), Series((1, Fraction(1, 2)))],
    "DistributionSeries": lambda: [distribution_series(3)],
    "IdentityResult": lambda: [check_identity(name, 4) for name in IDENTITY_NAMES[:2]],
    "CountRow": lambda: [closed_counts(3).row(2)],
    "CountTable": lambda: [closed_counts(3)],
    "InvariantError": lambda: [InvariantError("the maps disagree", path_tree(2), [1, 1])],
}


def exported_values() -> set[str]:
    """The names of the dataclasses and NamedTuples treepark exports."""
    return {
        name
        for name, value in vars(treepark).items()
        if isinstance(value, type)
        and (dataclasses.is_dataclass(value) or issubclass(value, tuple) and hasattr(value, "_fields"))
    }


def test_every_exported_value_has_a_sample():
    # a new exported value type must be added to SAMPLES, so that it meets the round trips
    assert exported_values() | {"InvariantError"} == set(SAMPLES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_copies_and_pickles_give_an_equal_value(name):
    for value in SAMPLES[name]():
        for how, copied in round_trips(value).items():
            assert type(copied) is type(value), how
            if isinstance(value, Exception):  # exceptions compare by identity
                assert (copied.args, str(copied), vars(copied)) == (value.args, str(value), vars(value)), how
            else:
                assert copied == value, how


# ---------------------------------------------------------------------------
# Deep trees
# ---------------------------------------------------------------------------


def deep_failures(n: int) -> list[str]:
    """What goes wrong copying and pickling an n-vertex labeled path, its
    standard pair, and the twin of each built by hand; empty if nothing.
    Written without ``assert``, so that it checks under ``python -O`` too."""
    path = labeled_path(tuple(range(1, n)))
    pair = decode_prime(path)
    values = {
        "labeled path": path,
        "hand-built path": by_hand(format_plane_tree(path)),
        "decoded pair": pair,
        "hand-built pair": StandardPrime(_parents_shape([0, *range(2, n + 1), 0]), pair.prefs),
    }
    copies = {name: round_trips(value) for name, value in values.items()}
    failures = ["the decoded pair built its shape"] if "shape" in vars(pair) else []
    if "children" in vars(path):
        failures.append("the labeled path built its children")
    for name, value in values.items():
        fields = {f.name for f in dataclasses.fields(value)}
        for how, copied in copies[name].items():
            if not (copied == value and value == copied and hash(copied) == hash(value)):
                failures.append(f"{how} of the {name}: not equal")
            if repr(copied) != repr(value):
                failures.append(f"{how} of the {name}: another repr")
            if vars(copied).keys() != fields:
                failures.append(f"{how} of the {name}: holds {sorted(vars(copied))}")
    return failures


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_deep_values_copy_and_pickle_at_the_default_recursion_limit(flags):
    # A fresh interpreter, so that the recursion limit is the default.
    probe = "import sys; from test_values import deep_failures; print(sys.getrecursionlimit(), deep_failures(5000))"
    here = Path(__file__).resolve().parent
    src = Path(treepark.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, *flags, "-c", probe],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(here)])},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "1000 []\n"


def test_a_junk_shape_is_an_input_error_even_shared():
    junk = StandardPrime(("a",), (1, 1))
    with pytest.raises(InputError, match="plane shape"):
        junk == StandardPrime(junk.shape, junk.prefs)
    with pytest.raises(InputError, match="plane shape"):
        copy.copy(junk)


# ---------------------------------------------------------------------------
# Names a value does not hold
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", [
    decode_prime(parse_plane_tree("*[1 3 4[2]]")),
    StandardPrime(((),), (1, 1)),
    labeled_path((2, 1)),
    by_hand("*[1 3[2]]"),
    catalan_series(3),
    Series((1, 2)),
], ids=["decoded pair", "hand-built pair", "built tree", "hand-built tree", "built series", "hand-built series"])
def test_an_unknown_name_is_an_input_error_and_missing(value):
    assert not hasattr(value, "nope") and getattr(value, "nope", 5) == 5
    with pytest.raises(InputError, match=f"'{type(value).__name__}' object has no attribute 'nope'") as caught:
        value.nope
    assert isinstance(caught.value, AttributeError)


def test_one_first_read_rule_refuses_every_unknown_name():
    # each type's __getattr__ is one return of the errors rule, and only the
    # errors module names the refusal it raises
    package = Path(treepark.__file__).resolve().parent
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    naming = {
        name
        for name, module in modules.items()
        for node in ast.walk(module)
        if "_NoAttributeError" in (getattr(node, key, None) for key in ("id", "attr", "name"))
    }
    assert naming == {"errors.py"}
    for file, cls in [("trees.py", "LabeledPlaneTree"), ("bijections.py", "StandardPrime"), ("series.py", "Series")]:
        [body] = [
            method.body
            for node in modules[file].body
            if isinstance(node, ast.ClassDef) and node.name == cls
            for method in node.body
            if isinstance(method, ast.FunctionDef) and method.name == "__getattr__"
        ]
        assert [type(statement) for statement in body] == [ast.Return], cls
        call = body[0].value
        assert isinstance(call, ast.Call) and isinstance(call.func, ast.Name), cls
        assert call.func.id == "_built_on_read" and [ast.unparse(a) for a in call.args[:2]] == ["self", "name"], cls


# ---------------------------------------------------------------------------
# Children built on first read
# ---------------------------------------------------------------------------


def built_trees() -> list:
    """Labeled plane trees from every builder that attaches a flat form."""
    trees = list(enumerate_labeled_plane_trees(4))
    trees += [labeled_path((3, 1, 2)), labeled_path(())]
    trees.append(parse_plane_tree("*[1 3[2] 4]"))
    trees.append(post_order_relabel(parse_plane_tree("5[1 3[2] 4]"))[1])
    trees.append(prime_to_pair(parse_rooted_tree("2 4 4 5 0"), (1, 3, 2, 3, 1))[1])
    return trees


@pytest.mark.parametrize("tree", built_trees(), ids=format_plane_tree)
def test_a_built_tree_reads_as_one_built_by_hand(tree):
    twin = by_hand(format_plane_tree(tree))
    assert "children" not in vars(tree)
    assert repr(tree) == repr(twin)
    assert dataclasses.asdict(tree) == dataclasses.asdict(twin)
    assert dataclasses.astuple(tree) == dataclasses.astuple(twin)
    assert dataclasses.replace(tree) == twin and dataclasses.replace(tree, label=7) == dataclasses.replace(twin, label=7)
    assert tree.label == twin.label and tree.children == twin.children
    assert [format_plane_tree(c) for c in tree.children] == [format_plane_tree(c) for c in twin.children]
    assert tree.children is tree.children  # built once, then held
    assert tree == twin and hash(tree) == hash(twin) and repr(tree) == repr(twin)


def test_a_tree_built_by_hand_defaults_to_no_children():
    assert LabeledPlaneTree(4).children == () == dataclasses.replace(labeled_path(()), label=4).children
    assert LabeledPlaneTree(4) == parse_plane_tree("4")
