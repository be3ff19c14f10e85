"""The package loads its layers lazily: ``import treepark`` runs none, each
CLI subcommand runs only the layers it uses, and the first name read from a
layer through the package runs that layer's imports alone and binds that
layer's exports.  ``from treepark import *`` still leaves the namespace an
eager import gives.  Each check that depends on what is loaded runs in a
fresh interpreter and reads ``type(sys.modules[name])``, which loads nothing."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treepark
from treepark import cli

SRC = str(Path(treepark.__file__).resolve().parents[1])
LAYERS = {"errors", "trees", "parking", "bijections", "series", "census"}

# The public names of dir(treepark) once the package is imported: the
# exports of the six layers and five of the layer modules (``census`` is the
# function).
PUBLIC = {
    "BranchUndefinedError", "CensusReport", "Component", "CountRow", "CountTable",
    "CycleDetectedError", "DistributionSeries", "IDENTITY_NAMES", "IdentityResult",
    "IdentityViolatedError", "InputError", "InvalidShardError", "InvariantError",
    "LabelOutOfRangeError", "LabeledPlaneTree", "LengthMismatchError", "LimitExceededError",
    "MarkedSet", "MultipleRootsError", "NoRootError", "Not132AvoidingError",
    "NotAParkingFunctionError", "NotPrimeError", "NotStandardPrimeError", "OrderMismatchError",
    "ParkingOutcome", "PlaneShape", "RootedTree", "Series", "StandardPrime", "SuiteReport",
    "TreeParkError", "UsageError", "VertexOutOfRangeError", "bijections", "borie_map",
    "catalan_number", "catalan_series", "census", "census_counts", "check_identities",
    "check_identity", "check_standard_prime", "closed_counts", "decode_prime", "decompose",
    "destandardize", "distribution_series", "encode_prime", "enumerate_labeled_plane_trees",
    "enumerate_plane_trees", "enumerate_rooted_trees", "errors", "format_plane_tree",
    "format_rooted_tree", "format_word", "is_132_avoiding", "is_parking_distribution",
    "is_parking_function", "is_prime", "labeled_path", "pair_to_prime", "park", "parking",
    "parking_count", "parking_series", "parse_permutation", "parse_plane_tree",
    "parse_preferences", "parse_rooted_tree", "path_image_suite", "path_preimage_seq",
    "path_tree", "post_order_relabel", "prime_count", "prime_distribution_count",
    "prime_distribution_series", "prime_series", "prime_to_pair", "roundtrip_suite",
    "schroder_number", "schroder_series", "series", "standard_path_prime", "standardize",
    "subtree_size", "theorem53_suite", "tree_function", "trees", "used_edges",
    "validate_rooted_tree",
}


def fresh(body: str):
    """Run ``body``, which makes the first import of treepark, in a new
    interpreter; returns the value it leaves in ``result`` and the layers
    that ran, read off ``type(sys.modules[name])`` (a lazy module that has
    not run is not a plain module)."""
    probe = (
        "import contextlib, io, json, sys, types\n"
        "result = None\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in body.splitlines() or ["pass"])
        + "loaded = sorted(\n"
        "    name.rpartition('.')[2] for name, module in sys.modules.items()\n"
        "    if name.startswith('treepark.') and type(module) is types.ModuleType\n"
        ")\n"
        "print(json.dumps([result, loaded]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    result, loaded = json.loads(done.stdout)
    return result, set(loaded) & LAYERS


def test_import_runs_no_layer():
    result, loaded = fresh(
        "import treepark\n"
        "result = sorted(type(sys.modules['treepark.' + n]).__name__ for n in "
        "('errors', 'trees', 'parking', 'bijections', 'series', 'census'))"
    )
    assert loaded == set()
    assert result == ["_LazyModule"] * 6


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["park", "--tree", "3 3 5 5 0", "--seq", "2 2 1 4 2"], {"errors", "trees", "parking"}),
        (["prime", "--tree", "2 4 4 5 0", "--seq", "1 3 2 3 1"], {"errors", "trees", "parking"}),
        (["psi", "--tree", "0 3 4 1 4", "--seq", "2 5 3 5 2", "--check"],
         {"errors", "trees", "parking", "bijections"}),
        (["borie", "--perm", "2 1"], {"errors", "trees", "parking", "bijections"}),
        (["counts", "--max", "4"], {"errors", "series"}),
        (["series", "--order", "3", "--identity", "schroder-gf"], {"errors", "series"}),
        (["verify", "--suite", "thm53", "--max-n", "2"], LAYERS),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_a_subcommand_runs_only_its_layers(argv, layers):
    code, loaded = fresh(f"from treepark.cli import main\nresult = main({argv!r})")
    assert code == 0
    assert loaded == layers


def test_help_runs_no_series_or_census_code():
    code, loaded = fresh(
        "from treepark.cli import main\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    result = [main([c, '--help']) for c in ('series', 'verify')] + [main(['--help'])]"
    )
    assert code == [0, 0, 0]
    assert loaded == {"errors"}


# One export of each layer, the layer, and the layers its imports run.
FIRST_READS = {
    "TreeParkError": ("errors", {"errors"}),
    "path_tree": ("trees", {"errors", "trees"}),
    "park": ("parking", {"errors", "trees", "parking"}),
    "StandardPrime": ("bijections", {"errors", "trees", "parking", "bijections"}),
    "Series": ("series", {"errors", "series"}),
    "census": ("census", LAYERS),
}


@pytest.mark.parametrize("name", list(FIRST_READS))
def test_the_first_name_read_runs_only_its_layer(name):
    layer, closure = FIRST_READS[name]
    result, loaded = fresh(
        f"import treepark\nvalue = treepark.{name}\n"
        f"result = [value is getattr(sys.modules['treepark.{layer}'], {name!r}),"
        f" sorted(set(treepark.__all__) & set(vars(treepark)))]"
    )
    assert loaded == closure
    same, bound = result
    assert same
    # the five layer modules are bound from the start; of the exports, only the layer's
    assert set(bound) == set(treepark._MODULES) | set(treepark._EXPORTS[layer])


def test_every_export_is_listed_by_one_layer_and_resolves():
    listed = [name for names in treepark._EXPORTS.values() for name in names]
    assert len(listed) == len(set(listed))
    assert treepark.__all__ == [*treepark._MODULES, *listed]
    for layer, names in treepark._EXPORTS.items():
        module = sys.modules[f"treepark.{layer}"]
        for name in names:
            assert getattr(treepark, name) is getattr(module, name), name


def test_a_star_import_runs_every_layer_and_binds_every_export():
    result, loaded = fresh(
        "from treepark import *\nimport treepark\n"
        "result = sorted(set(treepark.__all__) - set(vars(treepark)))"
    )
    assert loaded == LAYERS
    assert result == []


@pytest.mark.parametrize(
    "body",
    [
        "import treepark.census",
        "from treepark import census",
        "import importlib\nassert inspect.ismodule(importlib.import_module('treepark.census'))",
        "import treepark\nsys.modules['treepark.census'].census_counts",
    ],
    ids=["import-module", "from-import", "import_module", "sys.modules"],
)
def test_census_is_the_function_under_every_import_order(body):
    result, _ = fresh(
        "import inspect\n" + body + "\n"
        "import treepark\n"
        "from treepark import census as bound\n"
        "result = [inspect.isfunction(treepark.census), bound is treepark.census,"
        " treepark.census.__module__]"
    )
    assert result == [True, True, "treepark.census"]


def test_dir_lists_todays_public_names_before_and_after_a_load():
    before, _ = fresh("import treepark\nresult = sorted(n for n in dir(treepark) if not n.startswith('_'))")
    after, _ = fresh("import treepark\ntreepark.park\nresult = sorted(n for n in dir(treepark) if not n.startswith('_'))")
    assert set(before) == set(after) == PUBLIC
    assert {n for n in dir(treepark) if not n.startswith("_")} - {"cli"} == PUBLIC
    assert set(treepark.__all__) == PUBLIC and len(treepark.__all__) == len(PUBLIC)


def test_star_import_binds_todays_public_names():
    namespace: dict = {}
    exec("from treepark import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
    assert inspect.isfunction(namespace["census"]) and inspect.ismodule(namespace["series"])


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        treepark.nothing  # noqa: B018


def test_the_cli_copies_equal_their_layers_figures():
    # the parser reads the figures from errors, so that --help loads neither
    # layer; the layers hold the same objects, not copies
    assert cli.IDENTITY_NAMES is treepark.series.IDENTITY_NAMES
    assert cli.CAPS is sys.modules["treepark.census"].CAPS


def test_reload_keeps_the_layer_modules():
    # as an eager import does, reloading the package reuses the layers in sys.modules
    result, _ = fresh(
        "import importlib, treepark\n"
        "before = [sys.modules['treepark.' + n] for n in ('errors', 'series', 'census')]\n"
        "importlib.reload(treepark)\n"
        "after = [sys.modules['treepark.' + n] for n in ('errors', 'series', 'census')]\n"
        "result = [a is b for a, b in zip(before, after)] + [treepark.series is before[1]]"
    )
    assert result == [True] * 4
