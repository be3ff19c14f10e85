"""The benchmark's tracer still wraps the package: a small traced run records
calls and spans under every name that ``perfbench/run.py`` reads or divides
by, each composed bijection map runs its traced half under its own span, and
uninstalling restores every function it rebound."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import treepark

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SRC = str(Path(treepark.__file__).resolve().parents[1])

# The names layer_metrics and exponent_ops of perfbench/run.py read.
READ_BY_THE_BENCH = [
    "bijections.encode_prime",
    "bijections.decode_prime",
    "bijections.pair_to_prime",
    "bijections.prime_to_pair",
    "series.mul",
    "series.exp",
    "series.check_identity",
    "census.census_counts",
]


def load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_traced_run_sees_every_name_the_bench_reads():
    originals = (treepark.pair_to_prime, treepark.series.check_identity, treepark.Series.__mul__)
    tracer = load_tracer()
    tracer.install()
    try:
        tree = treepark.validate_rooted_tree((0, 3, 4, 1, 4))
        word, plane = treepark.prime_to_pair(tree, (2, 5, 3, 5, 2))
        back, prefs = treepark.pair_to_prime(word, plane)
        treepark.check_identity("parking-composition", 6)
        treepark.closed_counts(5)
        treepark.census_counts(3)
    finally:
        tracer.uninstall()
    assert (back.parents, prefs) == ((0, 3, 4, 1, 4), (2, 5, 3, 5, 2))
    for name in READ_BY_THE_BENCH:
        assert tracer.calls[name] > 0, name
        assert name in tracer.names, name
    assert (treepark.pair_to_prime, treepark.series.check_identity, treepark.Series.__mul__) == originals


# The bench's fixed count of labeled trees: every census call walks all
# n^(n-1) of them, and a shard walks them all too (it keeps every m-th).
def test_census_walks_every_labeled_tree():
    tracer = load_tracer()
    tracer.install()
    try:
        for n in range(1, 6):
            treepark.census_counts(n)
        full = dict(tracer.items)
        shards = [treepark.census_counts(5, shard=(k, 3)) for k in range(3)]
    finally:
        tracer.uninstall()
    assert full["trees.enumerate_rooted_trees"] == sum(n ** (n - 1) for n in range(1, 6)) == 701
    assert tracer.items["trees.enumerate_rooted_trees"] - 701 == 3 * 5**4
    whole = treepark.census_counts(5)
    assert {name: sum(shard[name] for shard in shards) for name in whole} == whole


# The composed maps must reach these through their module-level names: the
# bench's path exponents divide by the time spent under the child spans.
CHILD_SPANS = {
    "bijections.prime_to_pair": "bijections.encode_prime",
    "bijections.pair_to_prime": "bijections.decode_prime",
}


def test_composed_maps_call_the_traced_halves():
    tracer = load_tracer()
    tracer.install()
    try:
        word, plane = treepark.prime_to_pair(treepark.path_tree(3), (1, 1, 1))
        treepark.pair_to_prime(word, plane)
        treepark.roundtrip_suite(2)
    finally:
        tracer.uninstall()
    for outer, inner in CHILD_SPANS.items():
        spans = [i for i, name in enumerate(tracer.names) if name == outer]
        assert len(spans) == 3, outer  # one direct call and two from the suite's forward half
        for span in spans:
            children = {tracer.names[j] for j, parent in enumerate(tracer.parents) if parent == span}
            assert inner in children, (outer, span)


# The census workload installs the tracer right after ``import treepark``,
# while every layer still waits in sys.modules unrun and the package has
# bound none of its exports.  The tracer reads the layers through
# sys.modules, which runs them, and the exports the package binds afterwards
# are the wrapped functions.
FIRST_READ_AFTER_INSTALL = f"""
import importlib.util, json, sys, types
spec = importlib.util.spec_from_file_location("_bench_tracer", {str(TRACER)!r})
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)
import treepark
unrun = sorted(
    name for name, module in sys.modules.items()
    if name.startswith("treepark.") and type(module) is not types.ModuleType
)
tracer = bench.Tracer()
tracer.install()
counts = treepark.census_counts(3)
tree = treepark.validate_rooted_tree((0, 3, 4, 1, 4))
word, plane = treepark.prime_to_pair(tree, (2, 5, 3, 5, 2))
back, prefs = treepark.pair_to_prime(word, plane)
tracer.uninstall()
print(json.dumps([unrun, dict(tracer.calls), tracer.names, counts["prime"], [back.parents, prefs]]))
"""


def test_tracer_installed_before_any_name_is_read():
    done = subprocess.run(
        [sys.executable, "-c", FIRST_READ_AFTER_INSTALL],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    unrun, calls, names, prime, pair = json.loads(done.stdout)
    assert unrun == [f"treepark.{layer}" for layer in ("bijections", "census", "errors", "parking", "series", "trees")]
    assert prime == 24 and pair == [[0, 3, 4, 1, 4], [2, 5, 3, 5, 2]]
    for name in ("census.census_counts", "bijections.prime_to_pair", "bijections.pair_to_prime",
                 "bijections.encode_prime", "bijections.decode_prime", "trees.enumerate_rooted_trees"):
        assert calls.get(name, 0) > 0, name
        assert name in names, name
    assert calls["parking.run_parking"] > 0
