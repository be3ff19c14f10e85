"""The benchmark's tracer still wraps the package: a small traced run records
calls and spans under every name that ``perfbench/run.py`` reads or divides
by, each composed bijection map runs its traced half under its own span, and
uninstalling restores every function it rebound."""

import importlib.util
from pathlib import Path

import treepark

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

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
