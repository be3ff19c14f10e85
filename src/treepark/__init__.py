"""Parking functions on rooted trees.

Vertices are parking spots, edges are one-way streets towards the root;
each driver takes the first free spot on her path.  The package simulates
the procedure, decides the parking / prime / distribution predicates two
independent ways, realizes the correspondence between prime pairs and
(permutation, labeled plane tree) pairs together with its inverse, keeps
the exact generating-function identities as zero residuals, and verifies
everything against brute-force censuses at small sizes.

``import treepark`` runs none of its layers.  Each of ``errors``,
``trees``, ``parking``, ``bijections``, ``series`` and ``census`` waits in
``sys.modules`` as a lazy module (``importlib.util.LazyLoader``) that runs
on its first attribute read, so a process pays only for the layers it
uses.  The first name read from the package itself (PEP 562) binds every
export of the layer that owns it, and that layer's imports run the layers
it needs: ``tp.closed_counts`` runs ``errors`` and ``series``,
``tp.pair_to_prime`` runs ``errors``, ``trees``, ``parking`` and
``bijections``, and ``tp.census`` runs all six.  ``from treepark import *``
reads every name, so it leaves the namespace an eager import gives.
``treepark.census`` is the census function under every import order; the
module is ``sys.modules["treepark.census"]``, or
``importlib.import_module("treepark.census")``.
"""

# The names each layer exports through the package, layers in the order
# they import one another.
_EXPORTS = {
    "errors": (
        "BranchUndefinedError",
        "CycleDetectedError",
        "IdentityViolatedError",
        "InputError",
        "InvalidShardError",
        "InvariantError",
        "LabelOutOfRangeError",
        "LengthMismatchError",
        "LimitExceededError",
        "MultipleRootsError",
        "NoRootError",
        "Not132AvoidingError",
        "NotAParkingFunctionError",
        "NotPrimeError",
        "NotStandardPrimeError",
        "OrderMismatchError",
        "TreeParkError",
        "UsageError",
        "VertexOutOfRangeError",
    ),
    "trees": (
        "LabeledPlaneTree",
        "PlaneShape",
        "RootedTree",
        "enumerate_labeled_plane_trees",
        "enumerate_plane_trees",
        "enumerate_rooted_trees",
        "format_plane_tree",
        "format_rooted_tree",
        "format_word",
        "parse_permutation",
        "parse_plane_tree",
        "parse_preferences",
        "parse_rooted_tree",
        "path_tree",
        "post_order_relabel",
        "subtree_size",
        "validate_rooted_tree",
    ),
    "parking": (
        "ParkingOutcome",
        "is_parking_distribution",
        "is_parking_function",
        "is_prime",
        "park",
        "used_edges",
    ),
    "bijections": (
        "Component",
        "MarkedSet",
        "StandardPrime",
        "borie_map",
        "check_standard_prime",
        "decode_prime",
        "decompose",
        "destandardize",
        "encode_prime",
        "is_132_avoiding",
        "labeled_path",
        "pair_to_prime",
        "path_preimage_seq",
        "prime_to_pair",
        "standard_path_prime",
        "standardize",
    ),
    "series": (
        "CountRow",
        "CountTable",
        "DistributionSeries",
        "IDENTITY_NAMES",
        "IdentityResult",
        "Series",
        "catalan_number",
        "catalan_series",
        "check_identities",
        "check_identity",
        "closed_counts",
        "distribution_series",
        "parking_count",
        "parking_series",
        "prime_count",
        "prime_distribution_count",
        "prime_distribution_series",
        "prime_series",
        "schroder_number",
        "schroder_series",
        "tree_function",
    ),
    "census": (
        "CensusReport",
        "SuiteReport",
        "census",
        "census_counts",
        "path_image_suite",
        "roundtrip_suite",
        "theorem53_suite",
    ),
}
# Every layer but census is also a package attribute: ``census`` names the function.
_MODULES = ("errors", "trees", "parking", "bijections", "series")


def _lazy(layer: str):
    """The layer's module, registered in ``sys.modules`` and not yet run."""
    import importlib.util
    import sys

    name = f"{__name__}.{layer}"
    if name in sys.modules:  # a reload of the package: keep the layer as it stands
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_LAYERS = {layer: _lazy(layer) for layer in _EXPORTS}
globals().update({layer: _LAYERS[layer] for layer in _MODULES})

_OWNER = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = [*_MODULES, *_OWNER]
__version__ = "0.1.0"


def __getattr__(name: str):
    """The first name read from a layer binds every export of that layer (PEP 562)."""
    layer = _OWNER.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, namespace = _LAYERS[layer], globals()
    namespace.update({export: getattr(module, export) for export in _EXPORTS[layer]})
    return namespace[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
