"""Parking functions on rooted trees.

Vertices are parking spots, edges are one-way streets towards the root;
each driver takes the first free spot on her path.  The package simulates
the procedure, decides the parking / prime / distribution predicates two
independent ways, realizes the correspondence between prime pairs and
(permutation, labeled plane tree) pairs together with its inverse, keeps
the exact generating-function identities as zero residuals, and verifies
everything against brute-force censuses at small sizes.
"""

from .bijections import (
    Component,
    MarkedSet,
    StandardPrime,
    borie_map,
    check_standard_prime,
    decode_prime,
    decompose,
    destandardize,
    encode_prime,
    is_132_avoiding,
    labeled_path,
    pair_to_prime,
    path_preimage_seq,
    prime_to_pair,
    standard_path_prime,
    standardize,
)
from .census import (
    CensusReport,
    SuiteReport,
    census,
    census_counts,
    path_image_suite,
    roundtrip_suite,
    theorem53_suite,
)
from .errors import (
    BranchUndefinedError,
    CycleDetectedError,
    IdentityViolatedError,
    InputError,
    InvalidShardError,
    InvariantError,
    LabelOutOfRangeError,
    LengthMismatchError,
    LimitExceededError,
    MultipleRootsError,
    NoRootError,
    Not132AvoidingError,
    NotAParkingFunctionError,
    NotPrimeError,
    NotStandardPrimeError,
    OrderMismatchError,
    TreeParkError,
    UsageError,
    VertexOutOfRangeError,
)
from .parking import (
    ParkingOutcome,
    is_parking_distribution,
    is_parking_function,
    is_prime,
    park,
    used_edges,
)
from .series import (
    CountRow,
    CountTable,
    DistributionSeries,
    IDENTITY_NAMES,
    IdentityResult,
    Series,
    catalan_number,
    catalan_series,
    check_identities,
    check_identity,
    closed_counts,
    distribution_series,
    parking_count,
    parking_series,
    prime_count,
    prime_distribution_count,
    prime_distribution_series,
    prime_series,
    schroder_number,
    schroder_series,
    tree_function,
)
from .trees import (
    LabeledPlaneTree,
    PlaneShape,
    RootedTree,
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

__version__ = "0.1.0"
