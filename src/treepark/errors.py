"""Exception types shared across the package.

Everything derives from :class:`TreeParkError`; input-shaped problems also
derive from :class:`ValueError` so callers can catch them generically.
"""


class TreeParkError(Exception):
    """Base class for all errors raised by treepark."""


class InputError(TreeParkError, ValueError):
    """Malformed or out-of-contract input."""


class NoRootError(InputError):
    """Parent list has no 0 entry."""


class MultipleRootsError(InputError):
    """Parent list has more than one 0 entry."""


class CycleDetectedError(InputError):
    """Some parent chain never reaches the root."""


class LabelOutOfRangeError(InputError):
    """A label or preference lies outside 1..n (or 0..n for parents)."""


class VertexOutOfRangeError(InputError):
    """A vertex argument lies outside 1..n."""


class LengthMismatchError(InputError):
    """A sequence does not match the size of its tree."""


class NotAParkingFunctionError(InputError):
    """Operation requires a parking function and the input is not one."""


class NotPrimeError(InputError):
    """Operation requires a prime parking function."""


class NotStandardPrimeError(InputError):
    """Pair violates the standardized-prime invariants (sibling order or primality)."""


class Not132AvoidingError(InputError):
    """Permutation contains a 132 pattern."""


class BranchUndefinedError(InputError):
    """Series operation applied outside its domain (log of non-unit, etc.)."""


class OrderMismatchError(InputError):
    """A series order or count size out of range, or a coefficient beyond
    the truncation order."""


class InvariantError(TreeParkError):
    """Two independent evaluations of a paper invariant disagree.

    Carries the witness: the tree and preference sequence it broke on.
    """

    def __init__(self, message: str, tree, prefs) -> None:
        super().__init__(f"{message} (witness: parents {tree.parents}, prefs {tuple(prefs)})")
        self.tree = tree
        self.prefs = tuple(prefs)


class IdentityViolatedError(TreeParkError):
    """A generating-function identity has a nonzero residual coefficient."""


class LimitExceededError(InputError):
    """Exhaustive enumeration requested beyond its guarded size."""


class UsageError(InputError):
    """Command line misuse."""


class InvalidShardError(InputError):
    """A census shard (k, m) with m < 1 or k outside 0..m-1."""
