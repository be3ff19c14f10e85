"""Exception types shared across the package, and the integer input gate.

Everything derives from :class:`TreeParkError`; input-shaped problems also
derive from :class:`ValueError` so callers can catch them generically.
Every integer input passes :func:`_at_least` or :func:`_ints`: an exact
``int``, never a ``bool``.  A refusal writes the value it refuses with
:func:`_shown`, which also writes an int too long for ``str``, and a text
token it refuses with :func:`_token`, which cuts a long one.  A value built
from a flat form builds its nested field on first read, and refuses any
other name it lacks, by one rule, :func:`_built_on_read`.

Two figures of other layers live here too: ``IDENTITY_NAMES``, the
identities that ``series`` checks, and ``CAPS``, the size guards of the
``census`` runs.  Every layer and the command line parser load this module,
so the parser's choices and help read them without loading those layers.
"""

import copyreg
import reprlib

# The identities that ``series`` checks, in report order, each by the residual named after it.
IDENTITY_NAMES = (
    "parking-gf",
    "parking-composition",
    "combined-composition",
    "catalan-ratio",
    "prime-derivative",
    "prime-log-form",
    "distribution-composition",
    "marked-prime-sum",
    "marked-prime-recursion",
    "schroder-quadratic",
    "schroder-gf",
    "marked-distribution-sum",
    "marked-distribution-recursion",
    "distribution-ode",
    "parking-ode",
    "marked-distribution-unnormalized",
)

# The largest n of each exhaustive run; the census needs allow_large at its cap.
CAPS = {"census": 7, "roundtrip": 4, "thm53": 7, "paths": 6}


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

    def __reduce__(self):
        # Copies and pickles keep ``args``, the formatted message, and the
        # witness, without running ``__init__`` again on that message.
        return copyreg.__newobj__, (type(self), *self.args), vars(self)


class IdentityViolatedError(TreeParkError):
    """A generating-function identity has a nonzero residual coefficient."""


class LimitExceededError(InputError):
    """Exhaustive enumeration requested beyond its guarded size."""


class UsageError(InputError):
    """Command line misuse."""


class InvalidShardError(InputError):
    """A census shard (k, m) with m < 1 or k outside 0..m-1."""


class _NoAttributeError(InputError, AttributeError):
    """A name a value does not hold: the ``AttributeError`` that ``getattr``
    and ``hasattr`` expect, named as the package names every refusal.  Only
    :func:`_built_on_read` raises it."""


def _built_on_read(value, name: str, field: str, form: str, build):
    """``value.__getattr__(name)``: the nested ``field`` of a value holding its
    flat ``form``, built from the form once and held, or a refusal of ``name``."""
    held = value.__dict__
    if name == field and form in held:
        built = held[field] = build(held[form])
        return built
    raise _NoAttributeError(f"{type(value).__name__!r} object has no attribute {_shown(name)}")


class _BitsRepr(reprlib.Repr):
    """``repr`` that writes an int with more digits than ``str`` writes as
    its sign and bit length, and, as ``reprlib`` does, cuts long containers
    and strings short."""

    def repr_int(self, x: int, level: int) -> str:
        try:
            return repr(x)
        except ValueError:
            return f"<{'negative ' if x < 0 else ''}int of {x.bit_length()} bits>"


def _shown(value) -> str:
    """``repr(value)`` for a refusal message.  Where that would raise the
    interpreter's ``ValueError`` for an int too long to write, alone or inside
    ``value``, the int shows as its sign and bit length instead."""
    try:
        return repr(value)
    except TreeParkError:  # a value of the package refusing to write itself
        raise
    except ValueError:
        return _BitsRepr().repr(value)


def _token(tok) -> str:
    """A refused token for a message: a string longer than ten characters as
    its first ten and its length, anything else as :func:`_shown` writes it."""
    if isinstance(tok, (str, bytes)) and len(tok) > 10:
        return f"{tok[:10]!r}... of {len(tok)} characters"
    return _shown(tok)


def _at_least(value, least: int, name: str, error: type[InputError] = OrderMismatchError, message: str = "",
              most: int | None = None) -> int:
    """``value`` itself if it is an int >= ``least``, and <= ``most`` unless
    that is None; else ``error``.  The call site may word the case of an int
    out of range as ``message``, a template of ``{value}`` and ``{most}``,
    and must when it gives ``most``; every other case names ``name``,
    ``least`` and the value.  Nothing is formatted unless refused."""
    if type(value) is int and least <= value and (most is None or value <= most):
        return value
    if message and type(value) is int:
        raise error(message.format(value=_shown(value), most=most))
    raise error(f"{name} must be an integer >= {least}, got {_shown(value)}")


def _ints(values, error: type[InputError], name: str, lo: int | None = None, hi: int | None = None,
          permutation=None) -> tuple[int, ...]:
    """``values`` as a tuple of ints, each in lo..hi when ``lo`` is given;
    ``hi`` defaults to their number, as for parents, preferences and labels.
    Else ``error`` naming the first bad entry i as ``name.format(i)``.  With
    ``permutation``, the ints must be a permutation of 1..n, or ``error``
    carries ``permutation(values)``."""
    try:
        out = tuple(values)
    except TypeError:
        raise error(f"{_shown(values)} is not a sequence of integers") from None
    hi = len(out) if hi is None else hi
    for x in out:
        if type(x) is not int or lo is not None and not lo <= x <= hi:
            i = next(i for i, y in enumerate(out, start=1) if y is x)  # the first bad entry
            fault = "is not an integer" if type(x) is not int else f"outside {lo}..{hi}"
            raise error(f"{name.format(i)} {_shown(x)} {fault}")
    if permutation and sorted(out) != list(range(1, len(out) + 1)):
        raise error(permutation(out))
    return out
