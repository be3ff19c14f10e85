"""The series kernel's integer form: every operation against the Fraction
reference in ``reference_series.py``, the lazily built ``coeffs`` against
a series built by hand, and a pin on the outputs of the whole layer."""

import copy
import dataclasses
import hashlib
import pickle
import random
from fractions import Fraction as Q
from math import gcd

import pytest

from reference_series import ReferenceSeries
from treepark import Series, catalan_series, distribution_series, parking_series, prime_series
from treepark import series as S

# A number operand: ints, quotients given unreduced (Fraction reduces them),
# zero, and junk that every operation taking a number refuses.
NUMBERS = [0, 1, -2, 3, Q(2, 4), Q(-6, 4), Q(9, 4), Q(1, 3), None, "x"]
# Constant terms that put exp, log, sqrt, inverse and compose on both sides
# of their domains.
CONSTANTS = [0, 0, 1, 1, Q(2, 2), Q(9, 4), Q(2, 4), -1]


def random_coeffs(rng: random.Random, order: int, constant) -> tuple:
    """order + 1 coefficients after ``constant``: ints, and quotients given
    with unreduced parts."""
    def one():
        k = rng.randint(-9, 9)
        return k if rng.random() < 0.4 else Q(k * 2, rng.randint(1, 6) * 2)

    return tuple([constant] + [one() for _ in range(order)])[: order + 1]


def built(coeffs) -> Series:
    """A series with ``coeffs``, as the package builds one: held only in
    its integer form until ``coeffs`` is read."""
    made = -(-Series(coeffs))
    assert "coeffs" not in vars(made)
    return made


def outcome(call, *args):
    """What ``call`` gives: a series' coefficients, any other value, or the
    error raised, each as a comparable tuple."""
    try:
        got = call(*args)
    except Exception as exc:  # the reference and the kernel raise the same
        return "raises", type(exc), str(exc)
    if isinstance(got, Series):  # in lowest terms over a positive denominator
        nums, den = vars(got)["_num_den"]
        assert den > 0 and gcd(den, *nums) == 1
    if isinstance(got, (Series, ReferenceSeries)):
        assert all(type(c) is Q for c in got.coeffs)
        return "series", repr(got.coeffs)
    return "value", repr(got)


def operations(order: int):
    """(name, call, arity, extra argument) for every kernel operation."""
    yield "add", lambda a, b: a + b, 2, None
    yield "sub", lambda a, b: a - b, 2, None
    yield "mul", lambda a, b: a * b, 2, None
    yield "compose", lambda a, b: a.compose(b), 2, None
    for x in NUMBERS:
        yield "add number", lambda a, x=x: a + x, 1, x
        yield "radd", lambda a, x=x: x + a, 1, x
        yield "sub number", lambda a, x=x: a - x, 1, x
        yield "rsub", lambda a, x=x: x - a, 1, x
        yield "mul number", lambda a, x=x: a * x, 1, x
        yield "rmul", lambda a, x=x: x * a, 1, x
        yield "integral", lambda a, x=x: a.integral(x), 1, x
        yield "scale_argument", lambda a, x=x: a.scale_argument(x), 1, x
        yield "constant", lambda a, x=x: type(a).constant(x, order), 1, x
        yield "compose with a number", lambda a, x=x: a.compose(x), 1, x
    for k in range(-1, order + 2):
        yield "truncate", lambda a, k=k: a.truncate(k), 1, k
        yield "coefficient", lambda a, k=k: a.coefficient(k), 1, k
    for name in ("shift_up", "shift_down", "x_derivative", "derivative", "integral",
                 "exp", "log", "sqrt", "inverse", "first_nonzero"):
        yield name, lambda a, name=name: getattr(a, name)(), 1, None
    yield "neg", lambda a: -a, 1, None
    yield "order", lambda a: a.order, 1, None


class TestAgainstReference:
    """Seeded random operands, built by hand and by the package, mixed, at
    orders -1 to 12: every operation gives the reference's coefficients
    bit for bit, or raises its error type with its message."""

    @pytest.mark.parametrize("order", range(-1, 13))
    def test_every_operation(self, order):
        succeeded = set()
        for seed, constant in enumerate(CONSTANTS):
            rng = random.Random(order * 100 + seed)
            a = random_coeffs(rng, order, constant)
            # b is an inner series for compose on even seeds, and shorter than a on half of them
            b = random_coeffs(rng, order - seed // 4 % 2 if order >= 0 else -1, 0 if seed % 2 == 0 else rng.choice(CONSTANTS))
            for name, call, arity, extra in operations(order):
                for coeffs in [(a,)] if arity == 1 else [(a, b), (b, a)]:
                    want = outcome(call, *map(ReferenceSeries, coeffs))
                    for forms in ((Series, Series), (built, built), (Series, built), (built, Series)):
                        got = outcome(call, *(make(c) for make, c in zip(forms, coeffs)))
                        assert got == want, (name, extra, coeffs, [f.__name__ for f in forms])
                    if want[0] == "series":
                        succeeded.add(name)
        if order >= 0:  # each operation also ran inside its domain
            assert {"add", "mul", "compose", "exp", "log", "sqrt", "inverse", "shift_down"} <= succeeded


def lazy_samples():
    """Package-built series whose ``coeffs`` nobody has read, each made afresh per call."""
    return {
        "parking": lambda: parking_series(6),
        "catalan": lambda: catalan_series(5) * Q(2, 3),
        "distribution": lambda: distribution_series(5).distribution,
        "zero": lambda: prime_series(4) - prime_series(4),
        "order -1": lambda: -(-Series(())),
        "constant": lambda: Series.constant(Q(-3, 6), 2),
    }


VIEWS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda s: pickle.loads(pickle.dumps(s)),
    "pickle bytes": pickle.dumps,
    "replace": dataclasses.replace,
    "asdict": dataclasses.asdict,
    "eq": lambda s: (s == Series((7,)), s != Series(()), Series((7,)) == s, s == s),
    "hash": hash,
    "repr": repr,
    "coefficient": lambda s: [s.coefficient(k) for k in range(s.order + 1)],
    "first_nonzero": lambda s: s.first_nonzero(),
}


class TestLazyCoefficients:
    """A package-built series reads as the same series built by hand."""

    def test_one_field(self):
        assert tuple(f.name for f in dataclasses.fields(Series)) == ("coeffs",)

    @pytest.mark.parametrize("view", VIEWS)
    @pytest.mark.parametrize("sample", lazy_samples())
    def test_view_before_and_after_reading(self, sample, view):
        make, look = lazy_samples()[sample], VIEWS[view]
        lazy, plain = make(), Series(make().coeffs)
        for read in (False, True):
            if read:
                lazy.coeffs
            assert ("coeffs" in vars(lazy)) is read
            got, want = look(lazy), look(plain)
            assert got == want
            assert type(got) is type(want)

    @pytest.mark.parametrize("sample", lazy_samples())
    def test_equal_to_the_same_series_by_hand(self, sample):
        make = lazy_samples()[sample]
        plain = Series(make().coeffs)
        assert make() == plain  # each make() is unread, here on either side
        assert plain == make()
        assert hash(make()) == hash(plain)

    def test_copies_hold_only_coeffs(self):
        s = parking_series(4)
        for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert set(vars(twin)) == {"coeffs"} and twin == s

    def test_other_attributes_are_missing(self):
        with pytest.raises(AttributeError, match="'Series' object has no attribute 'coef'"):
            parking_series(3).coef


# sha256 of the reprs that ``pinned_outputs`` yields, in order, computed with
# the Fraction kernel that ``reference_series.py`` keeps (at commit aa19c53,
# before series kept their integer form).  Every coefficient the layer
# returns is a normalized Fraction, so equal values give equal reprs.
PINNED_SHA256 = "b06fd67cee20fa7de29861607ca6a625cb68e8e14e319eb57ab9c473369f98f5"


def pinned_outputs():
    """All 16 residuals at orders 0-40, the 8 named series and the
    distribution bundle at order 40, and the count table to 60."""
    for name in S.IDENTITY_NAMES:
        for order in range(41):
            yield repr((name, order, S._RESIDUALS[name](order)))
    for make in (S.tree_function, S.catalan_series, S.schroder_series, S.parking_series, S.prime_series,
                 S.prime_distribution_series, S.marked_prime_series, S.marked_distribution_series):
        yield repr(make(40))
    yield repr(S.distribution_series(40))
    yield repr(S.closed_counts(60).rows)


def test_outputs_match_the_fraction_kernel():
    # The second pass finds every named series held at its widest order, so
    # each of its outputs comes from a truncation.
    for _ in ("cold", "warm"):
        digest = hashlib.sha256()
        for text in pinned_outputs():
            digest.update(text.encode())
        assert digest.hexdigest() == PINNED_SHA256
