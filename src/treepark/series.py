"""Exact truncated power series and the count identities built on them.

A ``Series`` the package builds holds its coefficients as integer
numerators over one denominator, the lcm of their normalized denominators
(so the numerators and the denominator have no common factor); nothing in
this module is allowed to round.  Every kernel operation reads and writes
that form and reduces its result by one gcd; a recurrence (``exp``,
``log``, ``sqrt``, ``inverse`` and the ODE step) keeps its finished
coefficients over the lcm of their own denominators and never scales step
k by d^k, which on the distribution series' denominators would grow far
faster than the coefficients.  ``coeffs``, the one field, is built as
normalized :class:`fractions.Fraction` on first read, and a series built
through the public constructor is lifted to the integer form once, on its
first operation; ``repr``, ``==``, ``hash``, copies and pickles read
``coeffs``, so they see no difference.  A series of order N stores
c_0..c_N; order -1 has no coefficients, and an operation that needs a
constant term refuses it with ``OrderMismatchError``.  Binary operations
truncate to the smaller order of their operands, so precision loss is
explicit in the result's order.

Normalizations: the parking and prime series divide count n by (n!)^2,
covering relabelings of the tree and reorderings of the sequence; the
distribution series divide by n! only, since a weakly increasing sequence
has no reorderings.

The distribution series is solved from its differential equation online,
each coefficient from the ones before it (the relaxed scheme of van der
Hoeven), and checked against the equation once.  Beyond that self-check,
:func:`check_identities` is the one place that verifies identities: the
named series and the count table run none.  Every named series takes any
order >= 0; a bad order or size raises ``OrderMismatchError`` naming it.

Each named series is built once, at the widest order asked so far in the
process, and a lower order is served by truncating it (``_widest``), so the
residuals of one :func:`check_identities` call share their series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from math import comb, factorial, gcd, isqrt, lcm
from operator import mul
from typing import Callable, NamedTuple, Sequence

from .errors import (
    IDENTITY_NAMES,
    BranchUndefinedError,
    IdentityViolatedError,
    InputError,
    OrderMismatchError,
    _NoAttributeError,
    _at_least,
    _ints,
    _shown,
)

Q = Fraction


def _as_fraction(x) -> Fraction:
    """``x`` as a Fraction, from anything ``Fraction()`` takes, or an ``InputError``."""
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(x)
    except (TypeError, ValueError, ArithmeticError):  # what Fraction() raises on junk
        raise InputError(f"{_shown(x)} is not a rational number") from None


def _over_one_denominator(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators over the lcm of the denominators of ``coeffs``."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _ratio(p: int, q: int) -> tuple[int, int]:
    """p/q in lowest terms with a positive denominator, as ``Fraction`` keeps it."""
    g = gcd(p, q)
    if q < 0:
        g = -g
    return p // g, q // g


def _append(nums: list[int], den: int, p: int, q: int, weight: int = 1) -> int:
    """Append ``weight * p/q`` (in lowest terms) to the numerators ``nums``
    over ``den``, widening ``den`` to the lcm with q; return the new ``den``.

    The online recurrences keep their finished coefficients this way: the
    common denominator is the lcm of normalized denominators, never a power
    of an input's denominator.
    """
    if den % q:
        grow = q // gcd(den, q)
        nums[:] = [x * grow for x in nums]
        den *= grow
    nums.append(weight * p * (den // q))
    return den


@dataclass(frozen=True)
class Series:
    """Dense truncated power series with exact rational coefficients."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        try:
            coeffs = tuple(_as_fraction(c) for c in self.coeffs)
        except (TypeError, InputError):  # not iterable, or a coefficient is junk
            raise InputError(f"coefficients {_shown(self.coeffs)} are not rational numbers") from None
        object.__setattr__(self, "coeffs", coeffs)

    def __getattr__(self, name: str):
        # Reached only when ``coeffs`` is not built yet, on a series the
        # package made: build it from the integer form, once.
        held = self.__dict__
        if name == "coeffs" and "_num_den" in held:
            nums, den = held["_num_den"]
            coeffs = held["coeffs"] = tuple(Q(x, den) for x in nums)
            return coeffs
        raise _NoAttributeError(f"{type(self).__name__!r} object has no attribute {_shown(name)}")

    def __getstate__(self) -> dict:
        """Copies and pickles carry ``coeffs`` alone, as a series built by hand does."""
        return {"coeffs": self.coeffs}

    @staticmethod
    def constant(value, order: int) -> "Series":
        value = _as_fraction(value)
        return _series([value.numerator] + [0] * _at_least(order, 0, "order"), value.denominator)

    @property
    def order(self) -> int:
        return len(_lifted(self)[0]) - 1

    def coefficient(self, k: int) -> Fraction:
        nums, den = _lifted(self)
        beyond = "coefficient {value} beyond truncation order {most}"
        k = _at_least(k, 0, "coefficient", OrderMismatchError, beyond, most=len(nums) - 1)
        return Q(nums[k], den)

    def truncate(self, order: int) -> "Series":
        nums, den = _lifted(self)
        if _at_least(order, 0, "order") >= len(nums):
            raise OrderMismatchError(f"cannot extend order {len(nums) - 1} to {_shown(order)}")
        return _reduced(nums[: order + 1], den)

    def first_nonzero(self) -> tuple[int, Fraction] | None:
        nums, den = _lifted(self)
        for k, x in enumerate(nums):
            if x:
                return k, Q(x, den)
        return None

    def _with_constant(self, what: str) -> tuple[list[int], int]:
        """The integer form, or an ``OrderMismatchError``: a series of order -1
        has no constant term."""
        nums, den = _lifted(self)
        if not nums:
            raise OrderMismatchError(f"{what} needs a constant term, and a series of order -1 has none")
        return nums, den

    def _plus(self, p: int, q: int) -> "Series":
        """p/q added to the constant term."""
        nums, den = self._with_constant("adding a number")
        full = lcm(den, q)
        grow = full // den
        out = [x * grow for x in nums]
        out[0] += p * (full // q)
        return _reduced(out, full)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "Series":
        if isinstance(other, Series):
            (a, da), (b, db) = _lifted(self), _lifted(other)
            den = lcm(da, db)
            sa, sb = den // da, den // db
            return _reduced([x * sa + y * sb for x, y in zip(a, b)], den)
        other = _as_fraction(other)
        return self._plus(other.numerator, other.denominator)

    __radd__ = __add__

    def __neg__(self) -> "Series":
        nums, den = _lifted(self)
        return _series([-x for x in nums], den)

    def __sub__(self, other) -> "Series":
        return self + (-other if isinstance(other, Series) else -_as_fraction(other))

    def __rsub__(self, other) -> "Series":
        return (-self) + _as_fraction(other)

    def __mul__(self, other) -> "Series":
        a, da = _lifted(self)
        if not isinstance(other, Series):
            other = _as_fraction(other)
            return _reduced([x * other.numerator for x in a], da * other.denominator)
        b, db = _lifted(other)
        n = min(len(a), len(b))
        # The longer operand's tail is cut off, and so may be part of its
        # denominator: the products then run on smaller numerators.
        a, da = _lowest(a[:n], da) if len(a) > n else (a, da)
        b, db = _lowest(b[:n], db) if len(b) > n else (b, db)
        return _reduced([sum(map(mul, a[: k + 1], b[k::-1])) for k in range(n)], da * db)

    __rmul__ = __mul__

    def shift_up(self) -> "Series":
        """Multiply by x; the order grows by one."""
        nums, den = _lifted(self)
        return _series([0] + nums, den)

    def shift_down(self) -> "Series":
        """Divide by x; requires a vanishing constant term."""
        nums, den = self._with_constant("dividing by x")
        if nums[0]:
            raise BranchUndefinedError("cannot divide by x: constant term is nonzero")
        return _series(nums[1:], den)

    def x_derivative(self) -> "Series":
        """x * d/dx, which keeps the order."""
        nums, den = _lifted(self)
        return _reduced([k * x for k, x in enumerate(nums)], den)

    def derivative(self) -> "Series":
        nums, den = _lifted(self)
        return _reduced([k * x for k, x in enumerate(nums)][1:], den)

    def integral(self, constant=0) -> "Series":
        constant = _as_fraction(constant)
        nums, den = _lifted(self)
        steps = [den * k for k in range(1, len(nums) + 1)]
        return _ratios([constant.numerator, *nums], [constant.denominator, *steps])

    # -- transcendental operations -------------------------------------------

    def exp(self) -> "Series":
        a, d = self._with_constant("exp")
        if a[0]:
            raise BranchUndefinedError("exp needs a vanishing constant term")
        ja = [j * x for j, x in enumerate(a)]
        o, den = [1], 1  # o: numerators of the result over den
        for k in range(1, len(a)):
            # out_k = sum over j = 1..k of j a_j out_{k-j}, over k
            den = _append(o, den, *_ratio(sum(map(mul, ja[1 : k + 1], o[k - 1 :: -1])), d * den * k))
        return _series(o, den)

    def log(self) -> "Series":
        a, d = self._with_constant("log")
        if a[0] != d:
            raise BranchUndefinedError("log needs constant term 1")
        ps, qs, jo, den = [0], [1], [0], 1  # out_j = ps[j] / qs[j]; jo: j out_j over den
        for k in range(1, len(a)):
            # out_k = k a_k - sum over j = 1..k-1 of j out_j a_{k-j}, over k
            p, q = _ratio(k * a[k] * den - sum(map(mul, jo[1:k], a[k - 1 : 0 : -1])), d * den * k)
            ps.append(p)
            qs.append(q)
            den = _append(jo, den, p, q, k)
        return _ratios(ps, qs)

    def sqrt(self) -> "Series":
        """Principal branch: the constant term of the result is the positive
        exact square root of c_0, which must be a perfect square rational."""
        a, d = self._with_constant("sqrt")
        c0 = Q(a[0], d)
        root_num, root_den = isqrt(abs(c0.numerator)), isqrt(c0.denominator)
        if c0 < 0 or root_num * root_num != c0.numerator or root_den * root_den != c0.denominator:
            raise BranchUndefinedError(f"constant term {c0} is not a perfect square")
        if root_num == 0:
            raise BranchUndefinedError("sqrt with vanishing constant term is not a power series")
        o = []  # numerators of the result over den
        den = _append(o, 1, root_num, root_den)
        for k in range(1, len(a)):
            # out_k = a_k - sum over j = 1..k-1 of out_j out_{k-j}, over 2 out_0
            acc = a[k] * den * den - d * sum(map(mul, o[1:k], o[k - 1 : 0 : -1]))
            den = _append(o, den, *_ratio(acc * root_den, 2 * root_num * d * den * den))
        return _series(o, den)

    def inverse(self) -> "Series":
        a, d = self._with_constant("inverse")
        if a[0] == 0:
            raise BranchUndefinedError("cannot invert a series with zero constant term")
        o = []  # numerators of the result over den
        den = _append(o, 1, *_ratio(d, a[0]))
        for k in range(1, len(a)):
            # out_k = -(sum over j = 1..k of a_j out_{k-j}) / a_0
            den = _append(o, den, *_ratio(-sum(map(mul, a[1 : k + 1], o[k - 1 :: -1])), den * a[0]))
        return _series(o, den)

    def compose(self, inner: "Series") -> "Series":
        """Substitute ``inner`` (which must have no constant term) into self.

        Truncated Horner: the accumulator for a_k is later multiplied by
        inner^k, of valuation >= k, so it needs order n - k only.
        """
        if not isinstance(inner, Series):
            raise InputError(f"cannot compose with {_shown(inner)}: not a Series")
        n = min(self.order, inner.order)
        if n < 0:
            raise OrderMismatchError(f"cannot compose series of orders {self.order} and {inner.order}")
        if _lifted(inner)[0][0]:
            raise BranchUndefinedError("composition needs an inner series with zero constant term")
        a, d = _lifted(self)
        acc = _reduced([a[n]], d)
        b = inner.truncate(n).shift_down()
        for k in range(n - 1, -1, -1):
            acc = (acc * b).shift_up()._plus(a[k], d)
        return acc

    def scale_argument(self, factor) -> "Series":
        """f(x) -> f(factor * x)."""
        factor = _as_fraction(factor)
        p, q = factor.numerator, factor.denominator
        nums, den = _lifted(self)
        return _ratios([x * p**k for k, x in enumerate(nums)], [den * q**k for k in range(len(nums))])


def _series(nums: list[int], den: int) -> Series:
    """A series the package built: numerators over ``den``, with no factor
    common to all of them, and a list that nothing mutates afterwards.  Its
    ``coeffs`` are built on first read; ``__post_init__`` is skipped."""
    made = object.__new__(Series)
    made.__dict__["_num_den"] = (nums, den)
    return made


def _lowest(nums: list[int], den: int) -> tuple[list[int], int]:
    """nums/den with their common factor divided out."""
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [x // g for x in nums], den // g


def _reduced(nums: list[int], den: int) -> Series:
    """:func:`_series` of nums/den in lowest terms."""
    return _series(*_lowest(nums, den))


def _ratios(ps: Sequence[int], qs: Sequence[int]) -> Series:
    """The series with coefficients ps[k] / qs[k], each qs[k] > 0 and the
    pairs in any terms."""
    den = lcm(*qs)
    return _reduced([p * (den // q) for p, q in zip(ps, qs)], den)


def _lifted(s: Series) -> tuple[list[int], int]:
    """``s`` as (numerators, den); a series built by hand is lifted once."""
    held = s.__dict__
    form = held.get("_num_den")
    if form is None:
        form = held["_num_den"] = _over_one_denominator(held["coeffs"])
    return form


def x_series(order: int) -> Series:
    _at_least(order, 0, "order")
    return _series([0, 1, *[0] * (order - 1)][: order + 1], 1)


# ---------------------------------------------------------------------------
# Named series
# ---------------------------------------------------------------------------

# The widest integer form each named series has been built at, by builder
# name.  The lists are shared with every series served from them, so they
# rely on the contract of :func:`_series`: nothing mutates them.
_WIDEST: dict[str, tuple[list[int], int]] = {}


def _widest(build: Callable[[int], Series]) -> Callable[[int], Series]:
    """``build``, keeping the widest series it has built and serving a lower
    order by truncating that one.  This is exact: coefficient k of each named
    series depends on the ones below it alone, and both ``build`` and
    ``truncate`` give lowest terms, so the integer form is the same.  The
    order is checked first; a build that raises leaves the memo as it was.
    Each call returns a new series, whose ``coeffs`` nobody has read."""
    name = build.__name__

    @wraps(build)
    def named(order: int) -> Series:
        _at_least(order, 0, "order")
        form = _WIDEST.get(name)
        if form is None or len(form[0]) <= order:
            form = _WIDEST[name] = _lifted(build(order))
        nums, den = form
        return _series(nums, den) if len(nums) == order + 1 else _reduced(nums[: order + 1], den)

    return named


def _reset_memo() -> None:
    """Empty the memo of every named series."""
    _WIDEST.clear()


@_widest
def tree_function(order: int) -> Series:
    """Exponential series of labeled rooted trees: sum n^(n-1) x^n / n!."""
    sizes = range(1, order + 1)
    return _ratios([0] + [n ** (n - 1) for n in sizes], [1] + [factorial(n) for n in sizes])


@_widest
def catalan_series(order: int) -> Series:
    """(1 - sqrt(1 - 4x)) / (2x); coefficients are the Catalan numbers."""
    radicand = _series([1, -4] + [0] * order, 1)  # order + 1
    return ((1 - radicand.sqrt()).shift_down()) * Q(1, 2)


@_widest
def schroder_series(order: int) -> Series:
    """(1 - x - sqrt(x^2 - 6x + 1)) / (2x); the large Schroeder numbers."""
    radicand = _series([1, -6, 1] + [0] * max(order - 1, 0), 1)  # order + 1
    numerator = _series([1, -1] + [0] * order, 1) - radicand.sqrt()
    return numerator.shift_down() * Q(1, 2)


def catalan_number(n: int) -> int:
    return comb(2 * _at_least(n, 0, "n"), n) // (n + 1)


def _schroder_numbers(count: int) -> list[int]:
    """The large Schroeder numbers S_0 .. S_{count-1}, by the recurrence
    (n + 1) S_n = 3 (2n - 1) S_{n-1} - (n - 2) S_{n-2} from S_0 = 1, S_1 = 2,
    one product and one exact division each."""
    numbers = [1, 2][: max(count, 0)]
    for n in range(2, count):
        numbers.append((3 * (2 * n - 1) * numbers[n - 1] - (n - 2) * numbers[n - 2]) // (n + 1))
    return numbers


def schroder_number(n: int) -> int:
    """Large Schroeder number: lattice paths from (0, 0) to (n, n) with unit
    east, north and diagonal steps that never rise above the diagonal."""
    return _schroder_numbers(_at_least(n, 0, "n") + 1)[n]


def parking_count(n: int) -> int:
    """Closed form for the number of (tree, parking function) pairs on n
    vertices: (n-1)!^2 sum over i < n of (n - i) (2n)^i / i!, summed in
    integers as (n-1)! sum of (n - i) (2n)^i (n-1)!/i!."""
    total, falling = 0, 1  # falling = (n-1)!/i!
    for i in range(_at_least(n, 1, "n") - 1, -1, -1):
        total += (n - i) * (2 * n) ** i * falling
        falling *= i
    return factorial(n - 1) * total


def prime_count(n: int) -> int:
    return factorial(2 * _at_least(n, 1, "n") - 2)


def prime_distribution_count(n: int) -> int:
    return factorial(_at_least(n, 1, "n") - 1) * _schroder_numbers(n)[n - 1]


@_widest
def parking_series(order: int) -> Series:
    """Parking-pair series built from the tree function:
    T(2x) + log(1 - T(2x)/2), with coefficient of x^n equal to count/(n!)^2."""
    t2 = tree_function(order).scale_argument(2)
    return t2 + (1 - t2 * Q(1, 2)).log()


@_widest
def prime_series(order: int) -> Series:
    """Prime-pair series sum (2n-2)! x^n / (n!)^2, read off :func:`prime_count`."""
    sizes = range(1, order + 1)
    return _ratios([0] + [prime_count(n) for n in sizes], [1] + [factorial(n) ** 2 for n in sizes])


def _distribution_rhs(f: Series) -> Series:
    e = f.x_derivative()
    return f.exp() * (1 + e) * (1 + 2 * e)


@_widest
def _distribution_series(order: int) -> Series:
    """Solve f' = exp(f) (1 + x f') (1 + 2x f') with f(0) = 0, online.

    With e = x f', g = exp(f) and h = (1 + e)(1 + 2e) = 1 + 3e + 2e^2, step k
    knows f_0..f_k: it extends e by e_k = k f_k, g by the recurrence of
    :meth:`Series.exp` and h by h_k, and sets f_{k+1} = [x^k](g h) / (k + 1).
    That is O(order^2) integer products in all: e, g and h are kept as
    numerators over de, dg and dh, as in :meth:`Series.exp`.  One evaluation
    of the right-hand side then confirms the equation, or raises
    ``IdentityViolatedError``.  Both run once per build; a lower order is a
    truncation of the widest solve (``_widest``), so :func:`check_identities`
    solves at most twice, at ``order`` and ``order + 1``.
    """
    fp, fq = [0] * (order + 1), [1] * (order + 1)  # f_k = fp[k] / fq[k]
    (e, de), (g, dg), (h, dh) = ([0], 1), ([1], 1), ([1], 1)
    for k in range(order):
        if k:
            de = _append(e, de, fp[k], fq[k], k)
            dg = _append(g, dg, *_ratio(sum(map(mul, e[1 : k + 1], g[k - 1 :: -1])), de * dg * k))
            dh = _append(h, dh, *_ratio(3 * e[k] * de + 2 * sum(map(mul, e[1:k], e[k - 1 : 0 : -1])), de * de))
        fp[k + 1], fq[k + 1] = _ratio(sum(map(mul, g, h[::-1])), dg * dh * (k + 1))
    solved = _ratios(fp, fq)
    bad = (solved.derivative() - _distribution_rhs(solved)).first_nonzero()
    if bad is not None:
        raise IdentityViolatedError(f"distribution ODE: residual {bad[1]} at x^{bad[0]}")
    return solved


@_widest
def prime_distribution_series(order: int) -> Series:
    sizes = range(1, order + 1)
    return _ratios([0] + _schroder_numbers(order), [1, *sizes])


class DistributionSeries(NamedTuple):
    distribution: Series  # exponential series of parking distributions
    prime_distribution: Series  # ... of prime parking distributions
    marked_prime: Series  # prime distributions with a marked leaf
    marked_distribution: Series  # distributions with a marked leaf


def distribution_series(order: int) -> DistributionSeries:
    """The four distribution series, each computed once, from one ODE solve."""
    f = _distribution_series(order)
    p = prime_distribution_series(order)
    return DistributionSeries(f, p, _marked(p, 1), _marked(f, 2))


def _marked(inner: Series, factor: int) -> Series:
    """x + factor * x^2 * inner', at the order of ``inner``."""
    return (x_series(inner.order + 1) + factor * inner.x_derivative().shift_up()).truncate(inner.order)


def marked_prime_series(order: int) -> Series:
    """x + x^2 * (prime distribution series)'."""
    return _marked(prime_distribution_series(order), 1)


def marked_distribution_series(order: int) -> Series:
    """x + 2 x^2 * (distribution series)'."""
    return _marked(_distribution_series(order), 2)


# ---------------------------------------------------------------------------
# Identity residuals
# ---------------------------------------------------------------------------


@_widest
def _closed_parking_series(order: int) -> Series:
    sizes = range(1, order + 1)
    return _ratios([0] + [parking_count(n) for n in sizes], [1] + [factorial(n) ** 2 for n in sizes])


def _residual_parking_gf(order: int) -> Series:
    return parking_series(order) - _closed_parking_series(order)


def _residual_parking_composition(order: int) -> Series:
    f = parking_series(order)
    z = f.exp().shift_up().truncate(order)
    return f - prime_series(order).compose(z)


def _residual_combined_composition(order: int) -> Series:
    # Closed parking counts on the inner side, the tree-function form on the
    # other: unlike parking-composition, neither side is built from the other.
    z = _closed_parking_series(order).exp().shift_up().truncate(order)
    return prime_series(order).compose(z) - parking_series(order)


def _residual_catalan_ratio(order: int) -> Series:
    c = catalan_series(order + 1)
    xc = c.shift_up().truncate(order + 1)
    lhs = c.truncate(order) * xc.derivative().inverse()
    rhs = (1 - 2 * xc.truncate(order)) * (1 - xc.truncate(order)).inverse()
    return lhs - rhs


def _residual_prime_derivative(order: int) -> Series:
    return prime_series(order + 1).derivative() - catalan_series(order)


def _residual_prime_log_form(order: int) -> Series:
    c = catalan_series(order)
    xc = c.shift_up().truncate(order)
    return prime_series(order) - (2 * xc + (1 - xc).log())


def _residual_distribution_composition(order: int) -> Series:
    f = _distribution_series(order)
    z = f.exp().shift_up().truncate(order)
    return f - prime_distribution_series(order).compose(z)


def _leaf_marked(order: int, counts: Sequence[int], factor: int) -> Series:
    """x + sum over n >= 2 of factor n (n - 1) counts[n - 1] x^n / n!: a marked
    leaf, counted from the unmarked structures one size down."""
    sizes = range(2, order + 1)
    return _ratios(
        [0, 1][: order + 1] + [factor * n * (n - 1) * counts[n - 1] for n in sizes],
        [1, 1][: order + 1] + [factorial(n) for n in sizes],
    )


def _residual_marked_prime_sum(order: int) -> Series:
    counts = [0] + [factorial(k) * s for k, s in enumerate(_schroder_numbers(order - 1))]
    return marked_prime_series(order) - _leaf_marked(order, counts, 1)


def _residual_marked_prime_recursion(order: int) -> Series:
    p = prime_distribution_series(order + 1)
    star = _marked(p.truncate(order), 1)
    d = p.derivative()
    denom = (1 - d.shift_up()).truncate(order)
    return star - (x_series(order) + (star * denom.inverse()).shift_up().truncate(order))


def _residual_schroder_quadratic(order: int) -> Series:
    d = prime_distribution_series(order + 1).derivative()
    quad = (d * d).shift_up().truncate(order)
    return quad + d.shift_up().truncate(order) - d.truncate(order) + 1


def _residual_schroder_gf(order: int) -> Series:
    return prime_distribution_series(order + 1).derivative() - schroder_series(order)


def _residual_marked_distribution_sum(order: int) -> Series:
    f = _distribution_series(order)
    counts = [_series_count(f, n, factorial(n), "distribution count") for n in range(order)]
    return _marked(f, 2) - _leaf_marked(order, counts, 2)


def _residual_marked_distribution_recursion(order: int) -> Series:
    f = _distribution_series(order + 1)
    return _marked_recursion(_marked(f.truncate(order), 2), f, order)


def _residual_marked_distribution_unnormalized(order: int) -> Series:
    # Same shape as the recursion above but with the doubly-factorial parking
    # series in place of the distribution series.  Informational: the two
    # normalizations differ, so the residual is not expected to vanish.
    return _marked_recursion(marked_distribution_series(order), parking_series(order + 1), order)


def _marked_recursion(star: Series, f: Series, order: int) -> Series:
    """star - (x + x star e^f + x^2 f' + x^2 star f' e^f), f one order longer."""
    ef = f.truncate(order).exp()
    fd = f.derivative()
    term1 = (star * ef).shift_up().truncate(order)
    term2 = fd.shift_up().shift_up().truncate(order)
    term3 = (star * fd.truncate(order) * ef).shift_up().shift_up().truncate(order)
    return star - (x_series(order) + term1 + term2 + term3)


def _residual_distribution_ode(order: int) -> Series:
    f = _distribution_series(order + 1)
    return f.derivative() - _distribution_rhs(f.truncate(order))


def _residual_parking_ode(order: int) -> Series:
    f = parking_series(order + 1)
    one_plus = (1 + f.truncate(order).x_derivative())
    return f.derivative() - f.truncate(order).exp() * one_plus * one_plus


# Each identity's residual, by the name of its function: a name with no
# function fails here, at import.
_RESIDUALS: dict[str, Callable[[int], Series]] = {
    name: globals()["_residual_" + name.replace("-", "_")] for name in IDENTITY_NAMES
}

# Residuals that document a relation without being expected to vanish.
INFORMATIONAL_IDENTITIES = frozenset({"marked-distribution-unnormalized"})


@dataclass(frozen=True)
class IdentityResult:
    name: str
    order: int
    first_bad: tuple[int, Fraction] | None
    expected_zero: bool

    @property
    def ok(self) -> bool:
        return self.first_bad is None or not self.expected_zero


def check_identity(name: str, order: int) -> IdentityResult:
    if name not in IDENTITY_NAMES:  # a tuple: an unhashable name is unknown too
        raise InputError(f"unknown identity {_shown(name)}")
    _at_least(order, 0, "order")
    residual = _RESIDUALS[name](order)
    return IdentityResult(
        name, residual.order, residual.first_nonzero(), name not in INFORMATIONAL_IDENTITIES
    )


def check_identities(order: int, names: Sequence[str] | None = None) -> list[IdentityResult]:
    """Every identity, or those in ``names``, in order.  The residuals share
    the named series they read: each is built at most once per order asked,
    and not at all if a wider one is held already."""
    _at_least(order, 0, "order")
    if not isinstance(names, (list, tuple, type(None))):  # a string would iterate by letter
        raise InputError(f"names must be a list or tuple of identity names, got {_shown(names)}")
    return [check_identity(name, order) for name in (IDENTITY_NAMES if names is None else names)]


# ---------------------------------------------------------------------------
# Exact count table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountRow:
    n: int
    parking: int
    prime: int
    distribution: int
    prime_distribution: int
    marked_prime: int
    marked_distribution: int
    catalan: int
    schroder: int


@dataclass(frozen=True)
class CountTable:
    rows: tuple[CountRow, ...]

    def row(self, n: int) -> CountRow:
        _ints((n,), OrderMismatchError, "row", 1, len(self.rows))
        return self.rows[n - 1]


def _series_count(series: Series, n: int, normalization: int, what: str) -> int:
    value = series.coefficient(n) * normalization
    if value.denominator != 1:
        raise IdentityViolatedError(f"{what}: coefficient {n} times {normalization} is {value}")
    return value.numerator


def closed_counts(max_n: int) -> CountTable:
    """Exact integer counts for n = 1..max_n.

    Each parking count must equal the tree-function series coefficient times
    (n!)^2, and each distribution count, read off the solved ODE, must be an
    integer; a failure raises ``IdentityViolatedError``.
    """
    _at_least(max_n, 1, "max_n")
    parking = parking_series(max_n)
    f = _distribution_series(max_n)
    ft = [_series_count(f, n, factorial(n), "distribution count") for n in range(max_n + 1)]
    schroder = _schroder_numbers(max_n)
    pt = [0] + [factorial(k) * s for k, s in enumerate(schroder)]  # the prime distribution counts
    rows = []
    for n in range(1, max_n + 1):
        f_n = parking_count(n)
        got = _series_count(parking, n, factorial(n) ** 2, "parking count")
        if got != f_n:
            raise IdentityViolatedError(f"parking count at n={n}: series gives {got}, closed form {f_n}")
        ps_n = 1 if n == 1 else n * (n - 1) * pt[n - 1]
        fs_n = 1 if n == 1 else 2 * n * (n - 1) * ft[n - 1]
        rows.append(CountRow(
            n, f_n, prime_count(n), ft[n], pt[n], ps_n, fs_n, catalan_number(n - 1), schroder[n - 1],
        ))
    return CountTable(tuple(rows))
