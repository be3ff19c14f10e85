"""The Fraction series kernel, kept as the tests' reference for ``treepark.series``.

Every operation here reads ``coeffs`` as normalized ``Fraction`` and builds
each result coefficient as one ``Fraction``; the product and recurrence
loops lift their operands to integer numerators over one denominator for
the inner sums only.  The package keeps its series in that integer form
between operations instead; the tests put the same operands through both
and compare the results, and the errors, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul
from typing import Sequence

from treepark.errors import BranchUndefinedError, InputError, OrderMismatchError, _at_least

Q = Fraction


def _as_fraction(x) -> Fraction:
    """``x`` as a Fraction, from anything ``Fraction()`` takes, or an ``InputError``."""
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(x)
    except (TypeError, ValueError, ArithmeticError):  # what Fraction() raises on junk
        raise InputError(f"{x!r} is not a rational number") from None


def _over_one_denominator(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators over the lcm of the denominators of ``coeffs``."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _append(nums: list[int], den: int, c: Fraction, weight: int = 1) -> int:
    """Append ``weight * c`` to the numerators ``nums`` over ``den``, widening
    ``den`` to the lcm with ``c``'s denominator; return the new ``den``.

    The online recurrences keep their finished coefficients this way: the
    common denominator is the lcm of normalized denominators, never a power
    of an input's denominator.
    """
    q = c.denominator
    if den % q:
        grow = q // gcd(den, q)
        nums[:] = [x * grow for x in nums]
        den *= grow
    nums.append(weight * c.numerator * (den // q))
    return den


@dataclass(frozen=True)
class ReferenceSeries:
    """Dense truncated power series with exact rational coefficients."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        try:
            coeffs = tuple(_as_fraction(c) for c in self.coeffs)
        except (TypeError, InputError):  # not iterable, or a coefficient is junk
            raise InputError(f"coefficients {self.coeffs!r} are not rational numbers") from None
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def constant(value, order: int) -> "ReferenceSeries":
        return _series((_as_fraction(value),) + (Q(0),) * _at_least(order, 0, "order"))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        beyond = f"coefficient {k} beyond truncation order {self.order}"
        if _at_least(k, 0, "coefficient", message=beyond) > self.order:
            raise OrderMismatchError(beyond)
        return self.coeffs[k]

    def truncate(self, order: int) -> "ReferenceSeries":
        if _at_least(order, 0, "order") > self.order:
            raise OrderMismatchError(f"cannot extend order {self.order} to {order}")
        return _series(self.coeffs[: order + 1])

    def first_nonzero(self) -> tuple[int, Fraction] | None:
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k, c
        return None

    def _constant_term(self, what: str) -> Fraction:
        """c_0, or an ``OrderMismatchError``: a series of order -1 has none."""
        if not self.coeffs:
            raise OrderMismatchError(f"{what} needs a constant term, and a series of order -1 has none")
        return self.coeffs[0]

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "ReferenceSeries":
        if isinstance(other, ReferenceSeries):
            return _series(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))
        other = _as_fraction(other)
        return _series((self._constant_term("adding a number") + other,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self) -> "ReferenceSeries":
        return _series(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "ReferenceSeries":
        return self + (-other if isinstance(other, ReferenceSeries) else -_as_fraction(other))

    def __rsub__(self, other) -> "ReferenceSeries":
        return (-self) + _as_fraction(other)

    def __mul__(self, other) -> "ReferenceSeries":
        if not isinstance(other, ReferenceSeries):
            other = _as_fraction(other)
            return _series(tuple(c * other for c in self.coeffs))
        n = min(self.order, other.order)
        a, da = _over_one_denominator(self.coeffs[: n + 1])
        b, db = _over_one_denominator(other.coeffs[: n + 1])
        den = da * db
        return _series(tuple(Q(sum(map(mul, a[: k + 1], b[k::-1])), den) for k in range(n + 1)))

    __rmul__ = __mul__

    def shift_up(self) -> "ReferenceSeries":
        """Multiply by x; the order grows by one."""
        return _series((Q(0),) + self.coeffs)

    def shift_down(self) -> "ReferenceSeries":
        """Divide by x; requires a vanishing constant term."""
        if self._constant_term("dividing by x") != 0:
            raise BranchUndefinedError("cannot divide by x: constant term is nonzero")
        return _series(self.coeffs[1:])

    def x_derivative(self) -> "ReferenceSeries":
        """x * d/dx, which keeps the order."""
        return _series(tuple(k * c for k, c in enumerate(self.coeffs)))

    def derivative(self) -> "ReferenceSeries":
        return _series(tuple(k * c for k, c in enumerate(self.coeffs))[1:])

    def integral(self, constant=0) -> "ReferenceSeries":
        return _series(
            (_as_fraction(constant),)
            + tuple(c / (k + 1) for k, c in enumerate(self.coeffs))
        )

    # -- transcendental operations -------------------------------------------

    def exp(self) -> "ReferenceSeries":
        if self._constant_term("exp") != 0:
            raise BranchUndefinedError("exp needs a vanishing constant term")
        a, d = _over_one_denominator(self.coeffs)
        ja = [j * x for j, x in enumerate(a)]
        out, o, den = [Q(1)], [1], 1  # o: numerators of out over den
        for k in range(1, self.order + 1):
            # out_k = sum over j = 1..k of j a_j out_{k-j}, over k
            c = Q(sum(map(mul, ja[1 : k + 1], o[k - 1 :: -1])), d * den * k)
            out.append(c)
            den = _append(o, den, c)
        return _series(tuple(out))

    def log(self) -> "ReferenceSeries":
        if self._constant_term("log") != 1:
            raise BranchUndefinedError("log needs constant term 1")
        a, d = _over_one_denominator(self.coeffs)
        out, jo, den = [Q(0)], [0], 1  # jo: j out_j over den
        for k in range(1, self.order + 1):
            # out_k = k a_k - sum over j = 1..k-1 of j out_j a_{k-j}, over k
            acc = k * a[k] * den - sum(map(mul, jo[1:k], a[k - 1 : 0 : -1]))
            c = Q(acc, d * den * k)
            out.append(c)
            den = _append(jo, den, c, k)
        return _series(tuple(out))

    def sqrt(self) -> "ReferenceSeries":
        """Principal branch: the constant term of the result is the positive
        exact square root of c_0, which must be a perfect square rational."""
        c0 = self._constant_term("sqrt")
        root_num, root_den = isqrt(abs(c0.numerator)), isqrt(c0.denominator)
        if c0 < 0 or root_num * root_num != c0.numerator or root_den * root_den != c0.denominator:
            raise BranchUndefinedError(f"constant term {c0} is not a perfect square")
        if root_num == 0:
            raise BranchUndefinedError("sqrt with vanishing constant term is not a power series")
        a, d = _over_one_denominator(self.coeffs)
        out, o = [Q(root_num, root_den)], []  # o: numerators of out over den
        den = _append(o, 1, out[0])
        for k in range(1, self.order + 1):
            # out_k = a_k - sum over j = 1..k-1 of out_j out_{k-j}, over 2 out_0
            acc = a[k] * den * den - d * sum(map(mul, o[1:k], o[k - 1 : 0 : -1]))
            c = Q(acc * root_den, 2 * root_num * d * den * den)
            out.append(c)
            den = _append(o, den, c)
        return _series(tuple(out))

    def inverse(self) -> "ReferenceSeries":
        if self._constant_term("inverse") == 0:
            raise BranchUndefinedError("cannot invert a series with zero constant term")
        a, d = _over_one_denominator(self.coeffs)
        out, o = [Q(d, a[0])], []  # o: numerators of out over den
        den = _append(o, 1, out[0])
        for k in range(1, self.order + 1):
            # out_k = -(sum over j = 1..k of a_j out_{k-j}) / a_0
            c = Q(-sum(map(mul, a[1 : k + 1], o[k - 1 :: -1])), den * a[0])
            out.append(c)
            den = _append(o, den, c)
        return _series(tuple(out))

    def compose(self, inner: "ReferenceSeries") -> "ReferenceSeries":
        """Substitute ``inner`` (which must have no constant term) into self.

        Truncated Horner: the accumulator for a_k is later multiplied by
        inner^k, of valuation >= k, so it needs order n - k only.
        """
        if not isinstance(inner, ReferenceSeries):
            raise InputError(f"cannot compose with {inner!r}: not a Series")
        n = min(self.order, inner.order)
        if n < 0:
            raise OrderMismatchError(f"cannot compose series of orders {self.order} and {inner.order}")
        if inner.coeffs[0] != 0:
            raise BranchUndefinedError("composition needs an inner series with zero constant term")
        a = self.coeffs
        acc = _series((a[n],))
        b = inner.truncate(n).shift_down()
        for k in range(n - 1, -1, -1):
            acc = (acc * b).shift_up() + a[k]
        return acc

    def scale_argument(self, factor) -> "ReferenceSeries":
        """f(x) -> f(factor * x)."""
        factor = _as_fraction(factor)
        return _series(tuple(c * factor**k for k, c in enumerate(self.coeffs)))


def _series(coeffs: tuple[Fraction, ...]) -> ReferenceSeries:
    """A series built here, its coefficients all ``Fraction`` already:
    ``__post_init__`` would pass each through unchanged, so it is skipped."""
    made = object.__new__(ReferenceSeries)
    object.__setattr__(made, "coeffs", coeffs)
    return made
