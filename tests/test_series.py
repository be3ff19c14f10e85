"""Exact series kernel and the generating-function identities."""

import copy
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as Q
from functools import partial
from math import comb, factorial, lcm
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import treepark
from treepark import (
    BranchUndefinedError,
    IDENTITY_NAMES,
    IdentityViolatedError,
    InputError,
    OrderMismatchError,
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
from treepark.series import (
    DistributionSeries,
    marked_distribution_series,
    marked_prime_series,
    x_series,
)

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def series_strategy(order: int, constant=None):
    body = st.lists(rationals, min_size=order, max_size=order)
    if constant is None:
        head = rationals
    else:
        head = st.just(Q(constant))
    return st.tuples(head, body).map(lambda t: Series((t[0], *t[1])))


def picard_iterations(order: int):
    """Whole-series iterates f -> integral of exp(f) (1 + x f') (1 + 2x f'),
    from f = x, until one repeats: a reference for the online ODE solve."""
    f = x_series(order)
    yield f
    for _ in range(order + 1):
        xd = f.x_derivative()
        rhs = f.exp() * (1 + xd) * (1 + 2 * xd)
        nxt = Series((Q(0),) + tuple(rhs.coeffs[k - 1] / k for k in range(1, order + 1)))
        yield nxt
        if nxt == f:
            return
        f = nxt
    raise AssertionError(f"no fixed point within {order + 1} rounds")


def random_series(rng: random.Random, order: int, constant=None) -> Series:
    head = Q(rng.randint(-9, 9), rng.randint(1, 6)) if constant is None else Q(constant)
    return Series((head,) + tuple(Q(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(order)))


class TestKernel:
    def test_exp_of_zero(self):
        zero = Series.constant(0, 8)
        assert zero.exp() == Series.constant(1, 8)

    def test_log_exp_roundtrip(self):
        x = x_series(10)
        assert x.exp().log() == x

    def test_sqrt_reproduces_catalan(self):
        c = catalan_series(6)
        assert [c.coefficient(k) for k in range(7)] == [1, 1, 2, 5, 14, 42, 132]

    def test_schroder_values(self):
        s = schroder_series(6)
        assert [s.coefficient(k) for k in range(7)] == [1, 2, 6, 22, 90, 394, 1806]

    def test_schroder_numbers(self):
        assert [schroder_number(n) for n in range(13)] == [
            1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098, 1037718, 5293446, 27297738,
        ]

    def test_schroder_recurrence_against_the_sum(self):
        # the oracle: a path of semilength n with k up steps is a Dyck path of
        # semilength k with n - k flat steps placed among its n + k steps
        oracle = [sum(comb(n + k, n - k) * catalan_number(k) for k in range(n + 1)) for n in range(201)]
        assert [schroder_number(n) for n in range(201)] == oracle
        assert [prime_distribution_count(n) for n in range(1, 202)] == [
            factorial(n - 1) * s for n, s in enumerate(oracle, start=1)
        ]
        f = prime_distribution_series(201)
        assert [f.coefficient(n) for n in range(202)] == [0] + [Q(s, n) for n, s in enumerate(oracle, start=1)]

    def test_compose_requires_zero_constant(self):
        with pytest.raises(BranchUndefinedError):
            x_series(5).compose(Series.constant(1, 5))

    def test_log_requires_unit(self):
        with pytest.raises(BranchUndefinedError):
            Series.constant(2, 5).log()

    def test_exp_requires_zero(self):
        with pytest.raises(BranchUndefinedError):
            Series.constant(1, 5).exp()

    def test_sqrt_requires_square(self):
        with pytest.raises(BranchUndefinedError):
            Series.constant(2, 5).sqrt()

    def test_coefficient_beyond_order(self):
        with pytest.raises(OrderMismatchError):
            x_series(3).coefficient(4)

    def test_truncate_cannot_extend(self):
        with pytest.raises(OrderMismatchError):
            x_series(3).truncate(5)

    def test_binary_ops_take_min_order(self):
        a = Series.constant(1, 5)
        b = Series.constant(1, 3)
        assert (a + b).order == 3
        assert (a * b).order == 3

    @given(series_strategy(6, constant=0), series_strategy(6, constant=0))
    def test_exp_is_multiplicative(self, a, b):
        assert (a + b).exp() == a.exp() * b.exp()

    @given(series_strategy(6, constant=0))
    def test_derivative_of_integral(self, a):
        assert a.integral().derivative() == a

    @given(series_strategy(6))
    def test_inverse(self, a):
        if a.coefficient(0) == 0:
            with pytest.raises(BranchUndefinedError):
                a.inverse()
        else:
            assert a * a.inverse() == Series.constant(1, 6)

    @given(series_strategy(5, constant=0), series_strategy(5, constant=0))
    def test_compose_distributes_over_product(self, f, g):
        h = x_series(5) + x_series(5) * x_series(5)
        assert (f * g).compose(h) == f.compose(h) * g.compose(h)

    @pytest.mark.parametrize("seed", range(12))
    def test_compose_matches_plain_horner(self, seed):
        # untruncated Horner on coefficient lists, cut to the result order at the end
        rng = random.Random(seed)
        outer = random_series(rng, rng.randint(0, 12))
        inner = random_series(rng, rng.randint(0, 12), constant=0)
        n = min(outer.order, inner.order)
        acc = [outer.coeffs[n]]
        for a in reversed(outer.coeffs[:n]):
            prod = [Q(0)] * (len(acc) + inner.order)
            for i, u in enumerate(acc):
                for j, v in enumerate(inner.coeffs):
                    prod[i + j] += u * v
            prod[0] += a
            acc = prod
        acc += [Q(0)] * (n + 1)
        assert outer.compose(inner) == Series(tuple(acc[: n + 1]))


def sympy_ring():
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys import ring_series
    from sympy.polys.rings import ring

    return ring("x", QQ)[1], QQ, ring_series


class TestKernelAgainstSympy:
    """mul / exp / log / sqrt / inverse / compose against sympy's ring series
    on random rational series, at order 0, and at order 40 on the distribution
    series, whose common denominator runs past 150 bits; no code is shared
    with the kernel."""

    ORDER = 9
    LARGE = 40
    OPS = ["exp", "log", "sqrt", "inverse", "mul", "compose"]
    # A constant term each operation accepts; mul and compose take any.
    CONSTANT = {"exp": 0, "log": 1, "sqrt": Q(9, 4), "inverse": Q(-3, 7), "mul": Q(-5, 3), "compose": Q(-5, 3)}

    @staticmethod
    def kernel(op, a, b=None):
        if op == "mul":
            return a * b
        return a.compose(b) if op == "compose" else getattr(a, op)()

    @staticmethod
    def oracle(op, a, b=None):
        """``op`` of ``a`` (and ``b``) by sympy, to the order of ``a``."""
        x, qq, rs = sympy_ring()

        def to_sympy(series):
            return sum((qq(c.numerator, c.denominator) * x**k for k, c in enumerate(series.coeffs)), x.ring.zero)

        p, n = to_sympy(a), a.order + 1
        want = {
            "exp": lambda: rs.rs_exp(p, x, n),
            "log": lambda: rs.rs_log(p, x, n),
            "sqrt": lambda: rs.rs_nth_root(p, 2, x, n),
            "inverse": lambda: rs.rs_series_inversion(p, x, n),
            "mul": lambda: rs.rs_mul(p, to_sympy(b), x, n),
            "compose": lambda: rs.rs_subs(p, {x: to_sympy(b)}, x, n),
        }[op]()
        coeffs = [want.coeff(x**k) for k in range(n)]
        return Series(tuple(Q(int(c.numerator), int(c.denominator)) for c in coeffs))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("op", ["exp", "log", "sqrt", "inverse"])
    def test_unary(self, op, seed):
        rng = random.Random(seed)
        constant = {"exp": 0, "log": 1, "sqrt": Q(rng.randint(1, 5), rng.randint(1, 5)) ** 2, "inverse": None}[op]
        a = random_series(rng, self.ORDER, constant)
        assert getattr(a, op)() == self.oracle(op, a)

    @pytest.mark.parametrize("seed", range(6))
    def test_compose(self, seed):
        rng = random.Random(seed)
        a, b = random_series(rng, self.ORDER), random_series(rng, self.ORDER, constant=0)
        assert a.compose(b) == self.oracle("compose", a, b)

    @pytest.mark.parametrize("seed", range(6))
    def test_mul(self, seed):
        rng = random.Random(seed)
        a, b = random_series(rng, self.ORDER), random_series(rng, self.ORDER)
        assert a * b == self.oracle("mul", a, b)

    @pytest.mark.parametrize("op", OPS)
    def test_order_zero(self, op):
        a = Series((self.CONSTANT[op],))
        b = Series((Q(0) if op == "compose" else Q(7, 2),))
        assert self.kernel(op, a, b) == self.oracle(op, a, b)

    @pytest.mark.parametrize("op", OPS)
    def test_large_denominators(self, op):
        f = distribution_series(self.LARGE).distribution
        assert lcm(*(c.denominator for c in f.coeffs)).bit_length() > 150
        a = f + self.CONSTANT[op]
        b = f if op == "compose" else parking_series(self.LARGE)
        got = self.kernel(op, a, b)
        assert got.order == self.LARGE
        assert got == self.oracle(op, a, b)


class TestNamedSeries:
    def test_tree_function_counts(self):
        t = tree_function(5)
        assert [t.coefficient(n) * factorial(n) for n in range(1, 6)] == [
            1, 2, 9, 64, 625,
        ]

    def test_parking_counts(self):
        assert [parking_count(n) for n in range(1, 6)] == [1, 6, 132, 6384, 544320]
        f = parking_series(5)
        for n in range(1, 6):
            assert f.coefficient(n) * factorial(n) ** 2 == parking_count(n)

    def test_prime_counts(self):
        assert [prime_count(n) for n in range(1, 6)] == [1, 2, 24, 720, 40320]
        p = prime_series(5)
        assert p.coefficient(2) == Q(2, 4)

    def test_prime_derivative_coefficient(self):
        # the x^2 coefficient of the derivative is the second Catalan number
        assert prime_series(4).derivative().coefficient(2) == 2

    def test_prime_distribution_counts(self):
        assert [prime_distribution_count(n) for n in range(1, 6)] == [1, 2, 12, 132, 2160]

    def test_distribution_hand_values(self):
        bundle = distribution_series(5)
        f = bundle.distribution
        assert f.coefficient(1) * 1 == 1
        assert f.coefficient(2) * 2 == 4
        assert f.coefficient(3) * 6 == 39

    def test_marked_spot_value(self):
        bundle = distribution_series(4)
        assert bundle.marked_prime.coefficient(2) * 2 == 2  # 2 * 1 * Ptilde_1


class TestIdentities:
    @pytest.mark.parametrize("name", IDENTITY_NAMES)
    def test_residual_status(self, name):
        result = check_identity(name, 12)
        if result.expected_zero:
            assert result.first_bad is None, (name, result.first_bad)
        else:
            assert result.first_bad is not None  # informational residual differs

    def test_each_name_has_its_residual_function(self):
        assert len(IDENTITY_NAMES) == len(set(IDENTITY_NAMES)) == 16
        residuals = treepark.series._RESIDUALS
        assert tuple(residuals) == IDENTITY_NAMES
        for name, residual in residuals.items():
            assert residual.__name__ == "_residual_" + name.replace("-", "_")
            assert getattr(treepark.series, residual.__name__) is residual

    def test_all_at_order_twelve(self):
        results = check_identities(12)
        assert all(r.ok for r in results)

    def test_names_are_a_list_or_tuple(self):
        assert check_identities(3, []) == []
        assert [r.name for r in check_identities(3, ("parking-gf",))] == ["parking-gf"]
        with pytest.raises(InputError, match="got 'parking-gf'$"):
            check_identities(3, "parking-gf")  # not 10 unknown one-letter names

    def test_all_at_order_forty(self):
        for result in check_identities(40):
            assert result.order >= 40
            if result.expected_zero:
                assert result.first_bad is None, (result.name, result.first_bad)

    def test_ode_prefix_stabilizes(self):
        history = list(picard_iterations(10))
        for k in range(1, len(history)):
            stable = history[k - 1].coeffs[: k + 1]
            for later in history[k:]:
                assert later.coeffs[: k + 1] == stable

    @pytest.mark.parametrize("order", range(1, 17))
    def test_online_solve_matches_picard(self, order):
        assert distribution_series(order).distribution == list(picard_iterations(order))[-1]

    @pytest.mark.parametrize("name", ["marked-prime-sum", "marked-distribution-sum"])
    def test_leaf_sums_check_the_marked_series(self, name, monkeypatch):
        # each side is computed on its own, so a wrong marked series shows
        real = treepark.series._marked
        monkeypatch.setattr(treepark.series, "_marked", lambda inner, factor: real(inner, factor + 1))
        assert check_identity(name, 6).first_bad is not None


class TestOdeSelfCheck:
    """The online solve confirms the equation with a typed error, not an
    assert that python -O strips."""

    def test_raises(self, monkeypatch):
        rhs = treepark.series._distribution_rhs

        def off_by_x_cubed(f):
            return rhs(f) + Series((0, 0, 0, 1) + (0,) * (f.order - 3))

        monkeypatch.setattr(treepark.series, "_distribution_rhs", off_by_x_cubed)
        with pytest.raises(IdentityViolatedError, match="x\\^3"):
            distribution_series(6)

    def test_checked_under_optimize(self):
        probe = (
            "import treepark.series as s\n"
            "from treepark import IdentityViolatedError, Series\n"
            "rhs = s._distribution_rhs\n"
            "s._distribution_rhs = lambda f: rhs(f) + Series((0, 0, 0, 1) + (0,) * (f.order - 3))\n"
            "try:\n"
            "    s.closed_counts(6)\n"
            "except IdentityViolatedError:\n"
            "    print('raised')\n"
        )
        src = Path(treepark.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-O", "-c", probe],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout == "raised\n"


class TestVerifiesInOnePlace:
    """Only check_identities runs identity residuals; the named series and
    the count table build what they return and check nothing else."""

    @pytest.fixture
    def residual_calls(self, monkeypatch):
        calls = []

        def counted(name, residual):
            def run(order):
                calls.append(name)
                return residual(order)
            return run

        table = {name: counted(name, r) for name, r in treepark.series._RESIDUALS.items()}
        monkeypatch.setattr(treepark.series, "_RESIDUALS", table)
        return calls

    @pytest.mark.parametrize(
        "make", [distribution_series, prime_series, closed_counts], ids=lambda f: f.__name__
    )
    def test_runs_no_residual(self, make, residual_calls):
        make(8)
        assert residual_calls == []
        check_identity("parking-gf", 2)  # the patched table is the one in use
        assert residual_calls == ["parking-gf"]

    def test_closed_counts_solves_the_ode_once(self, monkeypatch):
        solves = []
        solve = treepark.series._distribution_series
        monkeypatch.setattr(
            treepark.series, "_distribution_series", lambda order: solves.append(order) or solve(order)
        )

        def refuse(name):
            def call(*args):
                raise AssertionError(f"closed_counts built {name}")
            return call

        for name in ("prime_series", "distribution_series", "prime_distribution_series"):
            monkeypatch.setattr(treepark.series, name, refuse(name))
        closed_counts(10)
        assert solves == [10]

    def test_wrong_parking_count_shows(self, monkeypatch):
        # combined-composition builds its inner series from the closed parking
        # counts, parking-composition from the tree function alone
        real = treepark.series.parking_count
        monkeypatch.setattr(treepark.series, "parking_count", lambda n: real(n) + (n == 3))
        assert check_identity("combined-composition", 6).first_bad is not None
        assert check_identity("parking-composition", 6).first_bad is None
        with pytest.raises(IdentityViolatedError, match="^parking count at n=3: "):
            closed_counts(6)

    def test_a_distribution_count_off_the_integers_shows(self, monkeypatch):
        third = lambda order: Series((0, Q(1, 3), *[0] * (order - 1)))  # noqa: E731
        monkeypatch.setattr(treepark.series, "_distribution_series", third)
        with pytest.raises(IdentityViolatedError) as caught:
            closed_counts(3)
        assert str(caught.value) == "distribution count: coefficient 1 times 1 is 1/3"


# The builders that keep their widest series (``series._widest``).
WIDEST = [
    "tree_function",
    "parking_series",
    "prime_series",
    "_distribution_series",
    "prime_distribution_series",
    "catalan_series",
    "schroder_series",
    "_closed_parking_series",
]


@pytest.fixture
def builds(monkeypatch):
    """Every series the memo stores, as (builder name, order, its integer
    form, a deep copy of that form taken when it was stored), in the order
    stored."""
    stored = []

    class Recording(dict):
        def __setitem__(self, name, form):
            stored.append((name, len(form[0]) - 1, form, copy.deepcopy(form)))
            super().__setitem__(name, form)

    monkeypatch.setattr(treepark.series, "_WIDEST", Recording())
    return stored


class TestWidestSeries:
    """Each named series is built once, at the widest order asked; a lower
    order is its truncation, bit for bit the series a fresh build gives."""

    def test_the_memo_holds_one_series_per_builder(self):
        for name in WIDEST:
            getattr(treepark.series, name)(3)
        assert set(treepark.series._WIDEST) == set(WIDEST)
        treepark.series._reset_memo()
        assert treepark.series._WIDEST == {}

    @pytest.mark.parametrize("name", WIDEST)
    def test_truncation_equals_a_fresh_build(self, name):
        make = getattr(treepark.series, name)
        orders = list(range(61))
        random.Random(name).shuffle(orders)
        for order in orders:
            got, want = make(order), make.__wrapped__(order)
            assert vars(got)["_num_den"] == vars(want)["_num_den"], order

    @pytest.mark.parametrize("name", WIDEST)
    def test_each_call_returns_a_new_unread_series(self, name):
        make = getattr(treepark.series, name)
        for order in (7, 7, 4, 9, 4, 9):
            a, b = make(order), make(order)
            assert a is not b
            assert "coeffs" not in vars(a) and "coeffs" not in vars(b)
            assert a == b

    def test_a_build_that_raises_leaves_the_memo_as_it_was(self, monkeypatch):
        distribution_series(5)
        before = dict(treepark.series._WIDEST)
        rhs = treepark.series._distribution_rhs
        monkeypatch.setattr(
            treepark.series, "_distribution_rhs", lambda f: rhs(f) + Series((0, 0, 0, 1) + (0,) * (f.order - 3))
        )
        with pytest.raises(IdentityViolatedError, match="x\\^3"):
            distribution_series(8)
        held = treepark.series._WIDEST
        assert held.keys() == before.keys() and all(held[k] is before[k] for k in held)

    @pytest.mark.parametrize("order", [0, 1, 12, 25])
    def test_check_identities_solves_the_ode_at_most_twice(self, order, builds):
        check_identities(order)
        solves = [built for name, built, _, _ in builds if name == "_distribution_series"]
        assert 1 <= len(solves) <= 2, solves

    @pytest.mark.parametrize("name", WIDEST)
    @pytest.mark.parametrize("order", [-1, 1.5, True, "3"], ids=repr)
    def test_a_bad_order_is_refused_before_the_memo_is_read(self, name, order, builds):
        # on a warm memo too, where True and 1.5 would pass as orders below 9
        make = getattr(treepark.series, name)
        for memo in ("cold", "warm"):
            stored = len(builds)
            with pytest.raises(OrderMismatchError, match=f"^{re.escape(f'order must be an integer >= 0, got {order!r}')}$"):
                make(order)
            assert len(builds) == stored, memo
            make(9)

    def test_nothing_mutates_a_held_series(self, builds):
        # the memo shares its lists with every series it serves, so it relies
        # on the contract of _series: no operation mutates a list it reads
        plan = [(name, order) for name in IDENTITY_NAMES for order in range(31)]
        plan += [(None, size) for size in range(1, 31)]
        random.Random(0).shuffle(plan)
        for name, order in plan:
            check_identity(name, order) if name else closed_counts(order)
        assert {name for name, _, _, _ in builds} == set(WIDEST)
        for name, order, form, snapshot in builds:  # held now, or until a wider build
            assert form == snapshot, (name, order)
        stored = [id(form) for _, _, form, _ in builds]
        assert all(id(form) in stored for form in treepark.series._WIDEST.values())


NAMED_SERIES = [
    tree_function,
    catalan_series,
    schroder_series,
    parking_series,
    prime_series,
    prime_distribution_series,
    marked_prime_series,
    marked_distribution_series,
    x_series,
]


def kernel_results(order: int):
    """Every kernel operation, by name, on random series of the given order."""
    rng = random.Random(order)
    a, b = random_series(rng, order), random_series(rng, order)
    zero_start, one_start = random_series(rng, order, constant=0), random_series(rng, order, constant=1)
    yield from {
        "add": a + b, "add number": a + 2, "radd": 2 + a, "sub": a - b, "sub number": a - 3,
        "rsub": 3 - a, "neg": -a, "mul": a * b, "mul number": a * Q(2, 3), "rmul": 2 * a,
        "shift_up": a.shift_up(), "shift_down": zero_start.shift_down(),
        "x_derivative": a.x_derivative(), "derivative": a.derivative(),
        "integral": a.integral(), "integral from": a.integral(Q(1, 2)),
        "exp": zero_start.exp(), "log": one_start.log(), "sqrt": (one_start * one_start).sqrt(),
        "inverse": one_start.inverse(), "compose": a.compose(zero_start),
        "scale_argument": a.scale_argument(Q(-2, 3)), "truncate": a.truncate(order),
        "constant": Series.constant(5, order),
    }.items()


class TestExactCoefficients:
    """Every series the package builds holds exact ``Fraction`` coefficients,
    though only the public constructor converts them."""

    @pytest.mark.parametrize("order", range(31))
    def test_named_series_and_kernel_operations(self, order):
        made = [(make.__name__, make(order)) for make in NAMED_SERIES]
        made += zip(DistributionSeries._fields, distribution_series(order))
        for name, series in made + list(kernel_results(order)):
            assert type(series) is Series, name
            assert all(type(c) is Q for c in series.coeffs), name

    def test_public_constructor_still_converts(self):
        converted = Series((1, 2.5, "1/3")).coeffs
        assert converted == (Q(1), Q(5, 2), Q(1, 3)) and all(type(c) is Q for c in converted)


class TestOrders:
    """Order 0 is valid everywhere; a bad order or size is a named input error."""

    @pytest.mark.parametrize("make", NAMED_SERIES, ids=lambda f: f.__name__)
    def test_order_zero(self, make):
        assert make(0) == make(3).truncate(0)

    def test_order_zero_bundle_and_identities(self):
        assert all(series == Series((0,)) for series in distribution_series(0))
        assert all(r.ok and r.order >= 0 for r in check_identities(0))

    @pytest.mark.parametrize(
        "call, argument",
        [
            pytest.param(lambda: check_identity("parking-gf", -1), "order", id="check_identity"),
            pytest.param(lambda: check_identities(-1), "order", id="check_identities"),
            pytest.param(lambda: check_identity("parking-gf", 2.5), "order", id="check_identity-float"),
            pytest.param(lambda: check_identity("parking-gf", True), "order", id="check_identity-bool"),
            pytest.param(lambda: x_series(3).truncate(-1), "order", id="truncate-1"),
            pytest.param(lambda: x_series(3).truncate(-2), "order", id="truncate-2"),
            pytest.param(lambda: closed_counts(0), "max_n", id="closed_counts-0"),
            pytest.param(lambda: closed_counts(-3), "max_n", id="closed_counts-negative"),
            pytest.param(lambda: distribution_series(-1), "order", id="distribution_series"),
            pytest.param(lambda: parking_series(-2), "order", id="parking_series-2"),
            pytest.param(lambda: schroder_number(-1), "n", id="schroder_number"),
            pytest.param(lambda: catalan_number(-1), "n", id="catalan_number"),
            pytest.param(lambda: parking_count(0), "n", id="parking_count"),
            pytest.param(lambda: prime_count(0), "n", id="prime_count"),
            pytest.param(lambda: prime_distribution_count(0), "n", id="prime_distribution_count"),
        ]
        + [pytest.param(partial(make, -1), "order", id=make.__name__) for make in NAMED_SERIES],
    )
    def test_bad_order_is_named(self, call, argument):
        with pytest.raises(InputError, match=f"^{argument} must be an integer >= "):
            call()


class TestCountTable:
    def test_row_five(self):
        row = closed_counts(5).row(5)
        assert row.parking == 544320
        assert row.prime == 40320
        assert row.prime_distribution == 2160

    def test_row_one(self):
        row = closed_counts(3).row(1)
        assert (
            row.parking,
            row.prime,
            row.distribution,
            row.prime_distribution,
            row.marked_prime,
            row.marked_distribution,
        ) == (1, 1, 1, 1, 1, 1)

    def test_row_four_distribution(self):
        assert closed_counts(4).row(4).prime_distribution == 132

    @pytest.mark.parametrize("n", [0, -1, 4])
    def test_row_outside_table(self, n):
        with pytest.raises(OrderMismatchError):
            closed_counts(3).row(n)

    def test_marked_columns_follow_growth_rules(self):
        table = closed_counts(8)
        for n in range(2, 9):
            row, prev = table.row(n), table.row(n - 1)
            assert row.marked_prime == n * (n - 1) * prev.prime_distribution
            assert row.marked_distribution == 2 * n * (n - 1) * prev.distribution

    def test_integrality_is_checked(self):
        # all tabulated sequences are integers up to a healthy order
        table = closed_counts(14)
        assert all(isinstance(r.distribution, int) for r in table.rows)
