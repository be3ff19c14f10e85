"""Exact series kernel and the generating-function identities."""

from fractions import Fraction as Q
from math import factorial

import pytest
from hypothesis import given, strategies as st

from treepark import (
    BranchUndefinedError,
    IDENTITY_NAMES,
    OrderMismatchError,
    Series,
    catalan_series,
    check_identities,
    check_identity,
    closed_counts,
    distribution_series,
    parking_count,
    parking_series,
    prime_count,
    prime_distribution_count,
    prime_series,
    schroder_series,
    tree_function,
)
from treepark.series import distribution_ode_iterations, x_series

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

    def test_all_at_order_twelve(self):
        results = check_identities(12)
        assert all(r.ok for r in results)

    def test_ode_prefix_stabilizes(self):
        history = list(distribution_ode_iterations(10))
        for k in range(1, len(history)):
            stable = history[k - 1].coeffs[: k + 1]
            for later in history[k:]:
                assert later.coeffs[: k + 1] == stable


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
