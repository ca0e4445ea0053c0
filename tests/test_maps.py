"""The maps f, g, k against exact rational evaluation and each other."""
from fractions import Fraction

import pytest

from padicdyn import (
    DomainError,
    MapParams,
    PoleError,
    PrimeContext,
    conjugate_f_to_g,
    deriv_g_norm,
    diff_valuation,
    eq_to_precision,
    eval_f,
    eval_g,
    eval_k,
    norm_diff,
    sqrt,
)
from padicdyn.maps import deriv_g, deriv_k
from conftest import random_padic, strict_params


def rational_params(ctx):
    """a = 1 + p^2, b = 1 + p as exact rationals and as p-adics."""
    qa, qb = Fraction(1 + ctx.p ** 2), Fraction(1 + ctx.p)
    return qa, qb, MapParams(ctx.from_fraction(qa), ctx.from_fraction(qb))


class TestMapParams:
    def test_validation(self, ctx):
        one = ctx.one()
        with pytest.raises(DomainError):
            MapParams(ctx.from_int(ctx.p), one)  # not a unit
        with pytest.raises(DomainError):
            MapParams(one + ctx.from_int(ctx.p), one)  # b = 1
        if ctx.p > 3:
            with pytest.raises(DomainError):
                MapParams(ctx.from_int(2), one + ctx.from_int(ctx.p))

    def test_radius_and_regime(self, ctx):
        p = ctx.p
        params = MapParams(ctx.from_int(1 + p ** 2), ctx.from_int(1 + p))
        assert params.radius_exponent == 1
        assert params.radius == Fraction(1, p)
        assert params.strict_regime
        flipped = MapParams(ctx.from_int(1 + p), ctx.from_int(1 + p))
        assert not flipped.strict_regime

    def test_mixed_context_rejected(self):
        c3, c5 = PrimeContext(3), PrimeContext(5)
        with pytest.raises(DomainError):
            MapParams(c3.one(), c5.from_int(6))


class TestRationalOracle:
    """Evaluate at rational points and compare with Fraction arithmetic."""

    def test_eval_g(self, ctx, rng):
        qa, qb, params = rational_params(ctx)
        for _ in range(40):
            qu = Fraction(rng.randrange(-50, 51), rng.randrange(1, 40))
            if qb ** 2 + qu ** 2 == 0:
                continue
            want = qa * (qb ** 2 * qu ** 2 + 1) / (qb ** 2 + qu ** 2)
            got = eval_g(params, ctx.from_fraction(qu))
            assert eq_to_precision(got, ctx.from_fraction(want),
                                   ctx.residual_digits)

    def test_eval_f(self, ctx, rng):
        qa, qb, params = rational_params(ctx)
        for _ in range(40):
            qu = Fraction(rng.randrange(-50, 51), rng.randrange(1, 40))
            want = ((qa * qb * qu) ** 2 + 1) / (qb ** 2 + qa ** 2 * qu ** 2)
            got = eval_f(params, ctx.from_fraction(qu))
            assert eq_to_precision(got, ctx.from_fraction(want),
                                   ctx.residual_digits)

    def test_eval_k(self, ctx, rng):
        qa, qb, params = rational_params(ctx)
        for _ in range(40):
            qx = Fraction(rng.randrange(-50, 51), rng.randrange(1, 40))
            if qb ** 2 + qx == 0:
                continue
            want = (qa * (qb ** 2 * qx + 1) / (qb ** 2 + qx)) ** 2
            got = eval_k(params, ctx.from_fraction(qx))
            assert eq_to_precision(got, ctx.from_fraction(want),
                                   ctx.residual_digits)

    def test_deriv_g(self, ctx, rng):
        # quotient rule on g = num/den, apart from the factored closed form
        qa, qb, params = rational_params(ctx)
        for _ in range(40):
            qu = Fraction(rng.randrange(-50, 51), rng.randrange(1, 40))
            num, den = qa * (qb ** 2 * qu ** 2 + 1), qb ** 2 + qu ** 2
            want = (2 * qa * qb ** 2 * qu * den - num * 2 * qu) / den ** 2
            got = deriv_g(params, ctx.from_fraction(qu))
            assert eq_to_precision(got, ctx.from_fraction(want),
                                   ctx.residual_digits)

    def test_deriv_k(self, ctx, rng):
        # quotient rule on k = a^2 (b^2 x + 1)^2 / (b^2 + x)^2
        qa, qb, params = rational_params(ctx)
        for _ in range(40):
            qx = Fraction(rng.randrange(-50, 51), rng.randrange(1, 40))
            if qb ** 2 + qx == 0:
                continue
            lin, den = qb ** 2 * qx + 1, qb ** 2 + qx
            num = qa ** 2 * lin ** 2
            want = (2 * qa ** 2 * qb ** 2 * lin * den ** 2
                    - num * 2 * den) / den ** 4
            got = deriv_k(params, ctx.from_fraction(qx))
            assert eq_to_precision(got, ctx.from_fraction(want),
                                   ctx.residual_digits)


class TestStructure:
    def test_conjugacy_f_to_g(self, ctx, rng):
        for _ in range(10):
            params = strict_params(ctx, rng)
            for _ in range(20):
                u = random_padic(ctx, rng, vmin=-3, vmax=3)
                try:
                    lhs = eval_g(params, conjugate_f_to_g(params, u))
                    rhs = params.a * eval_f(params, u)
                except PoleError:
                    continue
                assert eq_to_precision(lhs, rhs, ctx.residual_digits)

    def test_k_is_square_of_g_on_squares(self, ctx, rng):
        for _ in range(10):
            params = strict_params(ctx, rng)
            for _ in range(20):
                u = random_padic(ctx, rng, vmin=-3, vmax=3)
                try:
                    lhs = eval_k(params, u * u)
                    g = eval_g(params, u)
                except PoleError:
                    continue
                assert eq_to_precision(lhs, g * g, ctx.residual_digits)

    def test_g_is_even(self, ctx, rng):
        params = strict_params(ctx, rng)
        for _ in range(20):
            u = random_padic(ctx, rng, vmin=-3, vmax=3)
            try:
                assert diff_valuation(eval_g(params, u), eval_g(params, -u)) is None
            except PoleError:
                continue


class TestDerivative:
    def test_matches_difference_quotient(self, ctx, rng):
        for _ in range(8):
            params = strict_params(ctx, rng)
            for _ in range(15):
                x = random_padic(ctx, rng, vmin=-2, vmax=2)
                h = ctx.from_int(ctx.p) ** 20
                try:
                    lam = deriv_g_norm(params, x)
                    quot = norm_diff(eval_g(params, x + h),
                                     eval_g(params, x)) / h.norm()
                except PoleError:
                    continue
                if lam == 0:
                    continue
                assert quot == lam

    def test_pole_error_at_exact_pole(self):
        ctx = PrimeContext(13)
        params = MapParams(ctx.from_int(1 + 13 ** 2), ctx.from_int(14))
        i_root = sqrt(ctx.from_int(-1))
        pole = i_root * params.b  # b^2 + x^2 = 0 exactly
        with pytest.raises(PoleError):
            eval_g(params, pole)
