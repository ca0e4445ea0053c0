"""Core arithmetic against independent rational and modular oracles."""
import itertools
import random
from fractions import Fraction

import pytest

from padicdyn import (
    Ball,
    DomainError,
    NoConvergence,
    NotASquare,
    PrecisionExhausted,
    PrimeContext,
    ZeroInput,
    diff_valuation,
    eq_to_precision,
    exp_p,
    format_padic,
    in_Ep,
    in_Zp,
    is_unit,
    log_p,
    norm_diff,
    parse_padic,
    sqrt,
    sqrt_both,
    sqrt_exists,
)
from padicdyn.padic import converge
from conftest import random_padic, random_unit


def vp_fraction(q: Fraction, p: int) -> int:
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


class TestContext:
    def test_rejects_p2_and_composites(self):
        for bad in (2, 4, 9, 15, 1, 0, -5):
            with pytest.raises(DomainError):
                PrimeContext(bad)

    def test_rejects_bad_precision(self):
        with pytest.raises(DomainError):
            PrimeContext(5, precision=8, guard=8)
        with pytest.raises(DomainError):
            PrimeContext(5, precision=8, guard=0)

    def test_residual_digits(self):
        assert PrimeContext(5).residual_digits == 56


class TestRationalOracle:
    """Field operations must agree with exact Fraction arithmetic."""

    def test_ring_ops_match_fractions(self, ctx, rng):
        for _ in range(200):
            qa = Fraction(rng.randrange(-999, 1000), rng.randrange(1, 500))
            qb = Fraction(rng.randrange(-999, 1000), rng.randrange(1, 500))
            if qa == 0 or qb == 0:
                continue
            xa, xb = ctx.from_fraction(qa), ctx.from_fraction(qb)
            for op in ("add", "sub", "mul", "div"):
                want = {"add": qa + qb, "sub": qa - qb,
                        "mul": qa * qb, "div": qa / qb}[op]
                got = {"add": xa + xb, "sub": xa - xb,
                       "mul": xa * xb, "div": xa / xb}[op]
                if want == 0:
                    assert got.is_zero or got.valuation > ctx.residual_digits
                else:
                    assert eq_to_precision(got, ctx.from_fraction(want),
                                           ctx.residual_digits)

    def test_norm_matches_fraction_valuation(self, ctx, rng):
        for _ in range(200):
            q = Fraction(rng.randrange(1, 10 ** 6), rng.randrange(1, 10 ** 6))
            v = vp_fraction(q, ctx.p)
            assert ctx.from_fraction(q).norm() == Fraction(1, ctx.p) ** v


class TestUltrametric:
    def test_strong_triangle(self, ctx, rng):
        for _ in range(300):
            x, y = random_padic(ctx, rng), random_padic(ctx, rng)
            try:
                s = x + y
            except PrecisionExhausted:
                continue
            assert s.norm() <= max(x.norm(), y.norm())
            if x.norm() != y.norm():
                assert s.norm() == max(x.norm(), y.norm())

    def test_multiplicativity(self, ctx, rng):
        for _ in range(300):
            x, y = random_padic(ctx, rng), random_padic(ctx, rng)
            assert (x * y).norm() == x.norm() * y.norm()
            assert (x / y).norm() == x.norm() / y.norm()

    def test_exact_cancellation_gives_zero(self, ctx, rng):
        for _ in range(50):
            x = random_padic(ctx, rng)
            assert (x + (-x)).is_zero
            assert (x - x).is_zero

    def test_deep_partial_cancellation_raises(self, ctx):
        x = ctx.one()
        y = -(ctx.one() + ctx.from_int(ctx.p) ** (ctx.precision - 2))
        with pytest.raises(PrecisionExhausted):
            x + y


class TestDigitsAndParsing:
    def test_digit_roundtrip(self, ctx, rng):
        for _ in range(50):
            x = random_padic(ctx, rng)
            again = ctx.from_digits(x.valuation, x.digits())
            assert diff_valuation(x, again) is None

    def test_parse_format_roundtrip(self, ctx, rng):
        for _ in range(50):
            x = random_padic(ctx, rng)
            assert diff_valuation(parse_padic(format_padic(x), ctx), x) is None
        assert diff_valuation(parse_padic("3/7", ctx),
                              ctx.from_rational(3, 7)) is None

    def test_membership_predicates(self, ctx):
        assert in_Zp(ctx.from_int(ctx.p))
        assert not in_Zp(ctx.from_rational(1, ctx.p))
        assert is_unit(ctx.from_int(ctx.p + 1))
        assert in_Ep(ctx.from_int(ctx.p + 1))
        assert not in_Ep(ctx.from_int(2)) or ctx.p == 3  # 2 = 1+1 only for p=3


class TestEquality:
    def test_compares_representation_without_coercion(self):
        ctx = PrimeContext(5)
        assert ctx.one() == ctx.from_int(1)
        assert ctx.from_int(-3) == ctx.from_rational(-6, 2)
        assert ctx.one() != 1
        assert ctx.from_rational(1, 2) != Fraction(1, 2)
        assert ctx.one() != PrimeContext(5, 32).one()
        assert diff_valuation(ctx.one(), ctx.from_int(1)) is None
        assert eq_to_precision(ctx.from_int(6), ctx.one(), 1)


class TestBall:
    def test_open_vs_closed(self, ctx):
        c = ctx.one()
        x = c + ctx.from_int(ctx.p)
        assert Ball(c, -1, closed=True).contains(x)
        assert not Ball(c, -1, closed=False).contains(x)
        assert Ball(c, -1, closed=False).contains(c + ctx.from_int(ctx.p ** 2))


class TestConverge:
    ctx = PrimeContext(5)

    @staticmethod
    def alternating(e):
        """A step that adds and subtracts 5^e in turn: it settles e digits."""
        signs = itertools.cycle((1, -1))
        return lambda x: x + next(signs) * 5 ** e

    def test_contraction_reaches_every_digit(self):
        x = converge(lambda x: 1 + 5 * x, self.ctx.one(), "contraction")
        assert x == self.ctx.from_rational(-1, 4)

    def test_fixed_start_returns_at_once(self):
        calls = []

        def step(x):
            calls.append(x)
            return x
        start = self.ctx.from_int(7)
        assert converge(step, start, "identity") == start
        assert len(calls) == 1

    def test_floor_at_or_above_residual_digits_returns(self):
        # a floor of 60 settled digits is >= N - g = 56
        x = converge(self.alternating(60), self.ctx.one(), "deep floor")
        assert eq_to_precision(x, self.ctx.one(), self.ctx.residual_digits)

    def test_floor_below_residual_digits_raises(self):
        with pytest.raises(NoConvergence) as err:
            converge(self.alternating(10), self.ctx.one(), "shallow floor")
        assert str(err.value) == (
            "shallow floor did not converge; digits settled per step [10, 10]")


class TestExpLog:
    def test_domain_errors(self, ctx):
        with pytest.raises(DomainError):
            exp_p(ctx.one())
        with pytest.raises(DomainError):
            log_p(ctx.from_int(ctx.p))

    def test_lemma_2_2_norms(self, ctx, rng):
        for _ in range(100):
            x = random_padic(ctx, rng, vmin=1, vmax=6)
            e = exp_p(x)
            assert e.norm() == 1
            assert norm_diff(e, ctx.one()) == x.norm()
            assert log_p(ctx.one() + x).norm() == x.norm()

    def test_lemma_2_2_inverses(self, ctx, rng):
        for _ in range(60):
            x = random_padic(ctx, rng, vmin=1, vmax=6)
            assert eq_to_precision(log_p(exp_p(x)), x, ctx.residual_digits)
            u = ctx.one() + x
            assert eq_to_precision(exp_p(log_p(u)), u, ctx.residual_digits)

    def test_homomorphism(self, ctx, rng):
        for _ in range(60):
            x = random_padic(ctx, rng, vmin=1, vmax=6)
            y = random_padic(ctx, rng, vmin=1, vmax=6)
            assert eq_to_precision(exp_p(x + y), exp_p(x) * exp_p(y),
                                   ctx.residual_digits)

    def test_frozen_series_values(self):
        # partial-sum oracles computed independently with Fraction arithmetic
        ctx5 = PrimeContext(5)
        assert exp_p(ctx5.from_int(5)).digits(12) == [1, 1, 3, 3, 4, 1, 2, 4, 3, 1, 0, 2]
        lg = log_p(ctx5.from_int(6))
        assert lg.valuation == 1
        assert lg.digits(12) == [1, 2, 4, 2, 0, 1, 4, 2, 3, 1, 2, 2]


class TestSqrt:
    def test_exists_matches_exhaustive_squares(self, ctx):
        p = ctx.p
        squares_mod_p = {x * x % p for x in range(1, p)}
        for a0 in range(1, p):
            x = ctx.from_int(a0)
            assert sqrt_exists(x) == (a0 in squares_mod_p)

    def test_odd_valuation_never_square(self, ctx, rng):
        for _ in range(20):
            x = random_unit(ctx, rng) * ctx.from_int(ctx.p)
            assert not sqrt_exists(x)

    def test_square_roundtrip(self, ctx, rng):
        for _ in range(60):
            x = random_padic(ctx, rng, vmin=-2, vmax=2)
            sq = x * x
            r1, r2 = sqrt_both(sq)
            assert diff_valuation(r1 * r1, sq) is None
            assert diff_valuation(r2, -r1) is None
            assert r1.leading_digit() <= (ctx.p - 1) // 2

    def test_not_a_square_raises(self, ctx):
        p = ctx.p
        non_residue = next(a for a in range(2, p)
                           if pow(a, (p - 1) // 2, p) == p - 1)
        with pytest.raises(NotASquare):
            sqrt(ctx.from_int(non_residue))
        with pytest.raises(ZeroInput):
            sqrt(ctx.zero())

    def test_frozen_sqrt2_in_Q7(self):
        ctx = PrimeContext(7)
        assert sqrt(ctx.from_int(2)).digits(12) == [3, 1, 2, 6, 1, 2, 1, 2, 4, 6, 6, 2]

    def test_sqrt_of_Ep_stays_in_Ep(self, ctx, rng):
        for _ in range(30):
            x = ctx.from_int(1 + ctx.p * rng.randrange(1, ctx.p ** 6))
            assert in_Ep(sqrt(x))
