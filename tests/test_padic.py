"""Core arithmetic against independent rational and modular oracles."""
import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from padicdyn import (
    Ball,
    DivisionByZero,
    DomainError,
    NoConvergence,
    NotASquare,
    PrecisionExhausted,
    PrimeContext,
    ZeroInput,
    diff_valuation,
    eq_to_precision,
    exp_p,
    in_Ep,
    is_unit,
    log_p,
    norm_diff,
    norm_str,
    parse_padic,
    sqrt_both,
    sqrt_exists,
)
from padicdyn.padic import (
    _ZERO,
    PadicNumber,
    _divide,
    _inv_unit,
    _minus,
    _times,
    converge,
    norm_fraction,
)
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
        # p.bit_length() * N is bounded, checked before the primality test
        # and before any power of p is built
        for p in (13, 15):
            with pytest.raises(DomainError, match="must be <= 16384, got"):
                PrimeContext(p, 10 ** 9)
        p = 2 ** 31 + 11  # 32 bits
        assert PrimeContext(p, 512).modulus == p ** 512
        with pytest.raises(DomainError, match="must be <= 16384, got 16416"):
            PrimeContext(p, 513)

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

    @pytest.mark.parametrize("p", [3, 5, 13, 10007])
    def test_from_digits_matches_the_power_sum(self, p, rng):
        ctx = PrimeContext(p)
        for _ in range(50):
            x = random_padic(ctx, rng)
            digits = x.digits()
            again = ctx.from_digits(x.valuation, digits)
            assert (again.valuation, again.unit) == (x.valuation, x.unit)
            # one power of p per digit, the former loop, as the oracle
            assert again.unit == sum(d * p ** j for j, d in enumerate(digits))
            # digits past the precision are dropped, and fewer are fine
            longer = ctx.from_digits(x.valuation, digits + [p - 1, 1])
            assert (longer.valuation, longer.unit) == (x.valuation, x.unit)
            short = ctx.from_digits(x.valuation, digits[:3])
            assert short.unit == sum(d * p ** j for j, d in enumerate(digits[:3]))

    def test_from_digits_names_the_first_bad_digit(self, ctx):
        p = ctx.p
        for digits, bad in [([1, p, -1], p), ([1, -2, p + 1], -2),
                            ([p + 3, 0, p], p + 3), ((d for d in (1, 2, p)), p)]:
            with pytest.raises(DomainError) as info:
                ctx.from_digits(0, digits)
            assert str(info.value) == f"digit {bad} out of range for p = {p}"

    def test_from_digits_zero_and_leading_zero(self, ctx):
        assert ctx.from_digits(3, [0, 0]) == ctx.zero()
        assert ctx.from_digits(3, []) == ctx.zero()
        with pytest.raises(DomainError, match="leading digit must be nonzero"):
            ctx.from_digits(0, [0, 1])

    def test_parse_format_roundtrip(self, ctx, rng):
        for _ in range(50):
            x = random_padic(ctx, rng)
            literal = f"{x.valuation};" + ",".join(map(str, x.digits()))
            assert diff_valuation(parse_padic(literal, ctx), x) is None
        assert diff_valuation(parse_padic("3/7", ctx),
                              ctx.from_rational(3, 7)) is None

    def test_membership_predicates(self, ctx):
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


class TestValueSemantics:
    def test_values_are_immutable(self):
        x = PrimeContext(5).from_int(7)
        for name in ("ctx", "valuation", "unit", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, 1)
        with pytest.raises(AttributeError):
            del x.unit
        assert (x.valuation, x.unit) == (0, 7)

    def test_equal_contexts_built_apart_interoperate(self):
        c1, c2 = PrimeContext(5), PrimeContext(5)
        assert c1 is not c2 and c1 == c2
        x, y = c1.from_rational(2, 3), c2.from_rational(7, 11)
        assert x + y == c1.from_rational(2 * 11 + 7 * 3, 33)
        assert x * y == c2.from_rational(14, 33)
        assert diff_valuation(x / y, c1.from_rational(22, 21)) is None
        assert c1.from_int(4) == c2.from_int(4)

    @pytest.mark.parametrize("other", [PrimeContext(5, 32), PrimeContext(5, guard=4),
                                       PrimeContext(7)])
    def test_mixed_contexts_raise(self, other):
        x, y = PrimeContext(5).from_int(2), other.from_int(2)
        for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y,
                   lambda: diff_valuation(x, y)):
            with pytest.raises(DomainError):
                op()

    def test_hash_agrees_with_equality(self, rng):
        c1, c2 = PrimeContext(13), PrimeContext(13)
        for _ in range(50):
            m, n = rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 10 ** 6)
            x, y = c1.from_rational(m, n), c2.from_rational(m, n)
            assert x == y and hash(x) == hash(y)
        values = {c1.zero(), c2.zero(), c1.one(), c2.one(), c1.from_int(2)}
        assert len(values) == 3
        assert PrimeContext(13, 32).one() not in values

    def test_copy_and_pickle_keep_the_value(self):
        x = PrimeContext(5).from_rational(3, 7)
        for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert clone == x and hash(clone) == hash(x)


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _agrees(x, q: Fraction, digits: int) -> bool:
    """x = p^v u against q = p^v m/n (p-free m, n): u n = m mod p^digits."""
    p = x.ctx.p
    if q == 0:
        return x.is_zero
    m, n = q.numerator, q.denominator
    vm, vn = _vp(m, p), _vp(n, p)
    if x.valuation != vm - vn:
        return False
    return (x.unit * (n // p ** vn) - m // p ** vm) % p ** digits == 0


CONTEXTS = st.sampled_from([(p, N) for p in (3, 5, 13) for N in (16, 64)])
RATIONALS = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
                      st.integers(1, 10 ** 6)).filter(lambda q: q != 0)
SCALED = st.builds(lambda q, e: q * Fraction(3 * 5 * 13) ** e,
                   RATIONALS, st.integers(-4, 4))
OPERAND = st.sampled_from(["padic", "int", "fraction"])
FRACTION_SETTINGS = settings(max_examples=400, deadline=None, derandomize=True,
                             database=None)


class TestFractionOracle:
    """+ - x / and negation against fractions.Fraction, by integer congruence.

    A sum is right to N - t digits, t being the digits its operands' leading
    terms cancel; a product or quotient to all N.
    """

    @staticmethod
    def check(ctx, op, qa, qb, got):
        N, p = ctx.precision, ctx.p
        want = {"add": qa + qb, "sub": qa - qb, "mul": qa * qb, "div": qa / qb}[op]
        if op in ("add", "sub") and want != 0:
            lead = min(vp_fraction(qa, p), vp_fraction(qb, p))
            cancelled = vp_fraction(want, p) - lead
            if cancelled >= N:
                return got.is_zero
            return _agrees(got, want, N - cancelled)
        if want == 0:
            return got.is_zero
        return _agrees(got, want, N)

    @FRACTION_SETTINGS
    @given(CONTEXTS, SCALED, SCALED, st.sampled_from(["add", "sub", "mul", "div"]),
           OPERAND, st.booleans())
    def test_binary_ops(self, pn, qa, qb, op, kind, reflected):
        ctx = PrimeContext(*pn)
        if kind == "int":
            qb = Fraction(qb.numerator)
        operand = {"padic": ctx.from_fraction(qb), "int": qb.numerator,
                   "fraction": qb}[kind]
        x = ctx.from_fraction(qa)
        fn = {"add": lambda u, w: u + w, "sub": lambda u, w: u - w,
              "mul": lambda u, w: u * w, "div": lambda u, w: u / w}[op]
        if reflected:
            qa, qb = qb, qa
            left, right = operand, x
        else:
            left, right = x, operand
        if op == "div" and qb == 0:
            with pytest.raises(DivisionByZero):
                fn(left, right)
            return
        try:
            got = fn(left, right)
        except PrecisionExhausted:
            want = qa + qb if op == "add" else qa - qb
            lead = min(vp_fraction(qa, ctx.p), vp_fraction(qb, ctx.p))
            assert op in ("add", "sub")
            assert vp_fraction(want, ctx.p) - lead > ctx.residual_digits
            return
        assert self.check(ctx, op, qa, qb, got)

    @FRACTION_SETTINGS
    @given(CONTEXTS, SCALED, RATIONALS, st.integers(0, 70), st.booleans())
    def test_cancelling_sums(self, pn, qa, r, k, subtract):
        # qb = -qa + r * 195^k cancels about k digits of the leading terms
        ctx = PrimeContext(*pn)
        qb = -qa + r * Fraction(3 * 5 * 13) ** k
        assume(qb != 0)
        if subtract:
            qb, op = -qb, "sub"
        else:
            op = "add"
        x, y = ctx.from_fraction(qa), ctx.from_fraction(qb)
        want = qa + qb if op == "add" else qa - qb
        lead = min(vp_fraction(qa, ctx.p), vp_fraction(qb, ctx.p))
        try:
            got = x + y if op == "add" else x - y
        except PrecisionExhausted:
            assert vp_fraction(want, ctx.p) - lead > ctx.residual_digits
            return
        assert vp_fraction(want, ctx.p) - lead <= ctx.residual_digits or got.is_zero
        assert self.check(ctx, op, qa, qb, got)

    @FRACTION_SETTINGS
    @given(CONTEXTS, SCALED)
    def test_negation_and_from_int(self, pn, q):
        ctx = PrimeContext(*pn)
        assert _agrees(-ctx.from_fraction(q), -q, ctx.precision)
        assert -(-ctx.from_fraction(q)) == ctx.from_fraction(q)
        n = q.numerator
        assert ctx.from_int(n) == ctx.from_rational(n, 1)
        assert _agrees(ctx.from_int(n), Fraction(n), ctx.precision)


def pair(x: PadicNumber) -> tuple:
    return x.valuation, x.unit


class TestPairRules:
    """padic's rules on (valuation, unit) pairs against fractions.Fraction:
    _times, _minus and _divide, with zero operands and cancellation."""

    RULES = {"mul": _times, "sub": _minus, "div": _divide}

    @FRACTION_SETTINGS
    @given(CONTEXTS, SCALED, SCALED, st.sampled_from(sorted(RULES)))
    def test_against_fractions(self, pn, qa, qb, op):
        ctx = PrimeContext(*pn)
        x, y = pair(ctx.from_fraction(qa)), pair(ctx.from_fraction(qb))
        rule = self.RULES[op]
        try:
            got = rule(ctx, x, y)
        except PrecisionExhausted:
            lead = min(vp_fraction(qa, ctx.p), vp_fraction(qb, ctx.p))
            assert op == "sub"
            assert vp_fraction(qa - qb, ctx.p) - lead > ctx.residual_digits
        else:
            assert TestFractionOracle.check(ctx, op, qa, qb, PadicNumber(ctx, *got))
        # zero operands: a product or a quotient of zero is zero, a quotient
        # by zero raises, a difference is the other operand or its negative
        if op == "sub":
            assert rule(ctx, x, _ZERO) == x
            assert PadicNumber(ctx, *rule(ctx, _ZERO, y)) == -ctx.from_fraction(qb)
            return
        assert rule(ctx, _ZERO, y) == _ZERO
        if op == "div":
            with pytest.raises(DivisionByZero, match="division by zero"):
                rule(ctx, x, _ZERO)
        else:
            assert rule(ctx, x, _ZERO) == _ZERO

    @FRACTION_SETTINGS
    @given(CONTEXTS, SCALED, RATIONALS, st.integers(0, 70))
    def test_minus_cancellation(self, pn, qa, r, k):
        # qa - qb = r * 195^k cancels about k leading digits
        ctx = PrimeContext(*pn)
        qb = qa - r * Fraction(3 * 5 * 13) ** k
        assume(qb != 0)
        x, y = pair(ctx.from_fraction(qa)), pair(ctx.from_fraction(qb))
        lead = min(vp_fraction(qa, ctx.p), vp_fraction(qb, ctx.p))
        cancelled = vp_fraction(qa - qb, ctx.p) - lead
        if cancelled >= ctx.precision:
            # indistinguishable mod p^N: the difference is exactly zero
            assert _minus(ctx, x, y) == _ZERO
        elif cancelled > ctx.residual_digits:
            with pytest.raises(PrecisionExhausted, match=f"cancellation of {cancelled} "):
                _minus(ctx, x, y)
        else:
            got = PadicNumber(ctx, *_minus(ctx, x, y))
            assert TestFractionOracle.check(ctx, "sub", qa, qb, got)
        assert _minus(ctx, x, x) == _ZERO


class TestUnitInverse:
    """The Newton-lifted inverse against CPython's pow(u, -1, p^N)."""

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 2 ** 31 + 11])
    @pytest.mark.parametrize("N", [2, 3, 9, 63, 64, 65, 128])
    def test_matches_pow(self, p, N):
        ctx = PrimeContext(p, N, guard=1)
        pN = ctx.modulus
        rng = random.Random(p * 1000 + N)
        units = [1, pN - 1, p - 1, p + 1, pN - p + 1]
        while len(units) < 40:
            u = rng.randrange(1, pN)
            if u % p:
                units.append(u)
        for u in units:
            assert _inv_unit(u, ctx) == pow(u, -1, pN)

    @FRACTION_SETTINGS
    @given(CONTEXTS, st.integers(1, 13 ** 64), st.integers(1, 13 ** 64),
           st.integers(-6, 6), st.integers(-6, 6))
    def test_quotient_times_divisor_is_the_dividend(self, pn, m, n, vm, vn):
        ctx = PrimeContext(*pn)
        assume(m % ctx.p and n % ctx.p)
        x = PadicNumber(ctx, vm, m % ctx.modulus)
        y = PadicNumber(ctx, vn, n % ctx.modulus)
        assert (x / y) * y == x
        assert (ctx.zero() / y) * y == ctx.zero()


class TestBall:
    def test_open_vs_closed(self, ctx):
        # |.|_p takes values in p^Z: the closed ball of radius p^-1 is the
        # open ball of radius p^0, and |x - c|_p = p^-1 sits on the boundary
        c = ctx.one()
        x = c + ctx.from_int(ctx.p)
        assert Ball(c, 0).contains(x)
        assert not Ball(c, -1).contains(x)
        assert Ball(c, -1).contains(c + ctx.from_int(ctx.p ** 2))
        assert Ball(c, -1).contains(c)
        assert Ball(c, 0).to_json()["closed"] is False


class TestNormStr:
    def test_renders_the_order(self):
        assert norm_str(None, 13) == "0"
        assert norm_str(0, 13) == "1"
        assert norm_str(63, 13) == "13^-63"
        assert norm_str(-2, 5) == "5^2"

    def test_text_is_the_norm(self, ctx, rng):
        # the text read back as a rational is |x|_p, the exact norm
        def value(text):
            if text in ("0", "1"):
                return Fraction(text)
            base, exponent = text.split("^")
            assert base == str(ctx.p)
            return Fraction(ctx.p) ** int(exponent)

        values = [ctx.zero(), ctx.one()] + [random_padic(ctx, rng) for _ in range(50)]
        for x in values:
            assert value(norm_str(x.valuation, ctx.p)) == x.norm()


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


def oracle_exp_p(x):
    """exp_p as the term-by-term PadicNumber series: term <- term * x / n."""
    ctx = x.ctx
    if x.is_zero:
        return ctx.one()
    budget = ctx.precision + ctx.guard
    acc = term = ctx.one()
    n = 0
    while True:
        n += 1
        term = term * x / n
        if term.is_zero or term.valuation > budget:
            return acc
        acc = acc + term


def oracle_log_p(x):
    """log_p as the term-by-term PadicNumber series: +-(x - 1)^n / n."""
    ctx = x.ctx
    t = x - 1
    if t.is_zero:
        return ctx.zero()
    budget = ctx.precision + ctx.guard
    acc, power = ctx.zero(), ctx.one()
    n = 0
    while True:
        n += 1
        power = power * t
        term = power / n if n % 2 == 1 else -(power / n)
        if term.is_zero or term.valuation > budget:
            return acc
        acc = acc + term


class TestExpLogAgainstSeries:
    """The integer evaluation matches the PadicNumber series digit for digit."""

    @pytest.mark.parametrize("precision", [16, 64, 128])
    @pytest.mark.parametrize("p", [3, 5, 13])
    def test_random_inputs(self, p, precision):
        ctx = PrimeContext(p, precision)
        rng = random.Random(p * precision)
        for _ in range(25):
            x = random_padic(ctx, rng, vmin=1, vmax=min(ctx.residual_digits, 12))
            assert exp_p(x) == oracle_exp_p(x)
            assert exp_p(-x) == oracle_exp_p(-x)
            assert log_p(ctx.one() + x) == oracle_log_p(ctx.one() + x)
            u = ctx.from_digits(0, [1] + random_unit(ctx, rng).digits(precision - 1))
            assert log_p(u) == oracle_log_p(u)

    @pytest.mark.parametrize("p", [3, 5, 13])
    def test_valuations_near_the_budget(self, p):
        # deep inputs sum few terms; the last ones lie past N and add nothing
        ctx = PrimeContext(p, 16)
        rng = random.Random(p)
        for v in range(1, ctx.precision + ctx.guard + 2):
            x = random_unit(ctx, rng) * ctx.from_int(p) ** v
            assert exp_p(x) == oracle_exp_p(x)
            if v < ctx.residual_digits:
                assert log_p(ctx.one() + x) == oracle_log_p(ctx.one() + x)


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


def hensel_sqrt(x):
    """The canonical root of a square x by the lift y <- (y + u/y)/2.

    The root of the unit u mod p is found by search, then each step
    doubles the digits with pow's own inverses mod p^k.
    """
    ctx = x.ctx
    p, N, u = ctx.p, ctx.precision, x.unit
    y = next(r for r in range(1, p) if (r * r - u) % p == 0)
    k = 1
    while k < N:
        k = min(2 * k, N)
        mod = p ** k
        y = (y + u % mod * pow(y, -1, mod)) * pow(2, -1, mod) % mod
    if y % p > (p - 1) // 2:
        y = ctx.modulus - y
    return PadicNumber(ctx, x.valuation // 2, y)


class TestSqrt:
    @pytest.mark.parametrize("p", [3, 5, 7, 13, 17])
    @pytest.mark.parametrize("N", [2, 9, 64, 65, 128])
    def test_matches_the_hensel_lift(self, p, N):
        ctx = PrimeContext(p, N, guard=1)
        rng = random.Random(p * 1000 + N)
        for _ in range(25):
            v = rng.randrange(-3, 4)
            u = rng.randrange(1, ctx.modulus)
            if u % p == 0:
                continue
            x = PadicNumber(ctx, 2 * v, u * u % ctx.modulus)
            root, other = sqrt_both(x)
            assert root == hensel_sqrt(x)
            assert other == -root
            assert root * root == x and other * other == x

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
            sqrt_both(ctx.from_int(non_residue))
        with pytest.raises(ZeroInput):
            sqrt_both(ctx.zero())

    def test_frozen_sqrt2_in_Q7(self):
        ctx = PrimeContext(7)
        assert sqrt_both(ctx.from_int(2))[0].digits(12) == [3, 1, 2, 6, 1, 2, 1, 2, 4, 6, 6, 2]

    def test_sqrt_of_Ep_stays_in_Ep(self, ctx, rng):
        for _ in range(30):
            x = ctx.from_int(1 + ctx.p * rng.randrange(1, ctx.p ** 6))
            assert in_Ep(sqrt_both(x)[0])
