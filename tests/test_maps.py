"""The maps f, g, k against exact rational evaluation and each other."""
import random
from collections import Counter
from fractions import Fraction

import pytest

from padicdyn import (
    DomainError,
    MapParams,
    PadicNumber,
    PoleError,
    PrecisionExhausted,
    PrimeContext,
    diff_valuation,
    eq_to_precision,
    eval_f,
    eval_g,
    eval_k,
    norm_diff,
    sqrt_both,
    sqrt_exists,
)
from padicdyn.maps import _k_ratio_orbit, _k_ratio_step, eval_g_slope
from conftest import random_padic, strict_params
from periodic_oracle import eval_k_slope


# The PadicNumber compositions that the integer kernels of maps.py replaced,
# kept as the oracle: each kernel gives their digits and raises their errors.

def checked_den(params, x, y):
    """x + y, with precision loss or a value indistinguishable from zero
    reported as PoleError."""
    try:
        den = x + y
    except PrecisionExhausted as exc:
        raise PoleError("denominator vanished at working precision") from exc
    if den.is_zero or den.valuation > params.ctx.residual_digits:
        raise PoleError("denominator indistinguishable from zero")
    return den


def composed_f(params, u):
    a, b = params.a, params.b
    den = checked_den(params, b * b, a * a * u * u)
    abu = a * b * u
    return (abu * abu + 1) / den


def composed_g(params, u):
    b2 = params.b2
    den = checked_den(params, b2, u * u)
    return params.a * (b2 * u * u + 1) / den


def deriv_g(params, u):
    """g'(u) = 2au(b^4 - 1)/(b^2 + u^2)^2."""
    b2 = params.b2
    den = checked_den(params, b2, u * u)
    return params.slope_factor * u / (den * den)


def composed_k(params, x):
    b2 = params.b2
    den = checked_den(params, b2, x)
    root = params.a * (b2 * x + 1) / den
    return root * root


def composed_k_slope(params, x):
    b2 = params.b2
    inv = 1 / checked_den(params, b2, x)
    root = params.a * (b2 * x + 1) * inv
    return root * root, root * params.slope_factor * inv * inv


def composed_g_slope(params, u):
    slope = deriv_g(params, u)  # the order of the former Newton step
    return composed_g(params, u), slope


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
        with pytest.raises(DomainError, match="b must lie in E_p"):
            MapParams(one, ctx.from_int(-1))
        if ctx.p > 3:
            with pytest.raises(DomainError):
                MapParams(ctx.from_int(2), one + ctx.from_int(ctx.p))
        # ord(b - 1) = m must leave a trusted digit: m = N - g is the deepest
        R = ctx.residual_digits
        assert MapParams(one, ctx.from_int(1 + ctx.p ** R)).radius_exponent == R
        with pytest.raises(DomainError, match=rf"ord\(b - 1\) = {R + 1} must be <= "
                                              rf"N - g = {R} \(precision 64, guard 8\)"):
            MapParams(one, ctx.from_int(1 + ctx.p ** (R + 1)))

    def test_radius_and_regime(self, ctx):
        p = ctx.p
        params = MapParams(ctx.from_int(1 + p ** 2), ctx.from_int(1 + p))
        assert params.radius_exponent == 1
        assert params.radius == Fraction(1, p)
        assert params.strict_regime
        flipped = MapParams(ctx.from_int(1 + p), ctx.from_int(1 + p))
        assert not flipped.strict_regime

    def test_strict_regime_matches_norm_formula(self, ctx, rng):
        # the former definition, kept as the oracle: |a - 1|_p < |b - 1|_p
        # with both norms as exact rationals
        p, one = ctx.p, ctx.one()
        outcomes = set()
        for m in (1, 2, 3):
            b = ctx.from_int(1 + p ** m * rng.randrange(1, p))
            levels = [m - 1, m, m, m + 1, m + 1, m + 2, rng.randrange(1, 6)]
            a_values = [one] + [ctx.from_int(1 + p ** j * (p * rng.randrange(p ** 3)
                                                           + rng.randrange(1, p)))
                                for j in levels if j >= 1]
            for a in a_values:
                want = norm_diff(a, one) < Fraction(1, p ** m)
                assert MapParams(a, b).strict_regime is want, (m, a)
                outcomes.add(want)
        assert outcomes == {True, False}

    def test_mixed_context_rejected(self):
        c3, c5 = PrimeContext(3), PrimeContext(5)
        with pytest.raises(DomainError):
            MapParams(c3.one(), c5.from_int(6))

    def test_constants_computed_on_first_use(self, ctx, rng):
        params = strict_params(ctx, rng)
        assert "b2" not in vars(params) and "slope_factor" not in vars(params)
        eval_g(params, ctx.one())
        assert "b2" in vars(params) and "slope_factor" not in vars(params)
        a, b = params.a, params.b
        assert params.b2 == b * b
        assert params.slope_factor == a * (b ** 4 - 1) * 2

    def test_constants_leave_every_digit(self, ctx, rng):
        # the former per-call formulas, kept as the oracle: products mod p^N
        # are exact, so the shared constants change no digit
        params = strict_params(ctx, rng)
        a, b = params.a, params.b
        for _ in range(20):
            u = random_padic(ctx, rng, 0, 2)
            assert eval_g(params, u) == a * (b * b * u * u + 1) / (b * b + u * u)
            assert eval_k(params, u) == (a * (b * b * u + 1) / (b * b + u)) ** 2
            assert deriv_g(params, u) == (a * u * (b ** 4 - 1) * 2
                                          / ((b * b + u * u) * (b * b + u * u)))
            inv = 1 / (b * b + u)
            root = a * (b * b * u + 1) * inv
            assert eval_k_slope(params, u) == (
                root * root, root * a * (b * b * b * b - 1) * 2 * inv * inv)


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

    def test_eval_k_slope(self, ctx, rng):
        # k and the quotient rule on k = a^2 (b^2 x + 1)^2 / (b^2 + x)^2
        qa, qb, params = rational_params(ctx)
        for _ in range(40):
            qx = Fraction(rng.randrange(-50, 51), rng.randrange(1, 40))
            if qb ** 2 + qx == 0:
                continue
            lin, den = qb ** 2 * qx + 1, qb ** 2 + qx
            num = qa ** 2 * lin ** 2
            want_k = num / den ** 2
            want_slope = (2 * qa ** 2 * qb ** 2 * lin * den ** 2
                          - num * 2 * den) / den ** 4
            x = ctx.from_fraction(qx)
            got_k, got_slope = eval_k_slope(params, x)
            assert eq_to_precision(got_k, ctx.from_fraction(want_k),
                                   ctx.residual_digits)
            assert eq_to_precision(got_slope, ctx.from_fraction(want_slope),
                                   ctx.residual_digits)
            assert got_k == eval_k(params, x)


class TestStructure:
    def test_conjugacy_f_to_g(self, ctx, rng):
        for _ in range(10):
            params = strict_params(ctx, rng)
            for _ in range(20):
                u = random_padic(ctx, rng, vmin=-3, vmax=3)
                try:
                    # u -> a*u conjugates f to g: g(a*u) = a*f(u)
                    lhs = eval_g(params, params.a * u)
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
                    lam = deriv_g(params, x).norm()
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
        i_root = sqrt_both(ctx.from_int(-1))[0]
        pole = i_root * params.b  # b^2 + x^2 = 0 exactly
        with pytest.raises(PoleError):
            eval_g(params, pole)

    def test_pole_error_from_deep_cancellation(self, ctx):
        # b^2 + x = p^(N-2) cancels more than N - g digits
        params = MapParams(ctx.from_int(1 + ctx.p ** 2), ctx.from_int(1 + ctx.p))
        x = -params.b2 + ctx.from_int(ctx.p) ** (ctx.precision - 2)
        with pytest.raises(PoleError) as info:
            eval_k(params, x)
        assert isinstance(info.value.__cause__, PrecisionExhausted)


KERNELS = {
    "f": (eval_f, composed_f),
    "g": (eval_g, composed_g),
    "k": (eval_k, composed_k),
    "g_slope": (eval_g_slope, composed_g_slope),
    "k_slope": (eval_k_slope, composed_k_slope),
}


def outcome(fn, params, x):
    """The value fn returns, or the class of the error it raises and of its cause."""
    try:
        return fn(params, x)
    except (PoleError, PrecisionExhausted) as exc:
        cause = exc.__cause__
        return type(exc), None if cause is None else type(cause)


def kind(result):
    """"zero" or "value" by the first value returned, or the error classes."""
    first = result[0] if isinstance(result, tuple) else result
    if isinstance(first, type):
        return result
    return "zero" if first.is_zero else "value"


def kernel_inputs(params, rng):
    """Zero, values of valuation -6..6, and t0 + p^e and sqrt(t0) + p^e for
    each pole and numerator zero t0 of k (as x) and of g and f (as u^2):
    near them the denominator or the numerator cancels e digits, for e
    below, at and past N - g, and at and past N."""
    ctx = params.ctx
    p, N, R = ctx.p, ctx.precision, ctx.residual_digits
    a2, b2 = params.a * params.a, params.b2
    xs = [ctx.zero()] + [random_padic(ctx, rng) for _ in range(8)]
    for t0 in (-b2, -1 / b2, -b2 / a2, -1 / (a2 * b2)):
        near = [t0, *(sqrt_both(t0) if sqrt_exists(t0) else ())]
        for e in (1, 2, R - 1, R, R + 1, N - 1, N, N + 1):
            shift = ctx.from_int(p) ** e * rng.randrange(1, p)
            xs.extend(c + shift for c in near)
    return xs


class TestKernelsAgainstComposition:
    """Each integer kernel against the PadicNumber composition it replaced:
    the same representation, digit for digit, or the same error class."""

    @pytest.mark.parametrize("precision", [64, 128])
    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_digit_for_digit(self, p, precision):
        ctx = PrimeContext(p, precision)
        rng = random.Random(100 * p + precision)
        R = ctx.residual_digits
        pairs = [strict_params(ctx, rng, t=1), strict_params(ctx, rng, t=2),
                 # b - 1 of order N - g, the deepest MapParams accepts
                 MapParams(ctx.from_int(1 + p ** (R + 1)), ctx.from_int(1 + p ** R))]
        seen = Counter()
        for params in pairs:
            for x in kernel_inputs(params, rng):
                for name, (kernel, composed) in KERNELS.items():
                    want = outcome(composed, params, x)
                    assert outcome(kernel, params, x) == want, (name, x)
                    seen[kind(want)] += 1
        assert set(seen) == {"value", "zero", (PoleError, None),
                             (PoleError, PrecisionExhausted), (PrecisionExhausted, None)}


# the four pairs of tests/output_grid.py and one with m = ord(b - 1) = 8
RATIO_PAIRS = [(13, 170, 14), (5, 26, 6), (13, 2198, 170), (17, 290, 18),
               (13, 1 + 296 * 13 ** 9, 1 + 10 * 13 ** 8)]


def ratio_cases():
    """(params, rng) for each pair at N = 12, 20, 64 and 128, where
    MapParams accepts it."""
    for p, a, b in RATIO_PAIRS:
        for precision in (12, 20, 64, 128):
            ctx = PrimeContext(p, precision)
            try:
                params = MapParams(ctx.from_int(a), ctx.from_int(b))
            except DomainError:  # m > N - g
                continue
            yield params, random.Random(precision * 1000 + a % 997)


def ball_points(params, rng, count):
    """Seeded points of the two repeller balls B_r(x_j^2), r = p^-m, some
    within p^-e of each other for e up to N + 1."""
    ctx, m = params.ctx, params.radius_exponent
    _, _, (x1, x2) = params.fixed_points
    out = []
    for _ in range(count):
        center = rng.choice((x1, x2))
        x = center * center + ctx.from_int(rng.randrange(1, ctx.modulus)) * ctx.p ** (
            m + 1 + rng.randrange(m + 2))
        near = ctx.from_int(rng.randrange(1, ctx.p)) * ctx.p ** rng.randrange(m + 1, ctx.precision + 2)
        out.append((x, x + near))
    return out


class TestKRatioStep:
    """maps._k_ratio_step, k on the repeller balls as a fraction of two units,
    against eval_k, which takes one inverse and builds a PadicNumber."""

    def test_one_step_is_eval_k_digit_for_digit(self):
        cases = 0
        for params, rng in ratio_cases():
            M = params.ctx.modulus
            for x, y in ball_points(params, rng, 40):
                for point in (x, y):
                    X, Z, _, _ = _k_ratio_step(params, point.unit, 1)
                    image = eval_k(params, point)
                    assert image.valuation == 0 and X % params.ctx.p and Z % params.ctx.p
                    assert X == image.unit * Z % M
                    cases += 1
        assert cases == 2 * 40 * 19  # the m = 8 pair is refused at N = 12

    def test_iterates_keep_n_minus_jm_digits(self):
        # from x = X/1 the j-th fraction agrees with the j-th eval_k iterate
        # in the N - jm digits both keep, for as long as the orbit stays on
        # the balls: periodic points stay for every step, ball points escape
        steps = Counter()
        for params, rng in ratio_cases():
            ctx, m, geom = params.ctx, params.radius_exponent, params.geometry
            starts = [geom.periodic_point_k(word) for word in ((1, 2), (2, 2, 1))]
            starts += [x for x, _ in ball_points(params, rng, 10)]
            for x in starts:
                X, Z, image = x.unit, 1, x
                for j in range(1, (ctx.precision - 1) // m):
                    X, Z, _, _ = _k_ratio_step(params, X, Z)
                    image = eval_k(params, image)
                    assert eq_to_precision(ctx.from_int(X) / ctx.from_int(Z), image,
                                           ctx.precision - j * m)
                    steps[j] += 1
                    if geom.in_X(image) is None:
                        break
        assert max(steps) >= 126

    def test_image_difference_has_the_order_of_the_cross_product(self):
        # lemmas' scaling sample: ord(k(x) - k(y)) = ord(X Z' - X' Z), and a
        # pair indistinguishable at N stays so
        seen = set()
        for params, rng in ratio_cases():
            ctx, M = params.ctx, params.ctx.modulus
            for x, y in ball_points(params, rng, 40):
                X, Z, _, _ = _k_ratio_step(params, x.unit, 1)
                X2, Z2, _, _ = _k_ratio_step(params, y.unit, 1)
                got = diff_valuation(PadicNumber(ctx, 0, X * Z2 % M),
                                     PadicNumber(ctx, 0, X2 * Z % M))
                want = diff_valuation(eval_k(params, x), eval_k(params, y))
                assert got == want
                seen.add(want is None)
        assert seen == {True, False}

    def test_off_the_balls_it_raises(self):
        # b^2 + x of order 0 at x0 and 1, and of order m + 1 at -b^2 + p^(m+1)
        for params, _ in ratio_cases():
            ctx, m = params.ctx, params.radius_exponent
            x0 = params.fixed_points[0]
            deep = -params.b2 + ctx.from_int(ctx.p) ** (m + 1)
            for x in (x0, ctx.one(), deep):
                with pytest.raises(PrecisionExhausted):
                    _k_ratio_step(params, x.unit, 1)


class TestKRatioOrbit:
    """maps._k_ratio_orbit, n steps of k in unit fractions with the slope of
    k^n, against the chain rule along the eval_k_slope orbit (the oracle of
    tests/periodic_oracle.py), which takes one inverse per step."""

    def test_orbit_and_slope_are_the_chain_rule(self):
        # the first step is exact; each later one keeps m fewer digits, on
        # both sides, for as long as the orbit stays on the balls
        steps = Counter()
        for params, rng in ratio_cases():
            ctx, m, geom = params.ctx, params.radius_exponent, params.geometry
            starts = [geom.periodic_point_k(word) for word in ((1, 2), (2, 2, 1))]
            starts += [x for x, _ in ball_points(params, rng, 5)]
            for x in starts:
                image, slope = x, ctx.one()
                for n in range(1, (ctx.precision - 1) // m):
                    image, step_slope = eval_k_slope(params, image)
                    slope = slope * step_slope
                    X, Z, A, B = _k_ratio_orbit(params, x.unit, n)
                    if n == 1:
                        assert (X, Z) == _k_ratio_step(params, x.unit, 1)[:2]
                    digits = ctx.precision - (n - 1) * m
                    assert eq_to_precision(ctx.from_int(X) / ctx.from_int(Z), image, digits)
                    assert slope.valuation == -n * m
                    assert eq_to_precision(ctx.from_int(A) / ctx.from_int(B),
                                           PadicNumber(ctx, 0, slope.unit), digits)
                    steps[n] += 1
                    if geom.in_X(image) is None:
                        break
        assert max(steps) >= 126

    def test_off_the_balls_it_raises(self):
        # the check is _k_ratio_step's, on every step: a start off the balls
        # raises at once
        for params, _ in ratio_cases():
            x0 = params.fixed_points[0]
            for n in (1, 3):
                with pytest.raises(PrecisionExhausted):
                    _k_ratio_orbit(params, x0.unit, n)
