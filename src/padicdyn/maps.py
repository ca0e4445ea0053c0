"""The three rational maps of the renormalization dynamics.

f(u) = ((abu)^2 + 1)/(b^2 + a^2 u^2)
g(u) = a (b^2 u^2 + 1)/(b^2 + u^2)
k(x) = (a (b^2 x + 1)/(b^2 + x))^2

with parameters a, b in the unit group E_p = {x : |x - 1|_p < 1}; u -> a u
conjugates f to g, and k(x^2) = g(x)^2.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .errors import DomainError, PoleError, PrecisionExhausted
from .padic import (
    Ball,
    PadicNumber,
    PrimeContext,
    _Immutable,
    _ONE,
    _divide,
    _sum,
    _times,
    diff_valuation,
    in_Ep,
    norm_fraction,
)


class MapParams(_Immutable):
    """Parameter pair (a, b) with the derived radius r = |b - 1|_p.

    strict_regime records the standing assumption |a - 1|_p < |b - 1|_p
    under which the repeller geometry of the symbolic module is valid.
    m = ord(b - 1) must leave a trusted digit: a pair with m > N - g, whose
    slope factor 2a(b^4 - 1) cancels past the guard, is refused.
    """

    def __init__(self, a: PadicNumber, b: PadicNumber):
        if a.ctx != b.ctx:
            raise DomainError("a and b must share a PrimeContext")
        if not in_Ep(a):
            raise DomainError("a must lie in E_p")
        if not in_Ep(b):
            raise DomainError("b must lie in E_p")
        ctx = a.ctx
        m = diff_valuation(b, ctx.one())
        if m is None:
            raise DomainError("b = 1 at working precision")
        if m > ctx.residual_digits:
            raise DomainError(f"ord(b - 1) = {m} must be <= N - g = {ctx.residual_digits} "
                              f"(precision {ctx.precision}, guard {ctx.guard})")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "radius_exponent", m)
        # a in the open ball of radius p^-m around 1
        object.__setattr__(self, "strict_regime", Ball(ctx.one(), -m).contains(a))

    @property
    def ctx(self) -> PrimeContext:
        return self.a.ctx

    @property
    def radius(self) -> Fraction:
        """r = |b - 1|_p."""
        return norm_fraction(self.radius_exponent, self.ctx.p)

    @property
    def trusted_steps(self) -> int:
        """(N - g) // m: each step on the repeller spends m trusted digits."""
        return self.ctx.residual_digits // self.radius_exponent

    # per-pair constants of the maps, computed on first use: products mod p^N
    # are exact, so reusing them leaves every digit as it was

    @cached_property
    def b2(self) -> PadicNumber:
        """b^2."""
        return self.b * self.b

    @cached_property
    def slope_factor(self) -> PadicNumber:
        """2a(b^4 - 1), the constant factor of g' and k'."""
        return self.a * (self.b2 * self.b2 - 1) * 2

    # what the pair derives, solved on first use and kept on the pair, so each
    # value is in the pair's own context; a call that raises keeps nothing.
    # The solvers are imported on first use: their modules import this one

    @cached_property
    def fixed_points(self) -> tuple[PadicNumber, PadicNumber,
                                    tuple[PadicNumber, PadicNumber] | None]:
        """(x0, Delta, repelling roots): fixedpoints.find_x0 and analyze."""
        from .fixedpoints import _fixed_points
        return _fixed_points(self)

    @cached_property
    def fixed_point_report(self) -> "FixedPointReport":
        """Every fixed point located, classified and lemma-checked:
        fixedpoints.analyze."""
        from .fixedpoints import FixedPointReport
        return FixedPointReport(self)

    @cached_property
    def geometry(self) -> "RepellerGeometry":
        """The repeller geometry: symbolic.RepellerGeometry.build."""
        from .symbolic import RepellerGeometry
        return RepellerGeometry(self)


def _quotient(params: MapParams, t: tuple) -> tuple[tuple, tuple]:
    """q(t) = (b^2 t + 1)/(b^2 + t) for the pair t, the quotient the three
    maps share: f(u) = q(a^2 u^2), g(u) = a q(u^2) and k(x) = (a q(x))^2.

    The denominator comes first: a sum that vanishes or cancels past N - g
    digits is a PoleError.  Then the numerator, which raises
    PrecisionExhausted where it cancels past the guard.  Returns the quotient
    and the inverse of the denominator, both as pairs.
    """
    ctx = params.ctx
    b2 = (0, params.b2.unit)
    try:
        den = _sum(ctx, b2, t)
    except PrecisionExhausted as exc:
        raise PoleError("denominator vanished at working precision") from exc
    if den[0] is None or den[0] > ctx.residual_digits:
        raise PoleError("denominator indistinguishable from zero")
    inv = _divide(ctx, _ONE, den)
    return _times(ctx, _sum(ctx, _times(ctx, b2, t), _ONE), inv), inv


# Each map below is one pass over padic's (valuation, unit) pairs: the
# operations of the composition in the module docstring, in its order, by
# padic's pair rules, with one inverse of the denominator per point.
# Products and the unique inverse mod p^N are exact, so every digit and every
# error is the composition's.  a and b lie in E_p: their valuations, and
# b^2's, are 0.

def eval_f(params: MapParams, u: PadicNumber) -> PadicNumber:
    ctx = params.ctx
    t, a = (u.valuation, u.unit), (0, params.a.unit)
    q, _ = _quotient(params, _times(ctx, _times(ctx, a, a), _times(ctx, t, t)))
    return PadicNumber(ctx, *q)


def eval_g(params: MapParams, u: PadicNumber) -> PadicNumber:
    ctx = params.ctx
    t = (u.valuation, u.unit)
    q, _ = _quotient(params, _times(ctx, t, t))
    return PadicNumber(ctx, *_times(ctx, (0, params.a.unit), q))


def eval_g_slope(params: MapParams, u: PadicNumber) -> tuple[PadicNumber, PadicNumber]:
    """(g(u), g'(u)) from one inverse of b^2 + u^2, with
    g'(u) = 2au(b^4 - 1)/(b^2 + u^2)^2."""
    ctx = params.ctx
    t = (u.valuation, u.unit)
    q, inv = _quotient(params, _times(ctx, t, t))
    factor = params.slope_factor
    slope = _times(ctx, _times(ctx, (factor.valuation, factor.unit), t),
                   _times(ctx, inv, inv))
    return PadicNumber(ctx, *_times(ctx, (0, params.a.unit), q)), PadicNumber(ctx, *slope)


def eval_k(params: MapParams, x: PadicNumber) -> PadicNumber:
    ctx = params.ctx
    q, _ = _quotient(params, (x.valuation, x.unit))
    root = _times(ctx, (0, params.a.unit), q)
    return PadicNumber(ctx, *_times(ctx, root, root))


def _k_ratio_step(params: MapParams, X: int, Z: int) -> tuple[int, int, int, int]:
    """k on the repeller balls in homogeneous coordinates, as plain integers:
    x = X/Z with X, Z units mod p^N goes to k(x) = X'/Z', again units, with

        X' = (a num)^2,  Z' = den^2  mod p^N,
        num = (b^2 X + Z) / p^m,  den = (b^2 Z + X) / p^m,

    m = ord(b - 1).  Returns (X', Z', num, den): the parts num and den are
    units, and the slope of k reads on them (_k_ratio_orbit).  On B_r(x_j^2)
    both b^2 + x and b^2 x + 1 have order exactly m (Lemma 3.4 (iii),
    |x_j^2 + b^2|_p = r, and g(x_j) = x_j), so k(x) is a quotient of two
    units and no inverse is taken.  Each step keeps m fewer digits of the
    quotient, as eval_k's does.  A sum that p^m does not divide exactly, or
    that p^(m+1) divides, raises PrecisionExhausted: x is then off the
    balls at the digits kept.
    """
    ctx, m = params.ctx, params.radius_exponent
    pN, pm, b2 = ctx.modulus, ctx._powers[m], params.b2.unit
    num, num_rest = divmod((b2 * X + Z) % pN, pm)
    den, den_rest = divmod((b2 * Z + X) % pN, pm)
    if num_rest or den_rest or not num % ctx.p or not den % ctx.p:
        raise PrecisionExhausted(f"b^2 + x or b^2 x + 1 is not of order m = {m}: "
                                 "x is off the repeller balls at the digits kept")
    root = params.a.unit * num % pN
    return root * root % pN, den * den % pN, num, den


def _k_ratio_orbit(params: MapParams, X: int, n: int) -> tuple[int, int, int, int]:
    """n steps of k from the unit x = X mod p^N on the repeller balls, with
    the slope of k^n there, in plain integers: (X_n, Z_n, A, B), all units,
    with

        k^n(x) = X_n/Z_n  and  (k^n)'(x) = p^(-nm) A/B.

    Step j is _k_ratio_step from x_j = X_j/Z_j (X_0 = X, Z_0 = 1), whose
    parts give b^2 x_j + 1 = p^m num_j/Z_j and b^2 + x_j = p^m den_j/Z_j.
    So k' = 2a^2(b^4 - 1)(b^2 x + 1)/(b^2 + x)^3 reads
    k'(x_j) = p^-m c num_j Z_j^2/den_j^3, with c = 2a^2(b^4 - 1)/p^m =
    a * slope_factor.unit, a unit (b + 1 and b^2 + 1 are units).  As
    Z_(j+1) = den_j^2, the product over j < n telescopes to
    A = c^n prod num_j prod_(j < n-1) den_j and B = den_(n-1)^3 = den_(n-1) Z_n.
    No inverse is taken.
    """
    pN = params.ctx.modulus
    Z, A, den = 1, 1, 1
    for _ in range(n):
        A *= den  # den_(j-1), 1 before the first step
        X, Z, num, den = _k_ratio_step(params, X, Z)
        A = A * num % pN
    c = params.a.unit * params.slope_factor.unit % pN
    return X, Z, A * pow(c, n, pN) % pN, den * Z % pN
