"""The three rational maps of the renormalization dynamics.

f(u) = ((abu)^2 + 1)/(b^2 + a^2 u^2)
g(u) = a (b^2 u^2 + 1)/(b^2 + u^2)
k(x) = (a (b^2 x + 1)/(b^2 + x))^2

with parameters a, b in the unit group E_p = {x : |x - 1|_p < 1}; u -> a u
conjugates f to g, and k(x^2) = g(x)^2.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import DomainError, PoleError, PrecisionExhausted
from .padic import Ball, PadicNumber, PrimeContext, diff_valuation, in_Ep


@dataclass(frozen=True)
class MapParams:
    """Parameter pair (a, b) with the derived radius r = |b - 1|_p.

    strict_regime records the standing assumption |a - 1|_p < |b - 1|_p
    under which the repeller geometry of the symbolic module is valid.
    """

    a: PadicNumber
    b: PadicNumber
    radius_exponent: int = field(init=False)
    strict_regime: bool = field(init=False)

    def __post_init__(self):
        if self.a.ctx != self.b.ctx:
            raise DomainError("a and b must share a PrimeContext")
        if not in_Ep(self.a):
            raise DomainError("a must lie in E_p")
        if not in_Ep(self.b):
            raise DomainError("b must lie in E_p")
        m = diff_valuation(self.b, self.ctx.one())
        if m is None:
            raise DomainError("b = 1 at working precision")
        object.__setattr__(self, "radius_exponent", m)
        # a in the open ball of radius p^-m around 1
        object.__setattr__(self, "strict_regime", Ball(self.ctx.one(), -m).contains(self.a))

    @property
    def ctx(self) -> PrimeContext:
        return self.a.ctx

    @property
    def radius(self) -> Fraction:
        """r = |b - 1|_p."""
        return Fraction(1, self.ctx.p ** self.radius_exponent)

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


def _checked_den(params: MapParams, x: PadicNumber, y: PadicNumber) -> PadicNumber:
    """The denominator x + y, mapping precision loss / near-zero to PoleError."""
    try:
        den = x + y
    except PrecisionExhausted as exc:
        raise PoleError("denominator vanished at working precision") from exc
    ctx = params.ctx
    if den.is_zero or den.valuation > ctx.residual_digits:
        raise PoleError("denominator indistinguishable from zero")
    return den


def eval_f(params: MapParams, u: PadicNumber) -> PadicNumber:
    a, b = params.a, params.b
    den = _checked_den(params, b * b, a * a * u * u)
    abu = a * b * u
    return (abu * abu + 1) / den


def eval_g(params: MapParams, u: PadicNumber) -> PadicNumber:
    b2 = params.b2
    den = _checked_den(params, b2, u * u)
    return params.a * (b2 * u * u + 1) / den


def eval_k(params: MapParams, x: PadicNumber) -> PadicNumber:
    b2 = params.b2
    den = _checked_den(params, b2, x)
    root = params.a * (b2 * x + 1) / den
    return root * root


def deriv_g(params: MapParams, u: PadicNumber) -> PadicNumber:
    """g'(u) = 2au(b^4 - 1)/(b^2 + u^2)^2."""
    b2 = params.b2
    den = _checked_den(params, b2, u * u)
    return params.slope_factor * u / (den * den)


def eval_k_slope(params: MapParams, x: PadicNumber) -> tuple[PadicNumber, PadicNumber]:
    """(k(x), k'(x)) from one inverse of b^2 + x.

    With root = a(b^2 x + 1)/(b^2 + x), k = root^2 and
    k' = 2 root a(b^4 - 1)/(b^2 + x)^2.
    """
    b2 = params.b2
    inv = 1 / _checked_den(params, b2, x)
    root = params.a * (b2 * x + 1) * inv
    return root * root, root * params.slope_factor * inv * inv


def deriv_g_norm(params: MapParams, x: PadicNumber) -> Fraction:
    """|g'(x)|_p; valuations of products and quotients are exact."""
    return deriv_g(params, x).norm()
