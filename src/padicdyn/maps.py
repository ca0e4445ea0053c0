"""The three rational maps of the renormalization dynamics and their conjugacies.

f(u) = ((abu)^2 + 1)/(b^2 + a^2 u^2)
g(u) = a (b^2 u^2 + 1)/(b^2 + u^2)
k(x) = (a (b^2 x + 1)/(b^2 + x))^2

with parameters a, b in the unit group E_p = {x : |x - 1|_p < 1}.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError, PoleError, PrecisionExhausted
from .padic import PadicNumber, PrimeContext, diff_valuation, in_Ep, norm_diff


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
        da = norm_diff(self.a, self.ctx.one())
        object.__setattr__(self, "strict_regime", da < Fraction(1, self.ctx.p ** m))

    @property
    def ctx(self) -> PrimeContext:
        return self.a.ctx

    @property
    def radius(self) -> Fraction:
        """r = |b - 1|_p."""
        return Fraction(1, self.ctx.p ** self.radius_exponent)


def _checked_den(params: MapParams, build) -> PadicNumber:
    """Evaluate a denominator, mapping precision loss / near-zero to PoleError."""
    try:
        den = build()
    except PrecisionExhausted as exc:
        raise PoleError("denominator vanished at working precision") from exc
    ctx = params.ctx
    if den.is_zero or den.valuation > ctx.residual_digits:
        raise PoleError("denominator indistinguishable from zero")
    return den


def eval_f(params: MapParams, u: PadicNumber) -> PadicNumber:
    a, b = params.a, params.b
    den = _checked_den(params, lambda: b * b + a * a * u * u)
    abu = a * b * u
    return (abu * abu + 1) / den


def eval_g(params: MapParams, u: PadicNumber) -> PadicNumber:
    a, b = params.a, params.b
    den = _checked_den(params, lambda: b * b + u * u)
    return a * (b * b * u * u + 1) / den


def eval_k(params: MapParams, x: PadicNumber) -> PadicNumber:
    a, b = params.a, params.b
    den = _checked_den(params, lambda: b * b + x)
    root = a * (b * b * x + 1) / den
    return root * root


def deriv_g(params: MapParams, u: PadicNumber) -> PadicNumber:
    """g'(u) = 2au(b^4 - 1)/(b^2 + u^2)^2."""
    a, b = params.a, params.b
    den = _checked_den(params, lambda: b * b + u * u)
    return a * u * (b ** 4 - 1) * 2 / (den * den)


def deriv_k(params: MapParams, x: PadicNumber) -> PadicNumber:
    """k'(x) = 2a^2(b^2 x + 1)(b^4 - 1)/(b^2 + x)^3."""
    a, b = params.a, params.b
    b2 = b * b
    den = _checked_den(params, lambda: b2 + x)
    return a * a * (b2 * x + 1) * (b ** 4 - 1) * 2 / (den * den * den)


def conjugate_f_to_g(params: MapParams, u: PadicNumber) -> PadicNumber:
    """The conjugating homeomorphism u -> a*u: g(a*u) = a*f(u).

    |a|_p = 1, so this is an isometry.
    """
    return params.a * u


def deriv_g_norm(params: MapParams, x: PadicNumber) -> Fraction:
    """|g'(x)|_p; valuations of products and quotients are exact."""
    return deriv_g(params, x).norm()
