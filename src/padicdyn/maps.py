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
from .padic import Ball, PadicNumber, PrimeContext, _inv_unit, _sum, diff_valuation, in_Ep


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
    def geometry(self) -> "RepellerGeometry":
        """The repeller geometry: symbolic.RepellerGeometry.build."""
        from .symbolic import _geometry
        return _geometry(self)


def _square(x: PadicNumber, pN: int) -> tuple[int | None, int]:
    """x^2 as (valuation, unit), valuation None for zero."""
    if x.valuation is None:
        return None, 0
    return 2 * x.valuation, x.unit * x.unit % pN


def _quotient(params: MapParams, tv: int | None, tu: int,
              c_num: int, c_den: int) -> tuple[int | None, int, int, int]:
    """(c_num t + 1)/(b^2 + c_den t) at t = p^tv tu, for unit constants c_num
    and c_den, in the order the PadicNumber composition takes.

    The denominator comes first: a sum that vanishes or cancels past N - g
    digits is a PoleError.  Then the numerator, which raises
    PrecisionExhausted where it cancels past the guard.  Returns the
    (valuation, unit) of the quotient, valuation None for zero, with the
    order and the inverse unit of the denominator.
    """
    ctx = params.ctx
    pN = ctx.modulus
    try:
        dv, du = _sum(ctx, 0, params.b2.unit, tv, c_den * tu % pN)
    except PrecisionExhausted as exc:
        raise PoleError("denominator vanished at working precision") from exc
    if dv is None or dv > ctx.residual_digits:
        raise PoleError("denominator indistinguishable from zero")
    nv, nu = _sum(ctx, tv, c_num * tu % pN, 0, 1)
    inv = _inv_unit(du, ctx)
    if nv is None:
        return None, 0, dv, inv
    return nv - dv, nu * inv % pN, dv, inv


# Each map below is one pass over integers mod p^N in padic's (valuation,
# unit) form: the operations of the composition in the module docstring, in
# its order, every sum by padic._sum and one _inv_unit of the denominator per
# point.  Products and the unique inverse mod p^N are exact, so every digit
# and every error is the composition's.  a and b lie in E_p: their valuations,
# and b^2's, are 0.  The Gibbs weight kernels in gibbs.py work the same way.

def eval_f(params: MapParams, u: PadicNumber) -> PadicNumber:
    ctx = params.ctx
    pN = ctx.modulus
    a2 = params.a.unit * params.a.unit % pN
    qv, qu, _, _ = _quotient(params, *_square(u, pN), a2 * params.b2.unit % pN, a2)
    return PadicNumber(ctx, qv, qu)


def eval_g(params: MapParams, u: PadicNumber) -> PadicNumber:
    ctx = params.ctx
    pN = ctx.modulus
    qv, qu, _, _ = _quotient(params, *_square(u, pN), params.b2.unit, 1)
    return PadicNumber(ctx, qv, params.a.unit * qu % pN)


def eval_g_slope(params: MapParams, u: PadicNumber) -> tuple[PadicNumber, PadicNumber]:
    """(g(u), g'(u)) from one inverse of b^2 + u^2, with
    g'(u) = 2au(b^4 - 1)/(b^2 + u^2)^2."""
    ctx = params.ctx
    pN = ctx.modulus
    qv, qu, dv, inv = _quotient(params, *_square(u, pN), params.b2.unit, 1)
    value = PadicNumber(ctx, qv, params.a.unit * qu % pN)
    factor = params.slope_factor  # of order m < N: never zero
    if u.valuation is None:
        return value, ctx.zero()
    return value, PadicNumber(ctx, factor.valuation + u.valuation - 2 * dv,
                              factor.unit * u.unit * inv * inv % pN)


def eval_k(params: MapParams, x: PadicNumber) -> PadicNumber:
    ctx = params.ctx
    pN = ctx.modulus
    qv, qu, _, _ = _quotient(params, x.valuation, x.unit, params.b2.unit, 1)
    if qv is None:
        return ctx.zero()
    root = params.a.unit * qu % pN
    return PadicNumber(ctx, 2 * qv, root * root % pN)


def eval_k_slope(params: MapParams, x: PadicNumber) -> tuple[PadicNumber, PadicNumber]:
    """(k(x), k'(x)) from one inverse of b^2 + x.

    With root = a(b^2 x + 1)/(b^2 + x), k = root^2 and
    k' = 2 root a(b^4 - 1)/(b^2 + x)^2.
    """
    ctx = params.ctx
    pN = ctx.modulus
    qv, qu, dv, inv = _quotient(params, x.valuation, x.unit, params.b2.unit, 1)
    factor = params.slope_factor
    if qv is None:
        return ctx.zero(), ctx.zero()
    root = params.a.unit * qu % pN
    return (PadicNumber(ctx, 2 * qv, root * root % pN),
            PadicNumber(ctx, qv + factor.valuation - 2 * dv,
                        root * factor.unit * inv * inv % pN))
