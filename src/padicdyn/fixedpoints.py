"""Fixed points of the generalized Ising mapping g and their classification.

g has a unique fixed point x0 in E_p (Banach contraction).  The remaining
fixed points solve the quadratic left after factoring x - x0 out of the
cubic x^3 - ab^2 x^2 + b^2 x - a; they exist iff p = 1 (mod 4), in which
case both are repelling and lie outside E_p.
"""
from __future__ import annotations

from .errors import ConsistencyError, NotAFixedPoint
from .maps import MapParams, eval_g_slope
from .padic import (
    Ball,
    PadicNumber,
    _Immutable,
    _ONE,
    _ZERO,
    _newton_step,
    converge,
    diff_valuation,
    norm_str,
    sqrt_both,
    sqrt_exists,
    to_json,
)

ATTRACTING = "attracting"
INDIFFERENT = "indifferent"
REPELLING = "repelling"

LEMMA_3_4_CLAUSES = ("i", "ii", "iii", "iv", "v", "vi", "vii")

def find_x0(params: MapParams) -> PadicNumber:
    """Newton's method on g(u) - u from 1 to the unique fixed point in E_p.

    |g'|_p = p^-m on E_p, so the Newton denominator 1 - g'(u) is a unit and
    each step roughly doubles the digits settled.  It runs to the rounding
    floor, so the result carries all N digits rather than only N - g.
    It is read from params.fixed_points, solved once per pair.
    """
    return params.fixed_points[0]


def discriminant(params: MapParams, x0: PadicNumber) -> PadicNumber:
    """Delta = -3 x0^2 + 2 a b^2 x0 - 4 b^2 + a^2 b^4."""
    a, b2 = params.a, params.b2
    return -(x0 * x0 * 3) + a * b2 * x0 * 2 - b2 * 4 + a * a * b2 * b2


def repelling_roots(params: MapParams, x0: PadicNumber,
                    delta: PadicNumber) -> tuple[PadicNumber, PadicNumber] | None:
    """The two fixed points outside E_p, present exactly when p = 1 (mod 4).

    x1 takes the canonical square-root branch of Delta, x2 the other.
    """
    if params.ctx.p % 4 == 3:
        if sqrt_exists(delta):
            raise ConsistencyError("discriminant is a square although p = 3 (mod 4)")
        return None
    rt, _ = sqrt_both(delta)
    half = params.ctx.from_rational(1, 2)
    base = params.a * params.b2 - x0
    return (base + rt) * half, (base - rt) * half


def _fixed_points(params: MapParams) -> tuple[
        PadicNumber, PadicNumber, tuple[PadicNumber, PadicNumber] | None]:
    """(x0, Delta, repelling_roots) of params, solved anew: read them from
    params.fixed_points, which keeps them on the pair.

    a, b and x0 lie in E_p, so Delta = -4 (mod p) is a unit, a square
    exactly when p = 1 (mod 4): the roots add no error to find_x0.
    """
    # g = P/M, P = a + ab^2 u^2 and M = b^2 + u^2: the Newton step of solve_7_11
    ctx, a, b2 = params.ctx, params.a.unit, params.b2.unit
    P, M = [(0, a), _ZERO, (0, a * b2 % ctx.modulus)], [(0, b2), _ZERO, _ONE]
    x0 = converge(lambda u: _newton_step(ctx, P, M, u), ctx.one(), "Newton iteration for x0")
    delta = discriminant(params, x0)
    return x0, delta, repelling_roots(params, x0, delta)


def classify(params: MapParams, x: PadicNumber) -> str:
    return classify_with_slope(params, x)[0]


def classify_with_slope(params: MapParams, x: PadicNumber) -> tuple[str, PadicNumber]:
    """The label of the fixed point x and its multiplier g'(x), from one
    eval_g_slope: attracting, indifferent or repelling as |g'(x)|_p is below,
    at or above 1.

    x is a fixed point when c(x) = x M(x) - P(x) = x^3 - ab^2 x^2 + b^2 x - a,
    the cubic whose roots are the fixed points of g = P/M, vanishes to N - g
    digits.  g(x) - x = -c(x)/M(x) is not read: it loses ord M(x) = m digits
    at x1 and x2.  A root is a unit (below, c(x) has order 3 ord x < 0;
    above, c(x) = -a mod p), so c is read on x's unit mod p^N by Horner's
    rule, where no sum cancels digits.
    """
    ctx, a, b2, u = params.ctx, params.a.unit, params.b2.unit, x.unit
    if x.valuation != 0 or (((u - a * b2) * u + b2) * u - a) % ctx._powers[ctx.residual_digits]:
        raise NotAFixedPoint("|g(x) - x|_p exceeds the precision floor")
    slope = eval_g_slope(params, x)[1]
    order = slope.valuation  # None for g'(x) = 0
    if order is None or order > 0:
        return ATTRACTING, slope
    if order == 0:
        return INDIFFERENT, slope
    return REPELLING, slope


def verify_lemma_3_4(params: MapParams, x0: PadicNumber,
                     roots: tuple[PadicNumber, PadicNumber] | None,
                     delta: PadicNumber) -> dict[str, bool | None]:
    """Evaluate the seven norm identities tying the fixed points to a, b.

    Each identity is read on orders: |y|_p = p^-ord(y), so a product of norms
    is p to minus the sum of the orders, and a zero factor makes it 0.
    Clauses involving x1, x2 are reported as None when the roots are absent;
    (vi) and (vii) are None outside the strict regime they assume.
    """
    a, b2, ctx = params.a, params.b2, params.ctx
    one = ctx.one()
    m = params.radius_exponent
    out: dict[str, bool | None] = dict.fromkeys(LEMMA_3_4_CLAUSES)

    def orders(x: PadicNumber) -> tuple[int | None, int | None]:
        """ord(x^2 + b^2) and ord(x^2 b^2 + 1)."""
        return (x * x + b2).valuation, (x * x * b2 + 1).valuation

    out["i"] = Ball(a, -m).contains(x0)
    at_x0 = orders(x0)
    out["iv"] = None not in at_x0 and sum(at_x0) == 0
    if roots is not None:
        out["ii"] = all(
            (b2 - 1 + (b2 * a - x0) * xi).valuation == m for xi in roots)
        at_roots = [orders(xi) for xi in roots]
        out["iii"] = all(pair[0] == m for pair in at_roots)
        out["v"] = all(None in pair or sum(pair) >= 2 for pair in at_roots)
    if params.strict_regime:
        out["vi"] = Ball(one, -m).contains(x0)
        # Delta = -4 + p^(2m+l) delta', read with l >= 0: ord(Delta + 4) >= 2m
        dv = diff_valuation(delta, ctx.from_int(-4))
        out["vii"] = dv is None or dv >= 2 * m
    return out


class FixedPointReport(_Immutable):
    """All fixed points of g for one parameter pair, with lemma checks."""

    __slots__ = ("params", "x0", "delta", "roots", "classifications", "lemma34")

    def __init__(self, params: MapParams):
        """The report of params, made anew: read it from analyze
        (params.fixed_point_report), which keeps it on the pair."""
        x0, delta, roots = params.fixed_points
        labels = {"x0": classify(params, x0)}
        if roots is not None:
            labels["x1"] = classify(params, roots[0])
            labels["x2"] = classify(params, roots[1])
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "classifications", labels)
        object.__setattr__(self, "lemma34", verify_lemma_3_4(params, x0, roots, delta))

    def to_json(self) -> dict:
        ctx = self.params.ctx
        body = {
            "p": ctx.p,
            "precision": ctx.precision,
            "strict_regime": self.params.strict_regime,
            "radius": norm_str(self.params.radius_exponent, ctx.p),
            "x0": to_json(self.x0),
            "delta": to_json(self.delta),
            "classifications": self.classifications,
            "lemma_3_4": self.lemma34,
        }
        if self.roots is not None:
            body["x1"] = to_json(self.roots[0])
            body["x2"] = to_json(self.roots[1])
        return body


def analyze(params: MapParams) -> FixedPointReport:
    """Locate, classify and lemma-check every fixed point of g.

    It is read from params.fixed_point_report, made once per pair.
    """
    return params.fixed_point_report

