"""Fixed points of the generalized Ising mapping g and their classification.

g has a unique fixed point x0 in E_p (Banach contraction).  The remaining
fixed points solve the quadratic left after factoring x - x0 out of the
cubic x^3 - ab^2 x^2 + b^2 x - a; they exist iff p = 1 (mod 4), in which
case both are repelling and lie outside E_p.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, NotAFixedPoint
from .maps import MapParams, deriv_g, deriv_g_norm, eval_g
from .padic import (
    PadicNumber,
    converge,
    diff_valuation,
    eq_to_precision,
    in_Ep,
    norm_diff,
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
    """
    def newton(u: PadicNumber) -> PadicNumber:
        slope = deriv_g(params, u)
        return (eval_g(params, u) - u * slope) / (1 - slope)

    return converge(newton, params.ctx.one(), "Newton iteration for x0")


def quadratic_coeffs(params: MapParams, x0: PadicNumber) -> tuple[PadicNumber, PadicNumber]:
    """Coefficients (B, C) of x^2 + Bx + C = 0 for the non-E_p fixed points."""
    a, b, ctx = params.a, params.b, params.ctx
    B = x0 - a * b * b
    C = a / x0
    # factoring identity: a/x0 = x0^2 - a b^2 x0 + b^2
    alt = x0 * x0 - a * b * b * x0 + b * b
    if not eq_to_precision(C, alt, ctx.residual_digits):
        raise ConsistencyError("cubic factorization identity failed")
    return B, C


def discriminant(params: MapParams, x0: PadicNumber) -> PadicNumber:
    """Delta = -3 x0^2 + 2 a b^2 x0 - 4 b^2 + a^2 b^4."""
    a, b = params.a, params.b
    b2 = b * b
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
    a, b = params.a, params.b
    half = params.ctx.from_rational(1, 2)
    base = a * b * b - x0
    return (base + rt) * half, (base - rt) * half


def classify(params: MapParams, x: PadicNumber) -> str:
    ctx = params.ctx
    if not eq_to_precision(eval_g(params, x), x, ctx.residual_digits):
        raise NotAFixedPoint("|g(x) - x|_p exceeds the precision floor")
    lam = deriv_g_norm(params, x)
    if lam < 1:
        return ATTRACTING
    if lam == 1:
        return INDIFFERENT
    return REPELLING


def verify_lemma_3_4(params: MapParams, x0: PadicNumber,
                     roots: tuple[PadicNumber, PadicNumber] | None,
                     delta: PadicNumber) -> dict[str, bool | None]:
    """Evaluate the seven norm identities tying the fixed points to a, b.

    Clauses involving x1, x2 are reported as None when the roots are absent;
    (vi) and (vii) are None outside the strict regime they assume.
    """
    a, b, ctx = params.a, params.b, params.ctx
    one = ctx.one()
    r = params.radius
    b2 = b * b
    out: dict[str, bool | None] = dict.fromkeys(LEMMA_3_4_CLAUSES)

    out["i"] = norm_diff(x0, a) < r
    out["iv"] = (x0 * x0 + b2).norm() * (x0 * x0 * b2 + 1).norm() == 1
    if roots is not None:
        x1, x2 = roots
        out["ii"] = all(
            (b2 - 1 + (b2 * a - x0) * xi).norm() == r for xi in (x1, x2))
        out["iii"] = all((xi * xi + b2).norm() == r for xi in (x1, x2))
        out["v"] = all(
            (xi * xi + b2).norm() * (xi * xi * b2 + 1).norm() <= Fraction(1, ctx.p ** 2)
            for xi in (x1, x2))
    if params.strict_regime:
        out["vi"] = norm_diff(x0, one) < r
        # Delta = -4 + p^(2m+l) delta', read with l >= 0: ord(Delta + 4) >= 2m
        dv = diff_valuation(delta, ctx.from_int(-4))
        out["vii"] = dv is None or dv >= 2 * params.radius_exponent
    return out


@dataclass(frozen=True)
class FixedPointReport:
    """All fixed points of g for one parameter pair, with lemma checks."""

    params: MapParams
    x0: PadicNumber
    delta: PadicNumber
    roots: tuple[PadicNumber, PadicNumber] | None
    classifications: dict[str, str]
    lemma34: dict[str, bool | None]

    def to_json(self) -> dict:
        ctx = self.params.ctx
        body = {
            "p": ctx.p,
            "precision": ctx.precision,
            "strict_regime": self.params.strict_regime,
            "radius": norm_str(self.params.radius, ctx.p),
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
    """Locate, classify and lemma-check every fixed point of g."""
    x0 = find_x0(params)
    quadratic_coeffs(params, x0)  # runs the consistency check
    delta = discriminant(params, x0)
    roots = repelling_roots(params, x0, delta)
    labels = {"x0": classify(params, x0)}
    if roots is not None:
        labels["x1"] = classify(params, roots[0])
        labels["x2"] = classify(params, roots[1])
    lemma = verify_lemma_3_4(params, x0, roots, delta)
    return FixedPointReport(params, x0, delta, roots, labels, lemma)
