"""Exact p-adic arithmetic at configurable finite precision.

A value is stored in floating-valuation form p^v * u with u an integer unit
in [1, p^N), u not divisible by p.  Multiplication and division are then
exact on valuations, and the norm |x|_p = p^(-v) is an exact rational.
Zero is encoded with valuation None (conceptually +infinity).
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    DivisionByZero,
    DomainError,
    NoConvergence,
    NotASquare,
    PrecisionExhausted,
    ZeroInput,
)

__all__ = [
    "PrimeContext",
    "PadicNumber",
    "Ball",
    "exp_p",
    "log_p",
    "sqrt",
    "sqrt_both",
    "sqrt_exists",
    "in_Ep",
    "in_Zp",
    "is_unit",
    "diff_valuation",
    "norm_diff",
    "eq_to_precision",
    "parse_padic",
    "format_padic",
    "to_json",
    "norm_str",
]


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin, valid far beyond any sensible context size
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _vp(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class PrimeContext:
    """Working field Q_p truncated to `precision` significant digits.

    `guard` digits are sacrificial: results are trusted to
    precision - guard digits, and deeper cancellation raises
    PrecisionExhausted instead of returning junk.
    """

    p: int
    precision: int = 64
    guard: int = 8
    _modulus: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.p == 2:
            raise DomainError("p = 2 is not supported")
        if self.p < 3 or not _is_prime(self.p):
            raise DomainError(f"p must be an odd prime >= 3, got {self.p}")
        if not (self.precision > self.guard >= 1):
            raise DomainError("need precision > guard >= 1")
        object.__setattr__(self, "_modulus", self.p ** self.precision)

    @property
    def modulus(self) -> int:
        return self._modulus

    @property
    def residual_digits(self) -> int:
        """Digit count used for library-wide residual tests (N - g)."""
        return self.precision - self.guard

    def zero(self) -> "PadicNumber":
        return PadicNumber(self, None, 0)

    def one(self) -> "PadicNumber":
        return PadicNumber(self, 0, 1)

    def from_int(self, m: int) -> "PadicNumber":
        return self.from_rational(m, 1)

    def from_rational(self, m: int, n: int = 1) -> "PadicNumber":
        """Canonical N-digit expansion of m/n."""
        if n == 0:
            raise DivisionByZero("denominator is zero")
        if m == 0:
            return self.zero()
        vm, vn = _vp(m, self.p), _vp(n, self.p)
        mu = m // self.p ** vm
        nu = n // self.p ** vn
        unit = mu * pow(nu, -1, self.modulus) % self.modulus
        return PadicNumber(self, vm - vn, unit)

    def from_fraction(self, q: Fraction) -> "PadicNumber":
        return self.from_rational(q.numerator, q.denominator)

    def from_digits(self, valuation: int, digits) -> "PadicNumber":
        """Build p^valuation * (d0 + d1 p + ...); leading digit must be nonzero."""
        unit = 0
        for j, d in enumerate(digits):
            if not 0 <= d < self.p:
                raise DomainError(f"digit {d} out of range for p = {self.p}")
            unit += d * self.p ** j
        if unit == 0:
            return self.zero()
        if unit % self.p == 0:
            raise DomainError("leading digit must be nonzero")
        return PadicNumber(self, valuation, unit % self.modulus)


@dataclass(frozen=True)
class PadicNumber:
    """A p-adic value p^valuation * unit, normalized so p does not divide unit.

    `==` compares the representation (ctx, valuation, unit) and never coerces
    an int, so `ctx.one() == 1` is False.  Compare values with
    diff_valuation or eq_to_precision.
    """

    ctx: PrimeContext
    valuation: int | None
    unit: int

    @property
    def is_zero(self) -> bool:
        return self.valuation is None

    def norm(self) -> Fraction:
        """|x|_p as an exact rational; |0|_p = 0."""
        if self.is_zero:
            return Fraction(0)
        v = self.valuation
        return Fraction(1, self.ctx.p ** v) if v >= 0 else Fraction(self.ctx.p ** -v)

    def digits(self, count: int | None = None) -> list[int]:
        n = self.ctx.precision if count is None else count
        out, u = [], self.unit
        for _ in range(n):
            u, d = divmod(u, self.ctx.p)
            out.append(d)
        return out

    def leading_digit(self) -> int:
        if self.is_zero:
            raise ZeroInput("zero has no leading digit")
        return self.unit % self.ctx.p

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicNumber):
            if other.ctx != self.ctx:
                raise DomainError("mixed PrimeContext arithmetic")
            return other
        if isinstance(other, int):
            return self.ctx.from_int(other)
        if isinstance(other, Fraction):
            return self.ctx.from_fraction(other)
        return None

    def __add__(self, other):
        y = self._coerce(other)
        if y is None:
            return NotImplemented
        x, ctx = self, self.ctx
        if x.is_zero:
            return y
        if y.is_zero:
            return x
        v = min(x.valuation, y.valuation)
        pN = ctx.modulus
        s = (x.unit * ctx.p ** min(x.valuation - v, ctx.precision)
             + y.unit * ctx.p ** min(y.valuation - v, ctx.precision)) % pN
        if s == 0:
            return ctx.zero()
        t = _vp(s, ctx.p)
        if t > ctx.precision - ctx.guard:
            raise PrecisionExhausted(
                f"cancellation of {t} digits leaves fewer than {ctx.guard} significant digits")
        return PadicNumber(ctx, v + t, (s // ctx.p ** t) % pN)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero:
            return self
        return PadicNumber(self.ctx, self.valuation, self.ctx.modulus - self.unit)

    def __sub__(self, other):
        y = self._coerce(other)
        if y is None:
            return NotImplemented
        return self + (-y)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        y = self._coerce(other)
        if y is None:
            return NotImplemented
        if self.is_zero or y.is_zero:
            return self.ctx.zero()
        return PadicNumber(self.ctx, self.valuation + y.valuation,
                           self.unit * y.unit % self.ctx.modulus)

    __rmul__ = __mul__

    def __truediv__(self, other):
        y = self._coerce(other)
        if y is None:
            return NotImplemented
        if y.is_zero:
            raise DivisionByZero("p-adic division by zero")
        if self.is_zero:
            return self
        inv = pow(y.unit, -1, self.ctx.modulus)
        return PadicNumber(self.ctx, self.valuation - y.valuation,
                           self.unit * inv % self.ctx.modulus)

    def __rtruediv__(self, other):
        y = self._coerce(other)
        if y is None:
            return NotImplemented
        return y / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.ctx.one() / self ** (-n)
        out = self.ctx.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __repr__(self):
        if self.is_zero:
            return f"PadicNumber(p={self.ctx.p}, 0)"
        shown = ",".join(str(d) for d in self.digits(10))
        return f"PadicNumber(p={self.ctx.p}, {self.valuation};{shown},...)"


# -- comparison at precision ------------------------------------------------

def diff_valuation(x: PadicNumber, y: PadicNumber) -> int | None:
    """ord_p(x - y), or None when x and y are indistinguishable at precision N."""
    if x.ctx != y.ctx:
        raise DomainError("mixed PrimeContext comparison")
    if x.is_zero and y.is_zero:
        return None
    if x.is_zero or y.is_zero:
        return (y if x.is_zero else x).valuation
    ctx = x.ctx
    v = min(x.valuation, y.valuation)
    s = (x.unit * ctx.p ** min(x.valuation - v, ctx.precision)
         - y.unit * ctx.p ** min(y.valuation - v, ctx.precision)) % ctx.modulus
    if s == 0:
        return None
    return v + _vp(s, ctx.p)


def converge(step: Callable[[PadicNumber], PadicNumber], start: PadicNumber,
             what: str) -> PadicNumber:
    """Iterate step from start until it reaches its fixed point at precision N.

    Returns the newer iterate once two iterates agree in every digit, or once
    the digits settled per step stop growing (the rounding floor) with at
    least N - g of them settled.  A floor below N - g, or more than
    N + 2g + 4 steps, raises NoConvergence naming the loop `what` and
    listing the digits settled at each step.
    """
    ctx = start.ctx
    x = start
    settled: list[int] = []
    for _ in range(ctx.precision + 2 * ctx.guard + 4):
        nxt = step(x)
        dv = diff_valuation(nxt, x)
        if dv is None:
            return nxt
        if dv <= (settled[-1] if settled else -1):  # rounding floor reached
            if dv >= ctx.residual_digits:
                return nxt
            settled.append(dv)
            break
        settled.append(dv)
        x = nxt
    raise NoConvergence(f"{what} did not converge; digits settled per step {settled}")


def norm_diff(x: PadicNumber, y: PadicNumber) -> Fraction:
    """|x - y|_p, with indistinguishable values reported as 0."""
    dv = diff_valuation(x, y)
    if dv is None:
        return Fraction(0)
    p = x.ctx.p
    return Fraction(1, p ** dv) if dv >= 0 else Fraction(p ** -dv)


def eq_to_precision(x: PadicNumber, y: PadicNumber, digits: int) -> bool:
    """True iff |x - y|_p <= p^-(v0 + digits) with v0 the common leading valuation."""
    dv = diff_valuation(x, y)
    if dv is None:
        return True
    if x.is_zero or y.is_zero:
        v0 = (y if x.is_zero else x).valuation
    else:
        v0 = min(x.valuation, y.valuation)
    return dv >= v0 + digits


# -- membership predicates --------------------------------------------------

def in_Zp(x: PadicNumber) -> bool:
    return x.is_zero or x.valuation >= 0


def is_unit(x: PadicNumber) -> bool:
    return not x.is_zero and x.valuation == 0


def in_Ep(x: PadicNumber) -> bool:
    """|x - 1|_p < 1, i.e. x is a unit with leading digit 1."""
    return is_unit(x) and x.unit % x.ctx.p == 1


@dataclass(frozen=True)
class Ball:
    """Ball of radius p^radius_exponent around center; open unless closed=True."""

    center: PadicNumber
    radius_exponent: int
    closed: bool = False

    def contains(self, x: PadicNumber) -> bool:
        dv = diff_valuation(self.center, x)
        if dv is None:
            return True
        # |x - c|_p = p^-dv against radius p^re
        if self.closed:
            return dv >= -self.radius_exponent
        return dv > -self.radius_exponent

    def to_json(self) -> dict:
        return {
            "center": to_json(self.center),
            "radius_exponent": self.radius_exponent,
            "closed": self.closed,
        }


# -- exp / log --------------------------------------------------------------

def exp_p(x: PadicNumber) -> PadicNumber:
    """p-adic exponential; requires |x|_p <= 1/p."""
    ctx = x.ctx
    if x.is_zero:
        return ctx.one()
    if x.valuation < 1:
        raise DomainError("exp_p needs |x|_p <= 1/p")
    budget = ctx.precision + ctx.guard
    acc = ctx.one()
    term = ctx.one()
    n = 0
    while True:
        n += 1
        term = term * x / n
        if term.is_zero or term.valuation > budget:
            return acc
        acc = acc + term
        if n > 64 * budget:  # unreachable for valid inputs
            raise DomainError("exp_p series failed to terminate")


def log_p(x: PadicNumber) -> PadicNumber:
    """p-adic logarithm; requires |x - 1|_p < 1."""
    ctx = x.ctx
    t = x - 1
    if t.is_zero:
        return ctx.zero()
    if x.is_zero or t.valuation < 1:
        raise DomainError("log_p needs |x - 1|_p < 1")
    budget = ctx.precision + ctx.guard
    acc = ctx.zero()
    power = ctx.one()
    n = 0
    while True:
        n += 1
        power = power * t
        term = power / n if n % 2 == 1 else -(power / n)
        if term.is_zero or term.valuation > budget:
            return acc
        acc = acc + term
        if n > 64 * budget:
            raise DomainError("log_p series failed to terminate")


# -- square roots -----------------------------------------------------------

def sqrt_exists(x: PadicNumber) -> bool:
    """Euler-criterion test: even valuation and leading digit a QR mod p."""
    if x.is_zero:
        raise ZeroInput("sqrt_exists is undefined at 0")
    if x.valuation % 2 != 0:
        return False
    return pow(x.leading_digit(), (x.ctx.p - 1) // 2, x.ctx.p) == 1


def _sqrt_mod_p(a: int, p: int) -> int:
    """One square root of a QR a mod p (Tonelli-Shanks)."""
    a %= p
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, x = 1, t * t % p
        while x != 1:
            x = x * x % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return r


def sqrt_both(x: PadicNumber) -> tuple[PadicNumber, PadicNumber]:
    """Both square roots; the first is the canonical branch.

    The root mod p is lifted with the Newton step y <- (y + x/y)/2,
    doubling the number of correct digits each pass.  The canonical branch
    is the one whose leading digit lies in {1, ..., (p-1)/2}.
    """
    if x.is_zero:
        raise ZeroInput("sqrt(0) excluded: zero carries no branch information")
    if not sqrt_exists(x):
        raise NotASquare("operand has no square root in Q_p")
    ctx = x.ctx
    p, N = ctx.p, ctx.precision
    y = _sqrt_mod_p(x.unit % p, p)
    k = 1
    while k < N:
        k = min(2 * k, N)
        mod = p ** k
        y = (y + x.unit % mod * pow(y, -1, mod)) * pow(2, -1, mod) % mod
    if y % p > (p - 1) // 2:
        y = ctx.modulus - y
    root = PadicNumber(ctx, x.valuation // 2, y)
    return root, -root


def sqrt(x: PadicNumber) -> PadicNumber:
    """Canonical square-root branch (leading digit in the lower half-range)."""
    return sqrt_both(x)[0]


# -- text / JSON forms ------------------------------------------------------

def parse_padic(text: str, ctx: PrimeContext) -> PadicNumber:
    """Parse 'm/n' rational form or 'v;d0,d1,...' digit form."""
    text = text.strip()
    if ";" in text:
        head, tail = text.split(";", 1)
        digits = [int(d) for d in tail.split(",") if d.strip() != ""]
        return ctx.from_digits(int(head), digits)
    if "/" in text:
        m, n = text.split("/", 1)
        return ctx.from_rational(int(m), int(n))
    return ctx.from_int(int(text))


def format_padic(x: PadicNumber, digit_count: int | None = None) -> str:
    if x.is_zero:
        return "0"
    shown = x.digits(digit_count)
    return f"{x.valuation};" + ",".join(str(d) for d in shown)


def to_json(x: PadicNumber, digit_count: int | None = None) -> dict:
    return {
        "valuation": x.valuation,
        "digits": [] if x.is_zero else x.digits(digit_count),
        "p": x.ctx.p,
    }


def norm_str(value: Fraction, p: int) -> str:
    """Render an exact norm p^k as 'p^k' (or '0' / '1')."""
    if value == 0:
        return "0"
    if value == 1:
        return "1"
    if value < 1:
        k = _vp(value.denominator, p)
        return f"{p}^-{k}"
    k = _vp(value.numerator, p)
    return f"{p}^{k}"
