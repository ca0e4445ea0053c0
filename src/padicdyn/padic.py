"""Exact p-adic arithmetic at configurable finite precision.

A value is stored in floating-valuation form p^v * u with u an integer unit
in [1, p^N), u not divisible by p.  Multiplication and division are then
exact on valuations, and the norm |x|_p = p^(-v) is an exact rational.
Zero is encoded with valuation None (conceptually +infinity).
"""
from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from itertools import product

from .errors import (
    DivisionByZero,
    DomainError,
    NoConvergence,
    NotASquare,
    PrecisionExhausted,
    ZeroInput,
)


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


def _order(ctx: PrimeContext, s: int) -> int:
    """ord_p(s) for an integer 0 < s < p^N that p divides.

    Strips p one at a time up to order 3, then the lift moduli p^2, p^4, ...
    while they divide, and pins the rest of the order, below the modulus
    that did not divide, by halving: about 2 log2(ord) divisions where one
    per power of p would take ord.  Orders 1 to 3 are 81-91% of those that
    the benchmark's workloads meet, and one p at a time ends them soonest.
    """
    p = ctx.p
    for t in (1, 2, 3):
        s //= p
        if s % p:
            return t
    # s < p^(N - 3), so the last lift modulus, p^N, never divides it
    t, lifts, i = 3, ctx._lifts, 0
    while not s % lifts[i]:
        s //= lifts[i]
        t += 2 << i
        i += 1
    powers, j = ctx._powers, 1 << i  # what is left is below 2^(i+1)
    while j:
        if not s % powers[j]:
            s //= powers[j]
            t += j
        j >>= 1
    return t


def _inv_unit(u: int, ctx: PrimeContext) -> int:
    """u^-1 mod p^N for an integer u prime to p, Newton-lifted from mod p.

    If z = u^-1 mod p^k, then z(2 - uz) = u^-1 mod p^(2k): the digits double
    each step, over the context's lift moduli up to p^N.  The inverse mod p^N
    is unique, so this is pow(u, -1, p^N) at a few multiplications' cost.
    """
    z = pow(u % ctx.p, -1, ctx.p)
    for mod in ctx._lifts:
        z = z * (2 - u * z) % mod
    return z


# -- (valuation, unit) pairs -------------------------------------------------
# A value p^v u as the pair (v, u) of ints, u a unit in [1, p^N) and v None
# for zero.  The rules below are the package's one add, subtract, multiply and
# divide: PadicNumber's operators, the map kernels of maps.py and the Gibbs
# weight kernels of gibbs.py all call them.  Products and the unique inverse
# mod p^N are exact; only a sum can lose digits, and _sum guards it.

_ZERO, _ONE = (None, 0), (0, 1)


def _sum(ctx: PrimeContext, x: tuple, y: tuple) -> tuple:
    """x + y.  A sum that cancels more than N - g leading digits raises
    PrecisionExhausted; an exact zero mod p^N is zero."""
    xv, xu = x
    yv, yu = y
    if xv is None:
        return y
    if yv is None:
        return x
    powers, N, pN = ctx._powers, ctx.precision, ctx.modulus
    if xv <= yv:
        v, s = xv, (xu + yu * powers[min(yv - xv, N)]) % pN
    else:
        v, s = yv, (xu * powers[min(xv - yv, N)] + yu) % pN
    if s % ctx.p:
        return v, s
    if s == 0:
        return _ZERO
    t = _order(ctx, s)
    if t > N - ctx.guard:
        raise PrecisionExhausted(
            f"cancellation of {t} digits leaves fewer than {ctx.guard} significant digits")
    return v + t, s // powers[t]


def _minus(ctx: PrimeContext, x: tuple, y: tuple) -> tuple:
    """x - y, one _sum on y's negated unit."""
    if y[0] is None:
        return x
    return _sum(ctx, x, (y[0], ctx.modulus - y[1]))


def _times(ctx: PrimeContext, x: tuple, y: tuple) -> tuple:
    """x y."""
    if x[0] is None or y[0] is None:
        return _ZERO
    return x[0] + y[0], x[1] * y[1] % ctx.modulus


def _divide(ctx: PrimeContext, x: tuple, y: tuple) -> tuple:
    """x / y, with one _inv_unit of y's unit; a zero y raises DivisionByZero."""
    if y[0] is None:
        raise DivisionByZero("p-adic division by zero")
    if x[0] is None:
        return _ZERO
    return x[0] - y[0], x[1] * _inv_unit(y[1], ctx) % ctx.modulus


# largest p.bit_length() * N a context accepts: its powers p^0..p^N take
# about N^2 log2(p) / 2 bits, under 7 MB at this bound
MAX_FIELD_BITS = 2 ** 14


class _Immutable:
    """Base of the package's value classes: __init__ sets each attribute
    once, by object.__setattr__; assigning to or deleting an attribute
    afterwards raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(
            f"cannot assign to field {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(
            f"cannot delete field {name!r}: {type(self).__name__} is immutable")


class PrimeContext(_Immutable):
    """Working field Q_p truncated to `precision` significant digits.

    `guard` digits are sacrificial: results are trusted to
    precision - guard digits, and deeper cancellation raises
    PrecisionExhausted instead of returning junk.  Contexts with equal
    (p, precision, guard) are equal and interoperate.
    """

    __slots__ = ("p", "precision", "guard", "_powers", "modulus", "_lifts",
                 "_chunk_digits", "_digit_chars")

    def __init__(self, p: int, precision: int = 64, guard: int = 8):
        if p == 2:
            raise DomainError("p = 2 is not supported")
        bits = p.bit_length() * precision
        if bits > MAX_FIELD_BITS:
            raise DomainError(f"p.bit_length() * precision must be <= {MAX_FIELD_BITS}, "
                              f"got {bits}")
        if p < 3 or not _is_prime(p):
            raise DomainError(f"p must be an odd prime >= 3, got {p}")
        if not (precision > guard >= 1):
            raise DomainError("need precision > guard >= 1")
        powers = [1]
        for _ in range(precision):
            powers.append(powers[-1] * p)
        lifts, k = [], 1
        while k < precision:
            k = min(2 * k, precision)
            lifts.append(powers[k])
        # digits(): the c digits of each r < p^c, lowest first, for the largest
        # c with p^c <= 256; none for p > 16, whose digits go one at a time
        c = 1
        while p ** (c + 1) <= 256:
            c += 1
        chunk_digits = tuple(r[::-1] for r in product(range(p), repeat=c)) if c > 1 else ()
        # parse_padic(): each digit's decimal text as a digit of int(text, p)
        digit_chars = ({str(d): "0123456789abcdefghijklmnopqrstuvwxyz"[d] for d in range(p)}
                       if p <= 36 else None)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "guard", guard)
        object.__setattr__(self, "_powers", tuple(powers))  # p^0 .. p^N
        object.__setattr__(self, "modulus", powers[-1])
        object.__setattr__(self, "_lifts", tuple(lifts))  # p^2, p^4, ..., p^N
        object.__setattr__(self, "_chunk_digits", chunk_digits)  # p^c of them
        object.__setattr__(self, "_digit_chars", digit_chars)

    def __eq__(self, other):
        if other.__class__ is not PrimeContext:
            return NotImplemented
        return (self.p, self.precision, self.guard) == (other.p, other.precision, other.guard)

    def __hash__(self):
        return hash((self.p, self.precision, self.guard))

    def __reduce__(self):
        return PrimeContext, (self.p, self.precision, self.guard)

    @property
    def residual_digits(self) -> int:
        """Digit count used for library-wide residual tests (N - g)."""
        return self.precision - self.guard

    def zero(self) -> "PadicNumber":
        return PadicNumber(self, None, 0)

    def one(self) -> "PadicNumber":
        return PadicNumber(self, 0, 1)

    def from_int(self, m: int) -> "PadicNumber":
        if m == 0:
            return self.zero()
        p, v = self.p, 0
        while m % p == 0:
            m //= p
            v += 1
        return PadicNumber(self, v, m % self.modulus)

    def from_rational(self, m: int, n: int = 1) -> "PadicNumber":
        """Canonical N-digit expansion of m/n."""
        if n == 0:
            raise DivisionByZero("denominator is zero")
        if m == 0:
            return self.zero()
        vm, vn = _vp(m, self.p), _vp(n, self.p)
        mu = m // self.p ** vm
        nu = n // self.p ** vn
        pN = self.modulus
        unit = mu * _inv_unit(nu % pN, self) % pN
        return PadicNumber(self, vm - vn, unit)

    def from_fraction(self, q: Fraction) -> "PadicNumber":
        return self.from_rational(q.numerator, q.denominator)

    def from_digits(self, valuation: int, digits) -> "PadicNumber":
        """Build p^valuation * (d0 + d1 p + ...); leading digit must be nonzero."""
        p, digits = self.p, tuple(digits)
        if digits and (min(digits) < 0 or max(digits) >= p):
            bad = next(d for d in digits if not 0 <= d < p)
            raise DomainError(f"digit {bad} out of range for p = {p}")
        unit = 0
        for d in reversed(digits):  # Horner, from the top digit down
            unit = unit * p + d
        return self._from_digit_sum(valuation, unit)

    def _from_digit_sum(self, valuation: int, unit: int) -> "PadicNumber":
        """p^valuation * unit for unit = d0 + d1 p + ... with every digit in
        range: zero if every digit is 0, else d0 must be nonzero."""
        if unit == 0:
            return self.zero()
        if unit % self.p == 0:
            raise DomainError("leading digit must be nonzero")
        return PadicNumber(self, valuation, unit % self.modulus)


def _operator(rule, reflected: bool = False):
    """A PadicNumber operator: the pair rule on self and the coerced operand,
    the operand first when reflected."""
    def apply(self, other):
        ctx = self.ctx
        # most operands share self's context object: they need no _coerce call
        if other.__class__ is PadicNumber and other.ctx is ctx:
            y = other.valuation, other.unit
        else:
            y = self._coerce(other)
            if y is None:
                return NotImplemented
        x = (self.valuation, self.unit)
        v, u = rule(ctx, y, x) if reflected else rule(ctx, x, y)
        return PadicNumber(ctx, v, u)
    return apply


class PadicNumber(_Immutable):
    """A p-adic value p^valuation * unit, normalized so p does not divide unit.

    Values are immutable: assigning to or deleting an attribute raises
    AttributeError.  `==` compares the representation (ctx, valuation, unit)
    and never coerces an int, so `ctx.one() == 1` is False.  Compare values
    with diff_valuation or eq_to_precision.
    """

    __slots__ = ("ctx", "valuation", "unit")

    def __init__(self, ctx: PrimeContext, valuation: int | None, unit: int):
        _set_ctx(self, ctx)
        _set_valuation(self, valuation)
        _set_unit(self, unit)

    def __reduce__(self):
        return PadicNumber, (self.ctx, self.valuation, self.unit)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.valuation == other.valuation and self.unit == other.unit
                and _same_ctx(self.ctx, other.ctx))

    def __hash__(self):
        return hash((self.ctx, self.valuation, self.unit))

    @property
    def is_zero(self) -> bool:
        return self.valuation is None

    def norm(self) -> Fraction:
        """|x|_p as an exact rational; |0|_p = 0."""
        return norm_fraction(self.valuation, self.ctx.p)

    def digits(self, count: int | None = None) -> list[int]:
        """The unit's lowest `count` base-p digits (N by default), lowest
        first: one divmod by p^c per c digits, read from the context's
        table, then one divmod per digit left over."""
        ctx = self.ctx
        n = ctx.precision if count is None else count
        out, u = [], self.unit
        table = ctx._chunk_digits
        if table and n > 0:
            chunk, c = len(table), len(table[0])  # p^c and c
            for _ in range(n // c):
                u, r = divmod(u, chunk)
                out += table[r]
            n %= c
        p = ctx.p
        for _ in range(n):
            u, d = divmod(u, p)
            out.append(d)
        return out

    def leading_digit(self) -> int:
        if self.is_zero:
            raise ZeroInput("zero has no leading digit")
        return self.unit % self.ctx.p

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> tuple | None:
        """other as a (valuation, unit) pair in self's context, None for a
        type the operators do not take."""
        if isinstance(other, PadicNumber):
            if not _same_ctx(other.ctx, self.ctx):
                raise DomainError("mixed PrimeContext arithmetic")
        elif isinstance(other, int):
            other = self.ctx.from_int(other)
        elif isinstance(other, Fraction):
            other = self.ctx.from_fraction(other)
        else:
            return None
        return other.valuation, other.unit

    # every operator is one pair rule of the section above
    __add__ = __radd__ = _operator(_sum)
    __sub__ = _operator(_minus)
    __rsub__ = _operator(_minus, reflected=True)
    __mul__ = __rmul__ = _operator(_times)
    __truediv__ = _operator(_divide)
    __rtruediv__ = _operator(_divide, reflected=True)

    def __neg__(self):
        ctx = self.ctx
        return PadicNumber(ctx, *_minus(ctx, _ZERO, (self.valuation, self.unit)))

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


_set_ctx = PadicNumber.ctx.__set__
_set_valuation = PadicNumber.valuation.__set__
_set_unit = PadicNumber.unit.__set__


def _same_ctx(a: PrimeContext, b: PrimeContext) -> bool:
    """Equal contexts interoperate; identity is the common, cheap case."""
    return a is b or a == b


# -- comparison at precision ------------------------------------------------

def diff_valuation(x: PadicNumber, y: PadicNumber) -> int | None:
    """ord_p(x - y), or None when x and y are indistinguishable at precision N."""
    ctx = x.ctx
    if not _same_ctx(ctx, y.ctx):
        raise DomainError("mixed PrimeContext comparison")
    xv, yv = x.valuation, y.valuation
    if xv is None:
        return yv
    if yv is None:
        return xv
    powers, N = ctx._powers, ctx.precision
    if xv <= yv:
        v, s = xv, (x.unit - y.unit * powers[min(yv - xv, N)]) % ctx.modulus
    else:
        v, s = yv, (x.unit * powers[min(xv - yv, N)] - y.unit) % ctx.modulus
    if s == 0:
        return None
    if s % ctx.p:
        return v
    return v + _order(ctx, s)


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


def _horner(ctx: PrimeContext, coeffs: list, u: tuple) -> tuple[tuple, tuple]:
    """(f(u), f'(u)) for f = sum_i coeffs[i] u^i, in one Horner pass on pairs."""
    value, slope = coeffs[-1], _ZERO
    for coeff in reversed(coeffs[:-1]):
        slope = _sum(ctx, _times(ctx, slope, u), value)
        value = _sum(ctx, _times(ctx, value, u), coeff)
    return value, slope


def _newton_step(ctx: PrimeContext, P: list, M: list, u: PadicNumber) -> PadicNumber:
    """Newton's step to the fixed point of F = P/M as a fixed-point map, P and M
    by coefficient pairs: u -> (PM - uW) / (M^2 - W), W = P'M - PM'."""
    x = (u.valuation, u.unit)
    p_u, dp_u = _horner(ctx, P, x)
    m_u, dm_u = _horner(ctx, M, x)
    try:
        w = _minus(ctx, _times(ctx, dp_u, m_u), _times(ctx, p_u, dm_u))
    except PrecisionExhausted:
        # |W|_p is below the precision floor, e.g. ord(J1) > N - g: 0 moves no trusted digit
        w = _ZERO
    step = _divide(ctx, _minus(ctx, _times(ctx, p_u, m_u), _times(ctx, x, w)),
                   _minus(ctx, _times(ctx, m_u, m_u), w))
    return PadicNumber(ctx, *step)


def norm_diff(x: PadicNumber, y: PadicNumber) -> Fraction:
    """|x - y|_p, with indistinguishable values reported as 0."""
    return norm_fraction(diff_valuation(x, y), x.ctx.p)


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

def is_unit(x: PadicNumber) -> bool:
    return not x.is_zero and x.valuation == 0


def in_Ep(x: PadicNumber) -> bool:
    """|x - 1|_p < 1, i.e. x is a unit with leading digit 1."""
    return is_unit(x) and x.unit % x.ctx.p == 1


class Ball(_Immutable):
    """Open ball {x : |x - center|_p < p^radius_exponent}.

    |.|_p takes values in p^Z, so the closed ball of radius p^e is the open
    ball of radius p^(e+1): every ball here is open.  A value
    indistinguishable from the centre at precision N lies inside.
    """

    __slots__ = ("center", "radius_exponent")

    def __init__(self, center: PadicNumber, radius_exponent: int):
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius_exponent", radius_exponent)

    def contains(self, x: PadicNumber) -> bool:
        dv = diff_valuation(self.center, x)
        # |x - c|_p = p^-dv against radius p^re
        return dv is None or dv > -self.radius_exponent

    def to_json(self) -> dict:
        return {
            "center": to_json(self.center),
            "radius_exponent": self.radius_exponent,
            "closed": False,
        }


# -- exp / log --------------------------------------------------------------

def exp_p(x: PadicNumber) -> PadicNumber:
    """p-adic exponential; requires |x|_p <= 1/p.

    Sums x^n/n! for as long as the term's valuation n*v(x) - v_p(n!) stays
    within N + g, in plain integers mod p^N: the unit powers over a running
    common denominator, the p-free part of n!, inverted once at the end.
    Every step is a ring operation mod p^N, so the digits are those of the
    term-by-term PadicNumber series.
    """
    ctx = x.ctx
    if x.is_zero:
        return ctx.one()
    v = x.valuation
    if v < 1:
        raise DomainError("exp_p needs |x|_p <= 1/p")
    p, N, powers, pN = ctx.p, ctx.precision, ctx._powers, ctx.modulus
    budget = N + ctx.guard
    acc, den = 1, 1       # the partial sum is acc / den
    num, v_fact = 1, 0    # x.unit^n mod p^N and v_p(n!)
    n = 0
    while True:
        n += 1
        m = n
        while m % p == 0:
            m //= p
            v_fact += 1
        num = num * x.unit % pN
        term_v = n * v - v_fact
        if term_v > budget:
            return PadicNumber(ctx, 0, acc * _inv_unit(den % pN, ctx) % pN)
        acc *= m
        if term_v < N:  # a deeper term is 0 mod p^N
            acc = (acc + num * powers[term_v]) % pN
        den *= m
        if n > 64 * budget:  # unreachable for valid inputs
            raise DomainError("exp_p series failed to terminate")


def log_p(x: PadicNumber) -> PadicNumber:
    """p-adic logarithm; requires |x - 1|_p < 1.

    With t = x - 1 = p^v u, sums (-1)^(n+1) t^n/n for as long as the term's
    valuation n*v - v_p(n) stays within N + g.  The result keeps t's
    valuation, and its unit is a sum over the running common denominator
    D_n, the p-free part of n!, inverted once at the end.  The numerators
    R_n = u^n p^((n-1)v) D_(n-1) are carried mod p^(N+e), with p^e above
    every n the series reaches, so dividing R_n by p^(v_p(n)) leaves it
    exact mod p^N: every residue is that of the term-by-term PadicNumber
    series.
    """
    ctx = x.ctx
    t = x - 1
    if t.is_zero:
        return ctx.zero()
    if x.is_zero or t.valuation < 1:
        raise DomainError("log_p needs |x - 1|_p < 1")
    v = t.valuation
    p, N, powers, pN = ctx.p, ctx.precision, ctx._powers, ctx.modulus
    budget = N + ctx.guard
    e = 0                 # the series stops before n = 2 * budget
    while p ** (e + 1) <= 2 * budget:
        e += 1
    M = pN * p ** e
    step = t.unit * powers[v]
    acc, den = 0, 1       # the unit of the partial sum is acc / den
    R = t.unit
    n = 0
    while True:
        n += 1
        m, v_n = n, 0
        while m % p == 0:
            m //= p
            v_n += 1
        if n * v - v_n > budget:
            return PadicNumber(ctx, v, acc * _inv_unit(den % pN, ctx) % pN)
        term = R // powers[v_n]
        acc = (acc * m + (term if n % 2 else -term)) % pN
        den *= m
        R = R * step * m % M


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

    With u the unit of x, Newton lifts the inverse square root z of u from
    mod p over the context's lift moduli, z <- z(3 - uz^2)/2 mod p^(2k), with
    /2 the product by (p^(2k) + 1)/2; each step doubles the digits that are
    right, and no division is needed past mod p.  The root is uz mod p^N.  The
    canonical branch is the one whose leading digit lies in {1, ..., (p-1)/2}.
    """
    if x.is_zero:
        raise ZeroInput("sqrt(0) excluded: zero carries no branch information")
    if not sqrt_exists(x):
        raise NotASquare("operand has no square root in Q_p")
    ctx = x.ctx
    p, u = ctx.p, x.unit
    z = pow(_sqrt_mod_p(u, p), p - 2, p)  # Fermat: the inverse mod p
    for mod in ctx._lifts:
        z = z * (3 - u * z * z) * ((mod + 1) >> 1) % mod
    y = u * z % ctx.modulus
    if y % p > (p - 1) // 2:
        y = ctx.modulus - y
    root = PadicNumber(ctx, x.valuation // 2, y)
    return root, -root


# -- text / JSON forms ------------------------------------------------------

def parse_padic(text: str, ctx: PrimeContext) -> PadicNumber:
    """Parse 'm/n' rational form or 'v;d0,d1,...' digit form."""
    text = text.strip()
    if ";" in text:
        head, tail = text.split(";", 1)
        entries = tail.split(",")
        chars = ctx._digit_chars
        if chars is not None:
            # every entry a canonical digit below p <= 36: one int(text, p),
            # top digit first; anything else, or a text past int()'s digit
            # limit, takes the general path below
            try:
                unit = int("".join([chars[d] for d in reversed(entries)]), ctx.p)
            except (KeyError, ValueError):
                pass
            else:
                return ctx._from_digit_sum(int(head), unit)
        digits = [int(d) for d in entries if d.strip() != ""]
        return ctx.from_digits(int(head), digits)
    if "/" in text:
        m, n = text.split("/", 1)
        return ctx.from_rational(int(m), int(n))
    return ctx.from_int(int(text))


def to_json(x: PadicNumber) -> dict:
    return {
        "valuation": x.valuation,
        "digits": [] if x.is_zero else x.digits(),
        "p": x.ctx.p,
    }


def norm_str(order: int | None, p: int) -> str:
    """Render the norm p^-order of a value of ord_p `order` as 'p^-order',
    '1' at order 0, and '0' for zero (order None)."""
    if order is None:
        return "0"
    if order == 0:
        return "1"
    return f"{p}^{-order}"


def norm_fraction(order: int | None, p: int) -> Fraction:
    """The norm p^-order of a value of ord_p `order` as an exact rational,
    0 for zero (order None)."""
    if order is None:
        return Fraction(0)
    return Fraction(1, p ** order) if order >= 0 else Fraction(p ** -order)
