"""Repeller geometry, basin decision, and the shift coding of the Julia set.

The repelling pair x1, x2 defines two disjoint balls of radius r = |b - 1|_p.
On the squared picture X = B_r(x1^2) u B_r(x2^2) the map k has two inverse
branches, one into each ball, both contracting by p^(-ord(b-1)): squaring is
an isometry within each ball, so k expands exactly as fast as g does.  Every
word over {1, 2} therefore synthesises a unique periodic point, and the
coding is an isometry for the word metric built from the expansion exponent.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .errors import (
    BranchError,
    DomainError,
    EscapeError,
    LengthMismatch,
    PrecisionExhausted,
    VerificationError,
)
from .fixedpoints import discriminant, find_x0, repelling_roots
from .maps import MapParams, deriv_k, eval_g, eval_k
from .padic import (
    Ball,
    PadicNumber,
    converge,
    diff_valuation,
    eq_to_precision,
    norm_diff,
    sqrt_both,
)

Word = tuple[int, ...]


def check_word(word: Word, nonempty: bool = True) -> Word:
    word = tuple(word)
    if nonempty and not word:
        raise DomainError("empty word")
    if any(s not in (1, 2) for s in word):
        raise DomainError("word symbols must be 1 or 2")
    return word


def all_words(length: int) -> list[Word]:
    return [w for w in product((1, 2), repeat=length)]


def k_membership(params: MapParams, x: PadicNumber,
                 x0: PadicNumber | None = None) -> bool:
    """x in K = {x on the unit sphere around x0 : |x^2 + 1|_p <= |b^2 - 1|_p}."""
    if x0 is None:
        x0 = find_x0(params)
    if norm_diff(x, x0) != 1:
        return False
    b = params.b
    return norm_diff(x * x, params.ctx.from_int(-1)) <= (b * b - 1).norm()


@dataclass(frozen=True)
class BasinStatus:
    """Outcome of iterating g: either some iterate left K, or none did."""

    outcome: str  # "in_basin" | "stays_in_k"
    steps: int
    trail: tuple[int, ...]  # leading digit of each iterate seen inside K

    @property
    def in_basin(self) -> bool:
        return self.outcome == "in_basin"


def basin_status(params: MapParams, x: PadicNumber, max_iter: int,
                 x0: PadicNumber | None = None) -> BasinStatus:
    """Semi-decide membership in the basin of x0.

    An iterate leaving K certifies convergence to x0 (next iterate enters
    E_p, where g contracts).  A revisit of an earlier iterate certifies a
    periodic orbit trapped in K, reported as stays_in_k without burning the
    remaining budget on an expanding map that would only amplify rounding.
    """
    if max_iter < 1:
        raise DomainError("max_iter must be >= 1")
    ctx = params.ctx
    if x0 is None:
        x0 = find_x0(params)
    cycle_digits = max(2, ctx.residual_digits // 2)
    trail: list[int] = []
    visited: list[PadicNumber] = []
    current = x
    for step in range(max_iter):
        if not k_membership(params, current, x0):
            return BasinStatus("in_basin", step, tuple(trail))
        trail.append(current.leading_digit())
        if any(eq_to_precision(prev, current, cycle_digits) for prev in visited):
            return BasinStatus("stays_in_k", max_iter, tuple(trail))
        visited.append(current)
        current = eval_g(params, current)
    return BasinStatus("stays_in_k", max_iter, tuple(trail))


@dataclass(frozen=True)
class RepellerGeometry:
    """The two-ball repeller of k and everything the coding needs.

    kappa is ord_p(x1^2 - x2^2) (the center separation exponent) and
    expansion_exponent = ord_p(b - 1) is the per-step digit gain of k,
    measured on the balls (|b^2 + x|_p = r there, so |k'|_p = |b^4 - 1|_p/r^2
    = 1/r; squaring conjugates k to g isometrically within each ball).
    """

    params: MapParams
    x0: PadicNumber
    x1: PadicNumber
    x2: PadicNumber
    alpha1: PadicNumber
    alpha2: PadicNumber
    x1sq: PadicNumber = field(repr=False)
    x2sq: PadicNumber = field(repr=False)
    kappa: int = 0
    expansion_exponent: int = 0

    @classmethod
    def build(cls, params: MapParams) -> "RepellerGeometry":
        ctx = params.ctx
        if ctx.p % 4 != 1:
            raise DomainError("repeller geometry needs p = 1 (mod 4)")
        if not params.strict_regime:
            raise DomainError("repeller geometry assumes |a - 1|_p < |b - 1|_p")
        x0 = find_x0(params)
        roots = repelling_roots(params, x0, discriminant(params, x0))
        assert roots is not None
        x1, x2 = roots
        i_root, i_other = sqrt_both(ctx.from_int(-1))
        m = params.radius_exponent
        # alpha_i is the square root of -1 sharing x_i's closed r-ball
        if Ball(x1, -m, closed=True).contains(i_root):
            alpha1, alpha2 = i_root, i_other
        else:
            alpha1, alpha2 = i_other, i_root
        for alpha, xi in ((alpha1, x1), (alpha2, x2)):
            if not Ball(xi, -m, closed=True).contains(alpha):
                raise DomainError("square roots of -1 do not pair with x1, x2")
        x1sq, x2sq = x1 * x1, x2 * x2
        kappa = diff_valuation(x1sq, x2sq)
        if kappa is None:
            raise DomainError("x1^2 and x2^2 coincide at working precision")
        return cls(params, x0, x1, x2, alpha1, alpha2, x1sq, x2sq,
                   kappa, m)

    # -- balls -------------------------------------------------------------

    def center_sq(self, j: int) -> PadicNumber:
        return self.x1sq if j == 1 else self.x2sq

    def ball_sq(self, j: int) -> Ball:
        return Ball(self.center_sq(j), -self.params.radius_exponent)

    def ball_g(self, j: int) -> Ball:
        return Ball(self.x1 if j == 1 else self.x2, -self.params.radius_exponent)

    def ball_alpha(self, j: int) -> Ball:
        return Ball(self.alpha1 if j == 1 else self.alpha2,
                    -self.params.radius_exponent, closed=True)

    def in_X(self, x: PadicNumber) -> int | None:
        """Index of the square-picture ball containing x, or None."""
        if self.ball_sq(1).contains(x):
            return 1
        if self.ball_sq(2).contains(x):
            return 2
        return None

    # -- inverse branches ---------------------------------------------------

    def _roundtrip_digits(self) -> int:
        ctx = self.params.ctx
        return min(ctx.residual_digits,
                   ctx.precision - self.expansion_exponent - 2)

    def inverse_branch(self, j: int, x: PadicNumber) -> PadicNumber:
        """The k-preimage of x lying in B_r(x_j^2).

        Both square-root branches of x are tried; exactly one yields a
        preimage in the target ball.
        """
        if j not in (1, 2):
            raise DomainError("branch index must be 1 or 2")
        if self.in_X(x) is None:
            raise DomainError("inverse branches are only defined on X")
        a, b = self.params.a, self.params.b
        b2 = b * b
        target = self.ball_sq(j)
        hits = []
        for s in sqrt_both(x):
            y = (a - s * b2) / (s - a * b2)
            if target.contains(y):
                hits.append(y)
        if len(hits) != 1:
            raise BranchError(
                f"{len(hits)} square-root branches landed in ball {j}")
        y = hits[0]
        if not eq_to_precision(eval_k(self.params, y), x, self._roundtrip_digits()):
            raise BranchError("inverse branch failed the forward round trip")
        return y

    def incidence_matrix(self) -> list[list[int]]:
        """Entry (i, j): does the branch into ball j accept the center of ball i."""
        out = [[0, 0], [0, 0]]
        for i in (1, 2):
            for j in (1, 2):
                try:
                    self.inverse_branch(j, self.center_sq(i))
                    out[i - 1][j - 1] = 1
                except (BranchError, DomainError):
                    pass
        return out

    # -- periodic points ----------------------------------------------------

    def periodic_point_k(self, word: Word) -> PadicNumber:
        """The unique point of X with k-itinerary word, word, word, ...

        One pass of inverse branches from the centre of ball w_1 lands in the
        word's depth-|w| cylinder; Newton's method on k^n(x) - x (n = |w|)
        then runs from there, with (k^n)'(x) by the chain rule along the
        forward orbit.  |(k^n)'|_p = p^(nm), so the denominator (k^n)' - 1
        never cancels.  When n * m >= N - g the forward orbit keeps no
        trusted digit, so the pass itself is iterated instead: it contracts
        by p^(-nm) and settles the N - g digits in one step.
        """
        word = check_word(word)
        params = self.params
        ctx = params.ctx

        def one_pass(y: PadicNumber) -> PadicNumber:
            for sym in reversed(word):
                y = self.inverse_branch(sym, y)
            return y

        center = self.center_sq(word[0])
        if len(word) * self.expansion_exponent >= ctx.residual_digits:
            return converge(one_pass, center, "inverse-branch composition")

        def newton(x: PadicNumber) -> PadicNumber:
            image, slope = x, ctx.one()
            for _ in word:
                slope = slope * deriv_k(params, image)
                image = eval_k(params, image)
            return (x * slope - image) / (slope - 1)

        return converge(newton, one_pass(center), "Newton iteration for k^n(x) = x")

    def periodic_point_g(self, word: Word) -> PadicNumber:
        """The g-periodic point whose square has k-itinerary word.

        The square root s of the k-periodic point is taken in B_r(x_{w1}).
        Because g is even, the forward orbit returns to +s or to -s (the
        latter exactly when the word's last symbol differs from its first);
        whichever sign the orbit selects is the periodic point, and it is
        verified by forward iteration before returning.
        """
        word = check_word(word)
        ctx = self.params.ctx
        y = self.periodic_point_k(word)
        ball = self.ball_g(word[0])
        hits = [s for s in sqrt_both(y) if ball.contains(s)]
        if len(hits) != 1:
            raise BranchError("square root of the periodic point missed both balls")
        s = hits[0]
        digits = min(ctx.residual_digits,
                     ctx.precision - len(word) * self.params.radius_exponent - 2)
        z = s
        for _ in word:
            z = eval_g(self.params, z)
        for candidate in (s, -s):
            if eq_to_precision(z, candidate, digits):
                # g(-s) = g(s), so g^m(candidate) = z = candidate either way
                return candidate
        raise VerificationError("g-orbit verification of the periodic point failed")

    def g_orbit(self, word: Word) -> list[PadicNumber]:
        """[h_0, ..., h_{m-1}] with h_i = g(h_{i+1 mod m}), h_0 the word's point."""
        word = check_word(word)
        y = self.periodic_point_g(word)
        forward = [y]
        for _ in range(len(word) - 1):
            forward.append(eval_g(self.params, forward[-1]))
        return [forward[0]] + forward[:0:-1]

    # -- coding -------------------------------------------------------------

    def itinerary(self, x: PadicNumber, length: int) -> Word:
        """The first `length` k-symbols of x.

        Each k-step spends expansion_exponent trusted digits, so an escape
        once more than N - g of them are spent is precision loss, not proof
        that x lies off the repeller.
        """
        ctx = self.params.ctx
        out = []
        current = x
        for step in range(length):
            j = self.in_X(current)
            if j is None:
                if step * self.expansion_exponent > ctx.residual_digits:
                    raise PrecisionExhausted(
                        f"orbit left X at step {step}, after the "
                        f"{ctx.residual_digits} trusted digits were spent")
                raise EscapeError(step)
            out.append(j)
            if step + 1 < length:
                current = eval_k(self.params, current)
        return tuple(out)

    def subshift_metric(self, word_a: Word, word_b: Word) -> Fraction:
        """d(word_a, word_b) = p^(-(n * tau + kappa)), n the first disagreement."""
        word_a, word_b = check_word(word_a), check_word(word_b)
        if len(word_a) != len(word_b):
            raise LengthMismatch("words must have equal length")
        p = self.params.ctx.p
        for n, (sa, sb) in enumerate(zip(word_a, word_b)):
            if sa != sb:
                return Fraction(1, p ** (n * self.expansion_exponent + self.kappa))
        return Fraction(0)

    def julia_cylinders(self, depth: int) -> list[tuple[Word, Ball]]:
        """One ball per word of length depth, covering the depth-th Julia stage."""
        if depth < 1:
            raise DomainError("depth must be >= 1")
        m = self.params.radius_exponent
        out = []
        for word in all_words(depth):
            center = self.center_sq(word[-1])
            for sym in reversed(word[:-1]):
                center = self.inverse_branch(sym, center)
            radius_exp = -(m + (depth - 1) * self.expansion_exponent)
            out.append((word, Ball(center, radius_exp)))
        return out
