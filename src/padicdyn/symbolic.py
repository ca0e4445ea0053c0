"""Repeller geometry, basin decision, and the shift coding of the Julia set.

The repelling pair x1, x2 defines two disjoint balls of radius r = |b - 1|_p.
On the squared picture X = B_r(x1^2) u B_r(x2^2) the map k has two inverse
branches, one into each ball, both contracting by p^(-ord(b-1)): squaring is
an isometry within each ball, so k expands exactly as fast as g does.  Every
word over {1, 2} therefore synthesises a unique periodic point, and the
coding is an isometry for the word metric built from ord(b - 1).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import islice, product

from .errors import (
    BranchError,
    DomainError,
    EscapeError,
    LengthMismatch,
    PrecisionExhausted,
    VerificationError,
)
from .fixedpoints import find_x0
from .maps import MapParams, _k_ratio_orbit, _k_ratio_step, eval_g
from .padic import (
    Ball,
    PadicNumber,
    _Immutable,
    _inv_unit,
    converge,
    diff_valuation,
    eq_to_precision,
    norm_fraction,
    sqrt_both,
)

Word = tuple[int, ...]

# deepest cylinder listing julia_cylinders makes (2^12 balls, the listing size
# the gibbs report allows), deepest centre the geometry keeps, and one symbol
# more than the longest word whose periodic point it keeps
MAX_CYLINDER_DEPTH = 12


def check_word(word: Word) -> Word:
    word = tuple(word)
    if not word:
        raise DomainError("empty word")
    if any(s not in (1, 2) for s in word):
        raise DomainError("word symbols must be 1 or 2")
    return word


def all_words(length: int) -> list[Word]:
    return [w for w in product((1, 2), repeat=length)]


def k_membership(params: MapParams, x: PadicNumber, x0: PadicNumber) -> bool:
    """x in K = {x on the unit sphere around x0 : |x^2 + 1|_p <= |b^2 - 1|_p}.

    b + 1 is a unit, so |b^2 - 1|_p = |b - 1|_p = p^-m: the second condition
    puts x^2 within p^-m of -1, i.e. in the open ball of radius p^(1-m).
    """
    if diff_valuation(x, x0) != 0:
        return False
    minus_one = params.ctx.from_int(-1)
    return Ball(minus_one, 1 - params.radius_exponent).contains(x * x)


class BasinStatus(_Immutable):
    """Outcome of iterating g: either some iterate left K, or none did.

    outcome is "in_basin" or "stays_in_k"; trail holds the leading digit of
    each iterate seen inside K.
    """

    __slots__ = ("outcome", "steps", "trail")

    def __init__(self, outcome: str, steps: int, trail: tuple[int, ...]):
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "trail", trail)


def basin_status(params: MapParams, x: PadicNumber, max_iter: int) -> BasinStatus:
    """Decide, within the digit budget, whether the g-orbit of x leaves K.

    An iterate outside K proves convergence to x0: in_basin, steps its index.
    In K each g-step spends m = ord(b - 1) of the R = N - g trusted digits, so
    iterates 0..T, T = params.trusted_steps = R // m, are decided; all in K
    gives stays_in_k: x lies within p^-R of the Julia set.  On K, g(u) - u =
    -(u - x0)(u - x1)(u - x2)/(b^2 + u^2), |u - x0| = |x1 - x2| = 1 and
    |b^2 + u^2| <= p^-m, so |g(u) - u| = p^-d puts u within p^-(d + m) of x1
    or x2, and by Lemma 3.4 (iii) g^i(u) is in K for i <= d // m.  Hence the
    run stops with stays_in_k at iterate j if (j - 1) m + d >= R, p^-d the
    distance of iterates j - 1 and j (they agree in every digit iterate j - 1
    still trusts), or if the two are indistinguishable.  stays_in_k reports
    steps = max_iter, also when max_iter cuts the run before iterate T.
    """
    if max_iter < 1:
        raise DomainError("max_iter must be >= 1")
    x0 = find_x0(params)
    m, budget = params.radius_exponent, params.ctx.residual_digits
    trail, current = [], x
    for step in range(min(max_iter, params.trusted_steps + 1)):
        if step:
            previous, current = current, eval_g(params, current)
        if not k_membership(params, current, x0):
            return BasinStatus("in_basin", step, tuple(trail))
        trail.append(current.leading_digit())
        if step:
            d = diff_valuation(previous, current)
            if d is None or (step - 1) * m + d >= budget:
                break
    return BasinStatus("stays_in_k", max_iter, tuple(trail))


class RepellerGeometry(_Immutable):
    """The two-ball repeller of k and everything the coding needs.

    kappa is ord_p(x1^2 - x2^2) (the center separation exponent), and
    params.radius_exponent = ord_p(b - 1) is also the per-step digit gain of
    k, measured on the balls (|b^2 + x|_p = r there, so |k'|_p =
    |b^4 - 1|_p/r^2 = 1/r; squaring conjugates k to g isometrically within
    each ball).  balls_sq is (B_r(x1^2), B_r(x2^2)), the two balls of X.
    """

    __slots__ = ("params", "x0", "x1", "x2", "alpha1", "alpha2", "x1sq", "x2sq",
                 "balls_sq", "kappa", "_cylinder_tree", "_periodic_words",
                 "__weakref__")

    def __init__(self, params: MapParams):
        """The geometry of params, built anew: read it from build
        (params.geometry), which keeps it on the pair."""
        ctx = params.ctx
        if ctx.p % 4 != 1:
            raise DomainError("repeller geometry needs p = 1 (mod 4)")
        if not params.strict_regime:
            raise DomainError("repeller geometry assumes |a - 1|_p < |b - 1|_p")
        x0, _, roots = params.fixed_points
        assert roots is not None
        x1, x2 = roots
        i_root, i_other = sqrt_both(ctx.from_int(-1))
        m = params.radius_exponent
        # alpha_i is the square root of -1 within r = p^-m of x_i, i.e. in the
        # open ball of radius p^(1-m) around x_i
        if Ball(x1, 1 - m).contains(i_root):
            alpha1, alpha2 = i_root, i_other
        else:
            alpha1, alpha2 = i_other, i_root
        for alpha, xi in ((alpha1, x1), (alpha2, x2)):
            if not Ball(xi, 1 - m).contains(alpha):
                raise DomainError("square roots of -1 do not pair with x1, x2")
        x1sq, x2sq = x1 * x1, x2 * x2
        kappa = diff_valuation(x1sq, x2sq)
        if kappa is None:
            raise DomainError("x1^2 and x2^2 coincide at working precision")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)
        object.__setattr__(self, "alpha1", alpha1)
        object.__setattr__(self, "alpha2", alpha2)
        object.__setattr__(self, "x1sq", x1sq)
        object.__setattr__(self, "x2sq", x2sq)
        object.__setattr__(self, "balls_sq", (Ball(x1sq, -m), Ball(x2sq, -m)))
        object.__setattr__(self, "kappa", kappa)
        # [None, node of word (1,), node of word (2,)]; a node of word w is
        # [center of w, node of 1.w, node of 2.w], grown by cylinder_center
        object.__setattr__(self, "_cylinder_tree", [None, None, None])
        # word -> (its k-periodic point, its checked forward g-orbit), grown
        # by _periodic
        object.__setattr__(self, "_periodic_words", {})

    @classmethod
    def build(cls, params: MapParams) -> "RepellerGeometry":
        """The geometry of params, built once per pair and kept on it
        (params.geometry), with the centres and periodic records it keeps; a
        DomainError is raised again on every call, never stored.
        """
        return params.geometry

    # -- balls -------------------------------------------------------------

    def center_sq(self, j: int) -> PadicNumber:
        return self.x1sq if j == 1 else self.x2sq

    def ball_sq(self, j: int) -> Ball:
        return self.balls_sq[j - 1]

    def ball_g(self, j: int) -> Ball:
        return Ball(self.x1 if j == 1 else self.x2, -self.params.radius_exponent)

    def in_X(self, x: PadicNumber) -> int | None:
        """Index of the square-picture ball containing x, or None."""
        for j, ball in enumerate(self.balls_sq, 1):
            if ball.contains(x):
                return j
        return None

    # -- inverse branches ---------------------------------------------------

    def _orbit_digits(self, steps: int) -> int:
        """Digits an orbit keeps after `steps` steps of k, m = ord(b - 1) spent
        per step: min(N - g, N - steps m - 2)."""
        ctx = self.params.ctx
        return min(ctx.residual_digits,
                   ctx.precision - steps * self.params.radius_exponent - 2)

    def inverse_branch(self, j: int, x: PadicNumber) -> PadicNumber:
        """The k-preimage of x lying in B_r(x_j^2).

        Each square root s of x gives a candidate y = (a - s b^2)/(s - a b^2),
        read as the fraction of its two parts, both units: x lies on a ball
        of X, so x = -1 (mod p), and s = +-i, a = b^2 = 1 (mod p) with i^2 = -1,
        so the parts are 1 -+ i and +-i - 1 = -(1 -+ i) mod p, and
        (1 - i)(1 + i) = 2 is prime to p.  So Ball.contains_ratio tests each
        candidate against the target ball without dividing; exactly one
        must land there.  Its forward round trip k(y) = x is one
        _k_ratio_step from the parts and the congruence X' = x Z' on the
        digits an orbit keeps after one step, and only the hit is divided
        out: one inverse per call.
        """
        if j not in (1, 2):
            raise DomainError("branch index must be 1 or 2")
        if self.in_X(x) is None:
            raise DomainError("inverse branches are only defined on X")
        params = self.params
        ctx = params.ctx
        pN, a, b2 = ctx.modulus, params.a.unit, params.b2.unit
        target = self.ball_sq(j)
        hits = []
        for s in sqrt_both(x):
            num, den = (a - s.unit * b2) % pN, (s.unit - a * b2) % pN
            if target.contains_ratio(num, den):
                hits.append((num, den))
        if len(hits) != 1:
            raise BranchError(
                f"{len(hits)} square-root branches landed in ball {j}")
        num, den = hits[0]
        X, Z, _, _ = _k_ratio_step(params, num, den)
        digits = self._orbit_digits(1)
        if digits > 0 and (X - x.unit * Z) % ctx._powers[digits]:
            raise BranchError("inverse branch failed the forward round trip")
        return PadicNumber(ctx, 0, num * _inv_unit(den, ctx) % pN)

    def cylinder_center(self, word: Word) -> PadicNumber:
        """Centre of the cylinder of w_1 ... w_d: psi_{w_1}(... psi_{w_{d-1}}(c_{w_d})).

        psi_j is the inverse branch into ball j and c_j the centre of ball j.
        The centres of words up to MAX_CYLINDER_DEPTH symbols are kept in a
        tree on the geometry, read from the last symbol, so each is composed
        once per geometry: julia_cylinders and the Newton start of a
        periodic word (_periodic) share it.  Deeper centres are composed on
        top of the deepest kept suffix and not kept.
        """
        node = self._cylinder_tree
        symbols = reversed(check_word(word))
        for sym in islice(symbols, MAX_CYLINDER_DEPTH):
            child = node[sym]
            if child is None:
                center = (self.center_sq(sym) if node[0] is None
                          else self.inverse_branch(sym, node[0]))
                child = node[sym] = [center, None, None]
            node = child
        center = node[0]
        for sym in symbols:
            center = self.inverse_branch(sym, center)
        return center

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

        It is the first value of the word's record (_periodic), so it is
        returned only once its forward g-orbit has passed its check.
        """
        return self._periodic(word)[0]

    def forward_k_ends(self, word: Word) -> tuple[PadicNumber, PadicNumber]:
        """(x, k^n(x)) for the k-periodic point x of word, n = |w|: the ends
        of x's forward orbit, whose distance is the period residual.

        k(s^2) = g(s)^2, so k^n(x) is the square of the last point of the
        word's forward g-orbit, which a square root s of x starts.  The square
        is exact: sqrt_both's s squares back to x in every digit, and eval_g(s)
        runs the quotient eval_k runs on s^2.  So the word's n steps of g
        serve both maps.
        """
        point, orbit = self._periodic(word)
        return point, orbit[-1] * orbit[-1]

    def forward_g_orbit(self, word: Word) -> tuple[PadicNumber, ...]:
        """(y, g(y), ..., g^n(y)) for the g-periodic point y of word, n = |w|."""
        return self._periodic(word)[1]

    def g_orbit(self, word: Word) -> list[PadicNumber]:
        """[h_0, ..., h_{m-1}] with h_i = g(h_{i+1 mod m}), h_0 the word's point."""
        forward = self.forward_g_orbit(word)
        return [forward[0], *forward[-2:0:-1]]

    def _periodic(self, word: Word) -> tuple[PadicNumber, tuple[PadicNumber, ...]]:
        """The word's record: its k-periodic point x and the checked forward
        g-orbit of its g-periodic point.

        Newton's method on k^n(x) - x (n = |w|) starts from the centre of
        the cylinder of w w_1, one pass of inverse branches from the centre
        of ball w_1, which lies in the word's depth-|w| cylinder.  It is read
        from the geometry's tree of cylinder centres (cylinder_center), which
        julia_cylinders shares.  The iterates are units on B_r(x_{w1}^2), and
        k^n(x) = X_n/Z_n and (k^n)'(x) = p^(-nm) A/B come from n steps of k
        in unit fractions (maps._k_ratio_orbit), so the Newton step
        x - (k^n(x) - x)/((k^n)'(x) - 1) is

            (x A Z_n - p^(nm) B X_n) / (Z_n (A - p^(nm) B)),

        whose denominator is a unit, as A is and nm >= 1: one inverse per
        step.  When n * m >= N - g the forward orbit keeps no trusted digit,
        so the pass itself is iterated instead: it contracts by p^(-nm) and
        settles the N - g digits in one step.

        The square root s of x is taken in B_r(x_{w1}).  Because g is even,
        the forward orbit returns to +s or to -s, the latter exactly when the
        word's last symbol differs from its first; that sign is the periodic
        point y, and g(y) = g(s) exactly, so the n steps from s are y's
        forward orbit.  g^n(y) = y is checked wherever the orbit keeps a
        trusted digit, min(N - g, N - |w|m - 2).  The geometry keeps the
        record of every word shorter than MAX_CYLINDER_DEPTH, whose Newton
        start its tree keeps too, once every check has passed; a longer word
        is solved and checked on every call, and so is a word that raised.
        """
        word = check_word(word)
        record = self._periodic_words.get(word)
        if record is not None:
            return record
        params, ctx = self.params, self.params.ctx

        def one_pass(y: PadicNumber) -> PadicNumber:
            for sym in reversed(word):
                y = self.inverse_branch(sym, y)
            return y

        n, nm = len(word), len(word) * params.radius_exponent
        if nm >= ctx.residual_digits:
            point = converge(one_pass, self.center_sq(word[0]),
                             "inverse-branch composition")
        else:
            pN, p_nm = ctx.modulus, ctx._powers[nm]

            def newton(x: PadicNumber) -> PadicNumber:
                X, Z, A, B = _k_ratio_orbit(params, x.unit, n)
                top = (x.unit * A * Z - p_nm * B * X) % pN
                return PadicNumber(ctx, 0, top * _inv_unit(Z * (A - p_nm * B) % pN, ctx) % pN)

            point = converge(newton, self.cylinder_center(word + word[:1]),
                             "Newton iteration for k^n(x) = x")
        ball = self.ball_g(word[0])
        hits = [s for s in sqrt_both(point) if ball.contains(s)]
        if len(hits) != 1:
            raise BranchError("square root of the periodic point missed both balls")
        s = hits[0]
        orbit = [-s if word[-1] != word[0] else s]
        z = s
        for _ in word:
            z = eval_g(params, z)
            orbit.append(z)
        digits = self._orbit_digits(len(word))
        if digits > 0 and not eq_to_precision(z, orbit[0], digits):
            raise VerificationError("g-orbit verification of the periodic point failed")
        record = point, tuple(orbit)
        if len(word) < MAX_CYLINDER_DEPTH:
            self._periodic_words[word] = record
        return record

    # -- coding -------------------------------------------------------------

    def itinerary(self, x: PadicNumber, length: int) -> Word:
        """The first `length` k-symbols of x.

        The symbol of step j is the ball of X that holds k^j(x), read on its
        first m + 1 digits, m = ord(b - 1).  Each k-step spends m digits:
        k^j(x) keeps N - jm of x's N, and at most T = params.trusted_steps
        steps fit in the N - g trusted digits.  So step j is decided when
        j <= T and N - jm >= m + 1, and no later one is: asking for the
        first step past that raises PrecisionExhausted, whether or not that
        iterate lies in X, unless the orbit escaped X before it.

        Past step 0 the orbit runs as a fraction X/Z of two units
        (maps._k_ratio_step), so no step takes an inverse.
        """
        if length < 0:
            raise DomainError("length must be >= 0")
        params = self.params
        m = params.radius_exponent
        budget = min(params.trusted_steps, (params.ctx.precision - m - 1) // m)
        ball1, ball2 = self.balls_sq
        out, j, X, Z = [], self.in_X(x), x.unit, 1
        for step in range(length):
            if step > budget:
                raise PrecisionExhausted(
                    f"step {step} is past the digit budget of {budget} steps")
            if step:
                X, Z, _, _ = _k_ratio_step(params, X, Z)
                j = (1 if ball1.contains_ratio(X, Z) else
                     2 if ball2.contains_ratio(X, Z) else None)
            if j is None:
                raise EscapeError(step)
            out.append(j)
        return tuple(out)

    def subshift_metric(self, word_a: Word, word_b: Word) -> Fraction:
        """d(word_a, word_b) = p^(-(n * tau + kappa)), n the first disagreement."""
        word_a, word_b = check_word(word_a), check_word(word_b)
        if len(word_a) != len(word_b):
            raise LengthMismatch("words must have equal length")
        p, tau = self.params.ctx.p, self.params.radius_exponent
        for n, (sa, sb) in enumerate(zip(word_a, word_b)):
            if sa != sb:
                return norm_fraction(n * tau + self.kappa, p)
        return Fraction(0)

    def julia_cylinders(self, depth: int) -> list[tuple[Word, Ball]]:
        """One ball per word of length depth, covering the depth-th Julia stage.

        The centres come from cylinder_center: on a geometry that has kept
        none, depth d makes 2^(d+1) - 4 inverse-branch calls, one per suffix.
        """
        if depth < 1:
            raise DomainError("depth must be >= 1")
        if depth > MAX_CYLINDER_DEPTH:
            raise DomainError(f"depth must be <= {MAX_CYLINDER_DEPTH}: "
                              f"the listing would hold 2^{depth} balls")
        radius_exp = -depth * self.params.radius_exponent
        return [(word, Ball(self.cylinder_center(word), radius_exp))
                for word in all_words(depth)]

