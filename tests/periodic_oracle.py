"""The periodic-point solve as it ran before unit fractions, kept as the oracle.

`eval_k_slope` takes (k(x), k'(x)) from one inverse of b^2 + x, and
`OracleGeometry` solves k^n(x) = x by Newton with (k^n)' by the chain rule
along the forward orbit, n inverses per step, and checks each inverse branch
by an `eval_k` round trip, three inverses per branch.  The unit-fraction
solve of `symbolic.RepellerGeometry` must give the same point, g-orbit and
exception.  The name does not start with test_, so pytest does not collect it.
"""
from padicdyn import (
    BranchError,
    DomainError,
    PadicError,
    PadicNumber,
    RepellerGeometry,
    VerificationError,
    check_word,
    eq_to_precision,
    eval_g,
    eval_k,
    sqrt_both,
)
from padicdyn.maps import _quotient
from padicdyn.padic import _times, converge
from padicdyn.symbolic import MAX_CYLINDER_DEPTH


def eval_k_slope(params, x):
    """(k(x), k'(x)) from one inverse of b^2 + x.

    With root = a(b^2 x + 1)/(b^2 + x), k = root^2 and
    k' = 2 root a(b^4 - 1)/(b^2 + x)^2.
    """
    ctx = params.ctx
    q, inv = _quotient(params, (x.valuation, x.unit))
    factor = params.slope_factor
    root = _times(ctx, (0, params.a.unit), q)
    slope = _times(ctx, _times(ctx, root, (factor.valuation, factor.unit)),
                   _times(ctx, inv, inv))
    return PadicNumber(ctx, *_times(ctx, root, root)), PadicNumber(ctx, *slope)


class OracleGeometry(RepellerGeometry):
    """A fresh repeller geometry whose inverse branches and periodic records
    are computed the former way; its cylinder centres come from its own
    inverse branches."""

    __slots__ = ()

    def inverse_branch(self, j, x):
        if j not in (1, 2):
            raise DomainError("branch index must be 1 or 2")
        if self.in_X(x) is None:
            raise DomainError("inverse branches are only defined on X")
        a, b2 = self.params.a, self.params.b2
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
        if not eq_to_precision(eval_k(self.params, y), x, self._orbit_digits(1)):
            raise BranchError("inverse branch failed the forward round trip")
        return y

    def _periodic(self, word):
        word = check_word(word)
        record = self._periodic_words.get(word)
        if record is not None:
            return record
        params, ctx = self.params, self.params.ctx

        def one_pass(y):
            for sym in reversed(word):
                y = self.inverse_branch(sym, y)
            return y

        def newton(x):
            image, slope = x, ctx.one()
            for _ in word:
                image, step_slope = eval_k_slope(params, image)
                slope = slope * step_slope
            return (x * slope - image) / (slope - 1)

        if len(word) * params.radius_exponent >= ctx.residual_digits:
            point = converge(one_pass, self.center_sq(word[0]),
                             "inverse-branch composition")
        else:
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


def record_or_error(geom, word):
    """The word's record (point, forward g-orbit), or the class and text of
    the error its solve raises."""
    try:
        return geom._periodic(word)
    except PadicError as exc:
        return type(exc), str(exc)
