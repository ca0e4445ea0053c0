"""Ising-Vannimenus model on the Cayley tree with p-adic Gibbs measures.

A boundary field h assigns four unit components to every edge.  The measures
mu_h^(n) built from exp_p of the Hamiltonian are compatible across levels
exactly when the sums of the weights below each vertex are proportional to
the field components on its edge.  The translation-invariant field solves one
scalar fixed-point equation built from those sums, J0 included; level-periodic
candidate fields are built from periodic g-orbits and checked, level by
level, against the same sums.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product
from math import comb

from .errors import (
    DomainError,
    NoConvergence,
    NoValidPlacement,
    ZeroPartitionFunction,
)
from .maps import MapParams
from .padic import (
    PadicNumber,
    PrimeContext,
    _Immutable,
    _ONE,
    _ZERO,
    _divide,
    _inv_unit,
    _newton_step,
    _same_ctx,
    _sum,
    _times,
    converge,
    diff_valuation,
    eq_to_precision,
    exp_p,
    is_unit,
    norm_fraction,
    to_json,
)

Vertex = tuple[int, ...]
SpinPair = tuple[int, int]

ROOT: Vertex = ()
SPINS = (-1, 1)
PAIRS: tuple[SpinPair, ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))


class CayleyTree(_Immutable):
    """Order-k Cayley tree rooted at (), vertices as coordinate tuples."""

    __slots__ = ("k",)

    def __init__(self, k: int):
        if k < 1:
            raise DomainError("tree order k must be >= 1")
        object.__setattr__(self, "k", k)

    def level(self, m: int) -> list[Vertex]:
        """W_m, the sphere of radius m around the root; |W_m| = k^m."""
        return [tuple(w) for w in product(range(1, self.k + 1), repeat=m)]

    def vertices(self, n: int) -> list[Vertex]:
        """V_n, the ball of radius n (root included)."""
        out: list[Vertex] = []
        for m in range(n + 1):
            out.extend(self.level(m))
        return out

    def successors(self, x: Vertex) -> list[Vertex]:
        """S(x), the k direct successors of x."""
        return [x + (i,) for i in range(1, self.k + 1)]


class Couplings(_Immutable):
    """Interaction constants with |J|_p <= 1/p so exp_p(H_n) always exists."""

    def __init__(self, J: PadicNumber, J1: PadicNumber, J0: PadicNumber):
        for name, c in (("J", J), ("J1", J1), ("J0", J0)):
            if not c.is_zero and c.valuation < 1:
                raise DomainError(f"|{name}|_p must be <= 1/p")
        if J.ctx != J1.ctx or J.ctx != J0.ctx:
            raise DomainError("couplings must share a PrimeContext")
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "J1", J1)
        object.__setattr__(self, "J0", J0)

    @property
    def ctx(self) -> PrimeContext:
        return self.J.ctx

    # exp_p of each coupling runs once per instance, on first access
    @cached_property
    def a(self) -> PadicNumber:
        return exp_p(self.J)

    @cached_property
    def b(self) -> PadicNumber:
        return exp_p(self.J1)

    @cached_property
    def c(self) -> PadicNumber:
        return exp_p(self.J0)

    @cached_property
    def params(self) -> MapParams:
        """The pair (a, b) of the maps, with the fixed points and the repeller
        geometry it keeps: the g-orbits of the periodic fields."""
        return MapParams(self.a, self.b)

    # the units of the weight kernels, once per instance: products and the
    # inverse mod p^N are exact, so reusing them leaves every digit as it was

    @cached_property
    def _edge_units(self) -> dict:
        """a^i b^j mod p^N by (i, j), i in {1, -1}, j in {1, -1, 0}: the
        factor of an edge (y, t) with i = sigma(y) t, j = sigma(parent y) t."""
        ctx = self.ctx
        a, b = self.a.unit, self.b.unit
        a_pow = {1: a, -1: _inv_unit(a, ctx)}
        b_pow = {1: b, -1: _inv_unit(b, ctx), 0: 1}
        return {(i, j): a_pow[i] * b_pow[j] % ctx.modulus for i in a_pow for j in b_pow}

    @cached_property
    def _c_units(self) -> dict:
        """Per tree order k, the units of _c_powers, filled on first use."""
        return {}

    @cached_property
    def _solved_u(self) -> dict:
        """Per tree order k, the u of solve_7_11, filled on its first success."""
        return {}


class GibbsField(_Immutable):
    """Boundary field: four unit components per edge, keyed by the child vertex.

    assign maps each child vertex to its {SpinPair: PadicNumber} components.
    """

    __slots__ = ("assign",)

    def __init__(self, assign: dict):
        for comp in assign.values():
            for pair in PAIRS:
                if pair not in comp:
                    raise DomainError(f"missing field component {pair}")
                if not is_unit(comp[pair]):
                    raise DomainError("field components must be p-adic units")
        object.__setattr__(self, "assign", assign)

    def with_component(self, child: Vertex, pair: SpinPair,
                       value: PadicNumber) -> "GibbsField":
        assign = {v: dict(c) for v, c in self.assign.items()}
        assign[child][pair] = value
        return GibbsField(assign)

    @classmethod
    def from_levels(cls, tree: CayleyTree, n: int,
                    per_level: list[dict]) -> "GibbsField":
        """Level ell (1-based) children all carry per_level[(ell - 1) % len]."""
        if not per_level:
            raise DomainError("empty orbit")
        assign = {}
        for ell in range(1, n + 1):
            comp = per_level[(ell - 1) % len(per_level)]
            for child in tree.level(ell):
                assign[child] = dict(comp)
        return cls(assign)

    @classmethod
    def unit(cls, tree: CayleyTree, n: int, ctx: PrimeContext) -> "GibbsField":
        one = ctx.one()
        return cls.from_levels(tree, n, [{pair: one for pair in PAIRS}])

    def to_json(self) -> dict:
        """Components by vertex path and sign pair; equal values share one
        padic.to_json form, converted once per call."""
        forms = {}
        for comp in self.assign.values():
            for h in comp.values():
                if h not in forms:
                    forms[h] = to_json(h)
        return {
            "/".join(map(str, v)) or "root": {
                f"{'+' if sx > 0 else '-'}{'+' if sy > 0 else '-'}": forms[h]
                for (sx, sy), h in comp.items()
            }
            for v, comp in sorted(self.assign.items())
        }


# -- weights -----------------------------------------------------------------
# The weights are built in one pass over padic's (valuation, unit) pairs, by
# padic's pair rules, as in maps._quotient.  Products and the unique inverse
# mod p^N are exact, so they are grouped freely and every inverse is taken
# once; every sum is taken in the order of the PadicNumber composition the
# formulas describe, so every digit and every error is that composition's.  A
# PadicNumber is built only for what leaves the pass: Z_n, u and the sides
# the checks compare.

def _c_powers(couplings: Couplings, k: int) -> list[int]:
    """The units c^(((2j - k)^2 - k) / 2), j = 0..k: c to the one-level sum
    of k siblings, j of them +; once per Couplings and tree order."""
    memo = couplings._c_units
    if k not in memo:
        ctx = couplings.ctx
        c = couplings.c.unit
        inv_c = _inv_unit(c, ctx)
        exponents = [((2 * j - k) ** 2 - k) // 2 for j in range(k + 1)]
        memo[k] = [pow(c if e >= 0 else inv_c, abs(e), ctx.modulus) for e in exponents]
    return memo[k]


def _sibling_sum(ctx: PrimeContext, c_pow: list[int], factors: list) -> tuple:
    """Sum over the spins t of k siblings of c^(sum_{i<j} t_i t_j) prod_i f_i(t_i).

    factors[i] is (f_i(+1), f_i(-1)) as pairs.  The one-level sum depends
    only on the number j of + siblings, ((2j - k)^2 - k) / 2, so the products
    are accumulated per j (c_pow[j] is the unit of c to that power): O(k^2),
    not 2^k.
    """
    (plus, minus), *rest = factors
    by_count = [minus, plus]
    for plus, minus in rest:
        nxt = [_times(ctx, w, minus) for w in by_count] + [_times(ctx, by_count[-1], plus)]
        for j in range(1, len(by_count)):
            nxt[j] = _sum(ctx, nxt[j], _times(ctx, by_count[j - 1], plus))
        by_count = nxt
    total = _ZERO
    for cj, w in zip(c_pow, by_count):
        total = _sum(ctx, total, _times(ctx, (0, cj), w))
    return total


def _components(field: GibbsField, ctx: PrimeContext, y: Vertex) -> dict:
    """h_y, the field on the edge into y, each component in ctx."""
    try:
        comp = field.assign[y]
    except KeyError:
        raise DomainError(f"the field has no components at vertex {y}") from None
    for h in comp.values():
        if not _same_ctx(h.ctx, ctx):
            raise DomainError("mixed PrimeContext arithmetic")
    return comp


def _boundary_sums(tree: CayleyTree, ctx: PrimeContext, field: GibbsField,
                   n: int) -> dict:
    """Per y on W_n, per state (s', s): h_y^(s' s), which is h_y(s', s) for
    s' = s and its inverse otherwise; one inverse per distinct value."""
    inverse, out = {}, {}
    for y in tree.level(n):
        sums = out[y] = {}
        for (sx, sy), h in _components(field, ctx, y).items():
            pair = (h.valuation, h.unit)
            if sx != sy:
                if pair not in inverse:
                    inverse[pair] = _divide(ctx, _ONE, pair)
                pair = inverse[pair]
            sums[sx, sy] = pair
    return out


_ROOT_STATES: tuple[SpinPair, ...] = ((0, 1), (0, -1))


def _subtree_sums(tree: CayleyTree, couplings: Couplings, field: GibbsField,
                  n: int, level: int) -> dict:
    """Per ell from level to n, per x on W_ell, per state (sigma(parent x),
    sigma(x)): the summed weight of all spins below x in V_n, as a pair.

    Every edge (y, t) below x contributes a^(sigma(y) t), b^(sigma(parent y) t)
    and, on W_n, h_t^(sigma(y) t); every sibling group contributes its
    c-coupling.  The sums are built bottom-up from W_n, one level at a time,
    so Z_n costs O(|V_n| k^2), and every level built is returned.  The root
    has no parent: its states carry parent spin 0, which drops the b-factor
    of its children; a lone root (n = 0) weighs 1 in each state.  A field
    that misses a vertex of W_n, or lies in another context, is a
    DomainError.
    """
    if n == 0:
        return {0: {ROOT: {state: _ONE for state in _ROOT_STATES}}}
    ctx = couplings.ctx
    edge, c_pow = couplings._edge_units, _c_powers(couplings, tree.k)
    levels = {n: _boundary_sums(tree, ctx, field, n)}
    for ell in range(n - 1, level - 1, -1):
        states, below = (PAIRS if ell else _ROOT_STATES), levels[ell + 1]
        sums = levels[ell] = {}
        for x in tree.level(ell):
            children = [below[y] for y in tree.successors(x)]
            sums[x] = {}
            for sp, sx in states:
                # a child with spin t weighs a^(sx t) b^(sp t) times its sum
                plus, minus = (0, edge[sx, sp]), (0, edge[-sx, -sp])
                factors = [(_times(ctx, plus, child[sx, 1]),
                            _times(ctx, minus, child[sx, -1])) for child in children]
                sums[x][sp, sx] = _sibling_sum(ctx, c_pow, factors)
    return levels


def _partition_total(ctx: PrimeContext, levels: dict) -> tuple:
    """Z_n from the root sums of a _subtree_sums pass over V_n."""
    root = levels[0][ROOT]
    total = _sum(ctx, root[_ROOT_STATES[0]], root[_ROOT_STATES[1]])
    if total[0] is None or total[0] > ctx.residual_digits:
        raise ZeroPartitionFunction("|Z_n|_p is below the precision floor")
    return total


def partition_fn(tree: CayleyTree, couplings: Couplings, field: GibbsField,
                 n: int) -> PadicNumber:
    """Z_n, the sum of weights over all configurations of V_n, by tree recursion."""
    ctx = couplings.ctx
    return PadicNumber(ctx, *_partition_total(ctx, _subtree_sums(tree, couplings,
                                                                 field, n, 0)))


class CompatibilityReport(_Immutable):
    """Exhaustive check of the level-(n-1)/level-n projection identity, with
    one residual per sigma on V_{n-1}, in a fixed order."""

    __slots__ = ("ok", "max_residual", "residuals")

    def __init__(self, ok: bool, max_residual: Fraction, residuals: tuple[Fraction, ...]):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "max_residual", max_residual)
        object.__setattr__(self, "residuals", residuals)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "max_residual": str(self.max_residual),
            "residuals": [str(r) for r in self.residuals],
        }


def check_compatibility(tree: CayleyTree, couplings: Couplings,
                        field: GibbsField, n: int) -> CompatibilityReport:
    """For every sigma on V_{n-1}: sum over omega of mu^n(sigma v omega) = mu^{n-1}(sigma).

    Given sigma, the sum over omega on W_n factorizes over the sibling groups
    below W_{n-1}: it is exp_p(H_{n-1}(sigma)) times, per x on W_{n-1}, the
    precomputed sum of the weights below x in the state sigma fixes there.
    exp_p(H_{n-1}(sigma)) is a unit common to both sides, so it is left out:
    the sides compared are prod_x S_x / Z_n and prod_x h_x^(sigma sigma) / Z_{n-1}.
    The pass over V_{n-1} that gives Z_{n-1} starts from those edge factors on
    its bottom level W_{n-1}; at n = 1 that is the lone root, weighing 1.
    """
    if n < 1:
        raise DomainError("compatibility needs n >= 1")
    ctx, R = couplings.ctx, couplings.ctx.residual_digits
    # x / z and x * (1 / z) are the same unit mod p^N: one inverse per side
    levels = _subtree_sums(tree, couplings, field, n, 0)
    inv_n = _divide(ctx, _ONE, _partition_total(ctx, levels))
    prev = _subtree_sums(tree, couplings, field, n - 1, 0)
    inv_prev = _divide(ctx, _ONE, _partition_total(ctx, prev))
    # sigma walks the spin tuples over V_{n-1}; each x on W_{n-1} reads its
    # parent's spin and its own by position (a lone root has no parent)
    vertices = tree.vertices(n - 1)
    position = {v: i for i, v in enumerate(vertices)}
    below = [(position[x[:-1]] if x else None, position[x],
              levels[n - 1][x], prev[n - 1][x]) for x in tree.level(n - 1)]
    residuals, norms = [], {}
    ok = True
    for sigma in product(SPINS, repeat=len(vertices)):
        marginal = boundary = _ONE
        for parent, x, sums, edge in below:
            state = (0 if parent is None else sigma[parent], sigma[x])
            marginal = _times(ctx, marginal, sums[state])
            boundary = _times(ctx, boundary, edge[state])
        lhs = PadicNumber(ctx, *_times(ctx, marginal, inv_n))
        rhs = PadicNumber(ctx, *_times(ctx, boundary, inv_prev))
        # one order per sigma gives its residual and eq_to_precision's verdict
        dv = diff_valuation(lhs, rhs)
        if dv not in norms:
            norms[dv] = norm_fraction(dv, ctx.p)
        residuals.append(norms[dv])
        if dv is not None and (lhs.is_zero or rhs.is_zero
                               or dv < min(lhs.valuation, rhs.valuation) + R):
            ok = False
    return CompatibilityReport(ok, max(residuals), tuple(residuals))


# -- the boundary-field equations --------------------------------------------

def field_equation_residual(tree: CayleyTree, couplings: Couplings,
                            field: GibbsField, n: int) -> Fraction:
    """Worst residual of the recursive equations between levels m - 1 and m, m = 2..n.

    With S_x the sums below x on W_{m-1} and h_x its components, the measures
    of levels m - 1 and m differ at sigma by a constant times the product
    over x of R_x(sigma(parent x), sigma(x)), R_x(s', s) = S_x(s', s) / h_x^(s' s).
    They are compatible exactly when R_x(s', +) = R_x(s', -) for every x and
    s', and the product of R_x(s', s') over the successors x of each y on
    W_{m-2} does not depend on s'.  Every h is a unit, so both identities are
    compared with the h's multiplied across:
    S_x(s', s') = S_x(s', -s') h_x(s', +) h_x(s', -) and
    prod_x S_x(+, +) h_x(-, -) = prod_x S_x(-, -) h_x(+, +).
    """
    ctx = couplings.ctx
    least = None  # the least order of a residual, None while all are 0

    def residual(x: tuple, y: tuple) -> None:
        nonlocal least
        dv = diff_valuation(PadicNumber(ctx, *x), PadicNumber(ctx, *y))
        if dv is not None and (least is None or dv < least):
            least = dv

    for m in range(2, n + 1):
        below = _subtree_sums(tree, couplings, field, m, m - 1)[m - 1]
        for y in tree.level(m - 2):
            plus = minus = _ONE
            for x in tree.successors(y):
                sums = below[x]
                h = {pair: (value.valuation, value.unit)
                     for pair, value in _components(field, ctx, x).items()}
                for s in SPINS:
                    residual(sums[s, s], _times(
                        ctx, _times(ctx, sums[s, -s], h[s, 1]), h[s, -1]))
                plus = _times(ctx, _times(ctx, plus, sums[1, 1]), h[-1, -1])
                minus = _times(ctx, _times(ctx, minus, sums[-1, -1]), h[1, 1])
            residual(plus, minus)
    return norm_fraction(least, ctx.p)


def _solves_equations(couplings: Couplings, residual: Fraction) -> bool:
    """A field equation residual within the library-wide p^-(N-g) tolerance."""
    ctx = couplings.ctx
    return residual <= norm_fraction(ctx.residual_digits, ctx.p)


def _field_polynomials(couplings: Couplings, k: int) -> tuple[list, list]:
    """The coefficient pairs of P and M (see solve_7_11).

    The coefficient of u^j is binomial(k, j) c_pow[j] x^(2j - k), with x = ab
    in P (j siblings +) and x = a/b in M (j siblings -).
    """
    ctx = couplings.ctx
    pN, edge, c_pow = ctx.modulus, couplings._edge_units, _c_powers(couplings, k)

    def coeffs(x: int, inv_x: int) -> list:
        out = []
        for j in range(k + 1):
            binom, e = ctx.from_int(comb(k, j)), 2 * j - k
            xe = pow(x if e >= 0 else inv_x, abs(e), pN)
            out.append(_times(ctx, (binom.valuation, binom.unit), (0, c_pow[j] * xe % pN)))
        return out

    return coeffs(edge[1, 1], edge[-1, -1]), coeffs(edge[1, -1], edge[-1, 1])


def solve_7_11(tree: CayleyTree, couplings: Couplings, n: int = 2) -> GibbsField:
    """Translation-invariant field h_{++} = h_{--} = u, h_{+-} = h_{-+} = 1.

    Let S(s', s) be the sibling sum below a vertex in the state
    (sigma(parent), sigma(vertex)) = (s', s) when its children carry this
    field, as _subtree_sums forms it.  The field is compatible when
    S(s', s) / h^(s' s) does not depend on s, and the spin flip, which maps
    the field to itself, gives S(-, -) = S(+, +) and S(-, +) = S(+, -).  So
    u is the fixed point of F = P / M, with P(u) = S(+, +) and M(u) = S(+, -)
    polynomials of degree k, since all k siblings carry the same field.

    a, b and c lie in E_p = 1 + pZ_p and P = M at b = 1, so every
    coefficient of P - M is divisible by b - 1.  On E_p, M = 2^k (mod p) is
    a unit and |F'|_p <= |b - 1|_p = |b^4 - 1|_p < 1: F maps E_p into
    itself, has one fixed point there, and 1 - F' is a unit.  By Hensel's
    lemma, Newton's method from 1 reaches that same root and at least
    doubles the settled digits per step, where the plain iteration of F
    settles ord(J1) digits per step.  Off E_p no such bound holds: for
    u = -1 (mod p) at J0 = 0, M is divisible by p.

    The step, padic._newton_step, which solves x0 too, is a fixed-point map,
    u -> (F - uF') / (1 - F'), i.e. (PM - uW) / (M^2 - W) with W = P'M - PM'.
    Numerator and denominator are units, so the step never cancels;
    u - G/G' with G = P - uM would subtract a G(u) that is almost zero near
    the root and cancel most digits on the last steps.  The plain step
    u -> S(+, +) / S(+, -), by sibling sums, is kept as an independent check:
    it must keep N - g digits of u, or NoConvergence is raised.

    The Couplings keeps u per tree order once Newton and the check have
    passed, so a later solve at that order runs neither; a solve that raises
    keeps nothing.
    """
    ctx, k = couplings.ctx, tree.k
    solved = couplings._solved_u
    if k not in solved:
        edge, c_pow = couplings._edge_units, _c_powers(couplings, k)
        ab, inv_ab = (0, edge[1, 1]), (0, edge[-1, -1])
        a_b, b_a = (0, edge[1, -1]), (0, edge[-1, 1])

        def step(u: PadicNumber) -> PadicNumber:
            # a child with spin t below the state (s', s) weighs a^(st) b^(s't)
            # times h_{s t}^(st)
            x = (u.valuation, u.unit)
            plus = _sibling_sum(ctx, c_pow, [(_times(ctx, ab, x), inv_ab)] * k)
            minus = _sibling_sum(ctx, c_pow, [(b_a, _times(ctx, a_b, x))] * k)
            return PadicNumber(ctx, *_divide(ctx, plus, minus))

        P, M = _field_polynomials(couplings, k)
        u = converge(lambda u: _newton_step(ctx, P, M, u), ctx.one(),
                     "Newton iteration for u")
        if not eq_to_precision(step(u), u, ctx.residual_digits):
            raise NoConvergence("the field u is not a fixed point to N - g digits")
        solved[k] = u
    u, one = solved[k], ctx.one()
    return GibbsField.from_levels(tree, n, [{(1, 1): u, (-1, 1): one,
                                             (1, -1): one, (-1, -1): u}])


# -- periodic boundary fields from g-orbits ----------------------------------

_SLOT = {"++": (1, 1), "+-": (1, -1), "-+": (-1, 1), "--": (-1, -1)}


class PlacementCandidate(_Immutable):
    """A candidate field, its placement name and its field_equation_residual."""

    __slots__ = ("placement", "field", "residual")

    def __init__(self, placement: str, field: GibbsField, residual: Fraction):
        object.__setattr__(self, "placement", placement)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "residual", residual)


def _orbit_candidate(tree: CayleyTree, couplings: Couplings, placement: str,
                     values: list[PadicNumber], slots: tuple[SpinPair, ...],
                     n: int) -> PlacementCandidate:
    """The field whose level-ell edges carry values[(ell-1) mod m] in slots and
    1 elsewhere, with its field_equation_residual."""
    one = couplings.ctx.one()
    field = GibbsField.from_levels(tree, n, [
        {pair: value if pair in slots else one for pair in PAIRS}
        for value in values])
    return PlacementCandidate(placement, field,
                              field_equation_residual(tree, couplings, field, n))


def periodic_field_from_orbit(tree: CayleyTree, couplings: Couplings,
                              orbit: list[PadicNumber],
                              n: int = 2) -> list[PlacementCandidate]:
    """Level-periodic fields from an m-periodic g-orbit (h_i = g(h_{i+1})).

    Every edge at level ell carries h_{(ell-1) mod m} in one chosen component,
    the rest set to 1.  All four single-component placements are scanned and
    those solving the recursive equations (field_equation_residual) are
    returned; if none does, NoValidPlacement carries the residual of each.
    """
    if any(not is_unit(h) for h in orbit):
        raise DomainError("orbit values must be units")
    candidates = [_orbit_candidate(tree, couplings, name, orbit, (slot,), n)
                  for name, slot in _SLOT.items()]
    accepted = [c for c in candidates if _solves_equations(couplings, c.residual)]
    if not accepted:
        raise NoValidPlacement({c.placement: str(c.residual) for c in candidates})
    return accepted


def diagonal_field_from_orbit(tree: CayleyTree, couplings: Couplings,
                              orbit: list[PadicNumber],
                              n: int = 2) -> PlacementCandidate:
    """Two-component variant that does solve the equations (for k = 2).

    Placing q_i = (h_i / a)^2 in both diagonal slots works because
    F(q) = g(h)/a when q = (h/a)^2, so the diagonal products telescope
    along the orbit relation h_i = g(h_{i+1}).
    """
    if tree.k != 2:
        raise DomainError("the diagonal construction needs tree order k = 2")
    a = couplings.a
    candidate = _orbit_candidate(tree, couplings, "diagonal",
                                 [(h / a) ** 2 for h in orbit],
                                 ((1, 1), (-1, -1)), n)
    if not _solves_equations(couplings, candidate.residual):
        raise NoValidPlacement({"diagonal": str(candidate.residual)})
    return candidate
