"""Cayley-tree combinatorics, measures, compatibility, and boundary fields."""
import random
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import ceil, comb, log2

import pytest

from padicdyn import (
    CayleyTree,
    Couplings,
    DomainError,
    GibbsField,
    MapParams,
    NoConvergence,
    NoValidPlacement,
    PadicError,
    PadicNumber,
    PrecisionExhausted,
    PrimeContext,
    RepellerGeometry,
    ZeroPartitionFunction,
    check_compatibility,
    diagonal_field_from_orbit,
    diff_valuation,
    eq_to_precision,
    exp_p,
    find_x0,
    gibbs,
    in_Ep,
    norm_diff,
    partition_fn,
    periodic_field_from_orbit,
    solve_7_11,
    to_json,
)
from padicdyn import padic
from padicdyn.cli import run
from padicdyn.gibbs import PAIRS, field_equation_residual
from padicdyn.padic import _sum, converge

from conftest import random_Ep, random_padic, random_unit


@pytest.fixture
def ctx5():
    return PrimeContext(5)


@pytest.fixture
def tree():
    return CayleyTree(2)


def couplings(ctx, J, J1, J0=0):
    return Couplings(ctx.from_int(J), ctx.from_int(J1), ctx.from_int(J0))


# -- the PadicNumber composition the weight kernels replaced -------------------

def composed_c_powers(couplings, k):
    """c to the one-level sum ((2j - k)^2 - k) / 2 of k siblings, j of them +."""
    return [couplings.c ** (((2 * j - k) ** 2 - k) // 2) for j in range(k + 1)]


def composed_sibling_sum(c_pow, factors):
    """Sum over the spins t of k siblings of c^(sum_{i<j} t_i t_j) prod_i f_i(t_i),
    accumulated per number j of + siblings; factors[i] is (f_i(+1), f_i(-1))."""
    (plus, minus), *rest = factors
    by_count = [minus, plus]
    for plus, minus in rest:
        nxt = [w * minus for w in by_count] + [by_count[-1] * plus]
        for j in range(1, len(by_count)):
            nxt[j] = nxt[j] + by_count[j - 1] * plus
        by_count = nxt
    total = c_pow[0] * by_count[0]
    for cj, w in zip(c_pow[1:], by_count[1:]):
        total = total + cj * w
    return total


def composed_subtree_sums(tree, couplings, field, n, level):
    """Per ell from level to n, per x on W_ell, per state (sigma(parent x),
    sigma(x)): the summed weight of all spins below x in V_n, bottom-up from
    the edge factors h^(sigma(y) t) on W_n; the root's states carry parent
    spin 0, and a lone root weighs 1 in each state."""
    k, one = tree.k, couplings.ctx.one()
    states_root = ((0, 1), (0, -1))
    if n == 0:
        return {0: {(): {state: one for state in states_root}}}
    a_pow = {1: couplings.a, -1: one / couplings.a}
    b_pow = {1: couplings.b, -1: one / couplings.b, 0: one}
    ab_pow = {(i, j): a_pow[i] * b_pow[j] for i in a_pow for j in b_pow}
    c_pow = composed_c_powers(couplings, k)
    levels = {n: {y: {(sx, sy): h if sx == sy else one / h
                      for (sx, sy), h in field.assign[y].items()}
                  for y in tree.level(n)}}
    for ell in range(n - 1, level - 1, -1):
        states, sums = (PAIRS if ell else states_root), levels[ell + 1]
        levels[ell] = {
            x: {(sp, sx): composed_sibling_sum(c_pow, [
                    tuple(ab_pow[sx * t, sp * t] * sums[y][(sx, t)] for t in (1, -1))
                    for y in tree.successors(x)])
                for sp, sx in states}
            for x in tree.level(ell)
        }
    return levels


def composed_partition_fn(tree, couplings, field, n):
    """Z_n from the root sums, ZeroPartitionFunction below the precision floor."""
    root = composed_subtree_sums(tree, couplings, field, n, 0)[0][()]
    total = root[(0, 1)] + root[(0, -1)]
    if total.is_zero or total.valuation > total.ctx.residual_digits:
        raise ZeroPartitionFunction("|Z_n|_p is below the precision floor")
    return total


def composed_polynomials(couplings, k):
    """P and M of solve_7_11: the coefficient of u^j is binomial(k, j) c_pow[j]
    x^(2j - k), with x = ab in P and x = a/b in M."""
    a, b, one = couplings.a, couplings.b, couplings.ctx.one()
    ab, b_a, a_b = a * b, b / a, a / b
    c_pow = composed_c_powers(couplings, k)

    def coeffs(x, inv_x):
        return [comb(k, j) * c_pow[j] * (x ** (2 * j - k) if 2 * j >= k
                                         else inv_x ** (k - 2 * j))
                for j in range(k + 1)]

    return coeffs(ab, one / ab), coeffs(a_b, b_a)


def composed_horner(coeffs, u):
    """(f(u), f'(u)) for f = sum_i coeffs[i] u^i, in one Horner pass."""
    value, slope = coeffs[-1], u.ctx.zero()
    for coeff in reversed(coeffs[:-1]):
        slope = slope * u + value
        value = value * u + coeff
    return value, slope


def composed_newton(P, M, u):
    """u -> (PM - uW) / (M^2 - W), W = P'M - PM', W as 0 where it cancels."""
    p_u, dp_u = composed_horner(P, u)
    m_u, dm_u = composed_horner(M, u)
    try:
        w = dp_u * m_u - p_u * dm_u
    except PrecisionExhausted:
        w = u.ctx.zero()
    return (p_u * m_u - u * w) / (m_u * m_u - w)


# -- the brute-force oracle: pair lists and configuration weights --------------

def configurations(vertices):
    """All 2^|vertices| spin assignments, in check_compatibility's sigma order."""
    for spins in product((-1, 1), repeat=len(vertices)):
        yield dict(zip(vertices, spins))


def edges(tree, n):
    """L_n: nearest-neighbor pairs (parent, child) inside V_n."""
    return [(y[:-1], y) for y in tree.vertices(n) if y]


def boundary_edges(tree, n):
    """Edges from W_{n-1} into W_n; none at n = 0."""
    return [(y[:-1], y) for y in tree.level(n)] if n else []


def prolonged_pairs(tree, n):
    """Distance-2 pairs along a ray: grandparent and grandchild."""
    return [(y[:-2], y) for y in tree.vertices(n) if len(y) >= 2]


def one_level_pairs(tree, n):
    """Distance-2 pairs within one level: successors of a common vertex."""
    return [pair for x in tree.vertices(n - 1)
            for pair in combinations(tree.successors(x), 2)]


@lru_cache(maxsize=None)
def pair_lists(k, n):
    tree = CayleyTree(k)
    return (tuple(edges(tree, n)), tuple(prolonged_pairs(tree, n)),
            tuple(one_level_pairs(tree, n)))


def interaction_sums(tree, sigma, n):
    """Integer pair sums (nearest, prolonged, one-level) of sigma(x)sigma(y)."""
    return tuple(sum(sigma[x] * sigma[y] for x, y in pairs)
                 for pairs in pair_lists(tree.k, n))


def measure_weight(tree, c, field, sigma, n):
    """exp_p(H_n) as a^(nearest sum) b^(prolonged sum) c^(one-level sum), times
    h_y^(sigma(x) sigma(y)) over the edges (x, y) into W_n."""
    s1, s2, s3 = interaction_sums(tree, sigma, n)
    w = c.a ** s1 * c.b ** s2 * c.c ** s3
    for x, y in boundary_edges(tree, n):
        h = field.assign[y][sigma[x], sigma[y]]
        w = w * h if sigma[x] * sigma[y] > 0 else w / h
    return w


def tree_distance(x, y):
    """Path length between two vertices: up to the common prefix and down."""
    c = 0
    for a, b in zip(x, y):
        if a != b:
            break
        c += 1
    return (len(x) - c) + (len(y) - c)


def brute_force_sums(tree, sigma, n):
    """Independent oracle: classify all vertex pairs by tree distance."""
    vs = tree.vertices(n)
    s1 = s2 = s3 = 0
    for i, x in enumerate(vs):
        for y in vs[i + 1:]:
            d = tree_distance(x, y)
            if d == 1:
                s1 += sigma[x] * sigma[y]
            elif d == 2:
                if len(x) == len(y):
                    s3 += sigma[x] * sigma[y]
                else:
                    s2 += sigma[x] * sigma[y]
    return s1, s2, s3


def oracle_partition_fn(tree, c, field, n):
    """Brute force: Z_n summed over all 2^|V_n| configurations."""
    total = c.ctx.zero()
    for sigma in configurations(tree.vertices(n)):
        total = total + measure_weight(tree, c, field, sigma, n)
    return total


def oracle_compatibility(tree, c, field, n):
    """Brute force: per sigma on V_{n-1}, the marginal summed over every omega
    on W_n; returns (ok, residuals) with check_compatibility's sigma order."""
    ctx = c.ctx
    sigmas = list(configurations(tree.vertices(n - 1)))
    marginals = []
    for sigma in sigmas:
        acc = ctx.zero()
        for omega in configurations(tree.level(n)):
            acc = acc + measure_weight(tree, c, field, {**sigma, **omega}, n)
        marginals.append(acc)
    z_n = ctx.zero()
    for acc in marginals:
        z_n = z_n + acc
    z_prev = oracle_partition_fn(tree, c, field, n - 1)
    residuals = [norm_diff(acc / z_n,
                           measure_weight(tree, c, field, sigma, n - 1) / z_prev)
                 for sigma, acc in zip(sigmas, marginals)]
    floor = Fraction(1, ctx.p ** ctx.residual_digits)
    return all(r <= floor for r in residuals), residuals


def oracle_solve_7_11(tree, c, n=2):
    """The former solver: the J0 = 0 product system in the component products
    u = h_{++}h_{-+}, v = h_{--}h_{+-}, w = h_{++}h_{+-}, with u and v by
    iteration of s -> F(s)^k and w by a Newton iteration; c is ignored."""
    ctx = c.ctx
    a, b = c.a, c.b
    a2, b2 = a * a, b * b
    ab2 = (a * b) ** 2
    k = tree.k

    def F_pow_k(s):
        return ((ab2 * s + 1) / (a2 * s + b2)) ** k

    u = converge(F_pow_k, ctx.one(), "iteration for u")
    v = converge(F_pow_k, ctx.one(), "iteration for v")
    target = ((ab2 * u + 1) * u) ** k

    def newton_w(w):
        base = a2 * u * v + b2 * w
        lhs = w * base ** k
        if eq_to_precision(lhs, target, ctx.residual_digits):
            return w
        dphi = base ** k + w * k * b2 * base ** (k - 1)
        return w - (lhs - target) / dphi

    w = converge(newton_w, ctx.one(), "Newton iteration for w")
    comp = {(1, 1): u, (-1, 1): ctx.one(), (1, -1): w / u, (-1, -1): u * v / w}
    field = GibbsField.from_levels(tree, n, [comp])
    if product_system_residual(tree, c, field, n) > Fraction(
            1, ctx.p ** ctx.residual_digits):
        raise NoConvergence("converged products do not satisfy the field equations")
    return field


def oracle_linear_u(tree, c):
    """The former u of solve_7_11: u -> S(+, +) / S(+, -) by sibling sums,
    iterated from 1; it settles ord(J1) digits per step."""
    ctx, k = c.ctx, tree.k
    a, b, one = c.a, c.b, ctx.one()
    ab, b_a, a_b = a * b, b / a, a / b
    inv_ab, c_pow = one / ab, composed_c_powers(c, k)

    def step(u):
        plus = composed_sibling_sum(c_pow, [(ab * u, inv_ab)] * k)
        minus = composed_sibling_sum(c_pow, [(b_a, a_b * u)] * k)
        return plus / minus

    return converge(step, one, "iteration for u")


def product_system_residual(tree, c, field, n):
    """The former solver's check: the worst residual of the J0 = 0 product
    system at the edges (parent y, y), y on levels 1 to n - 1.  It is not
    sufficient at k = 3, nor for J0 != 0."""
    ctx = c.ctx
    a2, b2, ab2 = c.a * c.a, c.b * c.b, (c.a * c.b) ** 2
    worst = Fraction(0)
    for ell in range(1, n):
        for y in tree.level(ell):
            hxy = field.assign[y]
            lhs = (hxy[(1, 1)] * hxy[(-1, 1)],
                   hxy[(-1, -1)] * hxy[(1, -1)],
                   hxy[(1, 1)] * hxy[(1, -1)])
            rhs = [ctx.one(), ctx.one(), ctx.one()]
            for z in tree.successors(y):
                hyz = field.assign[z]
                u = hyz[(1, 1)] * hyz[(-1, 1)]
                v = hyz[(-1, -1)] * hyz[(1, -1)]
                rhs[0] = rhs[0] * (ab2 * u + 1) / (a2 * u + b2)
                rhs[1] = rhs[1] * (ab2 * v + 1) / (a2 * v + b2)
                rhs[2] = rhs[2] * ((ab2 * u + 1) * hyz[(-1, 1)]) / (
                    (a2 * hyz[(-1, -1)] * hyz[(-1, 1)] + b2) * hyz[(1, -1)])
            for left, right in zip(lhs, rhs):
                worst = max(worst, norm_diff(left, right))
    return worst


def random_field(tree, n, ctx, rng):
    """Independent random unit components on every edge of V_n."""
    return GibbsField({y: {pair: random_unit(ctx, rng) for pair in PAIRS}
                       for y in tree.vertices(n) if y})


def k1_field(h11, h1m, hm1, hmm):
    """The one-edge field of the order-1 tree at n = 1."""
    return GibbsField({(1,): {(1, 1): h11, (1, -1): h1m, (-1, 1): hm1, (-1, -1): hmm}})


def scaled(field, *changes):
    """field with h_y(pair) multiplied by factor, per (y, pair, factor)."""
    for y, pair, factor in changes:
        field = field.with_component(y, pair, field.assign[y][pair] * factor)
    return field


def per_vertex_residual(tree, c, field, n):
    """Worst residual of the per-vertex identity between levels n - 1 and n:
    the terms of field_equation_residual at m = n, and at n = 1, where the
    root's two states enter, S_root(0, +) = S_root(0, -)."""
    below = composed_subtree_sums(tree, c, field, n, n - 1)[n - 1]
    if n == 1:
        root = below[()]
        return norm_diff(root[(0, 1)], root[(0, -1)])
    one, worst = c.ctx.one(), Fraction(0)
    for y in tree.level(n - 2):
        plus = minus = one
        for x in tree.successors(y):
            sums, h = below[x], field.assign[x]
            for s in (1, -1):
                worst = max(worst, norm_diff(
                    sums[(s, s)], sums[(s, -s)] * h[(s, 1)] * h[(s, -1)]))
            plus = plus * sums[(1, 1)] * h[(-1, -1)]
            minus = minus * sums[(-1, -1)] * h[(1, 1)]
        worst = max(worst, norm_diff(plus, minus))
    return worst


class TestTree:
    def test_level_sizes(self):
        for k in (1, 2, 3):
            tree = CayleyTree(k)
            for m in (0, 1, 2, 3):
                assert len(tree.level(m)) == k ** m
            assert len(tree.successors((1,))) == k

    def test_vertex_counts(self, tree):
        assert len(tree.vertices(2)) == 7
        assert len(edges(tree, 2)) == 6
        assert len(boundary_edges(tree, 2)) == 4

    def test_pair_classes(self, tree):
        assert len(one_level_pairs(tree, 1)) == 1
        assert len(prolonged_pairs(tree, 1)) == 0
        assert len(prolonged_pairs(tree, 2)) == 4
        assert len(one_level_pairs(tree, 2)) == 3

    def test_order_validation(self):
        with pytest.raises(DomainError):
            CayleyTree(0)


class TestCouplings:
    def test_norm_bound_enforced(self, ctx5):
        with pytest.raises(DomainError):
            Couplings(ctx5.one(), ctx5.zero(), ctx5.zero())
        c = couplings(ctx5, 5, 25)
        assert in_Ep(c.a) and in_Ep(c.b)
        assert diff_valuation(c.a, exp_p(ctx5.from_int(5))) is None
        assert c.c.norm() == 1

    def test_one_context(self, ctx5):
        other = PrimeContext(5, 32)
        with pytest.raises(DomainError, match="share a PrimeContext"):
            Couplings(ctx5.from_int(5), other.from_int(5), ctx5.from_int(5))

    def test_zero_couplings_give_unit_abc(self, ctx5):
        c = couplings(ctx5, 0, 0, 0)
        for value in (c.a, c.b, c.c):
            assert diff_valuation(value, ctx5.one()) is None


class TestHamiltonian:
    def test_matches_brute_force(self, ctx5, tree, rng):
        c = couplings(ctx5, 5, 25, 125)
        for n in (1, 2):
            for _ in range(20):
                sigma = {v: rng.choice((-1, 1)) for v in tree.vertices(n)}
                assert interaction_sums(tree, sigma, n) == brute_force_sums(
                    tree, sigma, n)


class TestMeasures:
    def test_uniform_case(self, ctx5, tree):
        c = couplings(ctx5, 0, 0, 0)
        field = GibbsField.unit(tree, 1, ctx5)
        sigma = {v: 1 for v in tree.vertices(1)}
        mu = measure_weight(tree, c, field, sigma, 1) / partition_fn(tree, c, field, 1)
        assert diff_valuation(mu, ctx5.from_rational(1, 8)) is None

    def test_normalization(self, ctx5, tree, rng):
        comp = {pair: ctx5.from_int(1 + 5 * rng.randrange(1, 100))
                for pair in PAIRS}
        field = GibbsField.from_levels(tree, 2, [comp])
        c = couplings(ctx5, 5, 25, 0)
        z = partition_fn(tree, c, field, 2)
        total = ctx5.zero()
        for sigma in configurations(tree.vertices(2)):
            total = total + measure_weight(tree, c, field, sigma, 2) / z
        assert eq_to_precision(total, ctx5.one(), ctx5.residual_digits)

    def test_all_plus_weight_expansion(self, ctx5, tree):
        c = couplings(ctx5, 5, 0, 25)
        comp = {pair: ctx5.from_int(1 + 5 * (i + 1)) for i, pair in enumerate(PAIRS)}
        field = GibbsField.from_levels(tree, 1, [comp])
        sigma = {v: 1 for v in tree.vertices(1)}
        want = exp_p(c.J * 2 + c.J0) * comp[(1, 1)] * comp[(1, 1)]
        got = measure_weight(tree, c, field, sigma, 1)
        assert eq_to_precision(got, want, ctx5.residual_digits)

    def test_partition_fn_at_the_precision_floor(self, ctx5):
        # Z_1 = a p^e on the order-1 tree: order N - g is kept, one digit
        # more cancels past the guard
        c, R, one = couplings(ctx5, 5, 5), ctx5.residual_digits, ctx5.one()
        tree = CayleyTree(1)
        near_zero = [k1_field(-one + ctx5.from_int(5) ** e, -one, one, one)
                     for e in (R, R + 1)]
        z = partition_fn(tree, c, near_zero[0], 1)
        assert z.valuation == R
        # the N - R digits the cancellation leaves
        assert eq_to_precision(z, c.a * ctx5.from_int(5) ** R, ctx5.precision - R)
        with pytest.raises(PrecisionExhausted):
            partition_fn(tree, c, near_zero[1], 1)
        with pytest.raises(ZeroPartitionFunction):
            partition_fn(tree, c, k1_field(-one, -one, one, one), 1)

    def test_field_validation(self, ctx5, tree):
        bad = {pair: ctx5.one() for pair in PAIRS}
        bad[(1, 1)] = ctx5.from_int(5)  # not a unit
        with pytest.raises(DomainError):
            GibbsField.from_levels(tree, 1, [bad])


class TestCompatibility:
    def test_one_pass_over_V_n_and_one_over_V_n_minus_1(self, ctx5, tree,
                                                          monkeypatch):
        # Z_n and the sums on W_{n-1} come from the same pass
        subtree_sums, passes = gibbs._subtree_sums, []

        def counted(tree, couplings, field, n, level):
            passes.append((n, level))
            return subtree_sums(tree, couplings, field, n, level)

        monkeypatch.setattr(gibbs, "_subtree_sums", counted)
        c = couplings(ctx5, 5, 5)
        assert check_compatibility(tree, c, solve_7_11(tree, c, 2), 2).ok
        assert passes == [(2, 0), (1, 0)]

    def test_unit_field_zero_couplings(self, ctx5, tree):
        c = couplings(ctx5, 0, 0, 0)
        field = GibbsField.unit(tree, 2, ctx5)
        report = check_compatibility(tree, c, field, 2)
        assert report.ok
        assert report.max_residual == 0

    def test_solved_field_is_compatible(self, ctx5, tree):
        c = couplings(ctx5, 5, 5, 0)
        field = solve_7_11(tree, c, 2)
        report = check_compatibility(tree, c, field, 2)
        assert report.ok
        assert report.max_residual <= Fraction(1, 5 ** 56)

    def test_verdict_at_the_precision_floor(self, ctx5, tree):
        # a leaf scaled by 1 + p^e leaves residual p^-e: compatible exactly
        # when e >= N - g, as eq_to_precision decides on unit sides
        c, R = couplings(ctx5, 5, 5, 0), ctx5.residual_digits
        field = solve_7_11(tree, c, 2)
        for e in (R - 1, R, R + 1):
            pert = scaled(field, ((1, 1), (1, 1), ctx5.from_int(1 + 5 ** e)))
            report = check_compatibility(tree, c, pert, 2)
            assert report.max_residual == Fraction(1, 5 ** e)
            assert report.ok is (e >= R)

    def test_perturbation_breaks_compatibility(self, ctx5, tree):
        c = couplings(ctx5, 5, 5, 0)
        field = solve_7_11(tree, c, 2)
        pert = field.with_component(
            (1, 1), (1, 1), field.assign[(1, 1)][1, 1] * ctx5.from_int(6))
        report = check_compatibility(tree, c, pert, 2)
        assert not report.ok
        # frozen regression: the (1+p) perturbation shows up at norm 1/5
        assert report.max_residual == Fraction(1, 5)


class TestFieldCoverage:
    """A field that misses a vertex the check reads is a DomainError naming
    the first such vertex, not a KeyError."""

    @staticmethod
    def short_field(ctx):
        # the order-2 tree's W_1 only
        return GibbsField.unit(CayleyTree(2), 1, ctx)

    @pytest.mark.parametrize("k, n, missing", [(2, 2, "(1, 1)"), (3, 1, "(3,)")])
    def test_check_compatibility(self, ctx5, k, n, missing):
        c = couplings(ctx5, 5, 5)
        with pytest.raises(DomainError, match=f"no components at vertex {re.escape(missing)}"):
            check_compatibility(CayleyTree(k), c, self.short_field(ctx5), n)

    @pytest.mark.parametrize("k, n, missing", [(2, 2, "(1, 1)"), (3, 1, "(3,)")])
    def test_partition_fn(self, ctx5, k, n, missing):
        c = couplings(ctx5, 5, 5)
        with pytest.raises(DomainError, match=f"no components at vertex {re.escape(missing)}"):
            partition_fn(CayleyTree(k), c, self.short_field(ctx5), n)

    def test_field_equation_residual(self, ctx5):
        c, tree, one = couplings(ctx5, 5, 5), CayleyTree(2), ctx5.one()
        with pytest.raises(DomainError, match=r"no components at vertex \(1, 1\)"):
            field_equation_residual(CayleyTree(3), c, self.short_field(ctx5), 2)
        # W_2 covered, W_1 read by the product identity: (2,) is missing
        comp = {pair: one for pair in PAIRS}
        field = GibbsField({y: comp for y in [(1,), *tree.level(2)]})
        with pytest.raises(DomainError, match=r"no components at vertex \(2,\)"):
            field_equation_residual(tree, c, field, 2)


class TestRecursionAgainstOracle:
    """The tree recursion against brute-force enumeration of every configuration."""

    CASES = [(k, n, J) for k in (1, 2, 3) for n in (1, 2)
             for J in ((5, 5, 0), (5, 25, 125), (10, 15, 5))
             if (k, n) != (3, 2) or J == (5, 25, 125)]

    @staticmethod
    def floor(ctx):
        return Fraction(1, ctx.p ** ctx.residual_digits)

    @pytest.mark.parametrize("k, n, J", CASES)
    def test_partition_fn(self, ctx5, rng, k, n, J):
        tree, c = CayleyTree(k), couplings(ctx5, *J)
        for m in range(n + 1):
            field = random_field(tree, m, ctx5, rng)
            assert norm_diff(partition_fn(tree, c, field, m),
                             oracle_partition_fn(tree, c, field, m)) <= self.floor(ctx5)

    @pytest.mark.parametrize("k, n, J", CASES)
    def test_compatibility(self, ctx5, rng, k, n, J):
        tree, c = CayleyTree(k), couplings(ctx5, *J)
        field = random_field(tree, n, ctx5, rng)
        report = check_compatibility(tree, c, field, n)
        ok, residuals = oracle_compatibility(tree, c, field, n)
        assert report.ok is ok
        assert len(report.residuals) == len(residuals) == 2 ** len(
            tree.vertices(n - 1))
        for got, want in zip(report.residuals, residuals):
            if want > self.floor(ctx5):
                assert got == want
            else:
                assert got <= self.floor(ctx5)
        assert report.max_residual == max(report.residuals)
        if n >= 2:
            # the per-vertex identity reaches the enumeration's verdict
            residual = field_equation_residual(tree, c, field, n)
            assert (residual <= self.floor(ctx5)) is ok

    EQUATION_CASES = [(k, n, J) for k, n in ((1, 3), (2, 2), (3, 2))
                      for J in ((5, 5, 0), (5, 25, 125), (10, 15, 5))
                      if k != 3 or J == (5, 25, 125)]

    @pytest.mark.parametrize("k, n, J", EQUATION_CASES)
    def test_equation_residual(self, ctx5, k, n, J):
        # residual <= p^-(N-g) exactly when the enumeration finds the
        # measures of every level m = 2..n compatible with level m - 1
        tree, c = CayleyTree(k), couplings(ctx5, *J)
        solved = solve_7_11(tree, c, n)
        six = ctx5.from_int(6)
        sixth = ctx5.one() / six
        x1, x2 = (1,), (min(2, k),)

        # scaling h_x(s', s') by l and h_x(s', -s') by 1/l scales
        # R_x(s', .) by 1/l: the per-vertex identity still holds, and the
        # product over the successors of x's parent holds when the l's of
        # s' = + and s' = - multiply to the same value
        fields = [
            solved,
            scaled(solved, ((1,) * n, (1, 1), six)),        # a leaf
            scaled(solved, (x1, (-1, 1), six)),             # R_x(-, +) only
            scaled(solved, (x1, (1, 1), six), (x1, (1, -1), sixth)),  # products only
            scaled(solved, (x1, (1, 1), six), (x1, (1, -1), sixth),
                   (x2, (-1, -1), six), (x2, (-1, 1), sixth)),
        ]
        verdicts = []
        for field in fields:
            ok = all(oracle_compatibility(tree, c, field, m)[0]
                     for m in range(2, n + 1))
            residual = field_equation_residual(tree, c, field, n)
            assert (residual <= self.floor(ctx5)) is ok
            verdicts.append(ok)
        assert verdicts == [True, False, False, False, True]

    # every (k, n) with |W_n| <= 4 on all three couplings; past that the
    # enumeration takes seconds per field (2^13 configurations at k = 3,
    # n = 2, 2^15 at k = 2, n = 3), so one coupling, J0 != 0, and fewer fields
    PER_VERTEX_CASES = (
        [(k, n, J, ("solved", "leaf", "parent", "balanced", "random"))
         for k, n in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1))
         for J in ((5, 5, 0), (5, 25, 125), (10, 15, 5))]
        + [(3, 2, (5, 25, 125), ("balanced", "random")),
           (2, 3, (5, 25, 125), ("parent",))])

    @pytest.mark.parametrize("k, n, J, kinds", PER_VERTEX_CASES)
    def test_per_vertex_identity_at_level_n(self, ctx5, rng, k, n, J, kinds):
        # the identity at level n alone reaches the enumeration's verdict on
        # the compatibility of levels n - 1 and n; on solved fields and on
        # fields perturbed at W_n or W_{n-1} it also reaches its worst value
        tree, c = CayleyTree(k), couplings(ctx5, *J)
        solved = solve_7_11(tree, c, n)
        six = ctx5.from_int(6)
        sixth = ctx5.one() / six
        fields = {"solved": solved,
                  "leaf": scaled(solved, ((1,) * n, (1, 1), six)),
                  "random": random_field(tree, n, ctx5, rng)}
        if n >= 2:  # at n = 1, W_{n-1} is the root, which carries no field
            x1, x2 = (1,) * (n - 1), (1,) * (n - 2) + (min(2, k),)
            fields["parent"] = scaled(solved, (x1, (-1, 1), six))
            # both sides of the product identity scale by 6
            fields["balanced"] = scaled(solved, (x1, (1, 1), six), (x1, (1, -1), sixth),
                                        (x2, (-1, -1), six), (x2, (-1, 1), sixth))
        for kind in kinds:
            if kind not in fields:
                continue
            field = fields[kind]
            ok, residuals = oracle_compatibility(tree, c, field, n)
            assert ok is (kind in ("solved", "balanced")), kind
            worst = per_vertex_residual(tree, c, field, n)
            assert (worst <= self.floor(ctx5)) is ok, kind
            if kind != "random":
                assert worst == max(residuals), kind

    @pytest.mark.parametrize("J, J1", [(615, 305), (365, 305), (120, 185)])
    def test_former_k3_fields_rejected(self, ctx5, J, J1):
        # the former solver's k = 3 fields pass its product system but are
        # incompatible at n = 2; the residual reports the enumeration's 1/25
        tree, c = CayleyTree(3), couplings(ctx5, J, J1)
        field = oracle_solve_7_11(tree, c, 2)
        assert product_system_residual(tree, c, field, 2) == 0
        ok, residuals = oracle_compatibility(tree, c, field, 2)
        assert not ok
        assert field_equation_residual(tree, c, field, 2) == max(
            residuals) == Fraction(1, 25)

    def test_compatible_fields_agree(self, ctx5, tree):
        # solved fields give the verdict ok = True on both sides
        c = couplings(ctx5, 5, 5, 0)
        for n in (1, 2):
            field = solve_7_11(tree, c, n)
            report = check_compatibility(tree, c, field, n)
            ok, residuals = oracle_compatibility(tree, c, field, n)
            assert report.ok and ok
            assert max(residuals) <= self.floor(ctx5)

    def test_depth_3(self, ctx5, tree):
        # 2^15 configurations of V_3: out of reach of the enumeration
        c = couplings(ctx5, 5, 5, 0)
        field = solve_7_11(tree, c, 3)
        report = check_compatibility(tree, c, field, 3)
        assert report.ok
        assert len(report.residuals) == 2 ** 7
        assert report.max_residual <= self.floor(ctx5)
        pert = field.with_component(
            (1, 1, 1), (1, 1), field.assign[(1, 1, 1)][1, 1] * ctx5.from_int(6))
        assert not check_compatibility(tree, c, pert, 3).ok


class TestSolve:
    def test_zero_couplings_unit_solution(self, ctx5, tree):
        field = solve_7_11(tree, couplings(ctx5, 0, 0, 0), 2)
        for child in tree.vertices(2):
            if child:
                for pair in PAIRS:
                    assert diff_valuation(field.assign[child][pair],
                                          ctx5.one()) is None

    def test_components_near_one(self, ctx5, tree):
        field = solve_7_11(tree, couplings(ctx5, 5, 5, 0), 2)
        for pair in PAIRS:
            assert in_Ep(field.assign[(1,)][pair])

    def test_u_component_equals_squared_fixed_point(self, ctx5, tree):
        # the diagonal product solves u = F(u)^2 whose E_p root is (x0/a)^2;
        # both are exact roots mod p^N, so every digit agrees, at every
        # (p, N, g) of the grid and on seeded couplings
        cases = [couplings(ctx5, 5, 5, 0)]
        for p in (3, 5, 7, 13, 17, 29):
            rng = random.Random(p)
            for N, g in product((12, 20, 64, 128), (1, 2, 5, 8)):
                ctx = PrimeContext(p, N, g)
                cases += [draw_couplings(ctx, rng, ord_J1, False) for ord_J1 in (1, 2)]
        for c in cases:
            field = solve_7_11(tree, c, 2)
            u = field.assign[(1,)][1, 1] * field.assign[(1,)][-1, 1]
            x0 = find_x0(MapParams(c.a, c.b))
            assert u == (x0 / c.a) ** 2, (c.ctx.p, c.ctx.precision, c.ctx.guard)

    def test_k1_and_k3_orders(self, ctx5):
        # the compatibility equivalence is not k = 2 specific
        c = couplings(ctx5, 5, 5, 0)
        t1 = CayleyTree(1)
        f1 = solve_7_11(t1, c, 2)
        assert check_compatibility(t1, c, f1, 2).ok
        t3 = CayleyTree(3)
        f3 = solve_7_11(t3, c, 2)
        assert check_compatibility(t3, c, f3, 1).ok  # n = 1 keeps it fast

    @pytest.mark.parametrize("J, J1", [(615, 305), (365, 305), (120, 185),
                                       (330, 470), (505, 120)])
    def test_k3_field_agrees_with_higher_precision(self, J, J1):
        # the N = 64 field must match the N = 128 one on its N - g trusted
        # digits; the first three pairs once lost two digits to a w-Newton
        # slope of valuation 2, and on the last two it stalled or gave an
        # incompatible field
        t3 = CayleyTree(3)
        lo, hi = PrimeContext(5), PrimeContext(5, 128)
        c_lo = couplings(lo, J, J1)
        f_lo = solve_7_11(t3, c_lo, 2)
        f_hi = solve_7_11(t3, couplings(hi, J, J1), 1)
        assert check_compatibility(t3, c_lo, f_lo, 2).ok
        for pair in PAIRS:
            x, y = f_lo.assign[(1,)][pair], f_hi.assign[(1,)][pair]
            assert x.valuation == y.valuation
            assert x.digits(lo.residual_digits) == y.digits(lo.residual_digits)


class TestSolvedU:
    """A Couplings keeps the u of each tree order it has solved."""

    @pytest.fixture
    def newton_steps(self, monkeypatch):
        """The number of Newton steps run so far."""
        steps, newton_step = [], gibbs._newton_step

        def counted(*args):
            steps.append(None)
            return newton_step(*args)

        monkeypatch.setattr(gibbs, "_newton_step", counted)
        return steps

    @pytest.mark.parametrize("J0", [0, 25])
    def test_one_u_per_order_equal_to_a_fresh_solve(self, ctx5, J0, newton_steps):
        c = couplings(ctx5, 5, 15, J0)
        kept = {k: solve_7_11(CayleyTree(k), c, 1).assign[(1,)][1, 1] for k in (2, 3)}
        assert c._solved_u == kept
        for k, u in kept.items():
            fresh = solve_7_11(CayleyTree(k), couplings(ctx5, 5, 15, J0), 1)
            assert fresh.assign[(1,)][1, 1] == u
            assert u.digits() == fresh.assign[(1,)][1, 1].digits()
        # a later solve at a kept order, at any depth, runs no Newton step
        steps = len(newton_steps)
        assert steps > 0
        for k in (2, 3):
            field = solve_7_11(CayleyTree(k), c, 2)
            assert {comp[1, 1] for comp in field.assign.values()} == {kept[k]}
        assert len(newton_steps) == steps

    def test_a_solve_that_raises_keeps_nothing(self, ctx5, tree, monkeypatch):
        # padic._newton_step, which solve_7_11 runs, reads padic._horner
        horner, calls = padic._horner, []

        def drifting(ctx, coeffs, u):
            # P(u) + 5 * (the number of calls so far), on pairs
            value, slope = horner(ctx, coeffs, u)
            calls.append(None)
            drift = ctx5.from_int(5 * len(calls))
            return _sum(ctx, value, (drift.valuation, drift.unit)), slope

        c = couplings(ctx5, 5, 5)
        monkeypatch.setattr(padic, "_horner", drifting)
        for _ in range(2):
            drifted = len(calls)
            with pytest.raises(NoConvergence, match="^Newton iteration for u did not"):
                solve_7_11(tree, c, 2)
            assert c._solved_u == {} and len(calls) > drifted
        monkeypatch.undo()
        u = solve_7_11(tree, c, 2).assign[(1,)][1, 1]
        assert c._solved_u == {2: u}
        assert u == solve_7_11(tree, couplings(ctx5, 5, 5), 1).assign[(1,)][1, 1]


class TestFieldJson:
    def test_each_distinct_value_converted_once(self, ctx5, tree, monkeypatch):
        field = solve_7_11(tree, couplings(ctx5, 5, 5), 2)
        want = {
            "/".join(map(str, v)): {
                f"{'+' if sx > 0 else '-'}{'+' if sy > 0 else '-'}": to_json(h)
                for (sx, sy), h in comp.items()}
            for v, comp in sorted(field.assign.items())}
        converted = []

        def counted(h):
            converted.append(h)
            return to_json(h)

        monkeypatch.setattr(gibbs, "to_json", counted)
        assert field.to_json() == want
        # u and 1 over 6 edges and 4 components each
        assert len(converted) == 2


def seeded_couplings(ctx, rng, count, J0=False):
    """(J, J1, J0) = 5t with 5 not dividing t < 125; J0 = 0 unless asked."""
    def five_t():
        return 5 * rng.choice([t for t in range(1, 125) if t % 5])
    return [couplings(ctx, five_t(), five_t(), five_t() if J0 else 0)
            for _ in range(count)]


def same_field(f, g, digits):
    return f.assign.keys() == g.assign.keys() and all(
        eq_to_precision(f.assign[v][pair], g.assign[v][pair], digits)
        for v in f.assign for pair in PAIRS)


class TestSolveAgainstOracle:
    """The sibling-sum fixed point against the former solver and brute force."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_agrees_with_former_solver(self, ctx5, rng, k):
        tree, compared = CayleyTree(k), 0
        for c in seeded_couplings(ctx5, rng, 10):
            for n in (1, 2):
                try:
                    want = oracle_solve_7_11(tree, c, n)
                except NoConvergence:
                    continue
                if not check_compatibility(tree, c, want, n).ok:
                    continue
                assert same_field(solve_7_11(tree, c, n), want,
                                  ctx5.residual_digits)
                compared += 1
        assert compared >= 14

    def test_k2_equals_diagonal_field(self, ctx5, rng):
        for c in seeded_couplings(ctx5, rng, 10):
            x0 = find_x0(MapParams(c.a, c.b))
            diagonal = diagonal_field_from_orbit(CayleyTree(2), c, [x0], 2)
            assert same_field(solve_7_11(CayleyTree(2), c, 2), diagonal.field,
                              ctx5.residual_digits)

    @pytest.mark.parametrize("k, count", [(1, 2), (2, 4), (3, 2)])
    def test_J0_fields_pass_brute_force(self, ctx5, rng, k, count):
        # n = 2: at n = 1 the spin flip balances any symmetric field
        tree = CayleyTree(k)
        cases = [couplings(ctx5, 5, 5, 25)] + seeded_couplings(
            ctx5, rng, count - 1, J0=True)
        for c in cases:
            field = solve_7_11(tree, c, 2)
            ok, _ = oracle_compatibility(tree, c, field, 2)
            assert ok


def newton_sweep(p):
    """(N, ord(J1), J0 != 0, k) at prime p: every combination at k <= 5.  At
    k = 12, whose linear oracle costs most, the eight (p, N) cycle through
    the four (ord(J1), J0 != 0), so each of those meets each N once."""
    i = (3, 5, 7, 13).index(p)
    pairs = list(product((1, 2), (False, True)))
    return (list(product((64, 128), (1, 2), (False, True), (1, 2, 3, 5)))
            + [(N, *pairs[(i + j) % 4], 12) for j, N in enumerate((64, 128))])


def draw_couplings(ctx, rng, ord_J1, J0):
    """J = p t, J1 = p^ord_J1 t', J0 = p t'' or 0, p not dividing t, t', t'' < p^3."""
    p = ctx.p

    def unit():
        return rng.choice([t for t in range(1, p ** 3) if t % p])
    return couplings(ctx, p * unit(), p ** ord_J1 * unit(), p * unit() if J0 else 0)


class TestNewtonForU:
    """The Newton solve of u against the linear iteration it replaced."""

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_every_digit_matches_linear_iteration(self, rng, p):
        contexts = {N: PrimeContext(p, N) for N in (64, 128)}
        for N, ord_J1, J0, k in newton_sweep(p):
            c = draw_couplings(contexts[N], rng, ord_J1, J0)
            tree = CayleyTree(k)
            u = solve_7_11(tree, c, 1).assign[(1,)][1, 1]
            assert u == oracle_linear_u(tree, c), (N, ord_J1, J0, k)

    @pytest.mark.parametrize("ord_J1", [55, 57, 60, 64])
    def test_J1_near_and_below_the_precision_floor(self, ctx5, ord_J1):
        # past ord(J1) = N - g the slope W = M^2 F' cancels every trusted digit
        for k in (1, 2, 3):
            for J0 in (0, 5):
                c, tree = couplings(ctx5, 5, 5 ** ord_J1, J0), CayleyTree(k)
                u = solve_7_11(tree, c, 1).assign[(1,)][1, 1]
                assert u == oracle_linear_u(tree, c)

    @pytest.mark.parametrize("N", [64, 128])
    def test_settles_in_log2_N_steps(self, monkeypatch, rng, N):
        # the linear iteration took N - 1 steps at ord(J1) = 1
        runs = []

        def counted(step, start, what):
            def counting(u):
                runs[-1][1] += 1
                return step(u)
            runs.append([what, 0])
            return converge(counting, start, what)

        monkeypatch.setattr(gibbs, "converge", counted)
        for p in (5, 13):
            ctx = PrimeContext(p, N)
            for k in (1, 2, 3):
                for J0 in (False, True):
                    solve_7_11(CayleyTree(k), draw_couplings(ctx, rng, 1, J0), 1)
        assert len(runs) == 12
        assert {what for what, _ in runs} == {"Newton iteration for u"}
        assert max(steps for _, steps in runs) <= ceil(log2(N)) + 2

    def test_newton_that_never_settles_raises(self, ctx5, tree, monkeypatch, capsys):
        # padic._newton_step, which solve_7_11 runs, reads padic._horner
        horner, calls = padic._horner, []

        def drifting(ctx, coeffs, u):
            # P(u) + 5 * (the number of calls so far), on pairs
            value, slope = horner(ctx, coeffs, u)
            calls.append(None)
            drift = ctx5.from_int(5 * len(calls))
            return _sum(ctx, value, (drift.valuation, drift.unit)), slope

        monkeypatch.setattr(padic, "_horner", drifting)
        with pytest.raises(NoConvergence, match="^Newton iteration for u did not"):
            solve_7_11(tree, couplings(ctx5, 5, 5), 2)
        drifted = len(calls)
        assert drifted > 0
        assert run(["gibbs", "--p", "5", "solve", "--J", "5/1", "--J1", "5/1"]) == 2
        assert len(calls) > drifted
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "precision error: Newton iteration for u did not converge")

    @pytest.mark.parametrize("J0", [False, True])
    def test_gibbs_workload_k3_couplings_are_solved(self, ctx5, rng, J0):
        # the couplings of the benchmark's gibbs workload, J, J1 = 5t with 5
        # not dividing t < 125, at the order k = 3 where it leaves gibbs
        # solve out
        tree = CayleyTree(3)
        for c in seeded_couplings(ctx5, rng, 50, J0=J0):
            for n in (1, 2):
                field = solve_7_11(tree, c, n)
                assert check_compatibility(tree, c, field, n).ok


def as_pairs(value):
    """PadicNumbers, alone or inside dicts, lists and tuples, as (valuation,
    unit) pairs; the kernels' pairs come back unchanged."""
    if isinstance(value, PadicNumber):
        return value.valuation, value.unit
    if isinstance(value, dict):
        return {key: as_pairs(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(as_pairs(v) for v in value)
    return value


def kernel_outcome(fn, *args):
    """What fn returns, as pairs, or the class of the PadicError it raises."""
    try:
        return as_pairs(fn(*args))
    except PadicError as exc:
        return type(exc)


def outcome_kind(result):
    """The error class, or "zero" / "value" by the root sum or value."""
    if isinstance(result, type):
        return result
    if isinstance(result, dict):  # levels of subtree sums
        result = result[0][()][0, 1]
    return "zero" if result[0] is None else "value"


class TestGibbsKernelsAgainstComposition:
    """The integer weight kernels against the PadicNumber composition they
    replaced: the same representation, digit for digit, or the same error
    class."""

    CONTEXTS = [(p, N) for p in (3, 5, 7) for N in (64, 128)]

    @staticmethod
    def fields(tree, c, n, rng):
        ctx = c.ctx
        solved = solve_7_11(tree, c, n)
        out = [solved, GibbsField.unit(tree, n, ctx), random_field(tree, n, ctx, rng)]
        if n:
            leaf = (1,) * n
            out.append(solved.with_component(
                leaf, (1, 1), solved.assign[leaf][1, 1] * ctx.from_int(1 + ctx.p)))
        return out

    @staticmethod
    def special_fields(c):
        """k = 1, n = 1 fields whose Z_1 is exactly 0, whose root sum in the
        state (0, +) cancels N - 2 digits, and one in another context."""
        ctx, a = c.ctx, c.a
        one, p, N = ctx.one(), ctx.p, ctx.precision
        return [k1_field(-one, -one, one, one),
                k1_field(-(one / (a * a)) + ctx.from_int(p) ** (N - 2), one, one, one),
                GibbsField.unit(CayleyTree(1), 1, PrimeContext(p, N + 1))]

    @pytest.mark.parametrize("p, N", CONTEXTS)
    def test_subtree_sums_and_partition_fn(self, p, N):
        ctx = PrimeContext(p, N)
        rng = random.Random(1000 * p + N)
        seen = Counter()
        for k in (1, 2, 3):
            tree = CayleyTree(k)
            for J0 in (False, True):
                c = draw_couplings(ctx, rng, 1, J0)
                cases = [(n, f) for n in range(4) for f in self.fields(tree, c, n, rng)]
                if k == 1:
                    cases += [(1, f) for f in self.special_fields(c)]
                for n, field in cases:
                    for level in range(n + 1):
                        want = kernel_outcome(composed_subtree_sums, tree, c, field, n, level)
                        got = kernel_outcome(gibbs._subtree_sums, tree, c, field, n, level)
                        assert got == want, (k, n, level)
                    want = kernel_outcome(composed_partition_fn, tree, c, field, n)
                    assert kernel_outcome(partition_fn, tree, c, field, n) == want, (k, n)
                    seen[outcome_kind(want)] += 1
        assert set(seen) == {"value", PrecisionExhausted, ZeroPartitionFunction, DomainError}

    @pytest.mark.parametrize("p, N", CONTEXTS)
    def test_sibling_sum(self, p, N):
        # zero factors, factors of valuation -3..3, and at k = 1 a pair whose
        # sum cancels N - 2 digits
        ctx = PrimeContext(p, N)
        rng = random.Random(1000 * p + N)
        seen = Counter()

        def factor():
            return rng.choice([ctx.zero(), random_unit(ctx, rng),
                               random_padic(ctx, rng, vmin=-3, vmax=3)])

        for k in (1, 2, 3):
            for J0 in (False, True):
                c = draw_couplings(ctx, rng, 1, J0)
                want_pow = composed_c_powers(c, k)
                c_pow = gibbs._c_powers(c, k)
                assert [(0, u) for u in c_pow] == as_pairs(want_pow)
                groups = [[(factor(), factor()) for _ in range(k)] for _ in range(30)]
                if k == 1:
                    for _ in range(3):
                        minus = random_padic(ctx, rng, vmin=-3, vmax=3)
                        shift = ctx.from_int(p) ** (minus.valuation + N - 2)
                        groups.append([(-minus + shift, minus)])
                for factors in groups:
                    want = kernel_outcome(composed_sibling_sum, want_pow, factors)
                    got = kernel_outcome(gibbs._sibling_sum, ctx, c_pow, as_pairs(factors))
                    assert got == want, factors
                    seen[outcome_kind(want)] += 1
        assert set(seen) == {"value", "zero", PrecisionExhausted}

    @pytest.mark.parametrize("p, N", CONTEXTS)
    def test_newton_step(self, p, N):
        # the step at 1, at the solved u, at random values, at -1 + p^e,
        # where at J0 = 0 M is divisible by p, and at k = 1 near the roots of
        # P and M, where P(u) or M(u) cancels e digits
        ctx = PrimeContext(p, N)
        rng = random.Random(1000 * p + N)
        R, one = ctx.residual_digits, ctx.one()
        seen = Counter()
        for k in (1, 2, 3):
            for J0 in (False, True):
                for ord_J1 in (1, 2):
                    c = draw_couplings(ctx, rng, ord_J1, J0)
                    P, M = gibbs._field_polynomials(c, k)
                    want_P, want_M = composed_polynomials(c, k)
                    assert (P, M) == (as_pairs(want_P), as_pairs(want_M))
                    solved = solve_7_11(CayleyTree(k), c, 1).assign[(1,)][1, 1]
                    us = [one, ctx.zero(), solved, random_Ep(ctx, rng),
                          random_unit(ctx, rng), random_padic(ctx, rng, vmin=-2, vmax=2)]
                    us += [-one + ctx.from_int(p) ** e for e in (1, 2, R - 1, R, R + 1, N)]
                    if k == 1:
                        us += [-(f[0] / f[1]) + ctx.from_int(p) ** e
                               for f in (want_P, want_M) for e in (R - 1, R + 1, N)]
                    for u in us:
                        want = kernel_outcome(composed_newton, want_P, want_M, u)
                        got = kernel_outcome(gibbs._newton_step, ctx, P, M, u)
                        assert got == want, (k, J0, ord_J1, u)
                        seen[outcome_kind(want)] += 1
        assert set(seen) == {"value", PrecisionExhausted}


class TestPeriodicFields:
    def orbit_setup(self):
        ctx = PrimeContext(5)
        c = Couplings(ctx.from_int(25), ctx.from_int(5), ctx.zero())
        tree = CayleyTree(2)
        params = MapParams(c.a, c.b)
        return ctx, c, tree, params

    def test_m1_single_component_scan_is_deterministic(self):
        ctx, c, tree, params = self.orbit_setup()
        x0 = find_x0(params)
        with pytest.raises(NoValidPlacement) as err:
            periodic_field_from_orbit(tree, c, [x0], n=2)
        # frozen diagnostics: every single-component placement misses at 1/25
        assert err.value.diagnostics == {name: "1/25" for name in
                                         ("++", "+-", "-+", "--")}

    def test_m1_diagonal_field_works(self):
        ctx, c, tree, params = self.orbit_setup()
        x0 = find_x0(params)
        cand = diagonal_field_from_orbit(tree, c, [x0], n=2)
        assert cand.residual <= Fraction(1, 5 ** 56)
        assert check_compatibility(tree, c, cand.field, 2).ok

    def test_m2_orbit_diagonal_field(self):
        ctx, c, tree, params = self.orbit_setup()
        geom = RepellerGeometry.build(params)
        orbit = geom.g_orbit((1, 2))
        with pytest.raises(NoValidPlacement):
            periodic_field_from_orbit(tree, c, orbit, n=2)
        cand = diagonal_field_from_orbit(tree, c, orbit, n=2)
        assert check_compatibility(tree, c, cand.field, 2).ok
        # the two levels genuinely differ: an H_2- but not H_1-periodic field
        assert diff_valuation(cand.field.assign[(1,)][1, 1],
                              cand.field.assign[(1, 1)][1, 1]) is not None

    def test_constant_orbit_matches_m1(self):
        ctx, c, tree, params = self.orbit_setup()
        x0 = find_x0(params)
        single = diagonal_field_from_orbit(tree, c, [x0], n=2)
        doubled = diagonal_field_from_orbit(tree, c, [x0, x0], n=2)
        for child in ((1,), (1, 1)):
            for pair in PAIRS:
                assert diff_valuation(single.field.assign[child][pair],
                                      doubled.field.assign[child][pair]) is None

    def test_h_periodicity(self):
        ctx, c, tree, params = self.orbit_setup()
        geom = RepellerGeometry.build(params)
        orbit = geom.g_orbit((1, 2))
        cand = diagonal_field_from_orbit(tree, c, orbit, n=3)
        # h_{tau_g(x)} = h_x for g in H_2: levels congruent mod 2 share values
        for x, y in (((1,), (1, 2, 1)), ((2,), (2, 1, 1))):
            for pair in PAIRS:
                assert diff_valuation(cand.field.assign[x][pair],
                                      cand.field.assign[y][pair]) is None

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_residual_agrees_with_product_system(self, n):
        # k = 2, J0 = 0: every placement of these tests gets the same
        # accept/reject verdict from the sibling sums and the product system
        ctx, c, tree, params = self.orbit_setup()
        x0 = find_x0(params)
        floor = Fraction(1, ctx.p ** ctx.residual_digits)
        one = ctx.one()
        diagonal = ((1, 1), (-1, -1))
        verdicts = []
        for orbit in ([x0], RepellerGeometry.build(params).g_orbit((1, 2)), [x0, x0]):
            placements = [((pair,), orbit) for pair in PAIRS]
            placements.append((diagonal, [(h / c.a) ** 2 for h in orbit]))
            for slots, values in placements:
                field = GibbsField.from_levels(tree, n, [
                    {pair: h if pair in slots else one for pair in PAIRS}
                    for h in values])
                accept = field_equation_residual(tree, c, field, n) <= floor
                assert accept is (product_system_residual(tree, c, field, n) <= floor)
                verdicts.append(accept)
        # at n >= 2 only the diagonal placement of each orbit solves them
        want = [True] * 5 if n == 1 else [False] * 4 + [True]
        assert verdicts == want * 3

    def test_field_needs_all_four_components(self, ctx5):
        one = ctx5.one()
        with pytest.raises(DomainError, match="missing field component"):
            GibbsField({(1,): {pair: one for pair in PAIRS[:3]}})

    def test_non_unit_orbit_and_other_tree_orders(self):
        ctx, c, tree, params = self.orbit_setup()
        x0 = find_x0(params)
        with pytest.raises(DomainError, match="must be units"):
            periodic_field_from_orbit(tree, c, [x0, ctx.from_int(5)], n=2)
        with pytest.raises(DomainError, match="k = 2"):
            diagonal_field_from_orbit(CayleyTree(3), c, [x0], n=2)

    def test_orbit_validation(self):
        # every entry point reports an empty orbit as a domain error, not
        # as a ZeroDivisionError from the level index
        _, c, tree, _ = self.orbit_setup()
        for build in (lambda: periodic_field_from_orbit(tree, c, [], n=2),
                      lambda: diagonal_field_from_orbit(tree, c, [], n=2),
                      lambda: GibbsField.from_levels(tree, 2, [])):
            with pytest.raises(DomainError, match="empty orbit"):
                build()
