"""Acceptance gate: ten property suites with pinned tolerances.

Residual tolerance is p^-56 throughout (precision 64, guard 8).  Criterion 6
additionally freezes a documented discrepancy: the exact one-step scaling of
k on the repeller balls carries the factor 1/|b - 1|_p, not 1/|b - 1|_p^2;
the companion assertion pins the squared-exponent variant as failing so any
change in behavior is caught.
"""
import random
from fractions import Fraction

import pytest

from padicdyn import (
    CayleyTree,
    Couplings,
    GibbsField,
    MapParams,
    NoValidPlacement,
    PrimeContext,
    RepellerGeometry,
    all_words,
    basin_status,
    check_compatibility,
    classify,
    diagonal_field_from_orbit,
    diff_valuation,
    discriminant,
    eq_to_precision,
    eval_g,
    eval_k,
    exp_p,
    find_x0,
    k_membership,
    log_p,
    norm_diff,
    periodic_field_from_orbit,
    repelling_roots,
    solve_7_11,
    sqrt_exists,
    verify_lemma_3_4,
)
from test_maps import deriv_g
from conftest import random_padic, strict_params

TOL56 = {p: Fraction(1, p ** 56) for p in (3, 5, 7, 13)}


def test_criterion_1_ultrametric_and_explog():
    """1000 random pairs per prime: norms, triangle, exp/log identities — exact."""
    for p in (3, 5, 7, 13):
        ctx = PrimeContext(p)
        rng = random.Random(p)
        for _ in range(1000):
            x = random_padic(ctx, rng)
            y = random_padic(ctx, rng)
            assert (x * y).norm() == x.norm() * y.norm()
            assert (x / y).norm() == x.norm() / y.norm()
            if x.norm() != y.norm():
                assert (x + y).norm() == max(x.norm(), y.norm())
            # exp/log norm identities on the small representative t = p * unit(x)
            t = ctx.from_digits(1, x.digits())
            e = exp_p(t)
            assert e.norm() == 1
            assert norm_diff(e, ctx.one()) == t.norm()
            assert log_p(ctx.one() + t).norm() == t.norm()
            assert eq_to_precision(log_p(e), t, ctx.residual_digits)


def test_criterion_2_sqrt_exists_oracle():
    """sqrt_exists matches exhaustive squaring mod p^2 on every residue class."""
    for p in (3, 5, 7, 13):
        ctx = PrimeContext(p)
        squares = {x * x % p ** 2 for x in range(1, p ** 2) if x % p != 0}
        for a in range(1, p ** 2):
            assert sqrt_exists(ctx.from_int(a)) == (a in squares)


def _sampled_params(p, count, seed):
    ctx = PrimeContext(p)
    rng = random.Random(seed)
    return ctx, [strict_params(ctx, rng, t=rng.choice((1, 2)))
                 for _ in range(count)]


def test_criterion_3_fixed_point_structure():
    """Three fixed points iff p = 1 (mod 4); residuals at p^-56; Delta digit p-4."""
    for p in (13, 5):
        ctx, samples = _sampled_params(p, 20, seed=p)
        for params in samples:
            x0 = find_x0(params)
            delta = discriminant(params, x0)
            roots = repelling_roots(params, x0, delta)
            assert roots is not None
            for x in (x0, *roots):
                assert norm_diff(eval_g(params, x), x) <= TOL56[p]
            assert delta.norm() == 1
            assert delta.leading_digit() == (p - 4) % p
    for p in (7, 3):
        ctx, samples = _sampled_params(p, 20, seed=p)
        for params in samples:
            x0 = find_x0(params)
            delta = discriminant(params, x0)
            assert not sqrt_exists(delta)
            assert repelling_roots(params, x0, delta) is None
            assert delta.leading_digit() == (p - 4) % p


def test_criterion_4_classification():
    """Multiplier norms: |b^4-1| at x0, exactly 1/|b-1| >= p at x1, x2."""
    for p in (13, 5):
        ctx, samples = _sampled_params(p, 20, seed=100 + p)
        for params in samples:
            b = params.b
            x0 = find_x0(params)
            lam0 = deriv_g(params, x0).norm()
            assert lam0 == (b ** 4 - 1).norm()
            assert lam0 <= Fraction(1, p)
            assert classify(params, x0) == "attracting"
            roots = repelling_roots(params, x0, discriminant(params, x0))
            for x in roots:
                lam = deriv_g(params, x).norm()
                assert lam == 1 / params.radius
                assert lam >= p
                assert classify(params, x) == "repelling"


def test_criterion_5_lemma_3_4_suite():
    """All clauses hold on strict-regime samples (void clauses when roots absent)."""
    for p in (3, 5, 7, 13):
        ctx, samples = _sampled_params(p, 20, seed=200 + p)
        for params in samples:
            x0 = find_x0(params)
            delta = discriminant(params, x0)
            roots = repelling_roots(params, x0, delta)
            out = verify_lemma_3_4(params, x0, roots, delta)
            for clause, value in out.items():
                assert value is not False, (p, clause)


def _geometries():
    out = []
    for p, a, b in ((13, 170, 14), (5, 26, 6), (13, 2198, 170)):
        ctx = PrimeContext(p)
        out.append(RepellerGeometry.build(
            MapParams(ctx.from_int(a), ctx.from_int(b))))
    return out


def _in_ball_pair(geom, rng):
    ctx = geom.params.ctx
    m = geom.params.radius_exponent
    c = geom.center_sq(rng.choice((1, 2)))
    pick = lambda: c + ctx.from_int(
        rng.randrange(1, ctx.p ** 8) * ctx.p ** (m + 1 + rng.randrange(4)))
    return pick(), pick()


def test_criterion_6_exact_scaling():
    """200 in-ball pairs per parameter set: |k(x)-k(y)| |b-1| = |x-y| exactly."""
    for geom in _geometries():
        params = geom.params
        rng = random.Random(params.ctx.p + params.radius_exponent)
        squared_exponent_ever_held = False
        for _ in range(200):
            x, y = _in_ball_pair(geom, rng)
            want = norm_diff(x, y)
            got = norm_diff(eval_k(params, x), eval_k(params, y)) * params.radius
            assert got == want
            if want != 0 and norm_diff(eval_k(params, x), eval_k(params, y)) \
                    * params.radius ** 2 == want:
                squared_exponent_ever_held = True
        # frozen discrepancy: the squared-exponent variant never holds
        assert not squared_exponent_ever_held


def test_criterion_7_subshift_conjugacy():
    """p = 13: all words m <= 5 -> periodic points, coding, counts, isometry."""
    ctx = PrimeContext(13)
    geom = RepellerGeometry.build(MapParams(ctx.from_int(170), ctx.from_int(14)))
    params = geom.params
    by_length = {}
    for m in range(1, 6):
        points = []
        for word in all_words(m):
            x = geom.periodic_point_k(word)
            z = x
            for _ in range(m):
                z = eval_k(params, z)
            assert norm_diff(z, x) <= TOL56[13], word
            assert geom.itinerary(x, 2 * m) == word * 2
            points.append((word, x))
        # pairwise distinct count equals trace(A^m) = 2^m
        for i, (wu, xu) in enumerate(points):
            for wv, xv in points[i + 1:]:
                assert not eq_to_precision(xu, xv, ctx.residual_digits)
        trace = sum(row[i] for i, row in enumerate(
            _matrix_power([[1, 1], [1, 1]], m)))
        assert len(points) == trace == 2 ** m
        by_length[m] = points
    # isometry: |x_u - x_v| equals the subshift metric, exactly
    for m, points in by_length.items():
        for i, (wu, xu) in enumerate(points):
            for wv, xv in points[i + 1:]:
                assert norm_diff(xu, xv) == geom.subshift_metric(wu, wv)


def _matrix_power(mat, n):
    out = [[1, 0], [0, 1]]
    for _ in range(n):
        out = [[sum(out[i][t] * mat[t][j] for t in range(2)) for j in range(2)]
               for i in range(2)]
    return out


def test_criterion_8_basin_dichotomy():
    """x = 1 converges within N + g steps; alpha1 exits K; periodic points stay."""
    for geom in _geometries():
        params, ctx = geom.params, geom.params.ctx
        x = ctx.one()
        for _ in range(ctx.precision + ctx.guard):
            x = eval_g(params, x)
        assert eq_to_precision(x, geom.x0, ctx.residual_digits)
        st = basin_status(params, geom.alpha1, 100)
        assert st.outcome == "in_basin" and st.steps <= 2
        y = eval_g(params, geom.alpha1)
        for _ in range(ctx.precision + ctx.guard):
            y = eval_g(params, y)
        assert eq_to_precision(y, geom.x0, ctx.residual_digits)
        for m in range(1, 5):
            for word in all_words(m):
                s = geom.forward_g_orbit(word)[0]
                st = basin_status(params, s, 100)
                assert st.outcome == "stays_in_k" and st.steps == 100, word


def test_criterion_9_gibbs_compatibility():
    """p = 5, k = 2, n = 2: solved field compatible; perturbations break it."""
    ctx = PrimeContext(5)
    cpl = Couplings(ctx.from_int(5), ctx.from_int(5), ctx.zero())
    assert cpl.J.norm() == cpl.J1.norm() == Fraction(1, 5)
    tree = CayleyTree(2)
    field = solve_7_11(tree, cpl, 2)
    report = check_compatibility(tree, cpl, field, 2)
    assert len(report.residuals) == 8  # base configurations on V_1
    assert report.ok
    assert report.max_residual <= TOL56[5]

    rng = random.Random(9)
    # only level-2 components enter the boundary weights of the level-2 measure
    children = [v for v in tree.vertices(2) if len(v) == 2]
    broken = 0
    for _ in range(100):
        child = rng.choice(children)
        pair = rng.choice(((1, 1), (1, -1), (-1, 1), (-1, -1)))
        unit = ctx.from_int(1 + 5 ** rng.choice((1, 2)) * rng.randrange(1, 5 ** 4))
        pert = field.with_component(child, pair,
                                    field.assign[child][pair] * unit)
        if not check_compatibility(tree, cpl, pert, 2).ok:
            broken += 1
    assert broken >= 95


def test_criterion_10_periodic_gibbs_pipeline():
    """m in {1, 2}: deterministic placement scan; the recorded outcome is
    NoValidPlacement for all four single-component placements, resolved by
    the two-component diagonal construction, which passes compatibility."""
    ctx = PrimeContext(5)
    cpl = Couplings(ctx.from_int(25), ctx.from_int(5), ctx.zero())
    tree = CayleyTree(2)
    params = MapParams(cpl.a, cpl.b)
    geom = RepellerGeometry.build(params)
    orbits = {1: [find_x0(params)], 2: geom.g_orbit((1, 2))}
    for m, orbit in orbits.items():
        diagnostics = []
        for _ in range(2):  # determinism: two identical runs
            with pytest.raises(NoValidPlacement) as err:
                periodic_field_from_orbit(tree, cpl, orbit, n=2)
            diagnostics.append(err.value.diagnostics)
        assert diagnostics[0] == diagnostics[1]
        assert set(diagnostics[0]) == {"++", "+-", "-+", "--"}
        cand = diagonal_field_from_orbit(tree, cpl, orbit, n=2)
        assert cand.residual <= TOL56[5]
        assert check_compatibility(tree, cpl, cand.field, 2).ok
