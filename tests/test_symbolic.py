"""Repeller geometry, basin dichotomy, and the shift coding."""
from fractions import Fraction

import pytest

from padicdyn import (
    BranchError,
    DomainError,
    EscapeError,
    LengthMismatch,
    MapParams,
    PrecisionExhausted,
    PrimeContext,
    RepellerGeometry,
    all_words,
    basin_status,
    check_word,
    diff_valuation,
    eq_to_precision,
    eval_g,
    eval_k,
    find_x0,
    k_membership,
    norm_diff,
)
from padicdyn import symbolic
from padicdyn.padic import converge
from conftest import random_Ep, strict_params


@pytest.fixture(params=[(13, 170, 14), (5, 26, 6), (13, 2198, 170)])
def geom(request):
    p, a, b = request.param
    ctx = PrimeContext(p)
    return RepellerGeometry.build(MapParams(ctx.from_int(a), ctx.from_int(b)))


class TestWords:
    def test_validation(self):
        assert check_word((1, 2, 1)) == (1, 2, 1)
        with pytest.raises(DomainError):
            check_word(())
        with pytest.raises(DomainError):
            check_word((1, 3))

    def test_all_words(self):
        assert len(all_words(5)) == 32
        assert all_words(1) == [(1,), (2,)]


class TestKMembership:
    def test_alpha_in_K(self, geom):
        assert k_membership(geom.params, geom.alpha1, geom.x0)
        assert k_membership(geom.params, geom.alpha2, geom.x0)
        assert k_membership(geom.params, geom.x1, geom.x0)
        assert k_membership(geom.params, geom.x2, geom.x0)

    def test_Ep_never_in_K(self, ctx, rng):
        params = strict_params(ctx, rng)
        x0 = find_x0(params)
        for _ in range(30):
            assert not k_membership(params, random_Ep(ctx, rng), x0)

    def test_K_empty_for_p_3_mod_4(self, rng):
        for p in (3, 7):
            ctx = PrimeContext(p)
            params = strict_params(ctx, rng)
            x0 = find_x0(params)
            for u in range(1, 50):
                assert not k_membership(params, ctx.from_int(u), x0)


class TestGeometry:
    def test_build_requires_p_1_mod_4(self, rng):
        ctx = PrimeContext(7)
        with pytest.raises(DomainError):
            RepellerGeometry.build(strict_params(ctx, rng))

    def test_build_requires_strict_regime(self):
        ctx = PrimeContext(13)
        params = MapParams(ctx.from_int(14), ctx.from_int(14))
        with pytest.raises(DomainError):
            RepellerGeometry.build(params)

    def test_alphas_square_to_minus_one(self, geom):
        minus_one = geom.params.ctx.from_int(-1)
        assert diff_valuation(geom.alpha1 * geom.alpha1, minus_one) is None
        assert diff_valuation(geom.alpha2 * geom.alpha2, minus_one) is None
        assert diff_valuation(geom.alpha2, -geom.alpha1) is None

    def test_balls_disjoint(self, geom):
        m = geom.params.radius_exponent
        dv = diff_valuation(geom.x1, geom.x2)
        assert dv is not None and dv < m  # |x1 - x2| >= r
        # squared centers separate at exactly r = p^-m, still disjoint for
        # open balls of radius r
        dv_sq = diff_valuation(geom.x1sq, geom.x2sq)
        assert dv_sq is not None and dv_sq <= m
        assert not geom.ball_sq(1).contains(geom.x2sq)
        assert not geom.ball_g(1).contains(geom.x2)

    def test_squaring_not_isometric_across_balls(self, geom):
        # |x1^2 - x2^2| < |x1 - x2|
        assert norm_diff(geom.x1sq, geom.x2sq) < norm_diff(geom.x1, geom.x2)

    def test_kappa_and_expansion(self, geom):
        m = geom.params.radius_exponent
        assert geom.kappa == m
        assert geom.expansion_exponent == m

    def test_alphas_pair_with_roots(self, geom):
        m = geom.params.radius_exponent
        assert geom.ball_alpha(1).contains(geom.x1)
        assert geom.ball_alpha(2).contains(geom.x2)


class TestBasin:
    def test_one_in_basin_immediately(self, geom):
        st = basin_status(geom.params, geom.params.ctx.one(), 50, geom.x0)
        assert st.in_basin and st.steps == 0 and st.trail == ()

    def test_alpha_exits_then_converges(self, geom):
        params, ctx = geom.params, geom.params.ctx
        st = basin_status(params, geom.alpha1, 50, geom.x0)
        assert st.in_basin and st.steps <= 2
        # g(alpha) = a(1 - b^2)/(b^2 - 1) = -a
        g_alpha = eval_g(params, geom.alpha1)
        assert eq_to_precision(g_alpha, -params.a, ctx.residual_digits)
        x = g_alpha
        for _ in range(ctx.precision + ctx.guard):
            x = eval_g(params, x)
        assert eq_to_precision(x, geom.x0, ctx.residual_digits)

    def test_periodic_points_stay_in_K(self, geom):
        for word in [(1,), (2,), (1, 2), (1, 2, 2)]:
            y = geom.periodic_point_g(word)
            st = basin_status(geom.params, y, 100, geom.x0)
            assert st.outcome == "stays_in_k"
            assert st.steps == 100

    def test_max_iter_validation(self, geom):
        with pytest.raises(DomainError):
            basin_status(geom.params, geom.x0, 0)


class TestInverseBranches:
    def test_fixed_centers(self, geom):
        for j in (1, 2):
            c = geom.center_sq(j)
            y = geom.inverse_branch(j, c)
            assert eq_to_precision(y, c, geom.params.ctx.residual_digits)

    def test_roundtrip_random(self, geom, rng):
        ctx = geom.params.ctx
        m = geom.params.radius_exponent
        for _ in range(50):
            c = geom.center_sq(rng.choice((1, 2)))
            x = c + ctx.from_int(
                rng.randrange(1, ctx.p ** 8) * ctx.p ** (m + 1 + rng.randrange(4)))
            j = rng.choice((1, 2))
            y = geom.inverse_branch(j, x)
            assert geom.ball_sq(j).contains(y)
            assert eq_to_precision(eval_k(geom.params, y), x,
                                   geom._roundtrip_digits())

    def test_rejects_points_outside_X(self, geom):
        with pytest.raises(DomainError):
            geom.inverse_branch(1, geom.params.ctx.one())
        with pytest.raises(DomainError):
            geom.inverse_branch(3, geom.center_sq(1))

    def test_incidence_matrix_all_ones(self, geom):
        assert geom.incidence_matrix() == [[1, 1], [1, 1]]


class TestPeriodicPoints:
    def test_fixed_words_give_roots(self, geom):
        d = geom.params.ctx.residual_digits
        assert eq_to_precision(geom.periodic_point_k((1,)), geom.x1sq, d)
        assert eq_to_precision(geom.periodic_point_k((2,)), geom.x2sq, d)
        assert eq_to_precision(geom.periodic_point_g((1,)), geom.x1, d)
        assert eq_to_precision(geom.periodic_point_g((2,)), geom.x2, d)

    def test_word_12_has_exact_period_2(self, geom):
        params = geom.params
        y = geom.periodic_point_k((1, 2))
        ky = eval_k(params, y)
        assert not eq_to_precision(ky, y, params.ctx.residual_digits)  # not fixed
        assert eq_to_precision(eval_k(params, ky), y, params.ctx.residual_digits)

    def test_g_periodic_orbit_relation(self, geom):
        params = geom.params
        orbit = geom.g_orbit((1, 2, 2))
        assert len(orbit) == 3
        for i in range(3):
            assert eq_to_precision(orbit[i], eval_g(params, orbit[(i + 1) % 3]),
                                   params.ctx.residual_digits)


def iterated_passes(geom, word):
    """The construction itself: iterate one pass of inverse branches from the
    centre of ball w_1 until the pass fixes its point."""
    def one_pass(y):
        for sym in reversed(word):
            y = geom.inverse_branch(sym, y)
        return y

    return converge(one_pass, geom.center_sq(word[0]), "inverse-branch passes")


class TestNewtonAgainstInverseBranches:
    @pytest.mark.parametrize("precision", [64, 128])
    @pytest.mark.parametrize("p, a, b", [(13, 170, 14), (5, 26, 6), (13, 2198, 170)])
    def test_every_word_up_to_length_5(self, p, a, b, precision):
        ctx = PrimeContext(p, precision)
        geom = RepellerGeometry.build(MapParams(ctx.from_int(a), ctx.from_int(b)))
        for length in range(1, 6):
            for word in all_words(length):
                assert geom.periodic_point_k(word) == iterated_passes(geom, word), word

    @pytest.mark.parametrize("word", [(1,), (2,), (1,) * 7, (1, 2, 1, 2, 2, 1, 2),
                                      (2, 2, 2, 2, 2, 2, 1)])
    def test_both_sides_of_the_trusted_orbit_bound(self, word):
        # N - g = 8 and m = 3: a length-1 word runs Newton (3 < 8); the forward
        # orbit of a length-7 word spends 21 >= 8 digits, where Newton cannot
        # converge and the passes are iterated instead
        ctx = PrimeContext(13, 16)
        geom = RepellerGeometry.build(
            MapParams(ctx.from_int(1 + 13 ** 4), ctx.from_int(1 + 13 ** 3)))
        assert geom.expansion_exponent == 3
        assert geom.periodic_point_k(word) == iterated_passes(geom, word)

    def test_one_pass_then_few_newton_steps(self, monkeypatch):
        # iterating the passes makes 70 inverse-branch calls here; each
        # Newton step makes 5 k-steps, and at most 10 steps are allowed
        ctx = PrimeContext(13)
        geom = RepellerGeometry.build(MapParams(ctx.from_int(170), ctx.from_int(14)))
        branches, k_steps = [], []
        inverse_branch = RepellerGeometry.inverse_branch

        def counted_branch(self, j, x):
            branches.append(j)
            return inverse_branch(self, j, x)

        def counted_k(*args):
            k_steps.append(args)
            return eval_k(*args)

        monkeypatch.setattr(RepellerGeometry, "inverse_branch", counted_branch)
        monkeypatch.setattr(symbolic, "eval_k", counted_k)
        geom.periodic_point_k((1, 2, 2, 1, 2))
        assert branches == [2, 1, 2, 2, 1]
        assert 0 < len(k_steps) <= 50


class TestCoding:
    def test_itinerary_roundtrip(self, geom):
        for word in [(1,), (2, 1), (1, 2, 2)]:
            x = geom.periodic_point_k(word)
            assert geom.itinerary(x, 2 * len(word)) == word * 2

    def test_escape(self, geom):
        with pytest.raises(EscapeError) as err:
            geom.itinerary(geom.x0, 4)
        assert err.value.step == 0

    def test_escape_after_trusted_digits_is_precision_loss(self):
        # each k-step at (13, 170, 14) spends one trusted digit: by step 120
        # the N = 64 point has none left, while at N = 200 its orbit stays on X
        def geom_at(precision):
            ctx = PrimeContext(13, precision)
            return RepellerGeometry.build(
                MapParams(ctx.from_int(170), ctx.from_int(14)))

        geom = geom_at(64)
        with pytest.raises(PrecisionExhausted):
            geom.itinerary(geom.periodic_point_k((1, 2)), 120)
        geom = geom_at(200)
        assert geom.itinerary(geom.periodic_point_k((1, 2)), 120) == (1, 2) * 60

    def test_metric_values(self, geom):
        p = geom.params.ctx.p
        tau, kappa = geom.expansion_exponent, geom.kappa
        assert geom.subshift_metric((1, 2), (1, 2)) == 0
        assert geom.subshift_metric((1, 2), (2, 2)) == Fraction(1, p ** kappa)
        assert geom.subshift_metric((1, 2, 1), (1, 2, 2)) == Fraction(
            1, p ** (2 * tau + kappa))
        with pytest.raises(LengthMismatch):
            geom.subshift_metric((1,), (1, 2))

    def test_metric_is_ultrametric(self, geom, rng):
        words = all_words(4)
        for _ in range(50):
            u, v, w = rng.choice(words), rng.choice(words), rng.choice(words)
            duw = geom.subshift_metric(u, w)
            assert duw <= max(geom.subshift_metric(u, v),
                              geom.subshift_metric(v, w))


class TestCylinders:
    def test_depth_1_is_X(self, geom):
        cyl = dict(geom.julia_cylinders(1))
        assert diff_valuation(cyl[(1,)].center, geom.x1sq) is None
        assert diff_valuation(cyl[(2,)].center, geom.x2sq) is None

    def test_depth_2_disjoint_and_shrinking(self, geom):
        m = geom.params.radius_exponent
        cyl = geom.julia_cylinders(2)
        assert len(cyl) == 4
        for word, ball in cyl:
            assert ball.radius_exponent == -(m + geom.expansion_exponent)
        for i, (wi, bi) in enumerate(cyl):
            for wj, bj in cyl[i + 1:]:
                assert not bi.contains(bj.center)

    def test_balls_contain_their_periodic_points(self, geom):
        for depth in (1, 2, 3):
            for word, ball in geom.julia_cylinders(depth):
                assert ball.contains(geom.periodic_point_k(word))
