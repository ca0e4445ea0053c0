"""Repeller geometry, basin dichotomy, and the shift coding."""
import gc
import random
import sys
import weakref
from fractions import Fraction

import pytest

from padicdyn import (
    BranchError,
    DomainError,
    EscapeError,
    LengthMismatch,
    MapParams,
    NoConvergence,
    PrecisionExhausted,
    PrimeContext,
    RepellerGeometry,
    VerificationError,
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
from padicdyn.maps import eval_k_slope
from padicdyn.padic import converge
from conftest import acceptance_params, random_Ep, random_unit, strict_params


# (17, 290, 18) is a pair whose alpha1 is sqrt_both's canonical root of -1;
# the others take the other root
@pytest.fixture(params=[(13, 170, 14), (5, 26, 6), (13, 2198, 170), (17, 290, 18)])
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


def norm_k_membership(params, x, x0):
    """The former K test, kept as the oracle: exact rational norms."""
    if norm_diff(x, x0) != 1:
        return False
    b = params.b
    return norm_diff(x * x, params.ctx.from_int(-1)) <= (b * b - 1).norm()


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

    def test_matches_norm_formula(self, geom, rng):
        # points at distance 1, p^-(m-1), p^-m and p^-(m+1) from x0 and from
        # the square roots alpha of -1 (then x^2 is as far from -1), plus
        # random units
        params, ctx, x0 = geom.params, geom.params.ctx, geom.x0
        p, m = ctx.p, params.radius_exponent
        points = [x0, geom.x1, geom.x2, geom.alpha1, geom.alpha2]
        for center in (x0, geom.alpha1, geom.alpha2):
            for j in (0, m - 1, m, m + 1):
                t = p * rng.randrange(p ** 3) + rng.randrange(1, p)
                points.append(center + ctx.from_int(t * p ** j))
        points += [random_unit(ctx, rng) for _ in range(20)]
        outcomes = set()
        for x in points:
            got = k_membership(params, x, x0)
            assert got is norm_k_membership(params, x, x0), x
            outcomes.add(got)
        assert outcomes == {True, False}


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

    def test_alphas_pair_with_roots(self, geom):
        # alpha_j lies in the closed ball of radius r = p^-m around x_j
        r = Fraction(1, geom.params.ctx.p ** geom.params.radius_exponent)
        assert norm_diff(geom.alpha1, geom.x1) <= r
        assert norm_diff(geom.alpha2, geom.x2) <= r


def parts(geom):
    """What a geometry is built from, to compare geometries by value: the
    pair, the points, the balls of X and kappa."""
    return (geom.params.a, geom.params.b, geom.x0, geom.x1, geom.x2, geom.alpha1,
            geom.alpha2, geom.x1sq, geom.x2sq,
            [(ball.center, ball.radius_exponent) for ball in geom.balls_sq], geom.kappa)


class TestGeometryMemo:
    """A pair builds its geometry once and keeps it; nothing else keeps it."""

    def test_warm_call_returns_the_cold_geometry(self):
        params = acceptance_params()
        cold = RepellerGeometry.build(params)
        warm = RepellerGeometry.build(params)
        assert warm is cold is params.geometry
        assert parts(warm) == parts(RepellerGeometry(acceptance_params()))

    def test_equal_contexts_keep_geometries_of_their_own(self):
        first, second = acceptance_params(), acceptance_params()
        assert first.ctx is not second.ctx
        geom = RepellerGeometry.build(second)
        assert geom is not RepellerGeometry.build(first)
        assert parts(geom) == parts(RepellerGeometry.build(first))
        # every value in the caller's own context, the x0 solve's included
        assert geom.params is second
        for value in (geom.x0, geom.x1, geom.x1sq, geom.periodic_point_k((1, 2))):
            assert value.ctx is second.ctx

    @pytest.mark.parametrize("precision, guard", [(128, 8), (64, 10)])
    def test_other_precision_or_guard_misses(self, precision, guard):
        RepellerGeometry.build(acceptance_params())
        params = acceptance_params(precision, guard)
        got = RepellerGeometry.build(params)
        assert got.params is params and got.x1.ctx is params.ctx
        assert parts(got) == parts(RepellerGeometry(params))  # a fresh solve

    def test_domain_error_is_raised_on_every_call(self, rng, monkeypatch):
        ctx = PrimeContext(13)
        built, geometry_init = [], RepellerGeometry.__init__

        def counted(geom, params):
            built.append(params)
            geometry_init(geom, params)

        monkeypatch.setattr(RepellerGeometry, "__init__", counted)
        for params in (strict_params(PrimeContext(7), rng),
                       MapParams(ctx.from_int(14), ctx.from_int(14))):
            for _ in range(2):
                with pytest.raises(DomainError):
                    RepellerGeometry.build(params)
            assert "geometry" not in vars(params)
        assert len(built) == 4

    def test_bounded(self):
        # the geometry lives and dies with its pair: the library keeps none
        params = acceptance_params()
        geom = weakref.ref(RepellerGeometry.build(params))
        pair = weakref.ref(params)
        del params
        gc.collect()
        assert geom() is None and pair() is None


class TestBasin:
    def test_one_in_basin_immediately(self, geom):
        st = basin_status(geom.params, geom.params.ctx.one(), 50)
        assert st.outcome == "in_basin" and st.steps == 0 and st.trail == ()

    def test_alpha_exits_then_converges(self, geom):
        params, ctx = geom.params, geom.params.ctx
        st = basin_status(params, geom.alpha1, 50)
        assert st.outcome == "in_basin" and st.steps <= 2
        # g(alpha) = a(1 - b^2)/(b^2 - 1) = -a
        g_alpha = eval_g(params, geom.alpha1)
        assert eq_to_precision(g_alpha, -params.a, ctx.residual_digits)
        x = g_alpha
        for _ in range(ctx.precision + ctx.guard):
            x = eval_g(params, x)
        assert eq_to_precision(x, geom.x0, ctx.residual_digits)

    def test_periodic_points_stay_in_K(self, geom):
        for word in [(1,), (2,), (1, 2), (1, 2, 2)]:
            y = geom.forward_g_orbit(word)[0]
            st = basin_status(geom.params, y, 100)
            assert st.outcome == "stays_in_k"
            assert st.steps == 100

    def test_budget_runs_out_inside_K(self, geom):
        # one iterate: the max_iter budget ends the run before the digit budget
        st = basin_status(geom.params, geom.x1, 1)
        assert st.outcome == "stays_in_k" and st.steps == 1
        assert st.trail == (geom.x1.leading_digit(),)

    def test_max_iter_validation(self, geom):
        with pytest.raises(DomainError):
            basin_status(geom.params, geom.x0, 0)


def _as_int(x):
    """The p-adic integer x as a nonnegative integer below p^(v + N)."""
    return x.unit * x.ctx.p ** x.valuation


def plain_iteration(params, start: int):
    """The basin answer for the integer start from plain iteration of g at 2N.

    (outcome, escape step or None, leading digits of the iterates in K): K is
    tested by exact rational norms, and an escape at step t is in_basin when
    t * m <= N - g, stays_in_k otherwise.
    """
    ctx = params.ctx
    wide_ctx = PrimeContext(ctx.p, 2 * ctx.precision, ctx.guard)
    wide = MapParams(wide_ctx.from_int(_as_int(params.a)),
                     wide_ctx.from_int(_as_int(params.b)))
    x0 = find_x0(wide)
    u = wide_ctx.from_int(start)
    digits, step = [], 0
    while step * params.radius_exponent <= ctx.residual_digits:
        if not norm_k_membership(wide, u, x0):
            return "in_basin", step, tuple(digits)
        digits.append(u.leading_digit())
        u = eval_g(wide, u)
        step += 1
    return "stays_in_k", None, tuple(digits)


def assert_decided(params, start: int):
    """basin_status at N digits gives the 2N plain-iteration answer."""
    outcome, escape, digits = plain_iteration(params, start)
    st = basin_status(params, params.ctx.from_int(start), 100)
    assert st.outcome == outcome, start
    if outcome == "in_basin":
        assert (st.steps, st.trail) == (escape, digits)
    else:
        assert st.steps == 100 and st.trail == digits[:len(st.trail)]
    return st


class TestBasinDigitBudget:
    """basin_status decides iterates 0..trusted_steps, or stops on the
    certificate (j - 1) m + d >= N - g; plain iteration at 2N is the oracle."""

    def test_trusted_steps(self, geom):
        params = geom.params
        assert params.trusted_steps == (params.ctx.residual_digits
                                        // params.radius_exponent)

    def test_sweep_off_the_repelling_points(self, geom):
        # x_i + p^e escapes at step e // m: in_basin up to the budget,
        # stays_in_k past it.  Consecutive iterates differ by p^-(e - jm - m),
        # so (j - 1) m + d = e - m: the certificate stops the run at iterate 1
        # exactly when e - m >= N - g, else the budget ends it
        params, p = geom.params, geom.params.ctx.p
        m, budget = params.radius_exponent, params.ctx.residual_digits
        for xi in (geom.x1, geom.x2):
            for e in range(1, params.ctx.precision + 4):
                st = assert_decided(params, _as_int(xi) + p ** e)
                if st.outcome == "stays_in_k":
                    assert len(st.trail) == (2 if e - m >= budget
                                             else params.trusted_steps + 1), e

    def test_repro_past_the_old_cycle_test(self):
        params = acceptance_params()
        geom = RepellerGeometry.build(params)
        st = basin_status(params, geom.x1 + params.ctx.from_int(13 ** 30), 100)
        assert (st.outcome, st.steps) == ("in_basin", 30)
        assert st.trail == (geom.x1.leading_digit(),) * 30

    def test_random_starts_in_K(self, geom):
        params, p = geom.params, geom.params.ctx.p
        m = params.radius_exponent
        rng = random.Random(22)
        for _ in range(20):
            alpha = rng.choice((geom.alpha1, geom.alpha2))
            start = _as_int(alpha) + p ** m * rng.randrange(p ** params.ctx.precision)
            assert k_membership(params, params.ctx.from_int(start), geom.x0)
            assert_decided(params, start)

    @pytest.mark.parametrize("word", [(1, 2), (1, 1, 2), (2, 1, 2, 2)])
    def test_starts_near_periodic_g_points(self, geom, word):
        params, p = geom.params, geom.params.ctx.p
        rng = random.Random(f"{word}")
        y = _as_int(geom.forward_g_orbit(word)[0])
        for e in range(1, params.ctx.precision + 4):
            assert_decided(params, y + rng.randrange(1, p) * p ** e)

    def test_repelling_fixed_points_stop_on_the_certificate(self, geom):
        for xi in (geom.x1, geom.x2):
            st = basin_status(geom.params, xi, 100)
            assert (st.outcome, st.steps) == ("stays_in_k", 100)
            assert st.trail == (xi.leading_digit(),) * 2

    def test_period_two_runs_to_the_budget(self, geom):
        # consecutive points of a 2-cycle lie in different balls: d = 0, so
        # only the budget ends the run, after trusted_steps + 1 iterates
        params = geom.params
        y, gy, _ = geom.forward_g_orbit((1, 2))
        st = basin_status(params, y, 100)
        assert (st.outcome, st.steps) == ("stays_in_k", 100)
        pair = (y.leading_digit(), gy.leading_digit())
        assert st.trail == (pair * params.trusted_steps)[:params.trusted_steps + 1]


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
                                   geom._orbit_digits(1))

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
        assert eq_to_precision(geom.forward_g_orbit((1,))[0], geom.x1, d)
        assert eq_to_precision(geom.forward_g_orbit((2,))[0], geom.x2, d)

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
        assert geom.params.radius_exponent == 3
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
            return eval_k_slope(*args)

        monkeypatch.setattr(RepellerGeometry, "inverse_branch", counted_branch)
        monkeypatch.setattr(symbolic, "eval_k_slope", counted_k)
        assert geom._periodic_words == {}  # the cold solve
        point = geom.periodic_point_k((1, 2, 2, 1, 2))
        assert list(geom._periodic_words) == [(1, 2, 2, 1, 2)]
        assert geom.periodic_point_k((1, 2, 2, 1, 2)) is point
        assert branches == [2, 1, 2, 2, 1]
        assert 0 < len(k_steps) <= 50


def fresh_geometry(params):
    """A new geometry of params, not the one params keeps: no centre and no
    periodic point kept."""
    return RepellerGeometry(params)


class TestPeriodicMemo:
    """The geometry keeps one record per word it solved: the k-periodic
    point and the checked forward g-orbit run from it."""

    def test_cold_warm_and_uncached_agree(self, geom):
        word = (1, 2, 2)
        cold = geom.periodic_point_k(word)
        warm = geom.periodic_point_k(word)
        assert warm is cold
        assert list(geom._periodic_words) == [word]
        uncached = fresh_geometry(geom.params).periodic_point_k(word)
        precision = geom.params.ctx.precision
        assert cold.valuation == uncached.valuation
        assert cold.digits(precision) == uncached.digits(precision)
        # the orbits too, and k^n(x) is |w| steps of k from the point
        fresh = fresh_geometry(geom.params)
        for forward in (RepellerGeometry.forward_k_ends,
                        RepellerGeometry.forward_g_orbit, RepellerGeometry.g_orbit):
            cold = forward(geom, word)
            assert forward(geom, word) == cold == forward(fresh, word)
        image = uncached
        for _ in word:
            image = eval_k(geom.params, image)
        assert geom.forward_k_ends(word) == (uncached, image)

    def test_g_point_reuses_the_k_point(self, geom, monkeypatch):
        k_steps = []

        def counted_k(*args):
            k_steps.append(args)
            return eval_k_slope(*args)

        monkeypatch.setattr(symbolic, "eval_k_slope", counted_k)
        geom.periodic_point_k((1, 2))
        assert k_steps
        del k_steps[:]
        geom.forward_g_orbit((1, 2))
        geom.g_orbit((1, 2))
        assert k_steps == []

    def test_list_and_tuple_share_an_entry(self, geom):
        assert geom.periodic_point_k([1, 2]) is geom.periodic_point_k((1, 2))
        assert list(geom._periodic_words) == [(1, 2)]

    def test_errors_are_raised_on_every_call(self, geom, monkeypatch):
        for word in ((), (1, 3), [0]):
            for _ in range(2):
                with pytest.raises(DomainError):
                    geom.periodic_point_k(word)

        def stalled(step, start, what):
            raise NoConvergence(what)

        # a failed solve keeps nothing, so the next call solves again
        monkeypatch.setattr(symbolic, "converge", stalled)
        for _ in range(2):
            with pytest.raises(NoConvergence):
                geom.periodic_point_k((1, 2))
        assert geom._periodic_words == {}
        monkeypatch.undo()
        assert geom.periodic_point_k((1, 2)) == \
            fresh_geometry(geom.params).periodic_point_k((1, 2))
        ctx = PrimeContext(13)
        non_strict = MapParams(ctx.from_int(14), ctx.from_int(14))
        for _ in range(2):
            with pytest.raises(DomainError):
                RepellerGeometry.build(non_strict).periodic_point_k((1,))

    def test_other_precision_misses(self):
        low = RepellerGeometry.build(acceptance_params(64))
        high = RepellerGeometry.build(acceptance_params(128))
        x_low, x_high = low.periodic_point_k((1, 2)), high.periodic_point_k((1, 2))
        assert low is not high
        assert list(low._periodic_words) == list(high._periodic_words) == [(1, 2)]
        assert low.periodic_point_k((1, 2)) is x_low
        assert high.periodic_point_k((1, 2)) is x_high
        assert x_high.ctx.precision == 128
        digits = low.params.ctx.residual_digits
        assert x_low.digits(digits) == x_high.digits(digits)

    def test_bounded(self, monkeypatch):
        # words shorter than MAX_CYLINDER_DEPTH are kept; a longer one is
        # solved on every call
        geom = RepellerGeometry.build(acceptance_params())
        cap = symbolic.MAX_CYLINDER_DEPTH
        kept, long_word = ((1, 2) * cap)[:cap - 1], ((2, 1) * cap)[:cap]
        point = geom.periodic_point_k(kept)
        k_steps = []

        def counted_k(*args):
            k_steps.append(args)
            return eval_k_slope(*args)

        monkeypatch.setattr(symbolic, "eval_k_slope", counted_k)
        assert geom.periodic_point_k(kept) is point
        assert k_steps == []
        solved = geom.periodic_point_k(long_word)
        assert k_steps
        del k_steps[:]
        assert geom.periodic_point_k(long_word) == solved
        assert k_steps
        assert list(geom._periodic_words) == [kept]
        monkeypatch.undo()
        assert solved == fresh_geometry(geom.params).periodic_point_k(long_word)
        # the points live and die with their geometry, which its pair keeps:
        # an equal pair built apart starts over
        rebuilt = RepellerGeometry.build(acceptance_params())
        assert rebuilt is not geom and rebuilt._periodic_words == {}


class TestPeriodicPointGSign:
    @staticmethod
    def geom_at(precision):
        # m = 3: a length-7 word spends 21 digits, more than N - 2 at N = 16
        ctx = PrimeContext(13, precision)
        return RepellerGeometry.build(
            MapParams(ctx.from_int(1 + 13 ** 4), ctx.from_int(1 + 13 ** 3)))

    def test_sign_from_the_word_at_low_precision(self):
        low, high = self.geom_at(16), self.geom_at(64)
        digits = low.params.ctx.residual_digits
        for word in all_words(7):
            point = low.forward_g_orbit(word)[0]
            assert point.digits(digits) == \
                high.forward_g_orbit(word)[0].digits(digits), word
            s = [r for r in (point, -point) if low.ball_g(word[0]).contains(r)][0]
            assert (point == -s) == (word[-1] != word[0])

    @pytest.mark.parametrize("precision", [12, 16, 20, 64])
    def test_one_forward_orbit_per_word(self, precision, monkeypatch):
        # below N = 64 the length-7 word keeps no trusted digit and the g-check
        # is skipped; at each N a kept word runs its |w| g-steps once per
        # geometry, at the first reader, and k^n(x) is the square of their
        # end: no k pass runs
        geom = self.geom_at(precision)
        word = (1, 2, 2, 1, 1, 2, 1)
        assert (geom._orbit_digits(len(word)) > 0) is (precision == 64)
        g_steps = count_calls(monkeypatch, "eval_g")
        point = geom.periodic_point_k(word)  # the solve runs the g-steps
        assert len(g_steps) == len(word)
        del g_steps[:]
        k_steps = count_calls(monkeypatch, "eval_k")
        ends = geom.forward_k_ends(word)
        forward = geom.forward_g_orbit(word)
        assert len(forward) == len(word) + 1
        assert g_steps == [] and k_steps == []
        for x, image in zip(forward, forward[1:]):
            assert eval_g(geom.params, x) == image
        # the n steps of k, kept here as the oracle of k^n(x)
        image = point
        for _ in word:
            image = eval_k(geom.params, image)
        assert ends == (point, image) == (point, forward[-1] * forward[-1])
        del g_steps[:]
        assert geom.forward_g_orbit(word) is forward
        assert geom.forward_k_ends(word) == ends
        assert geom.g_orbit(word) == [forward[0], *forward[-2:0:-1]]
        assert g_steps == [] and k_steps == []
        # a 12-symbol word is not kept: it is solved, and its g-orbit run, on
        # every call of every reader.  Each solve steps k in the inverse
        # branches' round trips only, the same number of times once the tree
        # holds its centres
        long_word = (2, 1) * 6
        assert len(long_word) == symbolic.MAX_CYLINDER_DEPTH
        geom.forward_k_ends(long_word)
        del k_steps[:]
        geom.forward_k_ends(long_word)
        solve = len(k_steps)
        for reader in (geom.periodic_point_k, geom.forward_k_ends,
                       geom.forward_g_orbit) * 2:
            del k_steps[:], g_steps[:]
            reader(long_word)
            assert len(k_steps) == solve and len(g_steps) == len(long_word)
        assert list(geom._periodic_words) == [word]

    def test_forward_check_kept_where_digits_remain(self, geom, monkeypatch):
        # an orbit that returns to the other sign fails the check, on every
        # call and for every reader, the point alone included: nothing is
        # kept, and once the check passes the next call solves again
        word = (1, 2, 2)
        monkeypatch.setattr(symbolic, "eval_g", lambda params, x: -eval_g(params, x))
        for reader in (geom.periodic_point_k, geom.periodic_point_k,
                       geom.forward_g_orbit, geom.g_orbit, geom.forward_k_ends):
            with pytest.raises(VerificationError):
                reader(word)
            assert geom._periodic_words == {}
        monkeypatch.undo()
        k_steps = count_calls(monkeypatch, "eval_k_slope")
        forward = geom.forward_g_orbit(word)
        assert k_steps and list(geom._periodic_words) == [word]
        assert forward == fresh_geometry(geom.params).forward_g_orbit(word)


def count_calls(monkeypatch, name):
    """The arguments of every call of symbolic.<name> from now on."""
    calls = []
    step = getattr(symbolic, name)

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(symbolic, name, counted)
    return calls


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
        tau, kappa = geom.params.radius_exponent, geom.kappa
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


def replay_itinerary(geom, x, length):
    """x's first `length` k-symbols with x read as exact in geom's context, or
    ("escape", s) once the orbit leaves X at step s < length."""
    try:
        return geom.itinerary(x, length)
    except EscapeError as exc:
        return ("escape", exc.step)


class TestItineraryBudget:
    """itinerary answers only within its digit budget T = (N - g) // m.

    The periodic point x of every word of length <= 4 is asked for T - 2 to
    T + 8 symbols at N = 64, and the same 64 digits are replayed at N = 256,
    where every one of those steps is trusted: each N = 64 answer is the
    replay's, or PrecisionExhausted, which every length past T + 1 raises.
    """

    @pytest.mark.parametrize("p, a, b", [(13, 170, 14), (5, 26, 6), (13, 2198, 170)])
    def test_answers_match_the_4n_replay(self, p, a, b):
        def geom_at(precision):
            ctx = PrimeContext(p, precision)
            return RepellerGeometry.build(MapParams(ctx.from_int(a), ctx.from_int(b)))

        geom, wide = geom_at(64), geom_at(256)
        budget = geom.params.trusted_steps
        lengths = range(budget - 2, budget + 9)
        assert wide.params.trusted_steps > lengths[-1]
        answered = exhausted = 0
        for n in range(1, 5):
            for word in all_words(n):
                x = geom.periodic_point_k(word)
                wide_x = wide.params.ctx.from_digits(x.valuation, x.digits())
                replay = replay_itinerary(wide, wide_x, lengths[-1])
                if replay[0] == "escape":  # the symbols before the escape
                    prefix = wide.itinerary(wide_x, replay[1])
                for length in lengths:
                    want = replay[:length] if replay[0] != "escape" else (
                        prefix[:length] if length <= replay[1] else replay)
                    try:
                        got = replay_itinerary(geom, x, length)
                    except PrecisionExhausted:
                        assert length > budget + 1, (word, length)
                        exhausted += 1
                        continue
                    assert got == want, (word, length)
                    assert length <= budget + 1
                    answered += 1
        assert answered and exhausted


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
            assert ball.radius_exponent == -2 * m
        for i, (wi, bi) in enumerate(cyl):
            for wj, bj in cyl[i + 1:]:
                assert not bi.contains(bj.center)

    def test_balls_contain_their_periodic_points(self, geom):
        for depth in (1, 2, 3):
            for word, ball in geom.julia_cylinders(depth):
                assert ball.contains(geom.periodic_point_k(word))

    def test_suffixes_are_composed_once(self, monkeypatch):
        ctx = PrimeContext(13)
        geom = RepellerGeometry.build(MapParams(ctx.from_int(170), ctx.from_int(14)))
        want = {word: chain_center(geom, word) for word in all_words(5)}
        calls = count_branches(monkeypatch)
        cylinders = geom.julia_cylinders(5)
        assert len(calls) == 2 ** 6 - 4
        assert [word for word, _ in cylinders] == all_words(5)
        assert all(ball.center == want[word] for word, ball in cylinders)

    def test_depth_above_the_limit_is_refused_before_any_work(self, monkeypatch):
        geom = RepellerGeometry.build(acceptance_params())
        calls = count_branches(monkeypatch)
        for depth in (0, symbolic.MAX_CYLINDER_DEPTH + 1, 30):
            with pytest.raises(DomainError):
                geom.julia_cylinders(depth)
        assert calls == [] and tree_depths(geom) == []


def chain_center(geom, word):
    """Each word's own chain of inverse branches from the centre of its last
    ball, kept as the oracle of the shared tree."""
    center = geom.center_sq(word[-1])
    for sym in reversed(word[:-1]):
        center = geom.inverse_branch(sym, center)
    return center


def count_branches(monkeypatch):
    """The branch index of every inverse_branch call from now on."""
    calls = []
    inverse_branch = RepellerGeometry.inverse_branch

    def counted_branch(self, j, x):
        calls.append(j)
        return inverse_branch(self, j, x)

    monkeypatch.setattr(RepellerGeometry, "inverse_branch", counted_branch)
    return calls


def tree_depths(geom):
    """The word length of every centre kept in the geometry's tree."""
    depths, stack = [], [(geom._cylinder_tree, 0)]
    while stack:
        node, depth = stack.pop()
        if depth:
            depths.append(depth)
        stack += [(child, depth + 1) for child in node[1:] if child is not None]
    return depths


class TestCylinderTree:
    def test_cylinders_hold_every_newton_start(self, geom, monkeypatch):
        geom.julia_cylinders(6)
        calls = count_branches(monkeypatch)
        assert geom._periodic_words == {}  # every word is solved below
        for length in range(1, 6):
            for word in all_words(length):
                geom.periodic_point_k(word)
        assert len(geom._periodic_words) == 2 ** 6 - 2
        assert calls == []

    def test_cylinders_compose_only_the_missing_centres(self, geom, monkeypatch):
        words = [(1,), (2, 1), (1, 2, 2), (2, 2, 1, 2)]
        for word in words:
            geom.periodic_point_k(word)
        kept = {start[i:] for word in words for start in [word + word[:1]]
                for i in range(len(start) - 1)}
        assert len(tree_depths(geom)) == len(kept) + 2  # and the two balls
        calls = count_branches(monkeypatch)
        geom.julia_cylinders(5)
        assert len(calls) == 2 ** 6 - 4 - len(kept)
        assert len(tree_depths(geom)) == 2 ** 6 - 2

    def test_centres_match_the_chain_cold_and_warm(self, geom):
        params = geom.params
        for length in range(1, 5):
            for word in all_words(length):
                want = chain_center(geom, word)
                fresh = fresh_geometry(params)  # an empty tree
                assert fresh.cylinder_center(word) == want, word
                assert fresh.cylinder_center(word) == want, word
                assert geom.cylinder_center(word) == want, word
        for word, ball in geom.julia_cylinders(6):
            assert ball.center == chain_center(geom, word), word

    def test_kept_depth_is_capped(self, monkeypatch):
        geom = RepellerGeometry.build(acceptance_params())
        rng = random.Random(20261018)
        cap = symbolic.MAX_CYLINDER_DEPTH
        words = [tuple(rng.choice((1, 2)) for _ in range(rng.randrange(cap + 1, 2 * cap)))
                 for _ in range(30)]
        for word in words:
            assert geom.cylinder_center(word) == chain_center(geom, word)
        assert max(tree_depths(geom)) == cap
        # a small cap fills up and stays there, whatever is asked later
        monkeypatch.setattr(symbolic, "MAX_CYLINDER_DEPTH", 3)
        geom = fresh_geometry(geom.params)
        for word in words + all_words(5):
            assert geom.cylinder_center(word) == chain_center(geom, word)
        assert sorted(tree_depths(geom)) == [1] * 2 + [2] * 4 + [3] * 8

    def test_word_longer_than_the_recursion_limit(self):
        geom = RepellerGeometry.build(acceptance_params())
        rng = random.Random(7)
        word = tuple(rng.choice((1, 2)) for _ in range(sys.getrecursionlimit() + 10))
        start = word + word[:1]
        assert geom.cylinder_center(start) == chain_center(geom, start)
        assert max(tree_depths(geom)) == symbolic.MAX_CYLINDER_DEPTH
