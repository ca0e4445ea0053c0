"""Fixed-point location, classification, and the norm identities behind them."""
from fractions import Fraction

import pytest

from padicdyn import (
    ATTRACTING,
    REPELLING,
    MapParams,
    NotAFixedPoint,
    PrimeContext,
    analyze,
    classify,
    deriv_g_norm,
    discriminant,
    eq_to_precision,
    eval_g,
    find_x0,
    in_Ep,
    norm_diff,
    quadratic_coeffs,
    repelling_roots,
    sqrt_exists,
    verify_lemma_3_4,
)
from padicdyn import fixedpoints
from padicdyn.padic import converge
from conftest import strict_params


class TestX0:
    def test_fixed_and_in_Ep(self, ctx, rng):
        for _ in range(10):
            params = strict_params(ctx, rng)
            x0 = find_x0(params)
            assert in_Ep(x0)
            assert eq_to_precision(eval_g(params, x0), x0, ctx.residual_digits)

    def test_near_a(self, ctx, rng):
        # |x0 - a|_p = |x0 - 1|_p |b - 1|_p < r
        for _ in range(10):
            params = strict_params(ctx, rng)
            x0 = find_x0(params)
            assert norm_diff(x0, params.a) == norm_diff(x0, ctx.one()) * params.radius

    @pytest.mark.parametrize("precision", [64, 128])
    @pytest.mark.parametrize("p, a, b", [(13, 170, 14), (5, 26, 6), (13, 2198, 170)])
    def test_newton_matches_iteration_of_g(self, p, a, b, precision):
        # g itself contracts E_p to x0: Newton must land on the same N digits
        ctx = PrimeContext(p, precision)
        params = MapParams(ctx.from_int(a), ctx.from_int(b))
        oracle = converge(lambda u: eval_g(params, u), ctx.one(), "iteration of g")
        assert find_x0(params) == oracle

    def test_newton_steps_are_few(self, monkeypatch):
        # the linear iteration of g takes 63 steps here
        ctx = PrimeContext(13)
        params = MapParams(ctx.from_int(170), ctx.from_int(14))
        calls = []

        def counted(*args):
            calls.append(args)
            return eval_g(*args)

        monkeypatch.setattr(fixedpoints, "eval_g", counted)
        find_x0(params)
        assert 0 < len(calls) <= 10


class TestCubicStructure:
    """Vieta's identities for x^3 - ab^2 x^2 + b^2 x - a are an exact oracle."""

    @pytest.mark.parametrize("p", [5, 13])
    def test_vieta(self, p, rng):
        ctx = PrimeContext(p)
        for _ in range(10):
            params = strict_params(ctx, rng)
            a, b = params.a, params.b
            x0 = find_x0(params)
            roots = repelling_roots(params, x0, discriminant(params, x0))
            assert roots is not None
            x1, x2 = roots
            d = ctx.residual_digits
            assert eq_to_precision(x0 + x1 + x2, a * b * b, d)
            assert eq_to_precision(x0 * x1 + x0 * x2 + x1 * x2, b * b, d)
            assert eq_to_precision(x0 * x1 * x2, a, d)
            for xi in roots:
                assert eq_to_precision(eval_g(params, xi), xi, d)

    @pytest.mark.parametrize("p", [3, 7])
    def test_no_roots_when_p_3_mod_4(self, p, rng):
        ctx = PrimeContext(p)
        for _ in range(10):
            params = strict_params(ctx, rng)
            x0 = find_x0(params)
            delta = discriminant(params, x0)
            assert not sqrt_exists(delta)
            assert repelling_roots(params, x0, delta) is None

    def test_quadratic_coeffs_consistency(self, ctx, rng):
        params = strict_params(ctx, rng)
        x0 = find_x0(params)
        B, C = quadratic_coeffs(params, x0)
        if ctx.p % 4 == 1:
            x1, x2 = repelling_roots(params, x0, discriminant(params, x0))
            d = ctx.residual_digits
            assert eq_to_precision(-(x1 + x2), B, d)
            assert eq_to_precision(x1 * x2, C, d)

    def test_delta_leading_digit(self, ctx, rng):
        for _ in range(10):
            params = strict_params(ctx, rng)
            delta = discriminant(params, find_x0(params))
            assert delta.norm() == 1
            assert delta.leading_digit() == (ctx.p - 4) % ctx.p


class TestClassification:
    def test_multiplier_norms(self, ctx, rng):
        for _ in range(10):
            params = strict_params(ctx, rng)
            b = params.b
            x0 = find_x0(params)
            assert deriv_g_norm(params, x0) == (b ** 4 - 1).norm()
            assert classify(params, x0) == ATTRACTING
            if ctx.p % 4 == 1:
                for xi in repelling_roots(params, x0, discriminant(params, x0)):
                    assert deriv_g_norm(params, xi) == 1 / params.radius
                    assert classify(params, xi) == REPELLING

    def test_not_a_fixed_point(self, ctx, rng):
        params = strict_params(ctx, rng)
        with pytest.raises(NotAFixedPoint):
            classify(params, ctx.from_int(3 if ctx.p != 3 else 5))


class TestLemma34:
    def test_all_clauses_strict_regime(self, ctx, rng):
        for _ in range(10):
            params = strict_params(ctx, rng, t=rng.choice((1, 2)))
            x0 = find_x0(params)
            delta = discriminant(params, x0)
            roots = repelling_roots(params, x0, delta)
            out = verify_lemma_3_4(params, x0, roots, delta)
            if ctx.p % 4 == 1:
                assert all(out[c] for c in ("i", "ii", "iii", "iv", "v", "vi", "vii"))
            else:
                assert out["i"] and out["iv"] and out["vi"] and out["vii"]
                assert out["ii"] is None and out["iii"] is None and out["v"] is None


class TestReport:
    def test_analyze_json_shape(self, rng):
        ctx = PrimeContext(13)
        report = analyze(strict_params(ctx, rng))
        body = report.to_json()
        assert body["p"] == 13
        assert body["strict_regime"] is True
        assert body["classifications"]["x0"] == ATTRACTING
        assert body["classifications"]["x1"] == REPELLING
        assert set(body["lemma_3_4"]) == {"i", "ii", "iii", "iv", "v", "vi", "vii"}
        assert "x1" in body and "x2" in body
