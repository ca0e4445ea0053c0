"""Fixed-point location, classification, and the norm identities behind them."""
import gc
import json
import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from padicdyn import (
    ATTRACTING,
    REPELLING,
    MapParams,
    NotAFixedPoint,
    PrimeContext,
    analyze,
    classify,
    discriminant,
    eq_to_precision,
    eval_g,
    find_x0,
    in_Ep,
    norm_diff,
    repelling_roots,
    sqrt_both,
    sqrt_exists,
    verify_lemma_3_4,
)
from padicdyn import fixedpoints
from padicdyn.cli import run
from padicdyn.padic import converge
from test_maps import deriv_g
from conftest import acceptance_params, strict_params


def quadratic_coeffs(params, x0):
    """(B, C) of x^2 + Bx + C = 0, the non-E_p fixed points: B = x0 - ab^2
    and C = a/x0, which the factoring identity a/x0 = x0^2 - ab^2 x0 + b^2
    ties to x0."""
    a, b2 = params.a, params.b2
    B, C = x0 - a * b2, a / x0
    assert eq_to_precision(C, x0 * x0 - a * b2 * x0 + b2, params.ctx.residual_digits)
    return B, C


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

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 29])
    def test_newton_matches_iteration_of_g_on_seeded_pairs(self, p):
        # every (N, g) of the grid, strict and non-strict pairs, m <= N - g
        rng = random.Random(p)
        for N, g in product((12, 20, 64, 128), (1, 2, 5, 8)):
            ctx = PrimeContext(p, N, g)
            for _ in range(5):
                a = 1 + p ** rng.randint(1, 3) * rng.randrange(1, p ** 4)
                b = 1 + p ** rng.randint(1, min(3, N - g)) * rng.randrange(1, p ** 4)
                params = MapParams(ctx.from_int(a), ctx.from_int(b))
                oracle = converge(lambda u: eval_g(params, u), ctx.one(), "iteration of g")
                assert find_x0(params) == oracle, (N, g, a, b)

    def test_newton_steps_are_few(self, monkeypatch):
        # the linear iteration of g takes 63 steps here; x0 runs padic's
        # P/M Newton step, the one solve_7_11 runs for u
        ctx = PrimeContext(13)
        params = MapParams(ctx.from_int(170), ctx.from_int(14))
        calls, newton_step = [], fixedpoints._newton_step

        def counted(*args):
            calls.append(args)
            return newton_step(*args)

        monkeypatch.setattr(fixedpoints, "_newton_step", counted)
        find_x0(params)
        assert 0 < len(calls) <= 10


class TestX0Memo:
    """x0, Delta and the repelling roots: one solve per pair, kept on it."""

    @staticmethod
    def counted_solves(monkeypatch):
        solves, solve = [], fixedpoints._fixed_points

        def counted(params):
            solves.append(params)
            return solve(params)

        monkeypatch.setattr(fixedpoints, "_fixed_points", counted)
        return solves

    def test_warm_call_returns_the_cold_digits(self, monkeypatch):
        params = acceptance_params()
        solves = self.counted_solves(monkeypatch)
        cold = find_x0(params)
        warm = find_x0(params)
        assert len(solves) == 1 and warm is cold
        assert warm == fixedpoints._fixed_points(acceptance_params())[0]

    def test_analyze_reads_the_same_entry(self, monkeypatch):
        params = acceptance_params()
        solves = self.counted_solves(monkeypatch)
        x0 = find_x0(params)
        report = analyze(params)
        assert len(solves) == 1
        assert report.x0 is x0
        fresh = fixedpoints._fixed_points(acceptance_params())
        assert (report.x0, report.delta, report.roots) == fresh

    def test_analyze_keeps_its_report(self, monkeypatch):
        params = acceptance_params()
        reports, report_init = [], fixedpoints.FixedPointReport.__init__

        def counted(report, params):
            reports.append(params)
            report_init(report, params)

        monkeypatch.setattr(fixedpoints.FixedPointReport, "__init__", counted)
        report = analyze(params)
        assert analyze(params) is report and len(reports) == 1
        fresh = fixedpoints.FixedPointReport(acceptance_params())
        assert report.to_json() == fresh.to_json()

    def test_a_report_that_raises_keeps_nothing(self, monkeypatch):
        params = acceptance_params()

        def refuse(params, x):
            raise NotAFixedPoint("refused")

        monkeypatch.setattr(fixedpoints, "classify", refuse)
        for _ in range(2):
            with pytest.raises(NotAFixedPoint, match="refused"):
                analyze(params)
        monkeypatch.undo()
        assert analyze(params).to_json() == analyze(acceptance_params()).to_json()

    def test_equal_contexts_keep_values_of_their_own(self):
        first, second = acceptance_params(), acceptance_params()
        assert first.ctx is not second.ctx
        x0 = find_x0(second)
        assert x0 is not find_x0(first) and x0 == find_x0(first)
        # each value in the caller's own context
        _, delta, roots = second.fixed_points
        assert all(value.ctx is second.ctx for value in (x0, delta, *roots))

    @pytest.mark.parametrize("precision, guard", [(128, 8), (64, 10)])
    def test_other_precision_or_guard_misses(self, precision, guard):
        find_x0(acceptance_params())
        params = acceptance_params(precision, guard)
        got = find_x0(params)
        assert got.ctx is params.ctx
        assert got == fixedpoints._fixed_points(params)[0]  # a fresh solve

    def test_bounded(self):
        # the fixed points live and die with their pair: the library keeps none
        params = acceptance_params()
        find_x0(params)
        pair = weakref.ref(params)
        del params
        gc.collect()
        assert pair() is None


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
            assert deriv_g(params, x0).norm() == (b ** 4 - 1).norm()
            assert classify(params, x0) == ATTRACTING
            if ctx.p % 4 == 1:
                for xi in repelling_roots(params, x0, discriminant(params, x0)):
                    assert deriv_g(params, xi).norm() == 1 / params.radius
                    assert classify(params, xi) == REPELLING

    def test_not_a_fixed_point(self, ctx, rng):
        params = strict_params(ctx, rng)
        with pytest.raises(NotAFixedPoint):
            classify(params, ctx.from_int(3 if ctx.p != 3 else 5))

    LABELS = {"x0": ATTRACTING, "x1": REPELLING, "x2": REPELLING}

    @pytest.mark.parametrize("command", ["fixed-points", "lemmas"])
    def test_a_pair_with_m_above_the_guard_is_answered(self, capsys, command):
        # a = 1 + 13^10, b = 1 + 13^9: m = ord(b - 1) = 9 > g = 8 at N = 64,
        # where |g(x1) - x1|_p reaches only p^-(N - m)
        assert run([command, "--p", "13", "--a", "137858491850",
                    "--b", "10604499374"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert (body["radius"], body["classifications"]) == ("13^-9", self.LABELS)

    @pytest.mark.parametrize("p", [5, 13, 17])
    def test_every_m_up_to_the_precision_floor(self, p):
        """Seeded pairs at every m = ord(b - 1) = 1..N - g, N = 20: each is
        answered, and x0, x1 and x2 satisfy Vieta's identities to N - g digits."""
        ctx, rng = PrimeContext(p, 20), random.Random(p)
        d = ctx.residual_digits
        for m in range(1, d + 1):
            for _ in range(4):
                a = ctx.from_int(1 + p * rng.randrange(1, p ** 6))
                b = ctx.from_int(1 + p ** m * (rng.randrange(1, p) + p * rng.randrange(p ** 4)))
                params = MapParams(a, b)
                report = analyze(params)
                assert params.radius_exponent == m
                assert report.classifications == self.LABELS
                x0, (x1, x2) = report.x0, report.roots
                assert eq_to_precision(x0 + x1 + x2, a * b * b, d)
                assert eq_to_precision(x0 * x1 + x0 * x2 + x1 * x2, b * b, d)
                assert eq_to_precision(x0 * x1 * x2, a, d)


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


def norm_lemma_3_4(params, x0, roots):
    """Clauses (ii)-(v) of Lemma 3.4 as exact Fraction norms, the former form
    of verify_lemma_3_4, kept as the oracle of its order sums."""
    a, b2, r = params.a, params.b * params.b, params.radius
    out = {"iv": (x0 * x0 + b2).norm() * (x0 * x0 * b2 + 1).norm() == 1}
    if roots is not None:
        out["ii"] = all((b2 - 1 + (b2 * a - x0) * xi).norm() == r for xi in roots)
        out["iii"] = all((xi * xi + b2).norm() == r for xi in roots)
        out["v"] = all(
            (xi * xi + b2).norm() * (xi * xi * b2 + 1).norm() <= Fraction(1, params.ctx.p ** 2)
            for xi in roots)
    return out


class TestLemma34Orders:
    def test_orders_match_fraction_norms(self):
        # the three acceptance pairs and 50 seeded strict pairs per p; beside
        # the solved points, perturbed ones make clauses fail, x0/p gives
        # negative orders, and i*b (i^2 = -1) makes the factor x^2 + b^2 of
        # (v) vanish
        pairs = [MapParams(PrimeContext(p).from_int(a), PrimeContext(p).from_int(b))
                 for p, a, b in ((13, 170, 14), (5, 26, 6), (13, 2198, 170))]
        for p in (5, 13):
            ctx, rng = PrimeContext(p), random.Random(p)
            pairs += [strict_params(ctx, rng, t=rng.choice((1, 2))) for _ in range(50)]
        seen = Counter()
        for params in pairs:
            ctx = params.ctx
            x0 = find_x0(params)
            delta = discriminant(params, x0)
            x1, x2 = repelling_roots(params, x0, delta)
            i_b = sqrt_both(ctx.from_int(-1))[0] * params.b
            near = x1 + ctx.from_int(ctx.p) ** params.radius_exponent
            roots_of_negative_order = (x1 / ctx.from_int(ctx.p), x2)
            for point, roots in ((x0, (x1, x2)), (x1, (x2, x1)), (x0, (near, x2)),
                                 (x0, (i_b, x2)), (x0, (x0, x0)), (x2, None),
                                 (x0 / ctx.from_int(ctx.p), roots_of_negative_order)):
                want = norm_lemma_3_4(params, point, roots)
                got = verify_lemma_3_4(params, point, roots, delta)
                assert {clause: got[clause] for clause in want} == want
                seen.update(want.items())
        assert set(seen) == {(clause, holds) for clause in ("ii", "iii", "iv", "v")
                             for holds in (True, False)}


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
