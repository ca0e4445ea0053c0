"""Shared sampling helpers: seeded, deterministic, no global state."""
import random

import pytest

from padicdyn import MapParams, PrimeContext, cli


def random_unit(ctx, rng):
    """Random unit of Z_p (leading digit nonzero)."""
    u = rng.randrange(1, ctx.modulus)
    while u % ctx.p == 0:
        u = rng.randrange(1, ctx.modulus)
    return ctx.from_digits(0, _digits(u, ctx))


def random_padic(ctx, rng, vmin=-6, vmax=6):
    """Random nonzero value with valuation in [vmin, vmax]."""
    x = random_unit(ctx, rng)
    return x * ctx.from_rational(1, 1) * ctx.from_int(ctx.p) ** rng.randrange(vmin, vmax + 1)


def random_Ep(ctx, rng, min_level=1):
    """Random element of E_p with ord(x - 1) >= min_level."""
    tail = rng.randrange(0, ctx.p ** 8)
    return ctx.from_int(1 + ctx.p ** min_level * (1 + ctx.p * tail))


def strict_params(ctx, rng, t=1):
    """Strict-regime pair: ord(b - 1) = t, ord(a - 1) > t."""
    p = ctx.p
    eps = rng.randrange(1, p)
    b = ctx.from_int(1 + p ** t * (eps + p * rng.randrange(0, p ** 6)))
    s = t + 1 + rng.randrange(0, 2)
    a = ctx.from_int(1 + p ** s * (rng.randrange(1, p) + p * rng.randrange(0, p ** 6)))
    return MapParams(a, b)


def acceptance_params(precision=64, guard=8):
    """The pair p = 13, a = 170, b = 14, in a context of its own."""
    ctx = PrimeContext(13, precision, guard)
    return MapParams(ctx.from_int(170), ctx.from_int(14))


def _digits(u, ctx):
    out = []
    for _ in range(ctx.precision):
        u, d = divmod(u, ctx.p)
        out.append(d)
    return out


@pytest.fixture(autouse=True)
def cold_memos():
    """Start every test with no CLI context, pair or coupling built.

    The CLI keeps its PrimeContext per (p, N, g), its MapParams per (a, b)
    text, with the fixed points and the repeller geometry (cylinder centres,
    one record per periodic word: its k-periodic point and checked forward
    g-orbit) each pair keeps, and its
    Couplings per (J, J1, J0) text, with the exp_p values, edge units, solved
    u's and pair each keeps, per process; a test that counts or
    monkeypatches solver or map calls must see the cold path.
    tests/test_surface.py checks that these are the package's three memos
    and that all three are cleared here.
    """
    cli._context.cache_clear()
    cli._pair.cache_clear()
    cli._couplings.cache_clear()


@pytest.fixture
def rng():
    return random.Random(20260824)


@pytest.fixture(params=[3, 5, 7, 13])
def ctx(request):
    return PrimeContext(request.param)
