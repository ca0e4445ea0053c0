"""Command-line front end: every library operation as a JSON-emitting subcommand.

Exit codes: 0 success, 1 domain error, 2 precision exhaustion,
3 verification failure; each error class declares its own in errors.py.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import fixedpoints
from .errors import DomainError, NoValidPlacement, PadicError
from .maps import MapParams, eval_f, eval_g, eval_k
from .padic import (PrimeContext, diff_valuation, norm_str, parse_padic,
                    to_json)

_ERROR_KIND = {1: "domain", 2: "precision", 3: "verification"}

# gibbs solve/verify/periodic list one compatibility residual per spin
# configuration on V_{n-1}; a larger V_{n-1} is refused before any work
MAX_LISTED_VERTICES = 12

# orbit keeps and prints every point, about 7 KB of RSS per step (4000 steps
# reached 44 MB); a longer orbit is refused before any work
MAX_ORBIT_STEPS = 4096
# lemmas spends about 21 us per sample (10^4 took 0.21 s at p = 13, N = 64);
# more samples are refused before any work
MAX_LEMMA_SAMPLES = 10000


# entries kept per process, per memo: (p, N, g) contexts in _context, and
# by their argument text (a, b) pairs in _pair, with their fixed points and
# repeller geometry, and (J, J1, J0) couplings in _couplings, with their
# exp_p values, edge units, solved u's and pair; past that, the entry used
# longest ago is dropped.  Each entry keeps a PrimeContext, with
# p^0..p^N, alive.
MEMO_SIZE = 16


# flags that take a p-adic literal (parse_padic)
_LITERAL_FLAGS = frozenset({"--a", "--b", "--x", "--J", "--J1", "--J0"})
_NEGATIVE_LITERAL = re.compile(r"-\d")


def _glue_negative_literals(argv: list[str]) -> list[str]:
    """Write "--x -3/7" as "--x=-3/7".

    argparse takes a value that starts with "-" and is not a plain negative
    number for an option, so "-3/7" and "-1;3" would not reach parse_padic.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _LITERAL_FLAGS and _NEGATIVE_LITERAL.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


@functools.lru_cache(maxsize=MEMO_SIZE)
def _context(p: int, precision: int, guard: int) -> PrimeContext:
    """One context per (p, N, g) per process, shared by the pairs and the
    couplings the CLI keeps; a DomainError is raised again on every call,
    never stored."""
    return PrimeContext(p, precision, guard)


def _ctx(args) -> PrimeContext:
    return _context(args.p, args.precision, args.guard)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _pair(p: int, precision: int, guard: int, a: str, b: str) -> MapParams:
    """One MapParams per (p, N, g) and --a, --b text per process, in the
    context _context shares: a later call skips the parse and the checks and
    reuses the fixed points and the geometry the pair keeps.  Equal values
    spelled apart (170 and 170/1) get entries of their own, with equal
    digits; a DomainError is raised again on every call, never stored."""
    ctx = _context(p, precision, guard)
    return MapParams(parse_padic(a, ctx), parse_padic(b, ctx))


def _params(args) -> MapParams:
    return _pair(args.p, args.precision, args.guard, args.a, args.b)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _couplings(p: int, precision: int, guard: int,
               J: str, J1: str, J0: str) -> gibbs.Couplings:
    """One Couplings per (p, N, g) and --J, --J1, --J0 text per process, as
    _pair keeps pairs: a later call reuses its exp_p values, edge units,
    solved u's and pair; a DomainError is raised again on every call, never
    stored."""
    from . import gibbs  # the Gibbs layer loads on first use
    ctx = _context(p, precision, guard)
    return gibbs.Couplings(parse_padic(J, ctx), parse_padic(J1, ctx),
                           parse_padic(J0, ctx))


def _word(text: str):
    from .symbolic import check_word  # the symbolic layer loads on first use
    return check_word(tuple(int(s) for s in text.replace(",", " ").split()))


def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: each parse_args
    call fills a fresh Namespace, so nothing carries over between calls.
    Each subcommand names its body in its `run` default."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser],
                        dict[str, tuple]]:
    """The full parser, and each subcommand's own parser and its _table, by
    name."""
    context = argparse.ArgumentParser(add_help=False)
    context.add_argument("--p", type=int, required=True)
    context.add_argument("--precision", type=int, default=64)
    context.add_argument("--guard", type=int, default=8)
    pair = argparse.ArgumentParser(add_help=False, parents=[context])
    pair.add_argument("--a", required=True, help="p-adic literal: m/n or v;d0,d1,...")
    pair.add_argument("--b", required=True)

    parser = argparse.ArgumentParser(
        prog="padicdyn",
        description="p-adic dynamics of the generalized Ising mapping")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, flags=pair):
        sub = subs.add_parser(name, parents=[flags], help=summary)
        sub.set_defaults(run=run)
        return sub

    command("fixed-points", _cmd_fixed_points, "locate and classify all fixed points")
    s = command("classify", _cmd_classify, "classify one fixed point")
    s.add_argument("--x", required=True)
    s = command("orbit", _cmd_orbit, "iterate a map from a start point")
    s.add_argument("--x", required=True)
    s.add_argument("--steps", type=int, default=10)
    s.add_argument("--map", choices=("f", "g", "k"), default="g")
    s = command("basin", _cmd_basin, "basin-of-attraction status of a point")
    s.add_argument("--x", required=True)
    s.add_argument("--max-iter", type=int, default=100)
    s = command("itinerary", _cmd_itinerary, "symbolic itinerary of a point under k")
    s.add_argument("--x", required=True)
    s.add_argument("--length", type=int, default=8)
    s = command("periodic", _cmd_periodic, "synthesize a periodic point from a word")
    s.add_argument("--word", required=True, help="comma-separated symbols in {1,2}")
    s.add_argument("--map", choices=("g", "k"), default="k")
    s = command("cylinders", _cmd_cylinders, "Julia-set cylinder balls at a depth")
    s.add_argument("--depth", type=int, default=2)
    s = command("lemmas", _cmd_lemmas, "norm-identity report for the parameter pair")
    s.add_argument("--samples", type=int, default=50)
    s.add_argument("--seed", type=int, default=0)

    s = command("gibbs", _cmd_gibbs, "Cayley-tree Gibbs measures", flags=context)
    s.add_argument("action", choices=("solve", "verify", "periodic"))
    s.add_argument("--J", default="0")
    s.add_argument("--J1", default="0")
    s.add_argument("--J0", default="0")
    s.add_argument("--k", type=int, default=2)
    s.add_argument("--n", type=int, default=2)
    # each read by one action alone (_ACTION_FLAGS); None marks a flag not
    # given, so the other actions can refuse it.  Defaults: solve, x0, off
    s.add_argument("--source", choices=("solve", "unit"), metavar="SOURCE",
                   help="verify: field source, 'solve' | "
                   "'unit'; fields from a g-orbit: periodic --word")
    s.add_argument("--word",
                   help="periodic: 'x0' or comma-separated symbols in {1,2}")
    s.add_argument("--diagonal", action="store_true", default=None,
                   help="periodic: also try the two-component diagonal placement")
    return parser, subs.choices, {name: _table(sub) for name, sub in subs.choices.items()}


def _table(command: argparse.ArgumentParser) -> tuple:
    """What _table_parse reads of a subcommand's parser, from its argparse
    actions: each flag by its full spelling, the positionals in order, the
    defaults (a string one through its flag's type, as argparse converts it
    when the flag is not given; then those of set_defaults) and the required
    dests.  -h sets no attribute (default SUPPRESS), so argparse keeps it."""
    flags, positionals, defaults = {}, [], {}
    for action in command._actions:
        if action.default == argparse.SUPPRESS:
            continue
        flags.update(dict.fromkeys(action.option_strings, action))
        if not action.option_strings:
            positionals.append(action)
        default = action.default
        if action.type is not None and isinstance(default, str):
            default = action.type(default)
        defaults[action.dest] = default
    for dest, default in command._defaults.items():
        defaults.setdefault(dest, default)
    required = {action.dest for action in command._actions if action.required}
    return flags, positionals, defaults, required


def _table_parse(table: tuple, args: list[str]) -> argparse.Namespace | None:
    """The Namespace the subcommand's parse_args(args) returns, read in one
    walk over args from its _table; None wherever argparse could answer
    otherwise: a flag not spelled in full (an abbreviation, -h, --, a negative
    number), `--flag=` on a flag that takes no value, a missing value or one
    that starts with "-", a value its type or choices refuse, one positional
    too many, a required flag left out.  argparse then parses args itself,
    with every usage line, error and help text its own."""
    flags, positionals, defaults, required = table
    values, given, position = dict(defaults), set(), 0
    rest = iter(args)
    for arg in rest:
        if arg.startswith("-"):
            flag, equals, value = arg.partition("=")
            action = flags.get(flag)
            if action is None:
                return None
            if action.nargs == 0:
                if equals:
                    return None
                value = action.const
            elif not equals:
                value = next(rest, None)
                if value is None or value.startswith("-"):
                    return None
        elif position < len(positionals):
            action, value = positionals[position], arg
            position += 1
        else:
            return None
        if action.nargs != 0:
            try:
                value = value if action.type is None else action.type(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
        values[action.dest] = value
        given.add(action.dest)
    if not required <= given:
        return None
    return argparse.Namespace(**values)


# -- subcommand bodies -------------------------------------------------------

def _cmd_fixed_points(args):
    return fixedpoints.analyze(_params(args)).to_json(), 0


def _cmd_classify(args):
    params = _params(args)
    x = parse_padic(args.x, params.ctx)
    label, slope = fixedpoints.classify_with_slope(params, x)
    return {
        "x": to_json(x),
        "classification": label,
        "multiplier_norm": norm_str(slope.valuation, params.ctx.p),
    }, 0


def _cmd_orbit(args):
    if args.steps < 0:
        raise DomainError("steps must be >= 0")
    if args.steps > MAX_ORBIT_STEPS:
        raise DomainError(f"steps must be <= {MAX_ORBIT_STEPS}")
    params = _params(args)
    step = {"f": eval_f, "g": eval_g, "k": eval_k}[args.map]
    x = parse_padic(args.x, params.ctx)
    points = [x]
    for _ in range(args.steps):
        points.append(step(params, points[-1]))
    return {"map": args.map, "orbit": [to_json(pt) for pt in points]}, 0


def _cmd_basin(args):
    from .symbolic import basin_status
    params = _params(args)
    x = parse_padic(args.x, params.ctx)
    status = basin_status(params, x, args.max_iter)
    return {
        "outcome": status.outcome,
        "steps": status.steps,
        "trail": list(status.trail),
    }, 0


def _cmd_itinerary(args):
    from .symbolic import RepellerGeometry
    params = _params(args)
    geom = RepellerGeometry.build(params)
    word = geom.itinerary(parse_padic(args.x, params.ctx), args.length)
    return {"itinerary": list(word)}, 0


def _cmd_periodic(args):
    from .symbolic import RepellerGeometry
    params = _params(args)
    geom = RepellerGeometry.build(params)
    word = _word(args.word)
    forward = geom.forward_g_orbit if args.map == "g" else geom.forward_k_ends
    orbit = forward(word)
    point, final = orbit[0], orbit[-1]
    return {
        "word": list(word),
        "map": args.map,
        "point": to_json(point),
        "period_residual": norm_str(diff_valuation(final, point), params.ctx.p),
    }, 0


def _cmd_cylinders(args):
    from .symbolic import RepellerGeometry
    params = _params(args)
    geom = RepellerGeometry.build(params)
    return {
        "depth": args.depth,
        "cylinders": [
            {"word": list(word), "ball": ball.to_json()}
            for word, ball in geom.julia_cylinders(args.depth)
        ],
    }, 0


def _cmd_lemmas(args):
    if args.samples < 1:
        raise DomainError("samples must be >= 1")
    if args.samples > MAX_LEMMA_SAMPLES:
        raise DomainError(f"samples must be <= {MAX_LEMMA_SAMPLES}")
    params = _params(args)
    report = fixedpoints.analyze(params)
    scaling = None
    if report.roots is not None and params.strict_regime:
        import random
        from .symbolic import RepellerGeometry
        geom = RepellerGeometry.build(params)
        rng = random.Random(args.seed)
        ctx = params.ctx
        m = params.radius_exponent
        def in_ball_point(center):
            t = rng.randrange(1, ctx.p ** 6)
            j = m + 1 + rng.randrange(3)
            return center + ctx.from_int(t * ctx.p ** j)

        holds = 0
        for _ in range(args.samples):
            center = geom.center_sq(rng.choice((1, 2)))
            x, y = in_ball_point(center), in_ball_point(center)
            # exact one-step scaling of k on the repeller balls, read on
            # orders: |k(x) - k(y)|_p r = |x - y|_p, r = p^-m
            image = diff_valuation(eval_k(params, x), eval_k(params, y))
            if (None if image is None else image + m) == diff_valuation(x, y):
                holds += 1
        scaling = {"samples": args.samples, "holds": holds,
                   "all_hold": holds == args.samples}
    body = report.to_json()
    body["scaling_identity"] = scaling
    return body, 0


def _check_listing_size(k: int, n: int):
    if n < 1:
        raise DomainError("n must be >= 1")
    if k > MAX_LISTED_VERTICES:
        raise DomainError(f"tree order k must be <= {MAX_LISTED_VERTICES}: W_1 of "
                          f"the order-{k} tree has {k} vertices")
    listed = 0
    for m in range(n):
        listed += k ** m
        if listed > MAX_LISTED_VERTICES:
            raise DomainError(
                f"V_{n - 1} of the order-{k} tree has more than "
                f"{MAX_LISTED_VERTICES} vertices: the compatibility report "
                f"would list more than 2^{MAX_LISTED_VERTICES} residuals")


# gibbs flags, each with the one action that reads it
_ACTION_FLAGS = {"source": "verify", "word": "periodic", "diagonal": "periodic"}


def _cmd_gibbs(args):
    from . import gibbs
    for flag, action in _ACTION_FLAGS.items():
        if getattr(args, flag) is not None and args.action != action:
            raise DomainError(f"--{flag} is read by gibbs {action} only")
    ctx = _ctx(args)
    tree = gibbs.CayleyTree(args.k)
    _check_listing_size(tree.k, args.n)
    if args.diagonal and tree.k != 2:
        raise DomainError("the diagonal construction needs tree order k = 2")
    couplings = _couplings(args.p, args.precision, args.guard,
                           args.J, args.J1, args.J0)

    if args.action != "periodic":
        # solve, and verify of the solved or the unit field
        if args.action == "verify" and args.source == "unit":
            field = gibbs.GibbsField.unit(tree, args.n, ctx)
        else:
            field = gibbs.solve_7_11(tree, couplings, args.n)
        report = gibbs.check_compatibility(tree, couplings, field, args.n)
        body = {"field": field.to_json()} if args.action == "solve" else {}
        body["compatibility"] = report.to_json()
        return body, 0 if report.ok else 3

    # periodic: fields placed along the g-orbit of --word
    params = couplings.params
    if args.word in (None, "x0"):
        orbit = [fixedpoints.find_x0(params)]
    else:
        from .symbolic import RepellerGeometry
        orbit = RepellerGeometry.build(params).g_orbit(_word(args.word))
    body = {"orbit": [to_json(h) for h in orbit]}
    try:
        candidates = gibbs.periodic_field_from_orbit(tree, couplings, orbit, args.n)
    except NoValidPlacement as exc:
        if not args.diagonal:
            raise
        candidates = []
        body["single_component_diagnostics"] = exc.diagnostics
    if args.diagonal:
        candidates.append(gibbs.diagonal_field_from_orbit(tree, couplings, orbit,
                                                          args.n))
    body["placements"] = [
        {
            "placement": c.placement,
            "equation_residual": str(c.residual),
            "compatibility": gibbs.check_compatibility(
                tree, couplings, c.field, args.n).to_json(),
        }
        for c in candidates
    ]
    return body, 0


def _emit(body) -> None:
    """Print one line of compact JSON: the only writer to stdout.

    json.dumps without indent runs CPython's C encoder; with indent it falls
    back to pure Python and puts every p-adic digit on a line of its own.
    Pipe through `python3 -m json.tool` for indented output.
    """
    print(json.dumps(body))


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv: a leading subcommand name sends the rest to that
    subcommand's table (_table_parse), and to its parser where the table
    declines.  The full parser takes the other inputs: no argv, -h, an
    unknown command, flags before the command."""
    parser, commands, tables = _parsers()
    name = argv[0] if argv else None
    if name not in commands:
        return parser.parse_args(argv)
    args = _table_parse(tables[name], argv[1:])
    return commands[name].parse_args(argv[1:]) if args is None else args


def run(argv=None) -> int:
    argv = _glue_negative_literals(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        body, code = args.run(args)
    except NoValidPlacement as exc:
        _emit({"error": "no valid placement", "diagnostics": exc.diagnostics})
        return exc.exit_code
    except (PadicError, ValueError) as exc:
        code = getattr(exc, "exit_code", 1)
        print(f"{_ERROR_KIND[code]} error: {exc}", file=sys.stderr)
        return code
    _emit(body)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
