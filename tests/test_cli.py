"""CLI subcommands: JSON output, determinism, and exit codes."""
import argparse
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import padicdyn
from padicdyn import (
    MapParams,
    PrimeContext,
    RepellerGeometry,
    diff_valuation,
    eval_g,
    eval_k,
    fixedpoints,
    norm_str,
    sqrt_both,
    symbolic,
    to_json,
)
from padicdyn import cli
from padicdyn.cli import build_parser, run
from padicdyn.maps import eval_k_slope
import output_grid
from conftest import acceptance_params

STRICT = ["--p", "13", "--a", "170/1", "--b", "14/1"]


def digit_literal(x) -> str:
    """x in the CLI's digit form v;d0,d1,..."""
    form = to_json(x)
    return f"{form['valuation']};{','.join(map(str, form['digits']))}"


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


# the exit-code table in README.md
EXIT_CODES = {
    "PadicError": 1, "DomainError": 1, "PoleError": 1, "ZeroInput": 1,
    "NotASquare": 1, "DivisionByZero": 1, "ZeroPartitionFunction": 1,
    "NotAFixedPoint": 1, "LengthMismatch": 1, "EscapeError": 1,
    "PrecisionExhausted": 2, "NoConvergence": 2,
    "VerificationError": 3, "ConsistencyError": 3, "BranchError": 3,
    "NoValidPlacement": 3,
}
ERROR_CLASSES = sorted(
    (obj for obj in vars(padicdyn).values()
     if isinstance(obj, type) and issubclass(obj, padicdyn.PadicError)),
    key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_exit_code_matches_readme(cls):
    assert cls.exit_code == EXIT_CODES[cls.__name__]


class TestParserReuse:
    """One parser serves every run() call of a process; nothing carries over."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_map_default_after_map_g(self, capsys):
        code, body = invoke(capsys, ["periodic", *STRICT, "--word", "1,2", "--map", "g"])
        assert code == 0 and body["map"] == "g"
        code, body = invoke(capsys, ["periodic", *STRICT, "--word", "1,2"])
        assert code == 0 and body["map"] == "k"
        ctx = PrimeContext(13)
        geom = RepellerGeometry.build(MapParams(ctx.from_int(170), ctx.from_int(14)))
        assert body["point"] == to_json(geom.periodic_point_k((1, 2)))

    def test_valid_call_after_argparse_error(self, capsys):
        assert run(["fixed-points", "--p", "13", "--a", "170/1"]) == 1
        assert "required: --b" in capsys.readouterr().err
        code, body = invoke(capsys, ["fixed-points", *STRICT])
        assert code == 0
        assert body["classifications"] == {
            "x0": "attracting", "x1": "repelling", "x2": "repelling"}


def synthetic_parser() -> argparse.ArgumentParser:
    """A parser with what the subcommands' flags do not use yet: a string
    default that argparse passes through its flag's type, an int positional
    with choices, a store-true flag that defaults to False."""
    parser = argparse.ArgumentParser(prog="synthetic")
    parser.add_argument("level", type=int, choices=(1, 2, 3))
    parser.add_argument("--count", type=int, default="7")
    parser.add_argument("--name", required=True)
    parser.add_argument("--quiet", action="store_true")
    parser.set_defaults(run=print)
    return parser


# what generated argv draw values from: ints good and bad, p-adic literals with
# and without a sign, choices of the subcommands and text that is none, empty
# text and text with a space
VALUES = st.sampled_from([
    "13", "5", "0", "007", " 7", "-3", "1.5", "x", "", "170/1", "-3/7", "0;1,2",
    "-1;3", "1,2", "k", "g", "f", "q", "solve", "verify", "periodic", "unit", "x0",
    "1 2"])
# tokens that are no flag's value: the end of options, a bare dash, help, an
# unknown flag
STRAY = st.sampled_from(["--", "-", "-h", "--help", "--no-such-flag"])


def good_value(action: argparse.Action):
    if action.choices is not None:
        return st.sampled_from(sorted(map(str, action.choices)))
    if action.type is int:
        return st.integers(-3, 200).map(str)
    return st.sampled_from(["170/1", "14/1", "-3/7", "0;1,2", "1,2", "x0"])


@st.composite
def argvs(draw, parser: argparse.ArgumentParser) -> list[str]:
    """argv for parser, shuffled: its required flags and positionals (each
    left out one time in ten) and a few more flags, with good values, each
    as `--flag value` or `--flag=value`; then up to two faults: a flag
    abbreviated, with `=` where it takes no value, with no value or a bad
    one, or a stray positional or token."""
    actions = [action for action in parser._actions if action.default != argparse.SUPPRESS]

    def piece(action, fault=None):
        value = draw(VALUES if fault == "bad" else good_value(action))
        if not action.option_strings:
            return [value]
        flag = action.option_strings[0]
        if fault == "abbreviated":
            flag = draw(st.sampled_from([flag[:end] for end in range(3, len(flag))] or [flag]))
        if action.nargs == 0:
            return [f"{flag}={value}"] if fault in ("equals", "bad") else [flag]
        if fault == "bare":
            return [flag]
        return draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))

    pieces = [piece(action) for action in actions
              if action.required and draw(st.integers(0, 9))]
    pieces += [piece(draw(st.sampled_from(actions))) for _ in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["abbreviated", "equals", "bare", "bad", "stray"]))
        if fault == "stray":
            pieces.append([draw(st.one_of(STRAY, VALUES))])
        else:
            pieces.append(piece(draw(st.sampled_from(actions)), fault))
    return [token for piece in draw(st.permutations(pieces)) for token in piece]


def argparse_outcome(parser: argparse.ArgumentParser, args: list[str]):
    """parser.parse_args(args) alone: its Namespace, or None with the exit
    code run() reports for it, and its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return parser.parse_args(args), None, "", ""
        except SystemExit as exc:
            code = 1 if exc.code else 0
    return None, code, out.getvalue(), err.getvalue()


class TestDispatch:
    """A leading subcommand name sends the rest of argv to that subcommand's
    table, which builds the Namespace its parser would or declines, and then
    to that parser alone; every other argv still goes through the full
    parser."""

    GIBBS = ["gibbs", "--p", "5"]

    @pytest.mark.parametrize("argv", [
        ["fixed-points", *STRICT],
        ["fixed-points", *STRICT, "--prec", "80", "--gu", "10"],
        ["classify", *STRICT, "--x", "0;1,2"],
        ["orbit", *STRICT, "--x=-3/7", "--steps", "3", "--map", "f"],
        ["orbit", *STRICT, "--x", "-3/7"],
        ["basin", *STRICT, "--x", "1/1", "--max", "5"],
        ["itinerary", *STRICT, "--x", "-1;3", "--len", "4"],
        ["periodic", *STRICT, "--word", "1,2", "--map", "g"],
        ["periodic", "--word", "2,1", *STRICT],
        ["cylinders", *STRICT, "--depth", "3"],
        ["lemmas", *STRICT, "--samples", "5", "--seed", "7"],
        [*GIBBS, "solve", "--J", "-5/1", "--J1", "5/1"],
        [*GIBBS, "verify", "--source", "unit", "--n", "3", "--prec", "80"],
        ["gibbs", "periodic", "--p", "5", "--J=25/1", "--J1", "5/1", "--diag",
         "--word", "1,2"],
    ], ids=lambda argv: "-".join(argv[:1] + [a for a in argv[1:4] if a.isalpha()]))
    def test_subcommand_parser_matches_the_full_parser(self, argv):
        argv = cli._glue_negative_literals(argv)
        full = vars(build_parser().parse_args(argv))
        assert full.pop("command") == argv[0]
        # no `command` key: the namespace came from the subcommand's parser
        assert vars(cli._parse(argv)) == full

    @pytest.mark.parametrize("argv", [
        [],
        ["-h"],
        ["no-such-command", *STRICT],
        ["--p", "13", "fixed-points", "--a", "170/1", "--b", "14/1"],
        ["fixed-points", "--p", "13", "--a", "170/1"],
        ["orbit", *STRICT, "--x", "1/1", "--map", "q"],
        ["periodic", "-h"],
        ["lemmas", *STRICT, "--s", "5"],
    ], ids=["empty", "help", "unknown", "flags-first", "missing-b", "bad-map",
            "command-help", "ambiguous"])
    def test_argparse_exits_unchanged(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        code = run(argv)
        captured = capsys.readouterr()
        _, *expected = argparse_outcome(build_parser(), cli._glue_negative_literals(argv))
        assert [code, captured.out, captured.err] == expected
        assert code == (0 if "-h" in argv else 1)

    def test_unrecognized_argument_prints_the_subcommand_usage(self, capsys,
                                                               monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(["periodic", *STRICT, "--word", "1,2", "extra"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "usage: padicdyn periodic [-h] --p P [--precision PRECISION] "
            "[--guard GUARD]\n"
            "                         --a A --b B --word WORD [--map {g,k}]\n"
            "padicdyn periodic: error: unrecognized arguments: extra\n")

    class LastCall(dict):
        """The grid's `last`: a call runs only when the grid reads its exit
        code or stdout, to put the points it prints into later argv."""

        def __missing__(self, key):
            code, out, _ = output_grid.call(run, self.pop("argv"))
            self.update(code=code, out=out)
            return self[key]

    def test_the_table_takes_every_grid_argv_as_argparse_parses_it(self):
        _, commands, tables = cli._parsers()
        last = self.LastCall()
        for _, argv in output_grid.grid(last):
            argv = cli._glue_negative_literals(argv)
            taken = cli._table_parse(tables[argv[0]], argv[1:])
            assert taken == commands[argv[0]].parse_args(argv[1:]), argv
            last.clear()
            last["argv"] = argv

    @pytest.mark.parametrize("name", [*sorted(cli._parsers()[1]), "synthetic"])
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_the_table_agrees_with_argparse(self, name, data):
        """Where the table takes an argv, its Namespace is argparse's; where
        argparse exits, run() prints and exits as argparse alone does."""
        if name == "synthetic":
            parser = synthetic_parser()
            table = cli._table(parser)
        else:
            _, commands, tables = cli._parsers()
            parser, table = commands[name], tables[name]
        argv = cli._glue_negative_literals([name, *data.draw(argvs(parser))])
        expected, code, out, err = argparse_outcome(parser, argv[1:])
        taken = cli._table_parse(table, argv[1:])
        if taken is not None:
            assert (taken, code) == (expected, None)
        if code is not None and name != "synthetic":
            got_out, got_err = io.StringIO(), io.StringIO()
            with redirect_stdout(got_out), redirect_stderr(got_err):
                got = run(argv)
            assert (got, got_out.getvalue(), got_err.getvalue()) == (code, out, err)


class TestContextMemo:
    """One PrimeContext per (p, N, g) per process, shared by every CLI call."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The arguments of every PrimeContext the CLI builds."""
        built = []

        def counted(*args):
            built.append(args)
            return PrimeContext(*args)

        monkeypatch.setattr(cli, "PrimeContext", counted)
        return built

    def test_one_context_and_the_geometry_shares_it(self, capsys, monkeypatch,
                                                    built):
        params = []
        cli_params = cli._params

        def recorded(args):
            params.append(cli_params(args))
            return params[-1]

        monkeypatch.setattr(cli, "_params", recorded)
        argv = ["periodic", *STRICT, "--word", "1,2"]
        first = invoke(capsys, argv)
        assert invoke(capsys, argv) == first
        assert built == [(13, 64, 8)]
        assert params[0] is params[1] and params[0].ctx is params[1].ctx
        # the second call read the geometry the pair keeps, in its context
        geom = params[1].geometry
        assert geom.params.ctx is params[1].ctx
        assert geom.periodic_point_k((1, 2)).ctx is params[1].ctx

    def test_a_bad_context_is_refused_on_every_call(self, capsys, built):
        argv = ["fixed-points", "--p", "12", "--a", "2/1", "--b", "3/1"]
        for _ in range(2):
            assert run(argv) == 1
            assert capsys.readouterr().err == (
                "domain error: p must be an odd prime >= 3, got 12\n")
        assert len(built) == 2
        assert cli._context.cache_info().currsize == 0


class TestPairMemo:
    """One MapParams per (p, N, g) and --a, --b text per process, in the shared
    context; each pair keeps its fixed points and its geometry."""

    PERIODIC = ["periodic", *STRICT, "--word", "1,2"]

    @pytest.fixture
    def built(self, monkeypatch):
        """Every MapParams the CLI builds."""
        built = []

        def recorded(*args):
            built.append(MapParams(*args))
            return built[-1]

        monkeypatch.setattr(cli, "MapParams", recorded)
        return built

    @staticmethod
    def counted(monkeypatch, module, name, calls):
        """Append name to calls on each call of module.<name> from now on."""
        fn = getattr(module, name)

        def counting(*args):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(module, name, counting)

    def test_a_repeated_call_builds_one_pair_and_one_geometry(self, capsys,
                                                               monkeypatch, built):
        work = []
        self.counted(monkeypatch, RepellerGeometry, "__init__", work)
        # the Newton steps of x0 and of the periodic point
        self.counted(monkeypatch, fixedpoints, "_newton_step", work)
        self.counted(monkeypatch, symbolic, "eval_k_slope", work)
        first = invoke(capsys, self.PERIODIC)
        assert first[0] == 0 and work.count("__init__") == 1
        assert work.count("_newton_step") > 0 and work.count("eval_k_slope") > 0
        del work[:]
        assert invoke(capsys, self.PERIODIC) == first
        assert work == []
        assert len(built) == 1 and cli._pair.cache_info()[:2] == (1, 1)

    def test_equal_values_spelled_apart_get_entries_of_their_own(self, capsys, built):
        spelled = ["periodic", "--p", "13", "--a", "170", "--b", "14/1", "--word", "1,2"]
        outputs = []
        for argv in (self.PERIODIC, spelled):
            assert run(argv) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert (built[0].a, built[0].b) == (built[1].a, built[1].b)
        assert built[0] is not built[1]
        assert cli._pair.cache_info().currsize == 2

    def test_another_precision_or_guard_gets_its_own_entry(self, capsys, built):
        contexts = {(): (13, 64, 8), ("--precision", "32"): (13, 32, 8),
                    ("--guard", "4"): (13, 64, 4)}
        for flags in contexts:
            assert run([*self.PERIODIC, *flags]) == 0
        capsys.readouterr()
        assert cli._pair.cache_info().currsize == 3
        for params, key in zip(built, contexts.values()):
            assert params.ctx is cli._context(*key)
            assert fixedpoints.find_x0(params) is params.geometry.x0
            assert params.geometry.x0.ctx is params.ctx
        assert len(built[1].geometry.x1.digits()) == 32

    @pytest.mark.parametrize("argv, kept, err", [
        (["periodic", "--p", "7", "--a", "50/1", "--b", "8/1", "--word", "1"], 1,
         "repeller geometry needs p = 1 (mod 4)"),
        (["periodic", "--p", "13", "--a", "14/1", "--b", "14/1", "--word", "1"], 1,
         "repeller geometry assumes |a - 1|_p < |b - 1|_p"),
        (["fixed-points", "--p", "12", "--a", "2/1", "--b", "3/1"], 0,
         "p must be an odd prime >= 3, got 12"),
        (["fixed-points", "--p", "13", "--a", "2/1", "--b", "14/1"], 0,
         "a must lie in E_p"),
    ], ids=["p-3-mod-4", "non-strict", "bad-p", "a-off-E_p"])
    def test_a_domain_error_is_raised_on_every_call(self, capsys, built,
                                                    argv, kept, err):
        for _ in range(2):
            assert run(argv) == 1
            assert capsys.readouterr() == ("", f"domain error: {err}\n")
        # a pair the geometry refuses is kept, without a geometry
        assert cli._pair.cache_info().currsize == len(built) == kept
        assert all("geometry" not in vars(params) for params in built)

    def test_a_library_caller_gets_values_in_its_own_context(self, capsys):
        assert run(self.PERIODIC) == 0
        capsys.readouterr()
        first, second = acceptance_params(), acceptance_params()
        assert first.ctx is not second.ctx
        for params in (first, second):
            assert fixedpoints.find_x0(params).ctx is params.ctx
            geom = RepellerGeometry.build(params)
            assert geom.params is params and geom.x1.ctx is params.ctx

    def test_bounded(self):
        for t in range(cli.MEMO_SIZE + 1):
            cli._pair(13, 64, 8, "170", str(14 + 13 ** 2 * t))
        info = cli._pair.cache_info()
        assert (info.misses, info.currsize) == (cli.MEMO_SIZE + 1, cli.MEMO_SIZE)


class TestCouplingsMemo:
    """One Couplings per (p, N, g) and --J, --J1, --J0 text per process, in the
    shared context."""

    SOLVE = ["gibbs", "--p", "5", "solve", "--J", "5/1", "--J1", "15/1",
             "--J0", "25/1"]

    @pytest.fixture
    def built(self, monkeypatch):
        """Every Couplings the CLI builds."""
        built, couplings = [], padicdyn.gibbs.Couplings

        def recorded(*args):
            built.append(couplings(*args))
            return built[-1]

        monkeypatch.setattr(padicdyn.gibbs, "Couplings", recorded)
        return built

    @staticmethod
    def counted(monkeypatch, name):
        """Count the calls of padicdyn.gibbs.<name> from now on."""
        calls, fn = [], getattr(padicdyn.gibbs, name)

        def counting(*args):
            calls.append(None)
            return fn(*args)

        monkeypatch.setattr(padicdyn.gibbs, name, counting)
        return calls

    def test_verify_after_solve_runs_no_exp_p_and_no_newton(self, capsys,
                                                             monkeypatch, built):
        code, solved = invoke(capsys, self.SOLVE)
        assert code == 0
        exp_calls = self.counted(monkeypatch, "exp_p")
        newton_steps = self.counted(monkeypatch, "_newton_step")
        argv = [*self.SOLVE[:3], "verify", "--source", "solve", *self.SOLVE[4:]]
        code, verified = invoke(capsys, argv)
        assert (code, verified) == (0, {"compatibility": solved["compatibility"]})
        assert (exp_calls, newton_steps) == ([], [])
        assert len(built) == 1 and cli._couplings.cache_info().hits == 1

    def test_another_precision_or_guard_gets_its_own_entry(self, capsys, built):
        contexts = {(): (5, 64, 8), ("--precision", "32"): (5, 32, 8),
                    ("--guard", "4"): (5, 64, 4)}
        for flags in contexts:
            assert run([*self.SOLVE, *flags]) == 0
        capsys.readouterr()
        assert cli._couplings.cache_info().currsize == 3
        u = [c._solved_u[2] for c in built]
        for c, value, key in zip(built, u, contexts.values()):
            assert c.ctx is cli._context(*key)
            assert value.ctx is c.ctx
        assert len(u[1].digits()) == 32
        # equal (p, N) give equal digits; the guard only moves the floor
        assert u[0].digits() == u[2].digits() and u[0] != u[2]

    def test_a_bad_coupling_is_refused_on_every_call(self, capsys, built):
        argv = ["gibbs", "--p", "5", "solve", "--J", "1/1"]
        for _ in range(2):
            assert run(argv) == 1
            assert capsys.readouterr().err == "domain error: |J|_p must be <= 1/p\n"
        assert cli._couplings.cache_info().currsize == 0

    # solve and verify with J0 != 0 and J0 = 0, at three tree orders and in
    # three contexts; the unit field, which both couplings make incompatible at
    # n = 2 (exit 3); periodic bare and with a word (exit 3, no placement),
    # with the diagonal, at k = 3 (exit 1) and at a precision too low for the
    # x0 solve (exit 2); and a coupling off the bound (exit 1)
    SEQUENCE = [
        ["solve", "--J", "5/1", "--J1", "15/1", "--J0", "25/1"],
        ["verify", "--source", "solve", "--J", "5/1", "--J1", "15/1", "--J0", "25/1"],
        ["solve", "--J", "5/1", "--J1", "15/1"],
        ["solve", "--J", "25/1", "--J1", "5/1", "--n", "3"],
        ["verify", "--source", "solve", "--J", "25/1", "--J1", "5/1", "--k", "1"],
        ["verify", "--source", "solve", "--J", "25/1", "--J1", "5/1", "--k", "3",
         "--precision", "32"],
        ["verify", "--source", "unit", "--J", "25/1", "--J1", "5/1"],
        ["verify", "--source", "unit", "--J", "25/1", "--J1", "5/1", "--n", "1"],
        ["periodic", "--J", "25/1", "--J1", "5/1"],
        ["periodic", "--J", "25/1", "--J1", "5/1", "--word", "1,2"],
        ["periodic", "--J", "25/1", "--J1", "5/1", "--diagonal"],
        ["periodic", "--J", "25/1", "--J1", "5/1", "--word", "1,2", "--diagonal",
         "--n", "3"],
        ["periodic", "--J", "25/1", "--J1", "5/1", "--diagonal", "--k", "3"],
        ["periodic", "--J", "25/1", "--J1", "5/1", "--diagonal", "--precision", "6",
         "--guard", "5"],
        ["solve", "--J", "5/1", "--J1", "15/1", "--J0", "25/1", "--precision", "6",
         "--guard", "5"],
        ["solve", "--J", "1/1"],
    ]

    def test_warm_calls_print_what_cold_calls_print(self, capsys):
        def outputs(cold):
            out = []
            for argv in self.SEQUENCE:
                if cold:
                    for memo in (cli._context, cli._pair, cli._couplings):
                        memo.cache_clear()
                code = run(["gibbs", "--p", "5", *argv])
                out.append((code, *capsys.readouterr()))
            return out

        warm = outputs(False) + outputs(False)
        assert cli._couplings.cache_info().hits > 0
        assert warm == outputs(True) * 2
        assert {code for code, _, _ in warm} == {0, 1, 2, 3}


class TestOutputFormat:
    """stdout is one line of compact JSON, whatever the subcommand and exit."""

    ctx = PrimeContext(13)
    params = MapParams(ctx.from_int(170), ctx.from_int(14))
    X0 = digit_literal(fixedpoints.find_x0(params))
    K12 = digit_literal(RepellerGeometry.build(params).periodic_point_k((1, 2)))
    GIBBS = ["gibbs", "--p", "5"]

    @pytest.mark.parametrize("argv, code", [
        (["fixed-points", *STRICT], 0),
        (["classify", *STRICT, "--x", X0], 0),
        (["orbit", *STRICT, "--x", "1/1", "--steps", "3"], 0),
        (["basin", *STRICT, "--x", "1/1"], 0),
        (["itinerary", *STRICT, "--x", K12, "--length", "4"], 0),
        (["periodic", *STRICT, "--word", "1,2", "--map", "g"], 0),
        (["cylinders", *STRICT, "--depth", "2"], 0),
        (["lemmas", *STRICT, "--samples", "5"], 0),
        ([*GIBBS, "solve", "--J", "5/1", "--J1", "5/1"], 0),
        ([*GIBBS, "verify", "--source", "unit"], 0),
        ([*GIBBS, "periodic", "--J", "25/1", "--J1", "5/1", "--diagonal"], 0),
        # the unit field under both couplings: a failed verification
        ([*GIBBS, "verify", "--J", "5/1", "--J1", "5/1", "--source", "unit"], 3),
        # NoValidPlacement prints its diagnostics
        ([*GIBBS, "periodic", "--J", "25/1", "--J1", "5/1", "--n", "2"], 3),
    ], ids=lambda value: f"exit{value}" if isinstance(value, int)
        else f"gibbs-{value[3]}" if value[0] == "gibbs" else value[0])
    def test_one_line_of_compact_json(self, capsys, argv, code):
        assert run(argv) == code
        out = capsys.readouterr().out
        line = out.removesuffix("\n")
        assert "\n" not in line and out == line + "\n"
        assert line == json.dumps(json.loads(line))


class TestWarmEqualsCold:
    """Every subcommand prints the same from the contexts, pairs and couplings
    the CLI keeps as with the memos cleared before the call."""

    params = acceptance_params()
    X0 = digit_literal(fixedpoints.find_x0(params))
    X1 = digit_literal(params.fixed_points[2][0])
    K12 = digit_literal(RepellerGeometry.build(params).periodic_point_k((1, 2)))
    P7 = ["--p", "7", "--a", "50/1", "--b", "8/1"]  # p = 3 (mod 4)
    GIBBS = ["gibbs", "--p", "5"]

    # each subcommand on the acceptance pair, spelled two ways and in three
    # contexts, with the errors it exits on: a point that is not fixed, an
    # orbit that escapes X, steps past the digit budget (exit 2), no repeller
    # at p = 3 (mod 4), a non-strict pair, a bad p, a value off E_p; and the
    # gibbs actions, whose periodic fields read the couplings' pair
    SEQUENCE = [
        ["fixed-points", *STRICT],
        ["fixed-points", *STRICT, "--precision", "32"],
        ["fixed-points", *P7],
        ["classify", *STRICT, "--x", X0],
        ["classify", *STRICT, "--x", X1],
        ["classify", *STRICT, "--x", "1/1"],
        ["orbit", *STRICT, "--x", "1/1", "--steps", "3", "--map", "f"],
        ["orbit", *STRICT, "--x", "1/1", "--steps", "3", "--map", "g"],
        ["orbit", *STRICT, "--x", K12, "--steps", "3", "--map", "k"],
        ["orbit", *STRICT, "--x", "1/1", "--steps", "-1"],
        ["basin", *STRICT, "--x", "1/1"],
        ["basin", *STRICT, "--x", X1],
        ["basin", *STRICT, "--x", X1, "--guard", "4"],
        ["itinerary", *STRICT, "--x", K12, "--length", "4"],
        ["itinerary", *STRICT, "--x", K12, "--length", "60"],
        ["itinerary", *STRICT, "--x", "1/1", "--length", "3"],
        ["periodic", *STRICT, "--word", "1,2,2", "--map", "k"],
        ["periodic", *STRICT, "--word", "1,2,2", "--map", "g"],
        ["periodic", "--p", "13", "--a", "170", "--b", "14", "--word", "1,2,2"],
        ["periodic", *P7, "--word", "1"],
        ["periodic", "--p", "13", "--a", "14/1", "--b", "14/1", "--word", "1"],
        ["cylinders", *STRICT, "--depth", "2"],
        ["lemmas", *STRICT, "--samples", "5"],
        ["lemmas", *P7, "--samples", "5"],
        ["fixed-points", "--p", "12", "--a", "2/1", "--b", "3/1"],
        ["fixed-points", "--p", "13", "--a", "2/1", "--b", "14/1"],
        [*GIBBS, "solve", "--J", "5/1", "--J1", "5/1"],
        [*GIBBS, "verify", "--J", "5/1", "--J1", "5/1"],
        [*GIBBS, "verify", "--J", "5/1", "--J1", "5/1", "--source", "unit"],
        [*GIBBS, "periodic", "--J", "25/1", "--J1", "5/1"],
        [*GIBBS, "periodic", "--J", "25/1", "--J1", "5/1", "--word", "1,2",
         "--diagonal"],
        [*GIBBS, "periodic", "--J", "25/1", "--J1", "5/1", "--diagonal", "--k", "3"],
        [*GIBBS, "periodic", "--J", "25/1"],
    ]

    def test_warm_calls_print_what_cold_calls_print(self, capsys):
        def outputs(cold):
            out = []
            for argv in self.SEQUENCE:
                if cold:
                    for memo in (cli._context, cli._pair, cli._couplings):
                        memo.cache_clear()
                code = run(argv)
                out.append((code, *capsys.readouterr()))
            return out

        warm = outputs(False) + outputs(False)
        assert cli._pair.cache_info().hits > 0
        assert warm == outputs(True) * 2
        assert {code for code, _, _ in warm} == {0, 1, 2, 3}


class TestFixedPoints:
    def test_report(self, capsys):
        code, body = invoke(capsys, ["fixed-points", *STRICT])
        assert code == 0
        assert body["classifications"] == {
            "x0": "attracting", "x1": "repelling", "x2": "repelling"}
        assert all(body["lemma_3_4"].values())

    def test_deterministic(self, capsys):
        _, first = invoke(capsys, ["fixed-points", *STRICT])
        _, second = invoke(capsys, ["fixed-points", *STRICT])
        assert first == second

    def test_classify(self, capsys):
        code, body = invoke(capsys, ["fixed-points", *STRICT])
        digits = ",".join(str(d) for d in body["x0"]["digits"])
        code, body = invoke(capsys, ["classify", *STRICT, "--x", f"0;{digits}"])
        assert code == 0
        assert body["classification"] == "attracting"


class TestValidation:
    def test_a_outside_Ep_exits_1(self, capsys):
        code = run(["fixed-points", "--p", "13", "--a", "2/1", "--b", "14/1"])
        assert code == 1

    def test_bad_flags_exit_1(self, capsys):
        assert run(["fixed-points", "--p", "13", "--a", "14/1"]) == 1
        assert run(["no-such-command"]) == 1

    def test_composite_p_exits_1(self, capsys):
        assert run(["fixed-points", "--p", "12", "--a", "2/1", "--b", "3/1"]) == 1

    @pytest.mark.parametrize("argv, flag, literal", [
        (["orbit", *STRICT, "--steps", "2"], "--x", "-3/7"),
        (["orbit", *STRICT, "--steps", "2"], "--x", "-1;3"),
        (["gibbs", "--p", "5", "solve", "--J1", "5/1"], "--J", "-5/1"),
    ])
    def test_negative_literal_parses_as_the_equals_form(self, capsys, argv, flag,
                                                         literal):
        glued = invoke(capsys, [*argv, f"{flag}={literal}"])
        assert glued[0] == 0
        assert invoke(capsys, [*argv, flag, literal]) == glued
        assert invoke(capsys, [*argv[:1], flag, literal, *argv[1:]]) == glued

    @pytest.mark.parametrize("argv, message", [
        (["lemmas", *STRICT, "--samples", "-3"], "samples must be >= 1"),
        (["lemmas", *STRICT, "--samples", "0"], "samples must be >= 1"),
        (["orbit", *STRICT, "--x", "1/1", "--steps", "-1"], "steps must be >= 0"),
        (["itinerary", *STRICT, "--x", "1/1", "--length", "-2"],
         "length must be >= 0"),
        # p^0..p^N would take about 200 GB; refused before any power is built
        (["fixed-points", *STRICT, "--precision", "1000000"],
         "p.bit_length() * precision must be <= 16384, got 4000000"),
        # one past each limit: refused before any work, so nothing large runs
        (["lemmas", *STRICT, "--samples", str(cli.MAX_LEMMA_SAMPLES + 1)],
         f"samples must be <= {cli.MAX_LEMMA_SAMPLES}"),
        (["orbit", *STRICT, "--x", "1/1", "--steps", str(cli.MAX_ORBIT_STEPS + 1)],
         f"steps must be <= {cli.MAX_ORBIT_STEPS}"),
    ])
    def test_bad_counts_exit_1(self, capsys, argv, message):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"domain error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["fixed-points", "--a", "170", "--b", "170"],
        ["classify", "--a", "170", "--b", "170", "--x", "3"],
        ["orbit", "--a", "170", "--b", "170", "--x", "3", "--steps", "1"],
        ["gibbs", "periodic", "--J", "25/1", "--J1", "25/1"],
    ])
    def test_pair_past_the_guard_exits_1(self, capsys, argv):
        # ord(b - 1) = 2 > N - g = 1 is refused by MapParams; these exited 2
        # (PrecisionExhausted), orbit 0, before the refusal
        p = "5" if argv[0] == "gibbs" else "13"
        assert run([*argv, "--p", p, "--precision", "6", "--guard", "5"]) == 1
        assert capsys.readouterr() == ("", "domain error: ord(b - 1) = 2 must be "
                                           "<= N - g = 1 (precision 6, guard 5)\n")

    def test_zero_steps_and_length_are_counts(self, capsys):
        code, body = invoke(capsys, ["orbit", *STRICT, "--x", "1/1", "--steps", "0"])
        assert (code, len(body["orbit"])) == (0, 1)
        assert invoke(capsys, ["itinerary", *STRICT, "--x", "1/1",
                               "--length", "0"]) == (0, {"itinerary": []})

    def test_negative_literal_still_needs_its_flag(self, capsys):
        assert run(["orbit", *STRICT, "-3/7"]) == 1
        assert run(["orbit", *STRICT, "--x"]) == 1
        assert run(["orbit", *STRICT, "--steps", "-3/7", "--x", "1/1"]) == 1


class TestDynamics:
    def test_second_basin_call_reuses_x0(self, capsys, monkeypatch):
        calls, newton_step = [], fixedpoints._newton_step

        def counted(*args):
            calls.append(args)
            return newton_step(*args)

        # find_x0 runs fixedpoints._newton_step; basin_status iterates
        # symbolic.eval_g
        monkeypatch.setattr(fixedpoints, "_newton_step", counted)
        argv = ["basin", *STRICT, "--x", "1/1"]
        first = invoke(capsys, argv)
        cold = len(calls)
        assert invoke(capsys, argv) == first
        assert cold > 0 and len(calls) == cold

    def test_lemmas_takes_one_root_of_the_discriminant(self, capsys, monkeypatch):
        calls = []

        def counted(x):
            calls.append(x)
            return sqrt_both(x)

        # analyze and the repeller geometry share the repelling roots
        monkeypatch.setattr(fixedpoints, "sqrt_both", counted)
        assert invoke(capsys, ["lemmas", *STRICT, "--samples", "5"])[0] == 0
        assert len(calls) == 1

    def test_lemmas_after_fixed_points_analyzes_nothing(self, capsys, monkeypatch):
        reports, report_init = [], fixedpoints.FixedPointReport.__init__

        def counted(report, params):
            reports.append(params)
            report_init(report, params)

        monkeypatch.setattr(fixedpoints.FixedPointReport, "__init__", counted)
        code, body = invoke(capsys, ["fixed-points", *STRICT])
        assert code == 0 and len(reports) == 1
        code, lemmas = invoke(capsys, ["lemmas", *STRICT, "--samples", "5"])
        assert code == 0 and len(reports) == 1
        assert {key: lemmas[key] for key in body} == body

    def test_second_round_of_periodic_k_solves_nothing(self, capsys, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return eval_k_slope(*args)

        # 62 words on one pair: more than a 16-entry (pair, word) memo holds
        monkeypatch.setattr(symbolic, "eval_k_slope", counted)
        argvs = [["periodic", *STRICT, "--word", ",".join(map(str, word)),
                  "--map", "k"]
                 for length in range(1, 6) for word in symbolic.all_words(length)]
        first = [invoke(capsys, argv) for argv in argvs]
        assert calls and all(code == 0 for code, _ in first)
        del calls[:]
        assert [invoke(capsys, argv) for argv in argvs] == first
        assert calls == []

    def test_orbit(self, capsys):
        code, body = invoke(capsys, ["orbit", *STRICT, "--x", "1/1", "--steps", "3"])
        assert code == 0
        assert len(body["orbit"]) == 4

    def test_basin(self, capsys):
        code, body = invoke(capsys, ["basin", *STRICT, "--x", "1/1"])
        assert code == 0
        assert body == {"outcome": "in_basin", "steps": 0, "trail": []}

    def test_basin_decided_to_the_digit_budget(self, capsys):
        # x1 + 13^30 leaves K at step 30 <= N - g = 56, which plain iteration
        # of g at 2N digits confirms; a cycle test at (N - g) // 2 = 28 digits
        # took it for a trapped orbit
        geom = RepellerGeometry.build(acceptance_params())
        x = geom.x1 + geom.params.ctx.from_int(13 ** 30)
        code, body = invoke(capsys, ["basin", *STRICT, "--x", digit_literal(x)])
        assert code == 0
        assert body == {"outcome": "in_basin", "steps": 30,
                        "trail": [geom.x1.leading_digit()] * 30}

    def test_periodic_and_itinerary(self, capsys):
        code, body = invoke(capsys, ["periodic", *STRICT, "--word", "1,2"])
        assert code == 0
        assert body["period_residual"] == "0" or body["period_residual"].startswith("13^-")
        digits = ",".join(str(d) for d in body["point"]["digits"])
        code, body = invoke(capsys,
                            ["itinerary", *STRICT, "--x", f"0;{digits}",
                             "--length", "4"])
        assert code == 0
        assert body["itinerary"] == [1, 2, 1, 2]

    def test_itinerary_past_trusted_digits_exits_2(self, capsys):
        code, body = invoke(capsys, ["periodic", *STRICT, "--word", "1,2"])
        digits = ",".join(str(d) for d in body["point"]["digits"])
        code = run(["itinerary", *STRICT, "--x", f"0;{digits}", "--length", "120"])
        assert code == 2
        assert capsys.readouterr().err.startswith("precision error: ")

    def test_periodic_non_strict_exits_1(self, capsys):
        code = run(["periodic", "--p", "13", "--a", "14/1", "--b", "14/1",
                    "--word", "1"])
        assert code == 1

    def test_cylinders(self, capsys):
        code, body = invoke(capsys, ["cylinders", *STRICT, "--depth", "2"])
        assert code == 0
        assert len(body["cylinders"]) == 4
        assert all(c["ball"]["radius_exponent"] == -2 for c in body["cylinders"])

    def test_cylinders_deeper_than_the_limit_exit_1(self, capsys):
        depth = symbolic.MAX_CYLINDER_DEPTH + 1
        assert depth == 13
        assert run(["cylinders", *STRICT, "--depth", str(depth)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error: depth must be <= 12")

    def test_periodic_g_runs_one_forward_orbit(self, capsys, monkeypatch):
        # the sign check and the residuals of both maps read one g-orbit: a
        # kept word runs its 5 g-steps once, at its solve, and no k forward
        # pass at all
        word = (1, 2, 2, 1, 2)
        argv = ["periodic", *STRICT, "--word", "1,2,2,1,2"]
        geom = cli._pair(13, 64, 8, "170/1", "14/1").geometry
        g_steps, k_steps = [], []

        def counted(steps, step):
            def counting(*args):
                steps.append(args)
                return step(*args)
            return counting

        for module in (symbolic, cli):
            monkeypatch.setattr(module, "eval_g", counted(g_steps, eval_g))
            monkeypatch.setattr(module, "eval_k", counted(k_steps, eval_k))
        point = geom.periodic_point_k(word)  # the solve, which steps k
        assert len(g_steps) == 5
        del k_steps[:]
        code, body = invoke(capsys, [*argv, "--map", "k"])
        assert code == 0 and body["point"] == to_json(point)
        assert len(g_steps) == 5 and k_steps == []
        # the n steps of k, kept here as the oracle of k^n(x)
        image = point
        for _ in word:
            image = eval_k(geom.params, image)
        assert body["period_residual"] == norm_str(diff_valuation(image, point), 13)
        code, body = invoke(capsys, [*argv, "--map", "g"])
        assert code == 0 and body["map"] == "g"
        assert len(g_steps) == 5 and k_steps == []

    def test_periodic_prints_the_same_cold_and_warm(self, capsys):
        # the second run of each reads the point and orbits its geometry kept
        argvs = [["periodic", *STRICT, "--word", "1,2,2,1,2", "--map", "k"],
                 ["periodic", *STRICT, "--word", "1,2,2,1,2", "--map", "g"],
                 ["gibbs", "--p", "5", "periodic", "--J", "25/1", "--J1", "5/1",
                  "--n", "3", "--word", "1,2", "--diagonal"]]

        def outputs():
            return [(run(argv), capsys.readouterr().out) for argv in argvs]

        cold = outputs()
        # one pair and one coupling, each pair with the geometry it keeps
        assert cli._pair.cache_info().currsize == 1
        assert cli._couplings.cache_info().currsize == 1
        assert [code for code, _ in cold] == [0, 0, 0]
        assert outputs() == cold

    def test_lemmas(self, capsys):
        code, body = invoke(capsys, ["lemmas", *STRICT, "--samples", "20"])
        assert code == 0
        assert body["scaling_identity"]["all_hold"]


class TestGibbs:
    BASE = ["gibbs", "--p", "5"]

    def test_verify_unit_zero_couplings(self, capsys):
        code, body = invoke(capsys, [*self.BASE, "verify", "--source", "unit"])
        assert code == 0
        assert body["compatibility"]["ok"]
        assert body["compatibility"]["max_residual"] == "0"

    def test_solve_and_verify(self, capsys):
        # J0 != 0 enters the solved field through c = exp_p(J0)
        for J0 in ("0/1", "25/1"):
            argv = [*self.BASE, "solve", "--J", "5/1", "--J1", "5/1", "--J0", J0]
            code, body = invoke(capsys, argv)
            assert code == 0
            assert body["compatibility"]["ok"]
            solved = body
            argv[3:4] = ["verify", "--source", "solve"]
            code, body = invoke(capsys, argv)
            assert code == 0
            assert body == {"compatibility": solved["compatibility"]}

    @pytest.mark.parametrize("source", ["orbit:1,2", "bogus"])
    def test_verify_takes_only_solve_or_unit(self, capsys, source):
        code = run([*self.BASE, "verify", "--J", "25/1", "--J1", "5/1",
                    "--n", "2", "--source", source])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --source: invalid choice" in captured.err

    @pytest.mark.parametrize("action, flags, reader", [
        ("solve", ["--source", "unit"], "verify"),
        ("solve", ["--word", "1,2"], "periodic"),
        ("solve", ["--diagonal"], "periodic"),
        ("verify", ["--word", "1,2", "--diagonal"], "periodic"),
        ("verify", ["--diagonal"], "periodic"),
        ("periodic", ["--source", "solve", "--diagonal"], "verify"),
    ])
    def test_flag_another_action_reads_exits_1(self, capsys, action, flags,
                                                reader):
        code = run([*self.BASE, action, "--J", "5/1", "--J1", "5/1", *flags])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"domain error: {flags[0]} is read by gibbs {reader} only\n"

    def test_verify_unit_with_J_alone_still_compatible(self, capsys):
        # with J1 = 0 the field equations hold for the unit field, so it
        # remains compatible for any J
        code, body = invoke(capsys, [*self.BASE, "verify", "--source", "unit",
                                     "--J", "5/1"])
        assert code == 0 and body["compatibility"]["ok"]

    def test_verify_unit_both_couplings_exits_3(self, capsys):
        # the unit field stops being compatible only when both J and J1 are
        # nonzero: the residual of the field equations is |(a^2-1)(b^2-1)|
        code = run([*self.BASE, "verify", "--source", "unit",
                    "--J", "5/1", "--J1", "5/1"])
        assert code == 3

    def test_periodic_without_diagonal_reports_no_placement(self, capsys):
        code, body = invoke(capsys, [*self.BASE, "periodic",
                                     "--J", "25/1", "--J1", "5/1"])
        assert code == 3
        assert body["error"] == "no valid placement"
        assert set(body["diagnostics"]) == {"++", "+-", "-+", "--"}

    def test_periodic_diagonal(self, capsys):
        code, body = invoke(capsys, [*self.BASE, "periodic", "--J", "25/1",
                                     "--J1", "5/1", "--diagonal"])
        assert code == 0
        placements = {c["placement"] for c in body["placements"]}
        assert "diagonal" in placements
        assert all(c["compatibility"]["ok"] for c in body["placements"])

    def test_periodic_word_orbit(self, capsys):
        code, body = invoke(capsys, [*self.BASE, "periodic", "--J", "25/1",
                                     "--J1", "5/1", "--word", "1,2",
                                     "--diagonal"])
        assert code == 0
        assert len(body["orbit"]) == 2

    def test_solve_incompatible_field_exits_3(self, capsys, monkeypatch):
        # solve reports a field that fails compatibility like verify does
        solve = padicdyn.gibbs.solve_7_11

        def perturbed(tree, couplings, n):
            field = solve(tree, couplings, n)
            child = (1,) * n
            value = field.assign[child][1, 1] * couplings.ctx.from_int(6)
            return field.with_component(child, (1, 1), value)

        monkeypatch.setattr(padicdyn.gibbs, "solve_7_11", perturbed)
        code, body = invoke(capsys, [*self.BASE, "solve", "--J", "5/1",
                                     "--J1", "5/1"])
        assert code == 3
        assert not body["compatibility"]["ok"]
        assert body["compatibility"]["max_residual"] == "1/5"

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_former_newton_stall_exits_0(self, capsys, n):
        # k = 3 couplings on which the former w-Newton stalled (exit 2)
        code, body = invoke(capsys, [*self.BASE, "solve", "--J", "330/1",
                                     "--J1", "470/1", "--k", "3", "--n", n])
        assert code == 0
        assert body["compatibility"]["ok"]

    def test_depth_3_runs(self, capsys):
        code, body = invoke(capsys, [*self.BASE, "verify", "--J", "5/1",
                                     "--J1", "5/1", "--n", "3"])
        assert code == 0
        assert body["compatibility"]["ok"]
        assert len(body["compatibility"]["residuals"]) == 2 ** 7

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_n_below_1_refused_before_any_work(self, capsys, monkeypatch, n):
        # neither the field solve nor the g-orbit of periodic runs
        def never(*args):
            raise AssertionError("work started before --n was checked")

        monkeypatch.setattr(padicdyn.gibbs, "solve_7_11", never)
        monkeypatch.setattr(fixedpoints, "find_x0", never)
        monkeypatch.setattr(RepellerGeometry, "build", never)
        for action in (["solve"], ["verify", "--source", "unit"],
                       ["periodic", "--diagonal"],
                       ["periodic", "--word", "1,2", "--diagonal"]):
            code = run([*self.BASE, *action, "--J", "25/1", "--J1", "5/1",
                        "--n", n])
            assert code == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "domain error: n must be >= 1\n"

    def test_diagonal_off_k_2_refused_before_any_work(self, capsys, monkeypatch):
        calls = []
        TestPairMemo.counted(monkeypatch, fixedpoints, "find_x0", calls)
        TestPairMemo.counted(monkeypatch, padicdyn.gibbs, "field_equation_residual",
                             calls)
        # the last exited 2 when the x0 solve ran first
        for extra in ([], ["--word", "1,2"], ["--precision", "6", "--guard", "5"]):
            code = run([*self.BASE, "periodic", "--J", "25/1", "--J1", "5/1",
                        "--diagonal", "--k", "3", *extra])
            assert code == 1
            assert capsys.readouterr() == (
                "", "domain error: the diagonal construction needs tree order k = 2\n")
        assert calls == []

    def test_size_guard_refuses_large_listing(self, capsys):
        # |V_3| = 15 at k = 2 would list 2^15 residuals
        for action in ("solve", "verify", "periodic"):
            code = run([*self.BASE, action, "--J", "5/1", "--J1", "5/1",
                        "--n", "4"])
            assert code == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "more than 12 vertices" in captured.err
        # k = 1 lists |V_{n-1}| = n vertices: n = 12 passes, n = 13 does not
        assert run([*self.BASE, "verify", "--source", "unit", "--k", "1",
                    "--n", "12"]) == 0
        assert run([*self.BASE, "verify", "--source", "unit", "--k", "1",
                    "--n", "13"]) == 1
        # at n = 1 V_0 is the root alone, but the order itself is bounded
        capsys.readouterr()
        assert run([*self.BASE, "solve", "--J", "5/1", "--J1", "5/1", "--k", "13",
                    "--n", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error: tree order k must be <= 12")
        assert run([*self.BASE, "verify", "--source", "unit", "--k", "12",
                    "--n", "1"]) == 0
