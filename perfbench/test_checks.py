"""The benchmark's checks reject wrong output.

Each checker first accepts a real CLI output, then must reject a copy with
one digit changed and a copy with its verdict flipped.  Digits are changed at
position N - g - 1, the deepest one the library promises, so a pass here
shows the checks are as tight as the precision claim.

    python3 -m pytest perfbench/test_checks.py
"""
import copy
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError, digit_literal, padic_int  # noqa: E402
from padicdyn import cli  # noqa: E402

N, GUARD = workloads.N, workloads.GUARD
DEEP = N - GUARD - 1
P13 = ["--p", "13", "--a", "170/1", "--b", "14/1"]


def cli_json(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        cli.run(list(argv))
    return json.loads(out.getvalue())


def bumped(value: dict, position: int = DEEP) -> dict:
    """A copy of a JSON p-adic value with one digit changed."""
    value = copy.deepcopy(value)
    value["digits"][position] = (value["digits"][position] + 1) % value["p"]
    return value


def accepts_then_rejects(check, good, *bad):
    check(good)
    for variant in bad:
        with pytest.raises(CheckError):
            check(variant)


@pytest.fixture(scope="module")
def fixed():
    return cli_json("fixed-points", *P13)


def test_fixed_points(fixed):
    def check(body):
        checks.check_fixed_points(body, 13, 170, 14, 1, N, GUARD)

    digit = copy.deepcopy(fixed)
    digit["x1"] = bumped(fixed["x1"])
    flipped = copy.deepcopy(fixed)
    flipped["classifications"]["x1"] = "attracting"
    clause = copy.deepcopy(fixed)
    clause["lemma_3_4"]["iii"] = False
    accepts_then_rejects(check, fixed, digit, flipped, clause)


def test_classify(fixed):
    body = cli_json("classify", *P13, "--x", digit_literal(fixed["x2"]))

    def check(out):
        checks.check_classify(out, fixed["x2"], "repelling", 13, 170, 14, N)

    digit = dict(body, x=bumped(body["x"]))
    flipped = dict(body, classification="attracting")
    norm = dict(body, multiplier_norm="13^-1")
    accepts_then_rejects(check, body, digit, flipped, norm)


def test_basin(fixed):
    x0, x1 = padic_int(fixed["x0"], 13, N), padic_int(fixed["x1"], 13, N)
    body = cli_json("basin", *P13, "--x", digit_literal(fixed["x1"]))

    def check(out, x=x1):
        checks.check_basin(out, x, x0, 13, 170, 14, 1, N, GUARD, 100, "stays_in_k")

    digit = dict(body, trail=[(body["trail"][0] + 1) % 13, *body["trail"][1:]])
    flipped = dict(body, outcome="in_basin")
    accepts_then_rejects(check, body, digit, flipped)
    with pytest.raises(CheckError):  # the start point one deep digit off
        check(body, padic_int(bumped(fixed["x1"]), 13, N))


def test_lemmas(fixed):
    body = cli_json("lemmas", *P13, "--samples", "20", "--seed", "3")

    def check(out):
        checks.check_lemmas(out, fixed, 20)

    digit = dict(body, x0=bumped(body["x0"]))
    flipped = copy.deepcopy(body)
    flipped["lemma_3_4"]["vi"] = False
    scaling = copy.deepcopy(body)
    scaling["scaling_identity"]["holds"] = 19
    accepts_then_rejects(check, body, digit, flipped, scaling)


@pytest.mark.parametrize("kind", ["k", "g"])
def test_periodic(kind):
    word = (1, 2, 2)
    body = cli_json("periodic", *P13, "--word", "1,2,2", "--map", kind)

    def check(out):
        checks.check_periodic(out, word, kind, 13, 170, 14, 1, N, GUARD)

    digit = dict(body, point=bumped(body["point"]))
    flipped = dict(body, period_residual="13^-3")
    accepts_then_rejects(check, body, digit, flipped)


def test_itinerary():
    point = cli_json("periodic", *P13, "--word", "1,2")["point"]
    body = cli_json("itinerary", *P13, "--x", digit_literal(point), "--length", "4")
    flipped = dict(body, itinerary=[1, 2, 1, 1])
    accepts_then_rejects(lambda out: checks.check_itinerary(out, (1, 2)), body, flipped)


def test_subshift_metric():
    points = {}
    for word in [(1,), (2,), *workloads.product((1, 2), repeat=2)]:
        body = cli_json("periodic", *P13, "--word", ",".join(map(str, word)))
        points[word] = padic_int(body["point"], 13, N)
    kappa = checks.ordp(points[(1,)] - points[(2,)], 13, N)
    checks.check_subshift(points, 13, 1, N)
    moved = dict(points)
    moved[(1, 2)] += 13 ** kappa * (1 if moved[(1, 2)] // 13 ** kappa % 13 < 12 else -1)
    with pytest.raises(CheckError):
        checks.check_subshift(moved, 13, 1, N)
    missing = dict(points)
    del missing[(2, 2)]
    with pytest.raises(CheckError):
        checks.check_subshift(missing, 13, 1, N)


def _repeller_outputs():
    k_points, g_points = {}, {}
    for word in workloads.product((1, 2), repeat=2):
        text = ",".join(map(str, word))
        k_points[(word, N)] = cli_json("periodic", *P13, "--word", text, "--map", "k")
        g_points[(word, N)] = cli_json("periodic", *P13, "--word", text, "--map", "g")
    for word in ((1,), (2,)):
        k_points[(word, N)] = cli_json("periodic", *P13, "--word", str(word[0]), "--map", "k")
        g_points[(word, N)] = cli_json("periodic", *P13, "--word", str(word[0]), "--map", "g")
    cylinders = {3: cli_json("cylinders", *P13, "--depth", "3")}
    return k_points, g_points, cylinders


def test_repeller_pass_checks():
    spec = {"p": 13, "a": 170, "b": 14, "m": 1}
    k_points, g_points, cylinders = _repeller_outputs()
    check_pair = workloads.Repeller()._check_pair

    def check(outputs):
        check_pair(spec, *outputs)

    good = (k_points, g_points, cylinders)
    # x_(1,2) moved at digit kappa, where it must still agree with x_(1,1)
    near = copy.deepcopy(k_points)
    kappa = checks.ordp(padic_int(k_points[((1,), N)]["point"], 13, N)
                        - padic_int(k_points[((2,), N)]["point"], 13, N), 13, N)
    near[((1, 2), N)]["point"] = bumped(near[((1, 2), N)]["point"], kappa)
    g_digit = copy.deepcopy(g_points)
    g_digit[((2, 1), N)]["point"] = bumped(g_digit[((2, 1), N)]["point"])
    center = copy.deepcopy(cylinders)
    center[3]["cylinders"][5]["ball"]["center"] = bumped(center[3]["cylinders"][5]["ball"]["center"])
    radius = copy.deepcopy(cylinders)
    radius[3]["cylinders"][0]["ball"]["radius_exponent"] = -2
    swapped = copy.deepcopy(cylinders)
    cyl = swapped[3]["cylinders"]
    cyl[0]["word"], cyl[1]["word"] = cyl[1]["word"], cyl[0]["word"]
    accepts_then_rejects(check, good, (near, g_points, cylinders),
                         (k_points, g_digit, cylinders), (k_points, g_points, center),
                         (k_points, g_points, radius), (k_points, g_points, swapped))


@pytest.fixture(scope="module")
def gibbs():
    return workloads.Gibbs()


def test_gibbs_solve(gibbs):
    spec = {"k": 1, "n": 2, "J": 5, "J1": 15}
    args = ["gibbs", "--p", "5", "--J", "5/1", "--J1", "15/1", "--k", "1", "--n", "2"]
    solved = cli_json(*args[:3], "solve", *args[3:])
    verified = cli_json(*args[:3], "verify", *args[3:], "--source", "solve")

    def check(out):
        gibbs._check_solved(spec, *out)

    digit = copy.deepcopy(solved)   # still translation invariant: compatibility must see it
    for comp in digit["field"].values():
        comp["++"] = bumped(comp["++"])
    flipped = copy.deepcopy(verified)
    flipped["compatibility"]["ok"] = False
    accepts_then_rejects(check, (solved, verified), (digit, verified), (solved, flipped))


def test_gibbs_unit_verdicts(gibbs):
    args = ["gibbs", "--p", "5", "verify", "--k", "1", "--n", "2", "--source", "unit"]
    zero = cli_json(*args)
    coupled = cli_json(*args, "--J", "5/1", "--J1", "15/1")
    gibbs._check_unit(1, 2, 0, 0, zero, True)
    gibbs._check_unit(1, 2, 5, 15, coupled, False)
    flipped = copy.deepcopy(coupled)
    flipped["compatibility"]["ok"] = True
    residual = copy.deepcopy(coupled)
    worst = residual["compatibility"]["residuals"].index(residual["compatibility"]["max_residual"])
    residual["compatibility"]["residuals"][worst] = "1/3125"
    for bad in (flipped, residual):
        with pytest.raises(CheckError):
            gibbs._check_unit(1, 2, 5, 15, bad, False)


def test_gibbs_periodic(gibbs):
    body = cli_json("gibbs", "--p", "5", "periodic", "--J", "25/1", "--J1", "5/1",
                    "--k", "2", "--n", "1", "--word", "1,2", "--diagonal")
    digit = copy.deepcopy(body)
    digit["orbit"][1] = bumped(digit["orbit"][1])
    flipped = copy.deepcopy(body)
    flipped["placements"][-1]["compatibility"]["ok"] = False
    accepts_then_rejects(lambda out: gibbs._check_periodic(1, out), body, digit, flipped)
