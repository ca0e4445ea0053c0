"""The three workloads: what one pass runs, and how its outputs are checked.

A pass is a fixed list of CLI operations; only the seeded values in it vary.
`plan(seed, index)` makes the inputs of one pass, `run(op_pass, plan)` makes
the calls, and attaches to each output the check that runs after the pass.
Operations come in whole passes, so every run attempts the same mix.
"""
from __future__ import annotations

import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from itertools import product

import calibrate
import checks
from checks import CheckError, digit_literal, padic_int

N, GUARD = 64, 8      # the CLI's default precision and guard digits
HIGH = 128            # precision for the repeller's longer seeded words


class OpPass:
    """One pass: timed CLI calls, their latencies, and the deferred checks.

    The reference loop runs between calls, so each latency is scaled by the
    machine speed measured around it.
    """

    def __init__(self, cli_run):
        self._run = cli_run
        self.raw: list[tuple[str, float]] = []   # (slot, seconds) in call order
        self._refs = [calibrate.reference_seconds()]
        self.attempted = self.failed = 0
        self.output_bytes = 0
        self.failures: list[str] = []
        self._checks: list = []

    def op(self, slot: str, argv: list[str], expect: int = 0):
        """Run `padicdyn argv` in-process; the parsed JSON, or None if it failed."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self._run(argv)
            text = out.getvalue()
            body = json.loads(text)
        except Exception as exc:  # a crash or bad JSON fails this operation only
            code, body, text = None, None, out.getvalue()
            err.write(f"{type(exc).__name__}: {exc}")
        self.raw.append((slot, time.perf_counter() - t0))
        self._refs.append(calibrate.reference_seconds())
        self.attempted += 1
        self.output_bytes += len(text)
        if code != expect or not isinstance(body, dict):
            self.failed += 1
            self.failures.append(f"{' '.join(argv)} -> exit {code}: "
                                 f"{err.getvalue().strip()[:200]}")
            return None
        return body

    def latency(self) -> list[tuple[str, float]]:
        """(slot, seconds at the reference speed) in call order."""
        scaled = calibrate.scaled([t for _, t in self.raw], self._refs)
        return [(slot, t) for (slot, _), t in zip(self.raw, scaled)]

    def skip(self, count: int, reason: str) -> None:
        """Operations that could not be formed because an earlier one failed."""
        self.attempted += count
        self.failed += count
        self.failures.append(f"{count} operations skipped: {reason}")

    def check(self, fn, *args) -> None:
        self._checks.append(partial(fn, *args))

    def run_checks(self) -> list[str]:
        errors = []
        for fn in self._checks:
            try:
                fn()
            except CheckError as exc:
                errors.append(str(exc))
        return errors


def _int_literal(x: int, p: int, n: int) -> str:
    """Digit form of a unit given as an integer mod p^n."""
    digits = []
    for _ in range(n):
        x, d = divmod(x, p)
        digits.append(d)
    return "0;" + ",".join(map(str, digits))


def _unit(rng: random.Random, p: int, bound: int) -> int:
    while True:
        t = rng.randrange(1, bound)
        if t % p:
            return t


# -- fixed-points ---------------------------------------------------------------

class FixedPoints:
    """Fresh strict-regime pairs each pass: fixed points, classify, basin, lemmas."""

    slots = ("fixed-points", "classify", "basin", "lemmas")
    primes = (3, 5, 7, 13)
    max_iter = 100
    samples = 50

    def __init__(self):
        self._roots = {}

    def plan(self, seed: int, index: int) -> list[dict]:
        rng = random.Random(f"fixed-points/{seed}/{index}")
        pairs = []
        for p in self.primes:
            for m in (1, 2):
                b = 1 + p ** m * _unit(rng, p, p ** 3)
                a = 1 + p ** (m + rng.choice((1, 2))) * rng.randrange(1, p ** 3)
                pair = {"p": p, "m": m, "a": a, "b": b,
                        "unit": _unit(rng, p, p ** 4), "seed": rng.randrange(2 ** 31)}
                if p % 4 == 1:
                    if p not in self._roots:
                        self._roots[p] = checks.sqrt_minus_one(p, N)
                    pair["i"] = self._roots[p]
                pairs.append(pair)
        return pairs

    def run(self, P: OpPass, plan: list[dict]) -> None:
        for pair in plan:
            p, m, a, b = pair["p"], pair["m"], pair["a"], pair["b"]
            names = ("x0", "x1", "x2") if p % 4 == 1 else ("x0",)
            args = ["--p", str(p), "--a", f"{a}/1", "--b", f"{b}/1"]
            fp = P.op("fixed-points", ["fixed-points", *args])
            dependent = 2 * len(names) + 1 + (p % 4 == 1)
            if fp is None or any(name not in fp for name in names):
                P.skip(dependent, "fixed-points gave no points")
                continue
            P.check(checks.check_fixed_points, fp, p, a, b, m, N, GUARD)
            labels = {"x0": "attracting", "x1": "repelling", "x2": "repelling"}
            for name in names:
                body = P.op("classify", ["classify", *args, "--x", digit_literal(fp[name])])
                if body is not None:
                    P.check(checks.check_classify, body, fp[name], labels[name], p, a, b, N)
            x0 = padic_int(fp["x0"], p, N)
            starts = [(digit_literal(fp[name]), padic_int(fp[name], p, N),
                       "in_basin" if name == "x0" else "stays_in_k") for name in names]
            if p % 4 == 1:
                x1 = padic_int(fp["x1"], p, N)
                alpha = next(r for r in pair["i"] if checks.ordp(r - x1, p, N) >= m)
                starts.append((_int_literal(alpha, p, N), alpha, "in_basin"))
            else:
                starts.append((f"{pair['unit']}/1", pair["unit"], "in_basin"))
            for literal, x, expected in starts:
                body = P.op("basin", ["basin", *args, "--x", literal])
                if body is not None:
                    P.check(checks.check_basin, body, x, x0, p, a, b, m, N, GUARD,
                            self.max_iter, expected)
            if p % 4 == 1:
                body = P.op("lemmas", ["lemmas", *args, "--samples", str(self.samples),
                                       "--seed", str(pair["seed"])])
                if body is not None:
                    P.check(checks.check_lemmas, body, fp, self.samples)


# -- repeller -------------------------------------------------------------------

class Repeller:
    """The three acceptance pairs: periodic points, itineraries, cylinders."""

    slots = ("periodic-k", "periodic-g", "itinerary", "cylinders")
    params = ((13, 170, 14, 1), (5, 26, 6, 1), (13, 2198, 170, 2))  # p, a, b, ord(b-1)
    lengths = range(1, 6)
    depths = range(1, 7)
    long_words = 2

    def plan(self, seed: int, index: int) -> list[dict]:
        rng = random.Random(f"repeller/{seed}/{index}")
        out = []
        for p, a, b, m in self.params:
            longs = [tuple(rng.choice((1, 2)) for _ in range(rng.randint(6, 9)))
                     for _ in range(self.long_words)]
            out.append({"p": p, "a": a, "b": b, "m": m, "long": longs})
        return out

    def run(self, P: OpPass, plan: list[dict]) -> None:
        for spec in plan:
            self._run_pair(P, spec)

    def _run_pair(self, P: OpPass, spec: dict) -> None:
        p, a, b, m = spec["p"], spec["a"], spec["b"], spec["m"]
        args = ["--p", str(p), "--a", f"{a}/1", "--b", f"{b}/1"]
        short = [w for n in self.lengths for w in product((1, 2), repeat=n)]
        words = [(w, N) for w in short] + [(w, HIGH) for w in spec["long"]]
        # cylinders are spread through the block, so their few samples per
        # pass fall at different moments of the machine's speed
        cylinders_after = {len(words) * d // len(self.depths) - 1: d for d in self.depths}
        k_points, g_points, cylinders = {}, {}, {}
        for i, (word, precision) in enumerate(words):
            run_args = args if precision == N else [*args, "--precision", str(precision)]
            text = ",".join(map(str, word))
            for kind, store in (("k", k_points), ("g", g_points)):
                body = P.op(f"periodic-{kind}",
                            ["periodic", *run_args, "--word", text, "--map", kind])
                if body is not None:
                    store[word, precision] = body
            if (word, precision) not in k_points:
                P.skip(1, "no periodic point to follow")
            else:
                body = P.op("itinerary", ["itinerary", *run_args, "--x",
                                          digit_literal(k_points[word, precision]["point"]),
                                          "--length", str(2 * len(word))])
                if body is not None:
                    P.check(checks.check_itinerary, body, word)
            if i in cylinders_after:
                depth = cylinders_after[i]
                cylinders[depth] = P.op("cylinders", ["cylinders", *args, "--depth", str(depth)])
        P.check(self._check_pair, spec, k_points, g_points, cylinders)

    def _check_pair(self, spec, k_points, g_points, cylinders) -> None:
        p, a, b, m = spec["p"], spec["a"], spec["b"], spec["m"]
        ks, gs = {}, {}
        for (word, precision), body in k_points.items():
            ks[word, precision] = checks.check_periodic(body, word, "k", p, a, b, m,
                                                        precision, GUARD)
        for (word, precision), body in g_points.items():
            gs[word, precision] = checks.check_periodic(body, word, "g", p, a, b, m,
                                                        precision, GUARD)
        short = {w: x for (w, prec), x in ks.items() if prec == N}
        checks.require((1,) in short and (2,) in short, "fixed points of k missing")
        checks.check_subshift(short, p, m, N)
        for (word, precision), s in gs.items():
            if (word, precision) in ks and ((word[0],), N) in gs:
                checks.check_g_point(s, ks[word, precision], gs[(word[0],), N], p, m,
                                     min(precision, N), GUARD)
        fixed = {1: short[(1,)], 2: short[(2,)]}
        points = {w: x % p ** N for (w, _), x in ks.items()}
        for depth, body in cylinders.items():
            if body is not None:
                checks.check_cylinders(body, depth, fixed, points, p, a, b, m, N, GUARD)


# -- gibbs ----------------------------------------------------------------------

class Gibbs:
    """p = 5, J0 = 0: solve, verify, unit-field verdicts, diagonal periodic fields."""

    slots = ("solve", "verify", "periodic", "verify-unit")
    p = 5
    trees = ((2, 1), (2, 2), (1, 2), (1, 3), (1, 4), (3, 1))   # (k, n)
    orbit_couplings = (25, 5)                                  # (J, J1) for periodic
    words = ("x0", "1,2")

    def __init__(self):
        self._exp = {}

    def plan(self, seed: int, index: int) -> list[dict]:
        rng = random.Random(f"gibbs/{seed}/{index}")
        return [{"k": k, "n": n, "J": self.p * _unit(rng, self.p, self.p ** 3),
                 "J1": self.p * _unit(rng, self.p, self.p ** 3)} for k, n in self.trees]

    def exp(self, value: int) -> int:
        if value not in self._exp:
            self._exp[value] = 1 if value == 0 else checks.exp_series(value, self.p, N)
        return self._exp[value]

    def run(self, P: OpPass, plan: list[dict]) -> None:
        base = ["gibbs", "--p", str(self.p)]
        for spec in plan:
            k, n = spec["k"], spec["n"]
            tree = ["--k", str(k), "--n", str(n)]
            couplings = ["--J", f"{spec['J']}/1", "--J1", f"{spec['J1']}/1", *tree]
            if k <= 2:  # solve_7_11 fails on some seeded couplings at k = 3
                solved = P.op("solve", [*base, "solve", *couplings])
                verified = P.op("verify", [*base, "verify", *couplings, "--source", "solve"])
                if solved is not None:
                    P.check(self._check_solved, spec, solved, verified)
            unit = P.op("verify-unit", [*base, "verify", *tree, "--source", "unit"])
            if unit is not None:
                P.check(self._check_unit, k, n, 0, 0, unit, True)
            # with both couplings nonzero the unit field is compatible at n = 1 only,
            # where the global spin flip alone balances the two root states
            unit = P.op("verify-unit", [*base, "verify", *couplings, "--source", "unit"],
                        expect=0 if n == 1 else 3)
            if unit is not None:
                P.check(self._check_unit, k, n, spec["J"], spec["J1"], unit, n == 1)
            if k == 2:  # the diagonal construction is defined for k = 2 only
                J, J1 = self.orbit_couplings
                for word in self.words:
                    body = P.op("periodic", [*base, "periodic", "--J", f"{J}/1",
                                             "--J1", f"{J1}/1", *tree, "--word", word,
                                             "--diagonal"])
                    if body is not None:
                        P.check(self._check_periodic, n, body)

    def _orders(self, k, n, J, J1, field):
        return checks.compat_orders(k, n, self.exp(J), self.exp(J1), 1, field,
                                    self.p, N, N - GUARD)

    def _check_solved(self, spec, solved, verified) -> None:
        k, n = spec["k"], spec["n"]
        field = checks.field_from_json(solved["field"], k, n, self.p, N)
        comps = list(field.values())
        checks.require(all(c == comps[0] for c in comps), "solved field is not translation invariant")
        checks.require(comps[0][(-1, 1)] == 1, "solved field breaks the gauge h_-+ = 1")
        orders = self._orders(k, n, spec["J"], spec["J1"], field)
        checks.require(checks.check_compat_report(solved["compatibility"], orders, self.p,
                                                  N, GUARD), "solved field is incompatible")
        if verified is not None:
            checks.check_compat_report(verified["compatibility"], orders, self.p, N, GUARD)

    def _check_unit(self, k, n, J, J1, body, expect_ok) -> None:
        field = {v: {pair: 1 for pair in checks.PAIR_KEYS.values()}
                 for level in checks.tree_levels(k, n)[1:] for v in level}
        ok = checks.check_compat_report(body["compatibility"], self._orders(k, n, J, J1, field),
                                        self.p, N, GUARD)
        checks.require(ok is expect_ok, f"unit field compatible={ok}, expected {expect_ok}")

    def _check_periodic(self, n, body) -> None:
        J, J1 = self.orbit_couplings
        a, b = self.exp(J), self.exp(J1)
        m = 1  # ord(b - 1) = ord(J1)
        orbit = checks.check_orbit(body["orbit"], a, b, self.p, m, N, GUARD)
        names = [c["placement"] for c in body["placements"]]
        if n == 1:  # no interior edge: the product system holds for every placement
            checks.require(names == list(checks.SLOTS), f"placements {names}")
        else:
            checks.require(names == ["diagonal"], f"placements {names}")
            diagnostics = body["single_component_diagnostics"]
            checks.require(set(diagnostics) == {"++", "+-", "-+", "--"}
                           and not any(checks.within(checks.fraction_order(r, self.p), N - GUARD)
                                       for r in diagnostics.values()),
                           f"single-component diagnostics {diagnostics}")
        for cand in body["placements"]:
            checks.require(checks.within(checks.fraction_order(cand["equation_residual"],
                                                               self.p), N - GUARD),
                           f"{cand['placement']} field misses the equations")
            field = checks.orbit_field(orbit, cand["placement"], a, 2, n, self.p, N)
            ok = checks.check_compat_report(cand["compatibility"],
                                            self._orders(2, n, J, J1, field), self.p, N, GUARD)
            checks.require(ok or cand["placement"] != "diagonal",
                           "diagonal field is incompatible")


WORKLOADS = {"fixed-points": FixedPoints, "repeller": Repeller, "gibbs": Gibbs}
