"""Digest the CLI's output over a fixed grid of calls, to compare checkouts.

    python3 tests/output_grid.py <checkout>

imports padicdyn from <checkout>/src and runs every call of the grid in
process, the whole list twice: the second round reads what the first left in
the CLI's memos, so the warm path is covered too.  It prints one line per
subcommand: the number of calls, how many exited with each code, and one
SHA-256 over every call's argv, stdout, stderr and exit code.  Two checkouts
print the same lines exactly when every call printed and exited the same.

The grid, on the three acceptance pairs and (17, 290, 18) at N = 64, 128, 20
and 12: `fixed-points`; `classify`, `basin` and `orbit --map f|g|k` at the
fixed points x0, x1 and x2 that call printed and at a few points that are not
fixed; `classify` and `orbit` at the first two of those fixed points spelled
oddly (spaces, a trailing comma, a leading 0 digit, a digit p), so that both
of `parse_padic`'s ways to read a digit literal are compared; `lemmas`;
`periodic --map k|g` for every word of up to 7 symbols, and, digested apart
as `periodic long`, for four words of each length 10 to 13, on both sides of
the bound on the words the repeller geometry keeps; `itinerary` from the
periodic points of the short words and from a few other points;
`cylinders` at depths 0 to 7 and 13.  Then at p = 5: `gibbs solve`
and `gibbs verify --source solve|unit` at k, n <= 3, J0 = 0 and J0 != 0, at
the same four N, and `gibbs periodic`, with and without --diagonal.  The name
does not start with test_, so pytest does not collect it.
"""
from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

PAIRS = ((13, 170, 14), (5, 26, 6), (13, 2198, 170), (17, 290, 18))
PRECISIONS = (64, 128, 20, 12)
MAX_WORD = 7
LONG_WORDS = tuple(range(10, 14))    # lengths of the periodic long words
ITINERARY_WORD = 3               # itineraries from the points of words this short
ITINERARY_STARTS = ("0", "1/1", "-1/1", "2/3")
POINT_STARTS = ("0", "1/1", "2/3")   # classify, basin and orbit beside x0, x1, x2
ORBIT_STEPS = ("10", "40")
CYLINDER_DEPTHS = (0, 1, 2, 3, 4, 5, 6, 7, 13)
GIBBS_PRECISIONS = (64, 20)
GIBBS_COUPLINGS = (("25/1", "5/1"), ("125/1", "5/1"))
GIBBS_WORDS = ("x0", "1", "2", "1,2", "2,1", "1,1,2")
GIBBS_J0 = ("0", "125/1")
GIBBS_ORDERS = (1, 2, 3)             # the tree order k and the depth n


def literal(point: dict) -> str:
    """The digit literal of a padic.to_json form."""
    return f"{point['valuation']};" + ",".join(map(str, point["digits"]))


def odd_spellings(text: str, p: int) -> list[str]:
    """The digit literal `text` with a space after each comma, with a
    trailing comma, with a leading 0 digit and with the digit p second: the
    first two read as `text`, the last two are refused."""
    head, tail = text.split(";", 1)
    first, _, rest = tail.partition(",")
    return [f"{head};" + tail.replace(",", ", "), f"{text},", f"{head};0,{tail}",
            f"{head};{first},{p},{rest}"]


def words(longest: int) -> list[str]:
    return [",".join(map(str, w)) for n in range(1, longest + 1)
            for w in product((1, 2), repeat=n)]


def long_words() -> list[str]:
    """Four words of each length in LONG_WORDS: alternating, all 2 but a last
    1, and two drawn by a generator seeded with the length."""
    out = []
    for n in LONG_WORDS:
        rng = random.Random(n)
        drawn = [[rng.choice((1, 2)) for _ in range(n)] for _ in range(2)]
        for w in [((1, 2) * n)[:n], (2,) * (n - 1) + (1,), *drawn]:
            out.append(",".join(map(str, w)))
    return out


def call(run, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def grid(last: dict):
    """(subcommand, argv) for every call, in order.  The classify, basin and
    orbit starts include the fixed points the fixed-points call printed, and
    the itinerary starts are the points the periodic calls before them
    printed: the caller puts each call's exit code and stdout in last before
    it asks for the next call."""
    for (p, a, b), precision in product(PAIRS, PRECISIONS):
        pair = ["--p", str(p), "--a", f"{a}/1", "--b", f"{b}/1",
                "--precision", str(precision)]
        yield "fixed-points", ["fixed-points", *pair]
        fixed = json.loads(last["out"]) if last["code"] == 0 else {}
        starts = [literal(fixed[name]) for name in ("x0", "x1", "x2") if name in fixed]
        for x in [*starts, *POINT_STARTS]:
            yield "classify", ["classify", *pair, "--x", x]
            yield "basin", ["basin", *pair, "--x", x]
            for kind, steps in product(("f", "g", "k"), ORBIT_STEPS):
                yield "orbit", ["orbit", *pair, "--x", x, "--map", kind, "--steps", steps]
        for x in [odd for start in starts[:2] for odd in odd_spellings(start, p)]:
            yield "classify", ["classify", *pair, "--x", x]
            for kind in ("f", "g", "k"):
                yield "orbit", ["orbit", *pair, "--x", x, "--map", kind,
                                "--steps", ORBIT_STEPS[0]]
        yield "lemmas", ["lemmas", *pair]
        points = []
        for word in words(MAX_WORD):
            for kind in ("k", "g"):
                argv = ["periodic", *pair, "--word", word, "--map", kind]
                yield "periodic", argv
                n = word.count(",") + 1
                if kind == "k" and n <= ITINERARY_WORD and last["code"] == 0:
                    points.append((n, literal(json.loads(last["out"])["point"])))
        for word, kind in product(long_words(), ("k", "g")):
            yield "periodic long", ["periodic", *pair, "--word", word, "--map", kind]
        points += [(2, x) for x in ITINERARY_STARTS]
        for n, x in points:
            for length in (2 * n, 40):
                yield "itinerary", ["itinerary", *pair, "--x", x,
                                    "--length", str(length)]
        for depth in CYLINDER_DEPTHS:
            yield "cylinders", ["cylinders", *pair, "--depth", str(depth)]
    for precision, (J, J1), J0, k, n in product(
            PRECISIONS, GIBBS_COUPLINGS, GIBBS_J0, GIBBS_ORDERS, GIBBS_ORDERS):
        head = ["gibbs", "--p", "5", "--precision", str(precision)]
        couplings = ["--J", J, "--J1", J1, "--J0", J0, "--k", str(k), "--n", str(n)]
        yield "gibbs solve", [*head, "solve", *couplings]
        for source in ("solve", "unit"):
            yield "gibbs verify", [*head, "verify", *couplings, "--source", source]
    for precision, (J, J1), n, word, diagonal in product(
            GIBBS_PRECISIONS, GIBBS_COUPLINGS, (2, 3), GIBBS_WORDS, (False, True)):
        yield "gibbs periodic", ["gibbs", "--p", "5", "--precision", str(precision),
                                 "periodic", "--J", J, "--J1", J1, "--n", str(n),
                                 "--word", word, *(["--diagonal"] if diagonal else [])]


def main(checkout: str) -> None:
    sys.path.insert(0, str(Path(checkout).resolve() / "src"))
    from padicdyn.cli import run

    digests, exits, last = {}, {}, {}
    for _ in range(2):
        for command, argv in grid(last):
            code, out, err = call(run, argv)
            last.update(code=code, out=out)
            digest = digests.setdefault(command, hashlib.sha256())
            digest.update(json.dumps([argv, out, err, code]).encode())
            exits.setdefault(command, Counter())[code] += 1
    for command, digest in digests.items():
        codes = ", ".join(f"{code}: {count}" for code, count in sorted(exits[command].items()))
        print(f"{command:15} {sum(exits[command].values()):6} calls  "
              f"exit {{{codes}}}  {digest.hexdigest()}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 tests/output_grid.py <checkout>")
    main(sys.argv[1])
