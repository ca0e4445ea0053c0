"""Output checks for the benchmark, made apart from the program.

Every check recomputes a property the method must have from the JSON the
CLI printed, with plain Python integers: a p-adic value known to `prec`
digits is an integer taken mod p^prec, and each division records the digits
it costs.  Nothing here imports padicdyn, so a fault in the library cannot
hide a fault in its own output.

Precision rule.  The library promises N - g trusted digits.  A map that
expands distances by p^e per step turns an error of p^-(N-g) in its input
into p^-(N-g-e) in its output, so a forward residual after n steps of k or g
(e = m = ord(b - 1) on the repeller balls) is held to N - g - n*m digits.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product


class CheckError(Exception):
    """An output broke a property it must have."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# -- integers as p-adic values ------------------------------------------------

def ordp(n: int, p: int, cap: int) -> int:
    """ord_p(n) for n known mod p^cap; `cap` when n vanishes there."""
    n %= p ** cap
    if n == 0:
        return cap
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(n: int, p: int) -> int:
    """ord_p of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def qdiv(num: int, den: int, p: int, prec: int) -> tuple[int, int]:
    """num/den in Z_p for num, den known mod p^prec: (quotient, digits left)."""
    mod = p ** prec
    num, den = num % mod, den % mod
    e = ordp(den, p, prec)
    require(e < prec, "division by a value that vanishes at working precision")
    require(ordp(num, p, prec) >= e, "quotient is not a p-adic integer")
    left = p ** (prec - e)
    return (num // p ** e) * pow(den // p ** e, -1, left) % left, prec - e


def eval_g(u: int, a: int, b: int, p: int, prec: int) -> tuple[int, int]:
    """g(u) = a(b^2u^2 + 1)/(b^2 + u^2)."""
    b2, u2 = b * b, u * u
    return qdiv(a * (b2 * u2 + 1), b2 + u2, p, prec)


def eval_k(x: int, a: int, b: int, p: int, prec: int) -> tuple[int, int]:
    """k(x) = (a(b^2x + 1)/(b^2 + x))^2."""
    b2 = b * b
    root, prec = qdiv(a * (b2 * x + 1), b2 + x, p, prec)
    return root * root % p ** prec, prec


def iterate(step, x: int, n: int, a: int, b: int, p: int, prec: int) -> tuple[int, int]:
    for _ in range(n):
        x, prec = step(x, a, b, p, prec)
    return x, prec


def sqrt_minus_one(p: int, prec: int) -> tuple[int, int]:
    """The two square roots of -1 mod p^prec (p = 1 mod 4), by Hensel lifting."""
    r = next(t for t in range(2, p) if (t * t + 1) % p == 0)
    k = 1
    while k < prec:
        k = min(2 * k, prec)
        mod = p ** k
        r = (r - (r * r + 1) * pow(2 * r, -1, mod)) % mod
    return r, p ** prec - r


def exp_series(x: int, p: int, prec: int) -> int:
    """exp(x) mod p^prec for an integer x with ord_p(x) >= 1.

    Term n is p^(n*v - v_p(n!)) * u^n / (n!/p^v_p(n!)) for x = p^v * u; since
    v_p(n!) <= (n - 1)/(p - 1), no term from n*(v - 1/(p - 1)) >= prec on counts.
    """
    require(x != 0, "exp_series needs x != 0")
    v = vp(x, p)
    require(v >= 1, "exp needs |x|_p <= 1/p")
    u = x // p ** v
    mod = p ** prec
    total, fact_unit, fact_v, n = 1, 1, 0, 0
    while n * (v * (p - 1) - 1) < prec * (p - 1):
        n += 1
        k = n
        while k % p == 0:
            k //= p
            fact_v += 1
        fact_unit = fact_unit * k % mod
        e = n * v - fact_v
        if e < prec:
            total += p ** e * pow(u, n, mod) * pow(fact_unit, -1, mod)
    return total % mod


# -- the JSON forms the CLI prints --------------------------------------------

def padic_int(obj: dict, p: int, n_digits: int) -> int:
    """The integer p^v * sum(d_i p^i) a JSON p-adic value stands for (v >= 0)."""
    require(obj.get("p") == p, f"value is over p = {obj.get('p')}, expected {p}")
    digits = obj["digits"]
    if obj["valuation"] is None:
        require(digits == [], "zero carries digits")
        return 0
    v = obj["valuation"]
    require(isinstance(v, int) and v >= 0, f"valuation {v} is not >= 0")
    require(len(digits) == n_digits, f"{len(digits)} digits, expected {n_digits}")
    require(all(isinstance(d, int) and 0 <= d < p for d in digits),
            "digit out of range")
    require(digits[0] != 0, "leading digit is 0")
    return p ** v * sum(d * p ** i for i, d in enumerate(digits))


def digit_literal(obj: dict) -> str:
    """The CLI's digit form 'v;d0,d1,...' of a JSON p-adic value."""
    return f"{obj['valuation']};" + ",".join(str(d) for d in obj["digits"])


def norm_text(order: int, p: int) -> str:
    """The CLI's rendering of the norm p^-order of a nonzero value."""
    if order == 0:
        return "1"
    return f"{p}^-{order}" if order > 0 else f"{p}^{-order}"


def norm_order(text: str, p: int) -> int | None:
    """Inverse of norm_text: the order a 'p^-k' string stands for, None for '0'."""
    if text == "0":
        return None
    if text == "1":
        return 0
    base, _, exp = text.partition("^")
    require(base == str(p) and exp.lstrip("-").isdigit(), f"bad norm {text!r}")
    return -int(exp)


def fraction_order(text: str, p: int) -> int | None:
    """ord_p of an exact residual printed as a Fraction ('0' -> None)."""
    q = Fraction(text)
    require(q >= 0, f"negative residual {text}")
    if q == 0:
        return None
    num_v, den_v = vp(q.numerator, p), vp(q.denominator, p)
    require(q == Fraction(p ** num_v, p ** den_v),
            f"residual {text} is not a power of {p}")
    return den_v - num_v


def within(order: int | None, digits: int) -> bool:
    """|value| <= p^-digits for a value of the given order (None is zero)."""
    return order is None or order >= digits


# -- fixed points -------------------------------------------------------------

def cubic(x: int, a: int, b: int) -> int:
    """x^3 - ab^2x^2 + b^2x - a: its roots are the fixed points of g."""
    b2 = b * b
    return x ** 3 - a * b2 * x * x + b2 * x - a


def multiplier_order(x: int, a: int, b: int, p: int, prec: int) -> int:
    """ord_p g'(x) = ord(2ax(b^4 - 1)) - 2 ord(b^2 + x^2)."""
    return (ordp(2 * a * x * (b ** 4 - 1), p, prec)
            - 2 * ordp(b * b + x * x, p, prec))


def check_fixed_points(body: dict, p: int, a: int, b: int, m: int,
                       n: int, guard: int) -> None:
    """Roots of the cubic, 3 of them iff p = 1 (mod 4), classified correctly."""
    require(body["p"] == p and body["precision"] == n, "wrong context echoed")
    require(body["strict_regime"] is True, "strict-regime pair reported non-strict")
    require(body["radius"] == norm_text(m, p), f"radius {body['radius']}")
    names = ("x0", "x1", "x2") if p % 4 == 1 else ("x0",)
    require(tuple(k for k in ("x0", "x1", "x2") if k in body) == names,
            f"expected fixed points {names}")
    points = {name: padic_int(body[name], p, n) for name in names}
    trusted = n - guard
    for name, x in points.items():
        require(ordp(cubic(x, a, b), p, n) >= trusted,
                f"{name} is not a root of the cubic to {trusted} digits")
    require(points["x0"] % p == 1, "x0 is not in E_p")
    for name in names[1:]:
        require(points[name] % p != 1, f"{name} lies in E_p")
    for u, v in combinations(names, 2):
        require(ordp(points[u] - points[v], p, n) < trusted, f"{u} and {v} coincide")
    expected = {"x0": "attracting", "x1": "repelling", "x2": "repelling"}
    require(body["classifications"] == {nm: expected[nm] for nm in names},
            f"classifications {body['classifications']}")
    x0, b2 = points["x0"], b * b
    delta = -3 * x0 * x0 + 2 * a * b2 * x0 - 4 * b2 + a * a * b2 * b2
    require(ordp(padic_int(body["delta"], p, n) - delta, p, n) >= trusted,
            "delta is not the discriminant of the quadratic factor")
    require(body["delta"]["digits"][0] == (p - 4) % p,
            "discriminant leading digit is not p - 4")
    lemma = body["lemma_3_4"]
    require(set(lemma) == {"i", "ii", "iii", "iv", "v", "vi", "vii"},
            "Lemma 3.4 clauses missing")
    require(all(v is not False for v in lemma.values()), f"Lemma 3.4 clause false: {lemma}")
    roots_clauses = ("ii", "iii", "v")
    require(all((lemma[c] is None) == (p % 4 == 3) for c in roots_clauses),
            "root clauses must be reported exactly when the roots exist")


def check_classify(body: dict, x_json: dict, label: str, p: int, a: int,
                   b: int, n: int) -> None:
    require(body["x"] == x_json, "classify echoed another point")
    require(body["classification"] == label,
            f"classified {body['classification']}, expected {label}")
    x = padic_int(x_json, p, n)
    order = multiplier_order(x, a, b, p, n)
    require(body["multiplier_norm"] == norm_text(order, p),
            f"multiplier norm {body['multiplier_norm']}, expected {norm_text(order, p)}")
    require((order > 0) == (label == "attracting"), "label disagrees with |g'(x)|")


def in_k_set(x: int, x0: int, b: int, m: int, p: int, prec: int) -> bool:
    """x in K = {|x - x0| = 1, |x^2 + 1| <= |b^2 - 1|}; ord(b^2 - 1) = m."""
    return ordp(x - x0, p, prec) == 0 and ordp(x * x + 1, p, prec) >= m


def check_basin(body: dict, x: int, x0: int, p: int, a: int, b: int, m: int,
                n: int, guard: int, max_iter: int, expected: str) -> None:
    """Replay the orbit: iterates inside K match the trail, the exit step is right."""
    require(body["outcome"] == expected, f"basin outcome {body['outcome']}, expected {expected}")
    trail = body["trail"]
    if expected == "in_basin":
        require(body["steps"] == len(trail), "steps and trail disagree")
        replay = body["steps"] + 1
    else:
        require(body["steps"] == max_iter, "a trapped orbit reports the full budget")
        require(len(trail) >= 1, "a trapped orbit has a trail")
        replay = len(trail)
    prec = n
    u = x
    for step in range(replay):
        inside = in_k_set(u, x0, b, m, p, prec)
        if step < len(trail):
            require(inside, f"iterate {step} is not in K")
            require(trail[step] == u % p, f"trail digit {step} is wrong")
        else:
            require(not inside, f"iterate {step} is still in K")
        if step + 1 < replay:
            u, prec = eval_g(u, a, b, p, prec)
            require(prec >= n - guard, "replay ran out of digits")
    if expected == "stays_in_k":
        g_x, prec = eval_g(x, a, b, p, n)
        require(ordp(g_x - x, p, prec) >= n - guard - m, "trapped start is not periodic")


def check_lemmas(body: dict, points: dict, samples: int) -> None:
    require(all(v is not False for v in body["lemma_3_4"].values()),
            f"Lemma 3.4 clause false: {body['lemma_3_4']}")
    require(body["x0"] == points["x0"] and body.get("x1") == points.get("x1"),
            "lemmas reports other fixed points than fixed-points")
    scaling = body["scaling_identity"]
    require(scaling == {"samples": samples, "holds": samples, "all_hold": True},
            f"scaling identity {scaling}")


# -- the repeller -------------------------------------------------------------

def check_periodic(body: dict, word: tuple, kind: str, p: int, a: int, b: int,
                   m: int, n: int, guard: int) -> int:
    """Point of period |word| for k or g, to N - g - |word|*m digits forward."""
    require(body["word"] == list(word) and body["map"] == kind, "wrong word or map echoed")
    x = padic_int(body["point"], p, n)
    require(body["point"]["valuation"] == 0, "periodic point is not a unit")
    step = eval_k if kind == "k" else eval_g
    digits = n - guard - len(word) * m
    image, prec = iterate(step, x, len(word), a, b, p, n + 2 * len(word) * m + 8)
    require(ordp(image - x, p, prec) >= digits,
            f"{kind}^{len(word)}(x) - x exceeds p^-{digits}")
    reported = norm_order(body["period_residual"], p)
    require(within(reported, digits), f"reported residual {body['period_residual']}")
    return x


def check_g_point(s: int, k_point: int, center: int, p: int, m: int, n: int,
                  guard: int) -> None:
    """The g-point squares to the k-point; up to sign it lies in the ball of
    its first symbol."""
    require(ordp(s * s - k_point, p, n) >= n - guard, "g-point squared is not the k-point")
    # g is even, so the orbit picks s or -s; one of them lies in the ball
    require(max(ordp(s - center, p, n), ordp(s + center, p, n)) > m,
            "g-point lies outside the balls of its first symbol")


def check_itinerary(body: dict, word: tuple) -> None:
    require(body["itinerary"] == list(word) * 2,
            f"itinerary {body['itinerary']}, expected {list(word) * 2}")


def check_subshift(points: dict, p: int, m: int, n: int) -> None:
    """|x_u - x_v| = p^-(f*m + kappa), f the first disagreement of u and v.

    kappa is read off the two fixed points of k.  Points of equal length are
    therefore distinct, 2^L of them for length L.
    """
    kappa = ordp(points[(1,)] - points[(2,)], p, n)
    by_length: dict[int, list] = {}
    for word, x in points.items():
        by_length.setdefault(len(word), []).append((word, x))
    for length, items in by_length.items():
        require(len(items) == 2 ** length, f"{len(items)} points of length {length}")
        for i, (u, xu) in enumerate(items):
            for v, xv in items[i + 1:]:
                f = next(j for j, (su, sv) in enumerate(zip(u, v)) if su != sv)
                require(ordp(xu - xv, p, n) == f * m + kappa,
                        f"|x_{u} - x_{v}| is not the subshift metric")


def check_cylinders(body: dict, depth: int, fixed_k: dict, points: dict, p: int,
                    a: int, b: int, m: int, n: int, guard: int) -> None:
    """2^depth disjoint balls of radius p^-(depth*m), each a k^(depth-1)-preimage
    of the fixed point of its last symbol, each holding the periodic points of
    the words it starts."""
    cyl = body["cylinders"]
    require(body["depth"] == depth and len(cyl) == 2 ** depth, "wrong cylinder count")
    words = [tuple(c["word"]) for c in cyl]
    require(sorted(words) == sorted(product((1, 2), repeat=depth)), "cylinder words")
    centers = {}
    for c in cyl:
        word, ball = tuple(c["word"]), c["ball"]
        require(ball["radius_exponent"] == -depth * m and ball["closed"] is False,
                "cylinder radius")
        x = padic_int(ball["center"], p, n)
        image, prec = iterate(eval_k, x, depth - 1, a, b, p, n + 2 * depth * m + 8)
        require(ordp(image - fixed_k[word[-1]], p, min(prec, n))
                >= n - guard - (depth - 1) * m,
                f"cylinder {word} center is not a preimage of its last ball")
        centers[word] = x
    ws = list(centers)
    for i, u in enumerate(ws):
        for v in ws[i + 1:]:
            require(ordp(centers[u] - centers[v], p, n) <= depth * m,
                    f"cylinders {u} and {v} overlap")
    for word, x in points.items():
        prefix = (word * (depth // len(word) + 1))[:depth]
        require(ordp(x - centers[prefix], p, n) > depth * m,
                f"periodic point {word} is outside cylinder {prefix}")


# -- Gibbs measures on the Cayley tree ------------------------------------------

PAIR_KEYS = {"++": (1, 1), "+-": (1, -1), "-+": (-1, 1), "--": (-1, -1)}


def tree_levels(k: int, n: int) -> list[list[tuple]]:
    return [list(product(range(1, k + 1), repeat=ell)) for ell in range(n + 1)]


def field_from_json(obj: dict, k: int, n: int, p: int, digits: int) -> dict:
    """Vertex -> {spin pair: unit as an integer}, checked for shape."""
    field = {}
    for key, comp in obj.items():
        vertex = tuple(int(s) for s in key.split("/"))
        require(set(comp) == set(PAIR_KEYS), f"field components at {key}")
        field[vertex] = {PAIR_KEYS[s]: padic_int(h, p, digits) for s, h in comp.items()}
        require(all(h % p for h in field[vertex].values()), "field component is not a unit")
    expected = {v for level in tree_levels(k, n)[1:] for v in level}
    require(set(field) == expected, "field does not cover V_n minus the root")
    return field


def compat_orders(k: int, n: int, a: int, b: int, c: int, field: dict, p: int,
                  digits: int, trusted: int) -> list[int | None]:
    """Per sigma on V_{n-1}: ord_p of mu^n-marginal(sigma) - mu^{n-1}(sigma).

    Weights are exp(H) * product of boundary components with H's couplings
    entering as a = exp(J), b = exp(J1), c = exp(J0); every factor is a unit,
    so sums are exact mod p^digits.  None marks a residual too small to see,
    which must still be below p^-trusted.
    """
    mod = p ** digits
    levels = tree_levels(k, n)

    def weight(sigma: dict, depth: int) -> int:
        s1 = s2 = s3 = 0
        for ell in range(1, depth + 1):
            for y in levels[ell]:
                s1 += sigma[y[:-1]] * sigma[y]
                if ell >= 2:
                    s2 += sigma[y[:-2]] * sigma[y]
        for ell in range(depth):
            for x in levels[ell]:
                kids = [x + (i,) for i in range(1, k + 1)]
                for i, y in enumerate(kids):
                    for z in kids[i + 1:]:
                        s3 += sigma[y] * sigma[z]
        w = pow(a, s1, mod) * pow(b, s2, mod) * pow(c, s3, mod) % mod
        if depth:
            for y in levels[depth]:
                h = field[y][(sigma[y[:-1]], sigma[y])]
                w = w * (h if sigma[y[:-1]] == sigma[y] else pow(h, -1, mod)) % mod
        return w

    inner = [v for level in levels[:n] for v in level]
    boundary = levels[n]
    z_n = sum(weight(dict(zip(inner + boundary, s)), n)
              for s in product((-1, 1), repeat=len(inner) + len(boundary))) % mod
    z_prev = sum(weight(dict(zip(inner, s)), n - 1)
                 for s in product((-1, 1), repeat=len(inner))) % mod
    shift = ordp(z_n, p, digits) + ordp(z_prev, p, digits)
    out = []
    for s in product((-1, 1), repeat=len(inner)):
        sigma = dict(zip(inner, s))
        marginal = sum(weight({**sigma, **dict(zip(boundary, t))}, n)
                       for t in product((-1, 1), repeat=len(boundary))) % mod
        diff = marginal * z_prev - weight(sigma, n - 1) * z_n
        raw = ordp(diff, p, digits)
        if raw == digits:
            require(digits - shift >= trusted, "partition functions cost too many digits")
            out.append(None)
        else:
            out.append(raw - shift)
    return out


def check_compat_report(report: dict, orders: list, p: int, n_digits: int,
                        guard: int) -> bool:
    """The report's residuals are the independent ones; returns the verdict."""
    trusted = n_digits - guard
    residuals = report["residuals"]
    require(len(residuals) == len(orders), "one residual per sigma on V_{n-1}")
    ok = all(within(o, trusted) for o in orders)
    for text, order in zip(residuals, orders):
        reported = fraction_order(text, p)
        if within(order, trusted):
            require(within(reported, trusted), f"residual {text}, expected below p^-{trusted}")
        else:
            require(reported == order, f"residual {text}, expected {p}^-{order}")
    require(report["ok"] is ok, f"compatibility ok={report['ok']}, expected {ok}")
    require(Fraction(report["max_residual"]) == max(Fraction(t) for t in residuals),
            "max_residual is not the largest residual")
    return ok


def check_orbit(orbit: list, a: int, b: int, p: int, m: int, n: int, guard: int) -> list:
    """h_i = g(h_{i+1 mod len}) to N - g - m digits (one expanding step)."""
    values = [padic_int(h, p, n) for h in orbit]
    for i, h in enumerate(values):
        image, prec = eval_g(values[(i + 1) % len(values)], a, b, p, n)
        require(ordp(image - h, p, prec) >= n - guard - m, f"orbit relation fails at {i}")
    return values


SLOTS = {"++": ((1, 1),), "+-": ((1, -1),), "-+": ((-1, 1),), "--": ((-1, -1),),
         "diagonal": ((1, 1), (-1, -1))}


def orbit_field(orbit: list, placement: str, a: int, k: int, n: int, p: int,
                digits: int) -> dict:
    """Level ell carries h_{(ell-1) mod len} in the placement's slot, all else 1;
    the diagonal placement carries (h/a)^2 in both diagonal slots."""
    mod = p ** digits
    if placement == "diagonal":
        inv_a = pow(a, -1, mod)
        orbit = [(h * inv_a) ** 2 % mod for h in orbit]
    field = {}
    for ell, level in enumerate(tree_levels(k, n)[1:], start=1):
        comp = {pair: 1 for pair in PAIR_KEYS.values()}
        for slot in SLOTS[placement]:
            comp[slot] = orbit[(ell - 1) % len(orbit)]
        for y in level:
            field[y] = dict(comp)
    return field
