"""Seeded request lists for the four workloads.

Each builder writes its input files into a work directory and returns the
list of requests one round runs, in order. A request is one call of
``ghostcheck.cli.main(argv)``; ``kind`` names the checker in ``checks.py``
that verifies its output and ``problem`` is the file content it reads.
The same seed gives the same files and the same list. Costs are fixed by
the shape of each input (sizes, term counts), while the seed only picks
entries, pool members and order, so the cost profile of a round does not
depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SCAN_ANSWERS = os.path.join(HERE, "expected_scan.json")


@dataclass
class Request:
    kind: str
    argv: list
    label: str
    problem: object = None
    expect: dict = field(default_factory=dict)
    known_fault: str = ""


def _s(v) -> str:
    return str(Fraction(v))


def raw_problem(genus, ambient, points) -> dict:
    """A one-component problem file; ``points`` holds (delta, deriv) pairs."""
    return {
        "version": 1,
        "genus": genus,
        "ambient_dim": ambient,
        "points": [
            {"delta": [_s(v) for v in d], "deriv": [_s(v) for v in e]} for d, e in points
        ],
    }


def problem_points(problem):
    """(delta, deriv) pairs of a ghostcheck ObstructionProblem."""
    return [(list(p.delta), list(p.deriv)) for p in problem.points]


def digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


class Writer:
    """Writes numbered input files into the work directory."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def file(self, content) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"in{self.count:03d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            if isinstance(content, str):
                handle.write(content)
            else:
                json.dump(content, handle)
        return path

    def check(self, problem, label, expect=None, text=False):
        path = self.file(problem)
        argv = ["check", path] if text else ["check", path, "--json"]
        return Request("check_text" if text else "check", argv, label, problem, expect or {})


# -- transforms that keep every subset rank -------------------------------------


def signed_permutation(rng, size):
    order = list(range(size))
    rng.shuffle(order)
    return order, [rng.choice((1, -1)) for _ in range(size)]


def rank_preserving(rng, points):
    """Signed coordinate permutations on both factors plus column signs.

    Every subset keeps its two ranks and every column keeps its rank-one
    tensor up to sign, so verdicts, ranks and (|D|, lex)-minimal witnesses
    are those of the untransformed problem.
    """
    g, big_n = len(points[0][0]), len(points[0][1])
    pd, sd = signed_permutation(rng, g)
    pv, sv = signed_permutation(rng, big_n)
    out = []
    for delta, deriv in points:
        flip = rng.choice((1, -1))
        out.append(
            (
                [sd[i] * delta[pd[i]] for i in range(g)],
                [flip * sv[i] * deriv[pv[i]] for i in range(big_n)],
            )
        )
    return out


# -- scan ------------------------------------------------------------------------

# (n, per round) and ((N, h), per round). Stars and n <= 12 fill the cheapest
# 40 %; the median falls in the n = 13 class, the 90th percentile in n = 15.
SCAN_RANDOM_CLASSES = ((11, 2), (12, 2), (13, 4), (14, 4), (15, 4))
SCAN_STARS = (((4, 4), 1), ((2, 6), 1), ((3, 5), 1), ((5, 4), 1))
SCAN_POOL = 12
SCAN_GENUS = SCAN_AMBIENT = 12


def scan_random_pool_member(n, k):
    """Pool problem k of size n: integer entries in [-9, 9], g = N = 12."""
    rng = random.Random(f"scan/{n}/{k}")
    return [
        (
            [rng.randint(-9, 9) for _ in range(SCAN_GENUS)],
            [rng.randint(-9, 9) for _ in range(SCAN_AMBIENT)],
        )
        for _ in range(n)
    ]


def scan_pool(factory):
    """{key: (genus, ambient, points)} for every problem the scan workload draws."""
    pool = {}
    for n, _ in SCAN_RANDOM_CLASSES:
        for k in range(SCAN_POOL):
            pool[f"random/n{n}/{k}"] = (SCAN_GENUS, SCAN_AMBIENT, scan_random_pool_member(n, k))
    for (big_n, h), _ in SCAN_STARS:
        star = factory.build_line_star_instance(big_n, h, "nodal_rational")
        pool[f"star/N{big_n}h{h}"] = (h, big_n, problem_points(star))
    return pool


def build_scan(gc, seed, writer):
    with open(SCAN_ANSWERS, encoding="utf-8") as handle:
        answers = json.load(handle)["problems"]
    pool = scan_pool(gc.factory)
    rng = random.Random(f"scan:{seed}")
    picks = []
    for n, count in SCAN_RANDOM_CLASSES:
        for k in rng.sample(range(SCAN_POOL), count):
            picks.append((f"random/n{n}/{k}", f"random n={n}"))
    for (big_n, h), count in SCAN_STARS:
        picks += [(f"star/N{big_n}h{h}", f"nodal star N={big_n} h={h}")] * count
    rng.shuffle(picks)
    requests = []
    for key, label in picks:
        genus, ambient, points = pool[key]
        answer = answers[key]
        if answer["digest"] != digest(raw_problem(genus, ambient, points)):
            raise RuntimeError(f"scan pool problem {key} changed; rerun make_expected.py")
        expect = {"corollary": answer["witness"]}
        if key.startswith("star/"):
            expect["line_star"] = (ambient, genus)
        problem = raw_problem(genus, ambient, rank_preserving(rng, points))
        requests.append(writer.check(problem, label, expect))
    k = rng.randrange(SCAN_POOL)
    warm = raw_problem(SCAN_GENUS, SCAN_AMBIENT, scan_random_pool_member(11, k))
    return requests, writer.check(warm, "warm-up", {"corollary": answers[f"random/n11/{k}"]["witness"]})


# -- rank ------------------------------------------------------------------------

# (g, N, kind, per round), cheapest first; the median falls in the middle of
# the (9, 9) class and the 90th percentile inside the (10, 10) class.
RANK_KERNEL_CLASSES = (
    (8, 8, "zero derivative", 1), (8, 8, "dependent column", 1),
    (9, 9, "zero derivative", 4),
    (9, 9, "dependent column", 1), (10, 10, "zero derivative", 1),
    (10, 10, "dependent column", 4),
)
RANK_STARS = ((4, 6), (2, 12))
RANK_POINTS = 24
RANK_PLANTED = 2  # full-rank problems with a planted 4-point witness


def poly_mul_linear(coeffs, root):
    """coeffs(x) * (x - root), ascending coefficients."""
    out = [Fraction(0)] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i + 1] += c
        out[i] -= root * c
    return out


def _poly_rem(a, b):
    a = list(a)
    while len(a) >= len(b) and any(a):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        while a and a[-1] == 0:
            a.pop()
    return a


def squarefree(f) -> bool:
    a, b = list(f), [i * c for i, c in enumerate(f)][1:]
    while b:
        a, b = b, _poly_rem(a, b)
    return len(a) == 1


def hyperelliptic_star(big_n, h, k):
    """Curve-model line star on y^2 = k^2 + prod_{j=1}^{2h+2} (x - j).

    Group i sits on the i-th coordinate line; groups 2b and 2b+1 share the
    x-values b*h+1 .. b*h+h with y = +k and y = -k. Covectors x^(a-1)/y are
    fractional for k > 1.
    """
    f = [Fraction(1)]
    for j in range(1, 2 * h + 3):
        f = poly_mul_linear(f, j)
    f[0] += k * k
    attachments, derivs = [], []
    for i in range(big_n):
        block, sign = i // 2, 1 if i % 2 == 0 else -1
        for x in range(block * h + 1, block * h + h + 1):
            attachments.append({"x": str(x), "y": str(sign * k)})
            derivs.append([str(int(c == i)) for c in range(big_n)])
    return f, attachments, derivs


def build_rank(gc, seed, writer):
    rng = random.Random(f"rank:{seed}")
    requests = []
    for g, big_n, kind, count in RANK_KERNEL_CLASSES:
        for _ in range(count):
            base = gc.factory.random_instance(rng.getrandbits(32), g, big_n, RANK_POINTS)
            points = problem_points(base)
            if kind == "zero derivative":
                i = rng.randrange(RANK_POINTS)
                points[i] = (points[i][0], [0] * big_n)
            else:
                i, j = sorted(rng.sample(range(RANK_POINTS), 2))
                points[j] = ([2 * v for v in points[i][0]], [-v for v in points[i][1]])
            label = f"kernel {kind} g={g} N={big_n}"
            requests.append(writer.check(raw_problem(g, big_n, points), label, {"scan_limit": 4}))
    for _ in range(RANK_PLANTED):
        base = gc.factory.random_instance(rng.getrandbits(32), 12, 12, RANK_POINTS)
        points = problem_points(base)
        a, b = ([rng.randint(-9, 9) for _ in range(12)] for _ in range(2))
        c, d = ([rng.randint(-9, 9) for _ in range(12)] for _ in range(2))
        for i in rng.sample(range(RANK_POINTS), 4):
            s, t, u, v = (rng.randint(1, 5) for _ in range(4))
            points[i] = (
                [s * x + t * y for x, y in zip(c, d)],
                [u * x + v * y for x, y in zip(a, b)],
            )
        label = "full rank, planted 4-point witness"
        requests.append(writer.check(raw_problem(12, 12, points), label, {"scan_limit": 4}))
    for big_n, h in RANK_STARS:
        k = rng.choice([k for k in (2, 3, 5, 7) if squarefree(hyperelliptic_star(big_n, h, k)[0])])
        f, attachments, derivs = hyperelliptic_star(big_n, h, k)
        order = list(range(len(derivs)))
        rng.shuffle(order)
        problem = {
            "version": 1,
            "curve_model": {"type": "hyperelliptic", "genus": h, "f": [str(c) for c in f]},
            "attachments": [attachments[i] for i in order],
            "derivs": [derivs[i] for i in order],
        }
        expect = {"line_star": (big_n, h), "scan_limit": 4}
        requests.append(writer.check(problem, f"hyperelliptic star N={big_n} h={h}", expect))
    rng.shuffle(requests)
    warm = problem_points(gc.factory.random_instance(rng.getrandbits(32), 12, 12, 12))
    return requests, writer.check(raw_problem(12, 12, warm), "warm-up", {"scan_limit": 12})


# -- chain -----------------------------------------------------------------------

# (m, coordinates, per round) of the inputs that pass, cheapest first; cost
# grows about as coordinates * m^2. The median falls in the middle of the
# (20, 2) class and the 90th percentile in the middle of the (32, 2) class.
CHAIN_PASS = (
    (8, 1, 1), (8, 3, 1), (12, 1, 1), (12, 3, 1), (16, 1, 1), (16, 2, 1),
    (20, 2, 4),
    (24, 2, 1), (20, 3, 1), (28, 2, 1), (24, 3, 1),
    (32, 2, 4),
)
CHAIN_STOPS = (14, 26)  # m of the NonConstantLevel inputs
CHAIN_MONOMIALS = [(a, 0, c) for a in range(1, 5) for c in range(0, 5 - a)]


def chain_coordinate(rng, terms, mixed=False, stop_level=0):
    """One target coordinate: ``terms`` monomials x^a t^c with a >= 1.

    ``mixed`` adds x^(b+k) y^b t^c, which only the xy -> t^m normal form
    turns into x^k t^(c+b*m). ``stop_level`` adds y t^stop_level, whose
    restriction to the ghost branch is w: the expansion stops there with
    NonConstantLevel.
    """
    picked = [(1, 0, 0)] + rng.sample(CHAIN_MONOMIALS[1:], terms - 1)
    out = [{"exps": list(e), "coeff": str(rng.choice([-1, 1]) * rng.randint(1, 9))} for e in picked]
    if mixed:
        b, k = rng.randint(1, 2), rng.randint(1, 2)
        out.append({"exps": [b + k, b, rng.randint(0, 2)], "coeff": str(rng.randint(1, 9))})
    if stop_level:
        out.append({"exps": [0, 1, stop_level], "coeff": str(rng.randint(1, 9))})
    return out


def local_model_request(writer, m, coords, label):
    path = writer.file({"version": 1, "local_model": {"m": m, "G": coords}})
    problem = {"local_model": {"m": m, "G": coords}}
    return Request("localmodel", ["localmodel", path, "--json"], label, problem)


def build_chain(gc, seed, writer):
    rng = random.Random(f"chain:{seed}")
    requests = []
    for m, n_coords, count in CHAIN_PASS:
        for copy in range(count):
            coords = [chain_coordinate(rng, 6, mixed=(copy + c) % 3 == 0) for c in range(n_coords)]
            requests.append(local_model_request(writer, m, coords, f"pass m={m} coords={n_coords}"))
    for i, m in enumerate(CHAIN_STOPS):
        n_coords = 1 + i % 3
        coords = [chain_coordinate(rng, 6) for _ in range(n_coords - 1)]
        coords.append(chain_coordinate(rng, 6, stop_level=rng.randint(1, 3)))
        rng.shuffle(coords)
        requests.append(local_model_request(writer, m, coords, f"NonConstantLevel m={m}"))
    rng.shuffle(requests)
    warm = local_model_request(writer, 8, [chain_coordinate(rng, 6)], "warm-up")
    return requests, warm


# -- small -----------------------------------------------------------------------

# Malformed files that end today with a traceback or a silent coercion
# instead of exit 2; each counts as one failed operation per round.
KNOWN_FAULTS = {
    "float in a vector (uncaught TypeError)": {
        "version": 1, "genus": 1, "ambient_dim": 1, "points": [{"delta": [0.5], "deriv": ["1"]}],
    },
    "attachments: 5 (uncaught TypeError)": {
        "version": 1,
        "curve_model": {"type": "nodal_rational", "genus": 1, "nodes": [["0", "1"]]},
        "attachments": 5, "derivs": [["1"]],
    },
    "rational 1/0 (uncaught ZeroDivisionError)": {
        "version": 1, "genus": 1, "ambient_dim": 1, "points": [{"delta": ["1/0"], "deriv": ["1"]}],
    },
    "genus 2.7 (silently truncated)": {
        "version": 1, "genus": 2.7, "ambient_dim": 1,
        "points": [{"delta": ["1", "0"], "deriv": ["1"]}],
    },
    "true read as the rational 1": {
        "version": 1, "genus": 1, "ambient_dim": 1, "points": [{"delta": [True], "deriv": ["1"]}],
    },
    "m: 2.5 (silently truncated)": {
        "version": 1, "local_model": {"m": 2.5, "G": [[{"exps": [1, 0, 0], "coeff": "1"}]]},
    },
}

BAD_INPUTS = {
    "invalid JSON": "{\"version\": 1, \"genus\": ",
    "missing deriv": {"version": 1, "genus": 1, "ambient_dim": 1, "points": [{"delta": ["1"]}]},
    "not a rational": {
        "version": 1, "genus": 1, "ambient_dim": 1, "points": [{"delta": ["abc"], "deriv": ["1"]}],
    },
    "delta of the wrong length": {
        "version": 1, "genus": 2, "ambient_dim": 1, "points": [{"delta": ["1"], "deriv": ["1"]}],
    },
    "unknown model type": {
        "version": 1, "curve_model": {"type": "elliptic", "genus": 1},
        "attachments": [{"x": "0"}], "derivs": [["1"]],
    },
    "unsupported version": {"version": 2, "genus": 1, "ambient_dim": 1, "points": []},
    "negative exponent in a local model": {
        "version": 1, "local_model": {"m": 2, "G": [[{"exps": [1, -1, 0], "coeff": "1"}]]},
    },
}


SMALL_CHECK_SHAPES = (  # (g, N, n) of the raw check requests; the last two print text
    (1, 1, 2), (1, 2, 3), (2, 1, 3), (2, 2, 4), (3, 1, 4),
    (1, 3, 4), (2, 3, 5), (3, 2, 5), (3, 3, 6), (2, 2, 6),
)
# (m, coordinates, level where NonConstantLevel stops it or 0): the costliest
# class of the list, which holds the 90th percentile
SMALL_LOCAL_SHAPES = (
    (2, 1, 0), (2, 2, 0), (3, 1, 0), (3, 2, 0), (3, 1, 2),
    (4, 1, 0), (4, 2, 0), (4, 1, 3), (4, 2, 3),
)
SMALL_GENERATE = ((2, 2, "hyperelliptic"), (3, 2, "hyperelliptic"),
                  (2, 3, "nodal_rational"), (3, 2, "nodal_rational"))


def _small_curve_models(rng):
    """Hyperelliptic, nodal and raw curve-model problems of genus 2."""
    f, attachments, derivs = hyperelliptic_star(2, 2, rng.choice((2, 3)))
    hyper = {
        "version": 1,
        "curve_model": {"type": "hyperelliptic", "genus": 2, "f": [str(c) for c in f]},
        "attachments": attachments,
        "derivs": derivs,
    }
    params = rng.sample(range(4, 40), 5)
    nodal = {
        "version": 1,
        "curve_model": {"type": "nodal_rational", "genus": 2, "nodes": [["0", "1"], ["2", "3"]]},
        "attachments": [{"p": str(p)} for p in params],
        "derivs": [[str(rng.randint(-3, 3)) for _ in range(2)] for _ in params],
    }
    ev_matrix = [[str(rng.randint(-5, 5)) for _ in range(4)] for _ in range(2)]
    raw_model = {
        "version": 1,
        "curve_model": {"type": "raw", "genus": 2, "ev_matrix": ev_matrix},
        "attachments": [{"index": i} for i in rng.sample(range(4), 4)],
        "derivs": [[str(rng.randint(-3, 3)) for _ in range(3)] for _ in range(4)],
    }
    return hyper, nodal, raw_model


def _small_dims(rng, writer):
    requests = []
    for _ in range(4):
        big_n, g = rng.randint(2, 6), rng.randint(1, 4)
        d = rng.randint(2 * g - 1, 2 * g + 6)
        argv = ["dims", "--N", str(big_n), "--g", str(g), "--d", str(d), "--json"]
        requests.append(Request("dims", argv, "dims", None, {"N": big_n, "g": g, "d": d}))
    for _ in range(2):
        big_n, h = rng.randint(2, 5), rng.randint(1, 3)
        parts = [(gi, 2 * gi + rng.randint(1, 4)) for gi in (rng.randint(0, 2) for _ in range(3))]
        total_g, total_d = h + sum(p[0] for p in parts), sum(p[1] for p in parts)
        while total_d < 2 * total_g - 1:  # keep the total degree valid for dims
            parts.append((0, 3))
            total_d += 3
        spec = writer.file({"N": big_n, "h": h, "parts": [list(p) for p in parts]})
        argv = ["dims", "--N", str(big_n), "--g", str(total_g), "--d", str(total_d),
                "--stratum", spec, "--json"]
        expect = {"N": big_n, "g": total_g, "d": total_d, "stratum": (h, parts)}
        requests.append(Request("dims", argv, "dims with a stratum", None, expect))
    return requests


def build_small(gc, seed, writer):
    rng = random.Random(f"small:{seed}")
    requests = []
    for i, (g, big_n, n) in enumerate(SMALL_CHECK_SHAPES):
        points = problem_points(gc.factory.random_instance(rng.getrandbits(32), g, big_n, n))
        requests.append(writer.check(raw_problem(g, big_n, points), "check raw", text=i >= 8))
    hyper, nodal, raw_model = _small_curve_models(rng)
    requests.append(writer.check(hyper, "check hyperelliptic model", {"line_star": (2, 2)}))
    requests.append(writer.check(nodal, "check nodal model"))
    requests.append(writer.check(raw_model, "check raw model"))
    two = [
        raw_problem(2, 2, problem_points(gc.factory.random_instance(rng.getrandbits(32), 2, 2, 3)))
        for _ in range(2)
    ]
    requests.append(writer.check({"version": 1, "components": two}, "check two components"))
    for m, n_coords, stop in SMALL_LOCAL_SHAPES:
        coords = [chain_coordinate(rng, 4, mixed=m == 4) for _ in range(n_coords)]
        if stop:
            coords[-1] = chain_coordinate(rng, 4, stop_level=stop - 1)
        requests.append(local_model_request(writer, m, coords, f"localmodel m={m}"))
    requests += _small_dims(rng, writer)
    for big_n, h, model in SMALL_GENERATE:
        argv = ["generate", "--N", str(big_n), "--h", str(h), "--model", model,
                "--seed", str(rng.randint(0, 99))]
        requests.append(Request("generate", argv, f"generate {model}", None, {"line_star": (big_n, h)}))
    for label, content in BAD_INPUTS.items():
        command = "localmodel" if "local model" in label else "check"
        requests.append(Request("bad_input", [command, writer.file(content)], f"bad input: {label}"))
    for label, content in KNOWN_FAULTS.items():
        command = "localmodel" if label.startswith("m:") else "check"
        argv = [command, writer.file(content)]
        requests.append(Request("bad_input", argv, f"known fault: {label}", known_fault=label))
    rng.shuffle(requests)
    return requests, writer.check(raw_problem(1, 1, [([1], [1])]), "warm-up")


BUILDERS = {"scan": build_scan, "rank": build_rank, "chain": build_chain, "small": build_small}
