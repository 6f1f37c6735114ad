"""Exact checks of ghostcheck's outputs, made apart from ghostcheck.

Nothing here imports the program. Problems are read back from the files the
benchmark wrote, covectors are recomputed from the curve-model formulas in
the project README, ranks come from a fraction-free echelon of this file's
own, and the chain expansion is predicted by the closed-form monomial rule.
Every checker returns a list of error strings; an empty list means the
output is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

# -- exact linear algebra -----------------------------------------------------


def integer_line(vec):
    """A primitive integer vector on the same line as a rational vector."""
    scale = 1
    for v in vec:
        scale = scale * v.denominator // gcd(scale, v.denominator)
    ints = [int(v * scale) for v in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


class Echelon:
    """Persistent integer echelon: ``extended`` returns a new echelon.

    Rows are primitive integer vectors kept sorted by their leading index,
    so reducing a vector in that order clears every existing lead.
    """

    __slots__ = ("rows",)

    def __init__(self, rows=()):
        self.rows = rows  # tuple of (lead, row)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def extended(self, vec) -> "Echelon":
        v = list(vec)
        for lead, row in self.rows:
            if v[lead]:
                a, b = v[lead], row[lead]
                v = [x * b - y * a for x, y in zip(v, row)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            return self
        g = 0
        for x in v:
            g = gcd(g, x)
        row = tuple(x // g for x in v)
        rows = sorted(self.rows + ((lead, row),))
        return Echelon(tuple(rows))


def rank(vectors) -> int:
    """Exact rank over Q of a list of rational vectors."""
    ech = Echelon()
    for vec in vectors:
        ech = ech.extended(integer_line(vec))
    return ech.rank


def first_witness(vcols, ecols, sizes):
    """The (|D|, lex)-first subset D with rank_V(D) + rank_E(D) <= |D|.

    ``vcols`` and ``ecols`` are integer vectors per point; only cardinalities
    in ``sizes`` are searched, in order. Within one cardinality the search is
    depth-first in index order, and a prefix whose rank sum already exceeds
    the cardinality is dropped (ranks never fall when points are added).
    """
    n = len(vcols)

    def search(size, start, chosen, ev, ee):
        if len(chosen) == size:
            return tuple(chosen)
        for i in range(start, n - (size - len(chosen)) + 1):
            ev2 = ev.extended(vcols[i])
            ee2 = ee.extended(ecols[i])
            if ev2.rank + ee2.rank > size:
                continue
            found = search(size, i + 1, chosen + [i], ev2, ee2)
            if found is not None:
                return found
        return None

    for size in sizes:
        found = search(size, 0, [], Echelon(), Echelon())
        if found is not None:
            return found
    return None


# -- problems read back from their files --------------------------------------


def q(text) -> Fraction:
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {text!r}")
    return Fraction(text)


def _hyperelliptic_covector(genus, f, point):
    x0, y0 = q(point["x"]), q(point["y"])
    fx = sum(c * x0**i for i, c in enumerate(f))
    if y0 == 0 or y0 * y0 != fx:
        raise ValueError(f"({x0}, {y0}) is not an admissible point of y^2 = f(x)")
    return [x0 ** (a - 1) / y0 for a in range(1, genus + 1)]


def _nodal_covector(nodes, point):
    p = q(point["p"])
    return [1 / (p - a) - 1 / (p - b) for a, b in nodes]


def component_points(data):
    """(genus, ambient_dim, [(delta, deriv), ...]) of one component."""
    if "curve_model" in data:
        model = data["curve_model"]
        genus = model["genus"]
        points = []
        for att, dv in zip(data["attachments"], data["derivs"]):
            if model["type"] == "hyperelliptic":
                delta = _hyperelliptic_covector(genus, [q(c) for c in model["f"]], att)
            elif model["type"] == "nodal_rational":
                delta = _nodal_covector([(q(a), q(b)) for a, b in model["nodes"]], att)
            else:
                delta = [q(row[att["index"]]) for row in model["ev_matrix"]]
            points.append((delta, [q(v) for v in dv]))
        return genus, len(data["derivs"][0]), points
    points = [([q(v) for v in p["delta"]], [q(v) for v in p["deriv"]]) for p in data["points"]]
    return data["genus"], data["ambient_dim"], points


def problem_components(data):
    if "components" in data:
        return [component_points(c) for c in data["components"]]
    return [component_points(data)]


def obstruction_columns(points):
    """Column i is delta_i (x) deriv_i flattened by (a, b) -> a*N + b."""
    return [[d * v for d in delta for v in deriv] for delta, deriv in points]


# -- check ---------------------------------------------------------------------


def check_check(problem, expect, rc, out, err):
    """Verify a ``check --json`` report.

    ``expect`` may hold ``line_star`` (N, h), ``corollary`` (the committed
    answer: None for obstructed, else the witness list) and ``scan_limit``
    (largest cardinality the checker may enumerate itself).
    """
    if rc != 0 or err:
        return [f"exit {rc}, stderr {err.strip()[:200]!r}"]
    report = json.loads(out)
    errors = []
    comps = problem_components(problem)
    if len(report["components"]) != len(comps):
        return ["component count differs from the problem file"]
    any_obstructed = False
    for index, ((genus, ambient, points), entry) in enumerate(zip(comps, report["components"])):
        where = f"component {index}"
        n = len(points)
        theorem, corollary = entry["theorem"], entry["corollary"]
        if (entry["genus"], entry["ambient_dim"], entry["n_points"]) != (genus, ambient, n):
            errors.append(f"{where}: genus, ambient_dim or n_points misreported")
        columns = obstruction_columns(points)
        true_rank = rank(columns)
        if theorem["rank"] != true_rank:
            errors.append(f"{where}: rank {theorem['rank']}, exact rank {true_rank}")
        obstructed = true_rank == n
        any_obstructed |= obstructed
        want = "NotEventuallySmoothable" if obstructed else "Inconclusive"
        if theorem["verdict"] != want:
            errors.append(f"{where}: theorem verdict {theorem['verdict']}, expected {want}")
        kernel = theorem["kernel_witness"]
        if obstructed != (kernel is None):
            errors.append(f"{where}: kernel witness present iff rank < n fails")
        if kernel is not None:
            vec = [q(v) for v in kernel]
            if not any(vec) or len(vec) != n:
                errors.append(f"{where}: kernel witness is zero or of the wrong length")
            elif any(sum(col[r] * x for col, x in zip(columns, vec)) for r in range(genus * ambient)):
                errors.append(f"{where}: M v != 0 for the kernel witness")
        if "line_star" in expect:
            big_n, h = expect["line_star"]
            if true_rank != big_n * h:
                errors.append(f"{where}: line star rank {true_rank} != N*h = {big_n * h}")
        witness = corollary["witness_D"]
        vcols = [integer_line(deriv) for _, deriv in points]
        ecols = [integer_line(delta) for delta, _ in points]
        if witness is not None:
            d = list(witness)
            if d != sorted(set(d)) or not d or d[-1] >= n:
                errors.append(f"{where}: witness {d} is not a valid index set")
                continue
            if rank([vcols[i] for i in d]) + rank([ecols[i] for i in d]) > len(d):
                errors.append(f"{where}: witness {d} fails rank_V + rank_E <= |D|")
            if corollary["verdict"] != "Inconclusive":
                errors.append(f"{where}: corollary verdict with a witness must be Inconclusive")
        elif corollary["verdict"] != "NotEventuallySmoothable":
            errors.append(f"{where}: corollary verdict without a witness must be obstructed")
        # the (|D|, lex)-minimal answer
        if "corollary" in expect:
            if expect["corollary"] != witness:
                errors.append(f"{where}: witness {witness}, committed answer {expect['corollary']}")
        else:
            limit = len(witness) if witness is not None else n
            if limit > expect.get("scan_limit", 6):
                errors.append(f"{where}: no committed answer and witness too large to enumerate")
            elif first_witness(vcols, ecols, range(1, limit + 1)) != (
                tuple(witness) if witness is not None else None
            ):
                errors.append(f"{where}: witness {witness} is not (|D|, lex)-minimal")
        # soundness ordering
        if corollary["verdict"] == "NotEventuallySmoothable" and not obstructed:
            errors.append(f"{where}: corollary obstructed but theorem inconclusive")
        if kernel is not None and witness is not None:
            support = sum(1 for v in kernel if q(v))
            if len(witness) > support:
                errors.append(f"{where}: minimal witness larger than the kernel support")
    want_map = "NotEventuallySmoothable" if any_obstructed else "Inconclusive"
    if report["map_verdict"] != want_map:
        errors.append(f"map verdict {report['map_verdict']}, expected {want_map}")
    return errors


def check_check_text(problem, expect, rc, out, err):
    """Verify the text report: one rank line per component and the map verdict."""
    if rc != 0 or err:
        return [f"exit {rc}, stderr {err.strip()[:200]!r}"]
    errors = []
    comps = problem_components(problem)
    obstructed_any = False
    for index, (genus, ambient, points) in enumerate(comps):
        r = rank(obstruction_columns(points))
        obstructed_any |= r == len(points)
        line = f"rank {r}/{len(points)} (bound {genus * ambient})"
        if f"component {index}: theorem:" not in out or line not in out:
            errors.append(f"component {index}: text report lacks {line!r}")
    verdict = "NOT eventually smoothable" if obstructed_any else "inconclusive"
    if not out.rstrip().splitlines()[-1].startswith(f"map verdict: {verdict}"):
        errors.append("text report ends with the wrong map verdict")
    return errors


# -- localmodel ----------------------------------------------------------------


def normal_form(terms, m):
    """xy -> t^m until no term carries both x and y."""
    out = {}
    for (a, b, c), coeff in terms:
        k = min(a, b)
        key = (a - k, b - k, c + k * m)
        out[key] = out.get(key, 0) + coeff
    return {e: v for e, v in out.items() if v}


def chain_rule(terms, m):
    """{(level, j): {w-exponent: coeff}} by the closed-form monomial rule.

    x^a y^b t^c restricts on chain component j (1..m, m the ghost branch)
    to coeff * w^(b-a) at level a*j + b*(m-j) + c, for j >= level.
    """
    out = {}
    for (a, b, c), coeff in terms.items():
        for j in range(1, m + 1):
            level = a * j + b * (m - j) + c
            if 1 <= level <= m and j >= level:
                bucket = out.setdefault((level, j), {})
                bucket[b - a] = bucket.get(b - a, 0) + coeff
    return {key: {e: v for e, v in bucket.items() if v} for key, bucket in out.items()}


def _name(j, m):
    return "C_tilde" if j == m else f"E_{j}"


def check_localmodel(problem, expect, rc, out, err):
    """Verify a ``localmodel --json`` report on a constant-free input.

    Constant-free means every normalized term has x-exponent >= 1, apart
    from the y^b t^c terms that are meant to stop the expansion with
    NonConstantLevel; none of them splits off a constant before it stops.
    """
    if rc != 0 or err:
        return [f"exit {rc}, stderr {err.strip()[:200]!r}"]
    report = json.loads(out)
    section = problem["local_model"]
    m = section["m"]
    coords = [
        normal_form([(tuple(t["exps"]), q(t["coeff"])) for t in comp], m) for comp in section["G"]
    ]
    rules = [chain_rule(terms, m) for terms in coords]
    # the first level whose deeper sub-chain restricts to a non-constant
    stop = None
    for level in range(1, m):
        for j in range(level + 1, m + 1):
            if any(e != 0 for rule in rules for e in rule.get((level, j), {})):
                stop = (level + 1, _name(j, m))
                break
        if stop:
            break
    errors = []
    if report["m"] != m:
        errors.append("m misreported")
    n_levels = m if stop is None else stop[0] - 1
    if len(report["levels"]) != n_levels:
        errors.append(f"{len(report['levels'])} levels reported, rule predicts {n_levels}")
    expected = [terms.get((1, 0, 0), Fraction(0)) for terms in coords]
    for lvl in report["levels"][:n_levels]:
        level = lvl["l"]
        if any(q(v) for v in lvl["a"]):
            errors.append(f"level {level}: nonzero constant on a constant-free input")
        names = [c["name"] for c in lvl["components"]]
        if names != [_name(j, m) for j in range(level, m + 1)]:
            errors.append(f"level {level}: component list {names}")
            continue
        for j, comp in zip(range(level, m + 1), lvl["components"]):
            buckets = [rule.get((level, j), {}) for rule in rules]
            order = max([0] + [-e for bucket in buckets for e in bucket])
            residue = [bucket.get(-1, Fraction(0)) for bucket in buckets]
            if comp["pole_order"] != order or [q(v) for v in comp["residue"]] != residue:
                errors.append(f"level {level} {comp['name']}: pole or residue differs from the rule")
    if stop is not None:
        failures = report["failures"]
        if report["verdict"] != "fail" or len(failures) != 1:
            errors.append("NonConstantLevel input not reported as a single failure")
        elif (failures[0]["code"], failures[0]["level"], failures[0]["component"]) != (
            "NonConstantLevel",
        ) + stop:
            errors.append(f"failure {failures[0]} differs from the predicted stop {stop}")
    else:
        if [q(v) for v in report["expected_residue"]] != expected:
            errors.append("expected residue is not the x-linear coefficient of G(x, 0, 0)")
        passed = all(
            [q(v) for v in lvl["components"][0]["residue"]] == expected for lvl in report["levels"]
        )
        if (report["verdict"] == "pass") != passed or (report["failures"] == []) != passed:
            errors.append(f"verdict {report['verdict']} disagrees with the rule")
    return errors


# -- dims, generate, bad input -------------------------------------------------


def check_dims(problem, expect, rc, out, err):
    if rc != 0 or err:
        return [f"exit {rc}, stderr {err.strip()[:200]!r}"]
    report = json.loads(out)
    big_n, g, d = expect["N"], expect["g"], expect["d"]
    errors = []
    if report["dim_moduli"] != (big_n - 3) * (1 - g) + d * (big_n + 1):
        errors.append("dim_moduli differs from (N-3)(1-g) + d(N+1)")
    if "stratum" in expect:
        h, parts = expect["stratum"]
        n = len(parts)
        want = 3 * h - 3 + n - big_n * (n - 1) + sum(
            (big_n - 3) * (1 - gi) + di * (big_n + 1) + 1 for gi, di in parts
        )
        if report.get("stratum", {}).get("dim") != want:
            errors.append(f"stratum dimension differs from the explicit sum {want}")
    return errors


def check_generate(problem, expect, rc, out, err):
    if rc != 0 or err:
        return [f"exit {rc}, stderr {err.strip()[:200]!r}"]
    data = json.loads(out)
    big_n, h = expect["line_star"]
    genus, ambient, points = component_points(data)
    errors = []
    if (genus, ambient, len(points)) != (h, big_n, big_n * h):
        errors.append("generated line star has the wrong shape")
    for i, (_, deriv) in enumerate(points):
        if deriv != [Fraction(int(k == i // h)) for k in range(big_n)]:
            errors.append(f"point {i}: derivative is not the basis vector of its line")
            break
    if rank(obstruction_columns(points)) != big_n * h:
        errors.append("generated line star does not have rank N*h")
    return errors


def check_bad_input(problem, expect, rc, out, err):
    """A malformed file ends with exit 2, one ``error:`` line and no stdout."""
    lines = err.splitlines()
    if rc == 2 and not out and len(lines) == 1 and lines[0].startswith("error: "):
        return []
    return [f"exit {rc}, stdout {len(out)} bytes, stderr {err.strip()[-200:]!r}"]


CHECKERS = {
    "check": check_check,
    "check_text": check_check_text,
    "localmodel": check_localmodel,
    "dims": check_dims,
    "generate": check_generate,
    "bad_input": check_bad_input,
}
