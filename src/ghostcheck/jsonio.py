"""JSON interchange: problem files, curve models, local-model sections,
stratum specs, reports.

Rationals travel as strings ("a/b" in lowest terms) so nothing is lost;
all emitted JSON is byte-deterministic for identical inputs (sorted keys,
fixed indentation, no timestamps).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from .curves import (
    GhostCurveModel,
    HyperellipticModel,
    NodalRationalModel,
    RawEvaluationModel,
)
from .exact import integer, rat, rat_to_str, rat_vector
from .factory import StratumSpec
from .laurent import LaurentPoly, normal_form_xyt
from .localmodel import XYT, ExpansionLevel, NonConstantLevel, ResidueReport
from .obstruction import (
    AttachmentColumn,
    CorollaryVerdict,
    ObstructionProblem,
    TheoremVerdict,
)

FORMAT_VERSION = 1

# The local-model report lists every component at every level, about m^2/2
# entries per coordinate, so its cost grows as m^2 times the coordinates;
# these bounds keep the worst file in time.
MAX_LOCAL_M = 256
MAX_LOCAL_COORDS = 16
MAX_LOCAL_TERMS = 64  # per coordinate, counted as listed in the file
# A component's g*N x n obstruction matrix costs g*N*n entries to build and,
# with a kernel, about cubic time to eliminate; this bound admits every
# obstructed g = N = 16 problem (n < g + N) and keeps the worst file in time.
# Library callers are not bounded.
MAX_MATRIX_ENTRIES = 8192
# The squarefree test of a hyperelliptic f, a pseudo-remainder sequence in
# degree up to 2g+2, grows with g and with the coefficient length, and the
# matrix bound does not limit it (one point has g*N*n = g); this bound
# admits every line star, and coefficient length is not bounded yet.
MAX_HYPERELLIPTIC_GENUS = 16


class InputError(Exception):
    """Malformed or inconsistent problem file; maps to CLI exit code 2.

    Not a ``ValueError``: the readers wrap only the errors of the values
    they convert, so a message carries each location once.
    """


def _require(condition: bool, message: str):
    if not condition:
        raise InputError(message)


def _get(mapping: Mapping, key: str, where: str):
    _require(isinstance(mapping, Mapping), f"{where}: expected an object, got {type(mapping).__name__}")
    _require(key in mapping, f"{where}: missing field {key!r}")
    return mapping[key]


def _list(value: Any, where: str) -> list:
    """A JSON array; strings, objects and numbers are never iterated as one."""
    _require(isinstance(value, list), f"{where}: expected a list, got {type(value).__name__}")
    return value


def _get_list(mapping: Mapping, key: str, where: str) -> list:
    return _list(_get(mapping, key, where), f"{where}.{key}")


# -- curve models -------------------------------------------------------------


def _node_pair(value: Any, where: str) -> list:
    pair = _list(value, where)
    plural = "" if len(pair) == 1 else "s"
    _require(len(pair) == 2, f"{where}: expected a pair [a, b], got {len(pair)} value{plural}")
    return pair


def model_from_json(data: Mapping, where: str = "curve_model") -> GhostCurveModel:
    kind = _get(data, "type", where)
    try:
        genus = integer(_get(data, "genus", where))
        if kind == "hyperelliptic":
            _require(
                genus <= MAX_HYPERELLIPTIC_GENUS,
                f"{where}: hyperelliptic genus {genus} exceeds the limit {MAX_HYPERELLIPTIC_GENUS}",
            )
            return HyperellipticModel(genus, _get_list(data, "f", where))
        if kind == "nodal_rational":
            nodes = _get_list(data, "nodes", where)
            return NodalRationalModel(
                genus, [_node_pair(pair, f"{where}.nodes[{k}]") for k, pair in enumerate(nodes)]
            )
        if kind == "raw":
            rows = _get_list(data, "ev_matrix", where)
            return RawEvaluationModel(
                genus, [_list(row, f"{where}.ev_matrix[{r}]") for r, row in enumerate(rows)]
            )
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: {exc}") from exc
    raise InputError(f"{where}: unknown model type {kind!r}")


def _attachment_from_json(model: GhostCurveModel, data: Mapping, where: str) -> tuple:
    """The covector of one attachment point, its errors located at ``where``."""
    try:
        if isinstance(model, HyperellipticModel):
            return model.ev_vector((rat(_get(data, "x", where)), rat(_get(data, "y", where))))
        if isinstance(model, NodalRationalModel):
            return model.ev_vector(rat(_get(data, "p", where)))
        return model.ev_vector(integer(_get(data, "index", where)))
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: {exc}") from exc


# -- problems -----------------------------------------------------------------


def _require_matrix_size(genus: int, ambient: int, n_points: int, where: str):
    # a nonpositive factor would make any n pass the product bound
    _require(genus >= 1 and ambient >= 1, f"{where}: genus and ambient dimension must be >= 1")
    entries = genus * ambient * n_points
    _require(
        entries <= MAX_MATRIX_ENTRIES,
        f"{where}: g*N*n = {genus}*{ambient}*{n_points} = {entries} matrix entries, "
        f"over the limit {MAX_MATRIX_ENTRIES}",
    )


def problem_from_json(data: Mapping, where: str = "component") -> ObstructionProblem:
    try:
        if "curve_model" in data:
            model = model_from_json(_get(data, "curve_model", where), f"{where}.curve_model")
            attachments = _get_list(data, "attachments", where)
            derivs = [
                _list(dv, f"{where}.derivs[{i}]")
                for i, dv in enumerate(_get_list(data, "derivs", where))
            ]
            _require(
                len(attachments) == len(derivs),
                f"{where}: {len(attachments)} attachments but {len(derivs)} derivative vectors",
            )
            _require(len(derivs) >= 1, f"{where}: need at least one attachment")
            ambient = len(derivs[0])
            _require_matrix_size(model.genus, ambient, len(derivs), where)
            columns = []
            for i, (att, dv) in enumerate(zip(attachments, derivs)):
                delta = _attachment_from_json(model, att, f"{where}.attachments[{i}]")
                _require(
                    len(dv) == ambient,
                    f"{where}.derivs[{i}]: length {len(dv)} != {ambient}",
                )
                columns.append(AttachmentColumn(delta=delta, deriv=rat_vector(dv)))
            return ObstructionProblem(
                genus=model.genus, ambient_dim=ambient, points=columns
            )
        genus = integer(_get(data, "genus", where))
        ambient = integer(_get(data, "ambient_dim", where))
        points = _get_list(data, "points", where)
        _require_matrix_size(genus, ambient, len(points), where)
        columns = []
        for i, entry in enumerate(points):
            delta = rat_vector(_get_list(entry, "delta", f"{where}.points[{i}]"))
            deriv = rat_vector(_get_list(entry, "deriv", f"{where}.points[{i}]"))
            columns.append(AttachmentColumn(delta=delta, deriv=deriv))
        return ObstructionProblem(genus=genus, ambient_dim=ambient, points=columns)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: {exc}") from exc


def problem_to_json(problem: ObstructionProblem) -> dict:
    return {
        "genus": problem.genus,
        "ambient_dim": problem.ambient_dim,
        "points": [
            {
                "delta": [rat_to_str(v) for v in p.delta],
                "deriv": [rat_to_str(v) for v in p.deriv],
            }
            for p in problem.points
        ],
    }


@dataclass(frozen=True)
class LocalModelInput:
    """``m`` and one polynomial per target coordinate, in the xy -> t^m normal form."""

    m: int
    components: tuple[LaurentPoly, ...]


def local_model_from_json(data: Mapping, where: str = "local_model") -> LocalModelInput:
    """Read ``{"m": ..., "G": [...]}``. ``G`` is a function on xy = t^m, so each
    coordinate is reduced to its normal form here, where its errors get their
    location."""
    try:
        m = integer(_get(data, "m", where))
        _require(m <= MAX_LOCAL_M, f"{where}: m = {m} exceeds the limit {MAX_LOCAL_M}")
        raw_components = _get_list(data, "G", where)
        _require(raw_components, f"{where}: G must be a nonempty list")
        _require(
            len(raw_components) <= MAX_LOCAL_COORDS,
            f"{where}: G has {len(raw_components)} coordinates, over the limit {MAX_LOCAL_COORDS}",
        )
        components = []
        for k, comp in enumerate(raw_components):
            terms = _list(comp, f"{where}.G[{k}]")
            _require(
                len(terms) <= MAX_LOCAL_TERMS,
                f"{where}: G[{k}] has {len(terms)} terms, over the limit {MAX_LOCAL_TERMS}",
            )
            components.append(normal_form_xyt(poly_from_json(XYT, terms, f"{where}.G[{k}]"), m))
        return LocalModelInput(m=m, components=tuple(components))
    except (ValueError, TypeError) as exc:
        raise InputError(f"{where}: {exc}") from exc


def poly_from_json(variables: Sequence[str], terms: list, where: str) -> LaurentPoly:
    """A polynomial from its terms ``{"exps": [...], "coeff": ...}``; term i
    is located at ``where[i]``. A value error of an entry propagates for the
    caller to locate."""
    items = []
    for i, item in enumerate(terms):
        at = f"{where}[{i}]"
        items.append((tuple(integer(k) for k in _get_list(item, "exps", at)), rat(_get(item, "coeff", at))))
    return LaurentPoly(variables, items)


@dataclass(frozen=True)
class ProblemFile:
    components: tuple[ObstructionProblem, ...]
    local_model: Optional[LocalModelInput]


def problem_file_from_json(data: Any) -> ProblemFile:
    _require(isinstance(data, Mapping), "top level must be a JSON object")
    version = data.get("version", FORMAT_VERSION)
    _require(
        type(version) is int and version == FORMAT_VERSION,
        f"unsupported format version {version!r}",
    )
    components: tuple[ObstructionProblem, ...] = ()
    top_level = "points" in data or "curve_model" in data
    if "components" in data:
        _require(not top_level, "components and a top-level problem are both given")
        raw = data["components"]
        _require(isinstance(raw, list) and raw, "components must be a nonempty list")
        components = tuple(
            problem_from_json(entry, f"components[{i}]") for i, entry in enumerate(raw)
        )
    elif top_level:
        components = (problem_from_json(data, "problem"),)
    local_model = None
    if "local_model" in data:
        local_model = local_model_from_json(data["local_model"])
    _require(
        components or local_model is not None,
        "file contains neither an obstruction problem nor a local-model section",
    )
    return ProblemFile(components=components, local_model=local_model)


def _read_json(path: str) -> Any:
    """Parse a JSON file; an ``OSError`` (unreadable file) propagates as is."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
        except (RecursionError, ValueError) as exc:  # too deep, not UTF-8, too many digits
            raise InputError(f"{path}: unreadable JSON: {exc}") from exc


def load_problem_file(path: str) -> ProblemFile:
    return problem_file_from_json(_read_json(path))


def stratum_spec_from_json(data: Any, where: str = "stratum spec") -> StratumSpec:
    """Read {"N": int, "h": int, "parts": [[g_i, d_i], ...]}."""
    _require(isinstance(data, Mapping), f"{where}: must be a JSON object")
    parts = _get(data, "parts", where)
    _require(
        isinstance(parts, list) and all(isinstance(p, list) and len(p) == 2 for p in parts),
        f"{where}: parts must be a list of [g_i, d_i] pairs",
    )
    try:
        return StratumSpec(
            integer(_get(data, "N", where)),
            integer(_get(data, "h", where)),
            [(integer(g), integer(d)) for g, d in parts],
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: {exc}") from exc


def load_stratum_spec(path: str) -> StratumSpec:
    return stratum_spec_from_json(_read_json(path), f"stratum spec {path}")


# -- reports ------------------------------------------------------------------


def verdict_pair_to_json(theorem: TheoremVerdict, corollary: CorollaryVerdict) -> dict:
    return {
        "theorem": {
            "verdict": theorem.verdict.value,
            "rank": theorem.rank,
            "kernel_witness": (
                None
                if theorem.kernel_witness is None
                else [rat_to_str(v) for v in theorem.kernel_witness]
            ),
        },
        "corollary": {
            "verdict": corollary.verdict.value,
            "witness_D": None if corollary.witness_D is None else list(corollary.witness_D),
        },
    }


def expansion_to_json(expansion_levels: Sequence[ExpansionLevel]) -> list[dict]:
    """The levels of a report. Levels share their component records, so each
    distinct record becomes one dict, listed by every level that holds it."""
    records: dict[int, dict] = {}

    def record(comp) -> dict:
        if id(comp) not in records:
            records[id(comp)] = {
                "name": comp.name,
                "pole_order": comp.pole_order,
                "residue": [rat_to_str(v) for v in comp.residue],
            }
        return records[id(comp)]

    return [
        {
            "l": lvl.level,
            "a": [rat_to_str(v) for v in lvl.constant],
            "components": [record(comp) for comp in lvl.components],
        }
        for lvl in expansion_levels
    ]


def residue_report_to_json(report: ResidueReport) -> dict:
    return {
        "m": report.m,
        "expected_residue": [rat_to_str(v) for v in report.expected_residue],
        "levels": expansion_to_json(report.expansion.levels),
        "verdict": "pass",
        "failures": [],
    }


def stopped_expansion_to_json(section: LocalModelInput, stop: NonConstantLevel) -> dict:
    """The report of an expansion that stopped at a non-constant level: the
    levels completed before it, and the stop as the one failure."""
    return {
        "m": section.m,
        "levels": expansion_to_json(stop.levels_completed),
        "verdict": "fail",
        "failures": [
            {
                "code": "NonConstantLevel",
                "level": stop.level,
                "component": stop.component,
                "message": str(stop),
            }
        ],
    }


def _encode(o: Any, depth: int, memo: dict, text) -> str:
    """Text of ``o`` at ``depth``; ``memo`` keeps each list's, tuple's or dict's
    text under its id and depth, ``text`` encodes a string."""
    if isinstance(o, str):
        return text(o)
    if type(o) is int:
        return repr(o)
    if not isinstance(o, (list, tuple, dict)):
        return json.dumps(o)  # None, bools, floats; TypeError for the rest
    key = (id(o), depth)
    if key not in memo:
        if isinstance(o, dict):
            items = [f"{text(k)}: {_encode(v, depth + 1, memo, text)}" for k, v in sorted(o.items())]
            brackets = "{}"
        else:
            items = [_encode(v, depth + 1, memo, text) for v in o]
            brackets = "[]"
        inner = "\n" + "  " * (depth + 1)
        body = f"{inner}{(',' + inner).join(items)}\n{'  ' * depth}" if items else ""
        memo[key] = brackets[0] + body + brackets[1]
    return memo[key]


def dump_json(obj: Any) -> str:
    """Canonical serialization: sorted keys, two-space indent, trailing newline.

    The bytes are those of ``json.dumps(obj, indent=2, sort_keys=True) + "\n"``
    for objects with string keys, written by this encoder because CPython's C
    encoder does not indent. The text of each list, tuple or dict is kept for
    the call under its id and depth, so a fragment the report shares (a
    local-model component record listed at every level) is encoded once per
    depth. The memo is passed down rather than closed over, so it is freed
    when the call returns instead of waiting in a reference cycle for the
    garbage collector.
    """
    return _encode(obj, 0, {}, json.encoder.encode_basestring_ascii) + "\n"
