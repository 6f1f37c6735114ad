"""Command-line front end.

Subcommands: check, generate, dims, localmodel, selftest. Exit codes:
0 ok, 1 selftest failure, 2 bad input or an unreadable or unwritable file,
3 any other exception (a bug).
Reports are byte-deterministic for identical inputs; GHOSTCHECK_THREADS is
accepted (default 1) and the engines are sequential for any value, so the
output never depends on it.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .factory import FactoryError, build_line_star_instance, dim_moduli, dim_stratum
from .jsonio import (
    InputError,
    dump_json,
    expansion_to_json,
    load_problem_file,
    load_stratum_spec,
    problem_to_json,
    residue_report_to_json,
    verdict_pair_to_json,
)
from .localmodel import (
    GhostExpansion,
    GhostVanishingViolated,
    NonConstantLevel,
    verify_residue_theorem,
)
from .obstruction import ObstructionError, Verdict, corollary_check, theorem_check

EXIT_OK = 0
EXIT_SELFTEST_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3

OBSTRUCTED_TEXT = "NOT eventually smoothable (obstruction fires)"
INCONCLUSIVE_TEXT = "inconclusive (obstruction vanishes)"


def _verdict_text(verdict: Verdict) -> str:
    if verdict is Verdict.NOT_EVENTUALLY_SMOOTHABLE:
        return OBSTRUCTED_TEXT
    return INCONCLUSIVE_TEXT


def _thread_count() -> int:
    raw = os.environ.get("GHOSTCHECK_THREADS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise InputError(f"GHOSTCHECK_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def _emit(text: str):
    sys.stdout.write(text)


def cmd_check(args) -> int:
    problem_file = load_problem_file(args.path)
    if not problem_file.components:
        raise InputError(f"{args.path}: no obstruction problem to check")
    component_reports = []
    map_obstructed = False
    for problem in problem_file.components:
        theorem = theorem_check(problem)
        corollary = corollary_check(problem)
        if theorem.verdict is Verdict.NOT_EVENTUALLY_SMOOTHABLE:
            map_obstructed = True
        entry = verdict_pair_to_json(theorem, corollary)
        entry["genus"] = problem.genus
        entry["ambient_dim"] = problem.ambient_dim
        entry["n_points"] = problem.n_points
        component_reports.append((theorem, corollary, entry))
    map_verdict = (
        Verdict.NOT_EVENTUALLY_SMOOTHABLE if map_obstructed else Verdict.INCONCLUSIVE
    )
    report = {
        "tool": "ghostcheck",
        "version": __version__,
        "components": [entry for _, _, entry in component_reports],
        "map_verdict": map_verdict.value,
    }
    if args.json:
        _emit(dump_json(report))
        return EXIT_OK
    lines = [f"checked {len(component_reports)} ghost component(s)"]
    for i, (theorem, corollary, entry) in enumerate(component_reports):
        max_rank = entry["genus"] * entry["ambient_dim"]
        lines.append(
            f"component {i}: theorem: {_verdict_text(theorem.verdict)}; "
            f"rank {theorem.rank}/{entry['n_points']} (bound {max_rank})"
        )
        if theorem.kernel_witness is not None:
            witness = ", ".join(str(v) for v in theorem.kernel_witness)
            lines.append(f"             kernel witness: ({witness})")
        lines.append(
            f"             corollary: {_verdict_text(corollary.verdict)}"
            + (
                f"; witness D = {{{', '.join(str(i) for i in corollary.witness_D)}}}"
                if corollary.witness_D is not None
                else ""
            )
        )
    lines.append(f"map verdict: {_verdict_text(map_verdict)}")
    _emit("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_generate(args) -> int:
    problem = build_line_star_instance(args.N, args.h, args.model)
    payload = dump_json({"version": 1, **problem_to_json(problem)})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
        if not args.json:
            _emit(
                f"wrote {args.out}: N={args.N}, h={args.h}, model={args.model}, "
                f"{problem.n_points} attachment points\n"
            )
        else:
            _emit(dump_json({"written": args.out, "n_points": problem.n_points}))
    else:
        _emit(payload)
    return EXIT_OK


def cmd_dims(args) -> int:
    moduli = dim_moduli(args.N, args.g, args.d)
    report = {"N": args.N, "g": args.g, "d": args.d, "dim_moduli": moduli}
    lines = [f"dim of the smooth-domain space (N={args.N}, g={args.g}, d={args.d}) = {moduli}"]
    if args.stratum:
        spec = load_stratum_spec(args.stratum)
        if spec.ambient_dim != args.N:
            raise InputError("stratum spec N differs from --N")
        stratum = dim_stratum(spec)
        report["stratum"] = {
            "h": spec.ghost_genus,
            "n": spec.n_points,
            "parts": [list(p) for p in spec.parts],
            "dim": stratum,
            "excess": stratum - moduli,
        }
        lines.append(
            f"stratum (h={spec.ghost_genus}, n={spec.n_points}) = {stratum}"
            f" (excess over smooth-domain space: {stratum - moduli})"
        )
    if args.json:
        _emit(dump_json(report))
    else:
        _emit("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_localmodel(args) -> int:
    problem_file = load_problem_file(args.path)
    if problem_file.local_model is None:
        raise InputError(f"{args.path}: no local_model section")
    section = problem_file.local_model
    try:
        report = verify_residue_theorem(section.components, section.m)
    except NonConstantLevel as exc:
        payload = {
            "m": section.m,
            "levels": [],
            "verdict": "fail",
            "failures": [
                {
                    "code": "NonConstantLevel",
                    "level": exc.level,
                    "component": exc.component,
                    "message": str(exc),
                }
            ],
        }
        partial = GhostExpansion(
            m=section.m,
            n_coords=len(section.components),
            constants=exc.constants,
            levels=exc.levels_completed,
        )
        payload["levels"] = expansion_to_json(partial)
        if args.json:
            _emit(dump_json(payload))
        else:
            _emit(
                f"local model m={section.m}: expansion stops at level {exc.level}: {exc}\n"
                "verdict: fail (the input does not extend to a global smoothing datum)\n"
            )
        return EXIT_OK
    payload = residue_report_to_json(report)
    if args.json:
        _emit(dump_json(payload))
        return EXIT_OK
    lines = [f"local model m={report.m}, target coordinates: {report.expansion.n_coords}"]
    for lvl in report.expansion.levels:
        consts = ", ".join(str(v) for v in lvl.constant)
        pieces = []
        for comp in lvl.components:
            if comp.pole_order:
                residue = ", ".join(str(v) for v in comp.residue)
                pieces.append(f"{comp.name}: simple pole, residue ({residue})")
            else:
                pieces.append(f"{comp.name}: regular")
        lines.append(f"level {lvl.level}: a = ({consts}); " + "; ".join(pieces))
    expected = ", ".join(str(v) for v in report.expected_residue)
    lines.append(f"expected residue (effective-branch derivative): ({expected})")
    lines.append(f"verdict: {'pass' if report.passed else 'fail'}")
    for failure in report.failures:
        lines.append(f"failure: {failure}")
    _emit("\n".join(lines) + "\n")
    # residue findings are reported, not signalled through the exit code
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_all

    results = run_all()
    if args.json:
        _emit(
            dump_json(
                {
                    "tool": "ghostcheck",
                    "version": __version__,
                    "criteria": [
                        {"name": r.name, "passed": r.passed, "detail": r.detail}
                        for r in results
                    ],
                    "passed": all(r.passed for r in results),
                }
            )
        )
    else:
        for r in results:
            _emit(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}\n")
        good = sum(1 for r in results if r.passed)
        _emit(f"selftest: {good}/{len(results)} criteria passed\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_SELFTEST_FAILED


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad argument as ``InputError``, so ``main`` prints it as one
    ``error:`` line and returns exit 2 instead of argparse printing its usage
    block and exiting. ``--help`` and ``--version`` still exit 0."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ghostcheck",
        description="Exact smoothing-obstruction checks for ghost components of stable maps",
    )
    parser.add_argument("--version", action="version", version=f"ghostcheck {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run both obstruction tests on a problem file")
    p_check.add_argument("path", help="JSON problem file")
    p_check.add_argument("--json", action="store_true", help="machine-readable output only")
    p_check.set_defaults(func=cmd_check)

    p_gen = sub.add_parser("generate", help="generate a line-star family instance")
    p_gen.add_argument("--N", type=int, required=True, help="ambient dimension (>= 2)")
    p_gen.add_argument("--h", type=int, required=True, help="ghost genus (>= 2)")
    p_gen.add_argument(
        "--model",
        choices=("hyperelliptic", "nodal_rational"),
        default="hyperelliptic",
        help="ghost curve model",
    )
    p_gen.add_argument(
        "--seed", type=int, default=0, help="has no effect (line stars are built without sampling)"
    )
    p_gen.add_argument("--out", help="output path (stdout when omitted)")
    p_gen.add_argument("--json", action="store_true", help="machine-readable output only")
    p_gen.set_defaults(func=cmd_generate)

    p_dims = sub.add_parser("dims", help="dimension counts")
    p_dims.add_argument("--N", type=int, required=True)
    p_dims.add_argument("--g", type=int, required=True)
    p_dims.add_argument("--d", type=int, required=True)
    p_dims.add_argument("--stratum", help="JSON stratum spec {N, h, parts: [[g_i, d_i], ...]}")
    p_dims.add_argument("--json", action="store_true")
    p_dims.set_defaults(func=cmd_dims)

    p_local = sub.add_parser("localmodel", help="verify the chain expansion of a local datum")
    p_local.add_argument("path", help="JSON file with a local_model section")
    p_local.add_argument("--json", action="store_true")
    p_local.set_defaults(func=cmd_localmodel)

    p_self = sub.add_parser("selftest", help="run the acceptance criteria")
    p_self.add_argument("--json", action="store_true")
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    """Run one subcommand. The only place an exception becomes an exit code."""
    try:
        args = build_parser().parse_args(argv)
        _thread_count()
        return args.func(args)
    except (InputError, FactoryError, ObstructionError, GhostVanishingViolated, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT
    except Exception as exc:  # a bug, not bad input: one line, never a traceback
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
