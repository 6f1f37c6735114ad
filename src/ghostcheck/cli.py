"""Command-line front end.

Subcommands: check, generate, dims, localmodel, selftest. Exit codes:
0 ok, 1 selftest failure, 2 bad input or an unreadable or unwritable file,
3 any other exception (a bug).
Output contract: each ``cmd_*`` returns ``(exit code, report)`` and writes
nothing to stdout; ``main`` prints the report once, after the command
returns, as ``dump_json(report)`` under ``--json`` and otherwise through the
subcommand's text renderer, which reads only that report (and, for
``generate``, the ``--out`` arguments it echoes). So the text is a rendering
of the JSON report, and an error leaves stdout empty.
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
    load_problem_file,
    load_stratum_spec,
    problem_to_json,
    residue_report_to_json,
    stopped_expansion_to_json,
    verdict_pair_to_json,
)
from .localmodel import GhostVanishingViolated, NonConstantLevel, verify_residue_theorem
from .obstruction import ObstructionError, Verdict, corollary_check, theorem_check

EXIT_OK = 0
EXIT_SELFTEST_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3

VERDICT_TEXT = {
    Verdict.NOT_EVENTUALLY_SMOOTHABLE.value: "NOT eventually smoothable (obstruction fires)",
    Verdict.INCONCLUSIVE.value: "inconclusive (obstruction vanishes)",
}


def _thread_count() -> int:
    raw = os.environ.get("GHOSTCHECK_THREADS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise InputError(f"GHOSTCHECK_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def _lines(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def cmd_check(args):
    problem_file = load_problem_file(args.path)
    if not problem_file.components:
        raise InputError(f"{args.path}: no obstruction problem to check")
    components = []
    for problem in problem_file.components:
        # the corollary check first: it refuses an inconclusive problem over
        # the witness-search cap before the theorem check's elimination runs
        corollary = corollary_check(problem)
        theorem = theorem_check(problem)
        # a kernel vector's support D has rank_V(D) + rank_E(D) <= |D|, so a
        # kernel makes the corollary inconclusive with a witness no larger
        if theorem.kernel_witness is not None:
            if corollary.witness_D is None:
                raise AssertionError("corollary obstructed but theorem inconclusive; this is a bug")
            if sum(map(bool, theorem.kernel_witness)) < len(corollary.witness_D):
                raise AssertionError("kernel witness support is below the minimal witness size; this is a bug")
        entry = verdict_pair_to_json(theorem, corollary)
        entry["genus"] = problem.genus
        entry["ambient_dim"] = problem.ambient_dim
        entry["n_points"] = problem.n_points
        components.append(entry)
    fired = any(
        entry["theorem"]["verdict"] == Verdict.NOT_EVENTUALLY_SMOOTHABLE.value for entry in components
    )
    return EXIT_OK, {
        "tool": "ghostcheck",
        "version": __version__,
        "components": components,
        "map_verdict": (Verdict.NOT_EVENTUALLY_SMOOTHABLE if fired else Verdict.INCONCLUSIVE).value,
    }


def _check_text(report, args) -> str:
    lines = [f"checked {len(report['components'])} ghost component(s)"]
    for i, entry in enumerate(report["components"]):
        theorem, corollary = entry["theorem"], entry["corollary"]
        lines.append(
            f"component {i}: theorem: {VERDICT_TEXT[theorem['verdict']]}; "
            f"rank {theorem['rank']}/{entry['n_points']} "
            f"(bound {entry['genus'] * entry['ambient_dim']})"
        )
        if theorem["kernel_witness"] is not None:
            lines.append(f"             kernel witness: ({', '.join(theorem['kernel_witness'])})")
        witness = ""
        if corollary["witness_D"] is not None:
            witness = f"; witness D = {{{', '.join(str(i) for i in corollary['witness_D'])}}}"
        lines.append(f"             corollary: {VERDICT_TEXT[corollary['verdict']]}{witness}")
    lines.append(f"map verdict: {VERDICT_TEXT[report['map_verdict']]}")
    return _lines(lines)


def cmd_generate(args):
    """Without ``--out`` the report is the instance itself; with it, the file is
    written and the report names it."""
    problem = build_line_star_instance(args.N, args.h, args.model)
    instance = {"version": 1, **problem_to_json(problem)}
    if not args.out:
        return EXIT_OK, instance
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(dump_json(instance))
    return EXIT_OK, {"written": args.out, "n_points": problem.n_points}


def _generate_text(report, args) -> str:
    if not args.out:
        return dump_json(report)
    return (
        f"wrote {args.out}: N={args.N}, h={args.h}, model={args.model}, "
        f"{report['n_points']} attachment points\n"
    )


def cmd_dims(args):
    moduli = dim_moduli(args.N, args.g, args.d)
    report = {"N": args.N, "g": args.g, "d": args.d, "dim_moduli": moduli}
    if args.stratum:
        spec = load_stratum_spec(args.stratum)
        if spec.ambient_dim != args.N:
            raise InputError(
                f"stratum spec {args.stratum}: N = {spec.ambient_dim} differs from --N {args.N}"
            )
        stratum = dim_stratum(spec)
        report["stratum"] = {
            "h": spec.ghost_genus,
            "n": spec.n_points,
            "parts": [list(p) for p in spec.parts],
            "dim": stratum,
            "excess": stratum - moduli,
        }
    return EXIT_OK, report


def _dims_text(report, args) -> str:
    lines = [
        f"dim of the smooth-domain space (N={report['N']}, g={report['g']}, d={report['d']})"
        f" = {report['dim_moduli']}"
    ]
    if "stratum" in report:
        stratum = report["stratum"]
        lines.append(
            f"stratum (h={stratum['h']}, n={stratum['n']}) = {stratum['dim']}"
            f" (excess over smooth-domain space: {stratum['excess']})"
        )
    return _lines(lines)


def cmd_localmodel(args):
    problem_file = load_problem_file(args.path)
    if problem_file.local_model is None:
        raise InputError(f"{args.path}: no local_model section")
    section = problem_file.local_model
    # a stopped expansion is reported, not signalled through the exit code
    try:
        return EXIT_OK, residue_report_to_json(
            verify_residue_theorem(section.components, section.m)
        )
    except NonConstantLevel as exc:
        return EXIT_OK, stopped_expansion_to_json(section, exc)


def _localmodel_text(report, args) -> str:
    if "expected_residue" not in report:  # the expansion stopped at a level
        stop = report["failures"][0]
        return (
            f"local model m={report['m']}: expansion stops at level {stop['level']}: "
            f"{stop['message']}\n"
            f"verdict: {report['verdict']} (the input does not extend to a global smoothing datum)\n"
        )
    lines = [f"local model m={report['m']}, target coordinates: {len(report['expected_residue'])}"]
    for level in report["levels"]:
        pieces = [
            f"{comp['name']}: simple pole, residue ({', '.join(comp['residue'])})"
            if comp["pole_order"]
            else f"{comp['name']}: regular"
            for comp in level["components"]
        ]
        lines.append(f"level {level['l']}: a = ({', '.join(level['a'])}); " + "; ".join(pieces))
    lines.append(
        f"expected residue (effective-branch derivative): ({', '.join(report['expected_residue'])})"
    )
    lines.append(f"verdict: {report['verdict']}")
    return _lines(lines)


def cmd_selftest(args):
    from .selftest import run_all

    results = run_all()
    passed = all(r.passed for r in results)
    return EXIT_OK if passed else EXIT_SELFTEST_FAILED, {
        "tool": "ghostcheck",
        "version": __version__,
        "criteria": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
        "passed": passed,
    }


def _selftest_text(report, args) -> str:
    criteria = report["criteria"]
    lines = [f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}" for c in criteria]
    good = sum(1 for c in criteria if c["passed"])
    lines.append(f"selftest: {good}/{len(criteria)} criteria passed")
    return _lines(lines)


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
    p_check.set_defaults(func=cmd_check, text=_check_text)

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
    p_gen.add_argument(
        "--json", action="store_true",
        help="with --out, print {written, n_points}; without --out the instance is JSON anyway",
    )
    p_gen.set_defaults(func=cmd_generate, text=_generate_text)

    p_dims = sub.add_parser("dims", help="dimension counts")
    p_dims.add_argument("--N", type=int, required=True)
    p_dims.add_argument("--g", type=int, required=True)
    p_dims.add_argument("--d", type=int, required=True)
    p_dims.add_argument("--stratum", help="JSON stratum spec {N, h, parts: [[g_i, d_i], ...]}")
    p_dims.add_argument("--json", action="store_true")
    p_dims.set_defaults(func=cmd_dims, text=_dims_text)

    p_local = sub.add_parser("localmodel", help="verify the chain expansion of a local datum")
    p_local.add_argument("path", help="JSON file with a local_model section")
    p_local.add_argument("--json", action="store_true")
    p_local.set_defaults(func=cmd_localmodel, text=_localmodel_text)

    p_self = sub.add_parser("selftest", help="run the acceptance criteria")
    p_self.add_argument("--json", action="store_true")
    p_self.set_defaults(func=cmd_selftest, text=_selftest_text)

    return parser


def main(argv=None) -> int:
    """Run one subcommand and print its report. The only code that writes
    stdout, and the only place an exception becomes an exit code."""
    try:
        args = build_parser().parse_args(argv)
        _thread_count()
        code, report = args.func(args)
        sys.stdout.write(dump_json(report) if args.json else args.text(report, args))
        return code
    except (InputError, FactoryError, ObstructionError, GhostVanishingViolated, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT
    except Exception as exc:  # a bug, not bad input: one line, never a traceback
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
