"""Span tracing of ghostcheck's layers from the benchmark's own process.

``Tracer.install`` replaces the public functions of each module (and the
names other modules imported them under) with wrappers that record a span
(name, start, end, parent, request, phase) in memory; ``uninstall`` puts
the originals back. Nothing in the program is edited. A layer's self time
is its spans' duration minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path, span name); a dotted path names a class method
LAYERS = (
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.parse"),
    ("jsonio", "load_problem_file", "jsonio.load"),
    ("jsonio", "dump_json", "jsonio.report"),
    ("jsonio", "verdict_pair_to_json", "jsonio.report"),
    ("jsonio", "expansion_to_json", "jsonio.report"),
    ("jsonio", "residue_report_to_json", "jsonio.report"),
    ("jsonio", "problem_to_json", "jsonio.report"),
    ("curves", "HyperellipticModel.ev_vector", "curves.ev"),
    ("curves", "NodalRationalModel.ev_vector", "curves.ev"),
    ("curves", "RawEvaluationModel.ev_vector", "curves.ev"),
    ("obstruction", "obstruction_matrix", "obstruction.matrix"),
    ("obstruction", "theorem_check", "obstruction.theorem"),
    ("obstruction", "corollary_check", "obstruction.scan"),
    ("exact", "QMatrix.rank", "exact.rank"),
    ("exact", "QMatrix.kernel_basis", "exact.kernel"),
    ("laurent", "normal_form_xyt", "laurent.normal_form"),
    ("laurent", "substitute", "laurent.substitute"),
    ("laurent", "restrict_to_axis", "laurent.restrict"),
    ("localmodel", "expand_ghost", "localmodel.expand"),
    ("localmodel", "verify_residue_theorem", "localmodel.expand"),
    ("factory", "build_line_star_instance", "factory.build"),
    ("factory", "random_instance", "factory.build"),
    ("factory", "dim_moduli", "factory.build"),
    ("factory", "dim_stratum", "factory.build"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request, phase]
        self.stack = []
        self.request = -1
        self.phase = "setup"
        self.counts = defaultdict(int)  # run-phase counters
        self._saved = []

    def count(self, name, amount=1):
        if self.phase == "run":
            self.counts[name] += amount

    def wrap(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, 0.0, 0.0, parent, tracer.request, tracer.phase]
            tracer.spans.append(span)
            tracer.stack.append(index)
            result = exc = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                span[2] = perf_counter()
                tracer.stack.pop()
                if on_result is not None:
                    on_result(args, result, exc)

        return traced

    # -- hooks that count work at a layer boundary --------------------------

    def _parser_built(self, args, parser, exc):
        if parser is not None:
            parser.parse_args = self.wrap("cli.parse", parser.parse_args)

    def _file_loaded(self, args, result, exc):
        try:
            self.count("jsonio.bytes_in", os.path.getsize(args[0]))
        except OSError:
            pass

    def _report_dumped(self, args, text, exc):
        if text is not None:
            self.count("jsonio.bytes_out", len(text.encode()))

    def _expanded(self, args, expansion, exc):
        if expansion is not None:
            self.count("localmodel.levels", len(expansion.levels))
        elif exc is not None and hasattr(exc, "levels_completed"):
            self.count("localmodel.levels", len(exc.levels_completed))

    def install(self, package):
        """Wrap every layer function of an imported ghostcheck package."""
        hooks = {
            "build_parser": self._parser_built,
            "load_problem_file": self._file_loaded,
            "dump_json": self._report_dumped,
            "expand_ghost": self._expanded,
        }
        modules = [m for key, m in sys.modules.items() if key.startswith("ghostcheck.") and m]
        for module_name, path, span in LAYERS:
            owner = getattr(package, module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self.wrap(span, original, hooks.get(attr))
            if classes:
                targets = [owner]
            else:  # the defining module and every module that imported the name
                targets = [m for m in modules if getattr(m, attr, None) is original]
            for target in targets:
                self._saved.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved = []

    # -- reports ----------------------------------------------------------------

    def self_times(self, phase):
        """{span name: summed self time} over the spans of one phase."""
        child = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for index, (name, start, end, _, _, span_phase) in enumerate(self.spans):
            if span_phase == phase:
                out[name] += end - start - child[index]
        return out

    def calls(self, phase):
        out = defaultdict(int)
        for span in self.spans:
            if span[5] == phase:
                out[span[0]] += 1
        return out

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
