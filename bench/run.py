#!/usr/bin/env python3
"""Benchmark of ghostcheck's engines and request path (standard library only).

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0

One process, one closed-loop client: each request is one call of
``ghostcheck.cli.main(argv)`` with stdout and stderr captured, and the next
starts when the previous returns. A run repeats whole rounds of the
workload's seeded request list until ``--seconds`` have passed, then checks
every output with ``checks.py`` (which never calls the program) and prints
each metric by name and unit. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 5  # set-ups per run; setup_s is their median
MIN_REQUESTS = 100  # a run goes on until it has this many latency samples
PER_LAYER_TIMES = (
    "cli.parse", "cli.self", "jsonio.load", "jsonio.report", "curves.ev",
    "obstruction.matrix", "obstruction.theorem", "exact.rank", "exact.kernel",
    "obstruction.scan", "laurent.normal_form", "laurent.substitute",
    "laurent.restrict", "localmodel.expand",
)
PER_LAYER_CALLS = ("curves.ev", "exact.rank", "exact.kernel", "laurent.substitute")
PER_LAYER_COUNTS = ("jsonio.bytes_in", "jsonio.bytes_out", "localmodel.levels")


class NoProgram(Exception):
    pass


def import_ghostcheck():
    """Import ghostcheck afresh from the checkout's src/ directory."""
    if not os.path.isfile(os.path.join(SRC, "ghostcheck", "cli.py")):
        raise NoProgram(f"no ghostcheck sources under {SRC}")
    for name in [n for n in sys.modules if n == "ghostcheck" or n.startswith("ghostcheck.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import ghostcheck.cli
    import ghostcheck.factory

    if not os.path.abspath(ghostcheck.__file__).startswith(SRC + os.sep):
        raise NoProgram(f"ghostcheck was imported from {ghostcheck.__file__}, not {SRC}")
    return ghostcheck


def call(package, argv):
    """One request: (exit status, stdout, stderr); an escaped exception is its status."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = package.cli.main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # a traceback would end the process with exit 1
            status = f"uncaught {type(exc).__name__}"
    return status, out.getvalue(), err.getvalue()


def set_up(workload, seed, workdir, tracer=None):
    """Import, build the inputs and run the warm-up request; returns the time taken."""
    start = perf_counter()
    package = import_ghostcheck()
    if tracer is not None:
        tracer.install(package)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    requests, warm = workloads.BUILDERS[workload](package, seed, workloads.Writer(workdir))
    warm_result = call(package, warm.argv)
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    return elapsed, package, requests, warm, warm_result


class Run:
    """Timed rounds of one request list, with the first round's outputs kept."""

    def __init__(self, requests):
        self.requests = requests
        self.first = []
        self.latencies = []
        self.rounds = 0
        self.wall = 0.0
        self.mismatches = []
        self.paired = [0.0, 0.0]  # untraced and traced time of the same requests

    def round(self, package, tracer=None):
        """Run every request once, in order.

        With a tracer each request runs twice in a row, untraced and traced,
        the order flipping from one request to the next, so drift in the
        host's speed and warm caches favour neither side of the overhead
        comparison.
        """
        start = perf_counter()
        for index, request in enumerate(self.requests):
            if tracer is None:
                self.call(package, index, request)
                continue
            for traced in (False, True) if (self.rounds + index) % 2 else (True, False):
                if not traced:
                    self.paired[0] += self.call(package, index, request)
                    continue
                tracer.request = len(self.latencies)
                tracer.install(package)
                try:
                    self.paired[1] += self.call(package, index, request)
                finally:
                    tracer.uninstall()
        self.rounds += 1
        self.wall += perf_counter() - start

    def call(self, package, index, request) -> float:
        t0 = perf_counter()
        result = call(package, request.argv)
        latency = perf_counter() - t0
        self.latencies.append(latency)
        if index == len(self.first):
            self.first.append(result)
        elif result != self.first[index]:
            self.mismatches.append(request.label)
        return latency

    def done(self, seconds) -> bool:
        return self.wall >= seconds and len(self.latencies) >= MIN_REQUESTS


def verify(requests, results, warm, warm_result, mismatches):
    """(correct, known-fault failures per round, messages)."""
    messages = [f"output changed between rounds: {label}" for label in sorted(set(mismatches))]
    faults = 0
    for request, (status, out, err) in [(warm, warm_result)] + list(zip(requests, results)):
        try:
            checker = checks.CHECKERS[request.kind]
            errors = checker(request.problem, request.expect, status, out, err)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            errors = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if request.known_fault and request is not warm:
            faults += bool(errors)
        elif errors:
            messages += [f"{request.label}: {e}" for e in errors]
    return not messages, faults, messages


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(run, setups):
    """{name: (value, unit)} and notes printed beside some of them."""
    lat = run.latencies
    beyond = len(lat) - math.ceil(0.9 * len(lat))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / run.wall, "ops/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (percentile(lat, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "op_p50_ms": f"{len(lat)} samples",
        "op_p90_ms": f"{len(lat)} samples, {beyond} beyond it",
    }
    return metrics, notes


def per_layer(run, tracer):
    """Layer self times and counts per round of traced requests."""
    selfs, calls, per = tracer.self_times("run"), tracer.calls("run"), 1.0 / run.rounds
    metrics = {}
    for name in PER_LAYER_TIMES:
        span = "cli.main" if name == "cli.self" else name
        metrics[f"{name}_s"] = (selfs.get(span, 0.0) * per, "s")
    for name in PER_LAYER_CALLS:
        metrics[f"{name}_calls"] = (calls.get(name, 0) * per, "count")
    for name in PER_LAYER_COUNTS:
        metrics[name] = (tracer.counts.get(name, 0) * per, "count")
    metrics["factory.build_s"] = (tracer.self_times("setup").get("factory.build", 0.0), "s")
    metrics["trace.overhead_pct"] = ((run.paired[1] / run.paired[0] - 1) * 100, "%")
    notes = {
        "factory.build_s": "in the traced set-up",
        "trace.overhead_pct": "each request timed untraced and traced, back to back",
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    tracer = tracing.Tracer() if args.trace else None
    try:
        setups = []
        for k in range(SETUPS):
            traced = tracer if k == SETUPS - 1 else None
            elapsed, package, requests, warm, warm_result = set_up(
                args.workload, args.seed, workdir, traced
            )
            setups.append(elapsed)
        run = Run(requests)
        if tracer is not None:
            tracer.phase = "run"
        while not run.done(args.seconds):
            run.round(package, tracer)
        correct, faults, messages = verify(requests, run.first, warm, warm_result, run.mismatches)
    except NoProgram as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in messages:
        sys.stderr.write(f"bench: WRONG {message}\n")
    attempted = len(run.latencies)  # whole rounds, each request once (twice when traced)
    failed = attempted // len(requests) * faults
    print(f"workload {args.workload}, seed {args.seed}: {len(requests)} requests per round, "
          f"{run.rounds} rounds, {attempted} attempted, {failed} failed (known faults), "
          f"outputs {'correct' if correct else 'WRONG'}")
    if tracer is None:
        metrics, notes = end_to_end(run, setups)
    else:
        metrics, notes = per_layer(run, tracer)
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(trace_path, ROOT)}; "
              "layer times and counts are per round")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
