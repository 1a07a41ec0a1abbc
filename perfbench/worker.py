"""One workload process: set up, run the closed loop, print one JSON line.

Cases marked ``known_defect`` (inputs the library is known to fail on) get
one attempt each after set-up, outside the timed loop; their outcomes are
reported apart from the attempts.

Started by run.py, once per run, and again with ``--setup-only`` for the
extra set-up samples.  The library is imported first, so that set-up time
counts every import it makes.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# outcomes that are wrong answers, not failures the program reported or
# results merely less accurate than the workload's bound
INCORRECT = ("nonfinite", "wrong_result", "untyped_")


def check_origin(path: str) -> None:
    """The measured library must be this checkout's ``src/`` copy."""
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"resolvinv resolves to {path}, not to {SRC}")


def timed_attempt(case, typed_error, tracer=None, attempt_id=None):
    """Run one attempt; returns (seconds, outcome, rel_err, residual)."""
    if tracer is not None:
        tracer.attempt = attempt_id
    error = None
    start = time.perf_counter()
    try:
        out = case.run()
    except typed_error as exc:
        error = type(exc).__name__
    except Exception as exc:  # an escaped untyped error is itself a finding
        traceback.print_exc()
        error = "untyped_" + type(exc).__name__
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.attempt = None
    if error is not None:
        return seconds, error, math.nan, math.nan
    outcome, rel, res = case.check(out)
    return seconds, outcome, rel, res


class SpeedProbe:
    """Times the reference kernel of speed_probe.py between attempts.

    On a shared host the CPU speed can drift by tens of percent within
    seconds (up to 50% on a 2-vCPU Xeon VM), enough to swamp a run-to-run
    comparison; run.py scales each attempt's time by the ratio of its
    REFERENCE_S to the kernel's time around that attempt.  Each sample is
    the median of three kernel runs.  The kernel runs in its own
    process, on the same CPU (run.py pins every process), only while no
    attempt is running.
    """

    EVERY_S = 0.5
    WARM_UP = 5

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("speed_probe.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.samples = []
        self.last = -math.inf
        # the first runs of the kernel in a fresh process are slow
        for _ in range(self.WARM_UP):
            self.measure()

    def measure(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def now(self) -> float:
        """Reference time right now: the median of three kernel runs."""
        return statistics.median(self.measure() for _ in range(3))

    def maybe(self) -> int:
        """Index of the latest sample, renewed at most every EVERY_S."""
        if time.perf_counter() - self.last >= self.EVERY_S:
            self.samples.append(self.now())
            self.last = time.perf_counter()
        return len(self.samples) - 1

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=30)


def closed_loop(cases, seconds, typed_error, probe, tracer=None, walls=None):
    """Whole rounds over every case, one caller, until ``seconds`` pass."""
    records = []
    start = time.perf_counter()
    while True:
        for case in cases:
            sample = probe.maybe()
            aid = len(records)
            rec = timed_attempt(case, typed_error, tracer, aid)
            records.append([case.label, *rec, sample])
            if walls is not None:
                walls[aid] = rec[0]
        if time.perf_counter() - start >= seconds:
            break
    # each attempt's reference brackets it: the samples before and after
    probe.samples.append(probe.now())
    for r in records:
        i = r[-1]
        r[-1] = math.sqrt(probe.samples[i] * probe.samples[i + 1])
    return records


def label_medians(records):
    by_label = {}
    for label, sec, *_ in records:
        by_label.setdefault(label, []).append(sec)
    return {k: statistics.median(v) for k, v in by_label.items()}


def overhead(untraced, traced):
    """Traced against untraced time: geometric mean over input shapes of
    the ratio of per-shape medians, minus one."""
    mu, mt = label_medians(untraced), label_medians(traced)
    logs = [math.log(mt[k] / mu[k]) for k in mt if k in mu and mu[k] > 0]
    return math.exp(sum(logs) / len(logs)) - 1.0


def run_library(args):
    import resolvinv as rv
    from resolvinv.errors import ResolvinvError

    check_origin(rv.__file__)
    import numpy as np

    import spans
    import workloads

    t_gen = time.perf_counter()
    rng = np.random.default_rng([args.seed, workloads.WORKLOADS.index(
        args.workload)])
    made = workloads.LIBRARY_WORKLOADS[args.workload](rv, rng, args.smoke)
    cases = [c for c in made if not c.known_defect]
    gen_s = time.perf_counter() - t_gen
    for case in cases:
        timed_attempt(case, ResolvinvError)
    setup_s = time.perf_counter() - args.spawn - gen_s
    probe = SpeedProbe()
    try:
        result = {"setup": [[setup_s, probe.now()]], "origin": rv.__file__}
        if not args.setup_only:
            result["known_defects"] = [
                [c.label, *timed_attempt(c, ResolvinvError)]
                for c in made if c.known_defect]
            measure_library(args, cases, probe, result, ResolvinvError,
                            spans)
    finally:
        probe.close()
    if args.setup_only:
        return result
    result["reference_s"] = statistics.median(probe.samples)
    result["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def measure_library(args, cases, probe, result, typed_error, spans):
    if not args.trace:
        result["records"] = closed_loop(cases, args.seconds, typed_error,
                                        probe)
    else:
        untraced = closed_loop(cases, args.seconds / 2, typed_error, probe)
        tracer = spans.Tracer()
        spans.install(tracer)
        walls = {}
        traced = closed_loop(cases, args.seconds / 2, typed_error, probe,
                             tracer, walls)
        result["records"] = traced
        result["layers"] = trace_layers(spans, tracer.spans, walls,
                                        len(traced), untraced, traced, {})
        write_spans(args, tracer.spans)


def trace_layers(spans, span_list, walls, solves, untraced, traced, extra):
    gap = spans.gap_frac(span_list, walls)
    if gap < -1e-6:
        raise SystemExit(f"top-level spans exceed the attempt time by "
                         f"{-gap:.2e} of it: spans overlap or clocks differ")
    extra = dict(extra)
    extra["trace.overhead_frac"] = overhead(untraced, traced)
    extra["trace.gap_frac"] = gap
    return spans.layer_metrics(span_list, len(traced), solves, extra)


def write_spans(args, span_list):
    out = ROOT / ".perfbench_work" / "traces"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(span_list))


class CliSpans:
    """Collects the spans each traced CLI call wrote, as attempts of this
    process: synthetic top-level spans for interpreter start and imports,
    then the child's own spans."""

    def __init__(self, spans):
        self.spans_mod = spans
        self.spans = []
        self.attempt = 0
        self.imports = {}
        self.origins = set()

    def __call__(self, spans_file, spawn, stderr):
        doc = json.loads(Path(spans_file).read_text())
        Path(spans_file).unlink()
        self.origins.add(doc["file"])
        a = self.attempt
        self.spans.append(["cli.interpreter", spawn, doc["t0"], -1, a, None,
                           0, None])
        self.spans.append(["cli.imports", doc["t0"], doc["t_ready"], -1, a,
                           None, 0, None])
        offset = len(self.spans)
        for s in doc["spans"]:
            s[4] = a
            if s[3] >= 0:
                s[3] += offset
            self.spans.append(s)
        for name, ms in self.spans_mod.import_times_ms(stderr).items():
            self.imports[name] = self.imports.get(name, 0.0) + ms


def run_cli(args):
    import numpy as np

    import spans
    import workloads

    env = dict(os.environ)
    found = subprocess.run(
        [sys.executable, "-c", "import importlib.util as u; "
         "print(u.find_spec('resolvinv').origin)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    origin = found.stdout.strip()
    check_origin(origin)

    workdir = Path(args.workdir)
    rng = np.random.default_rng([args.seed, workloads.WORKLOADS.index(
        args.workload)])
    big = workloads.cli_prepare(rng, workdir, args.smoke)
    runner = workloads.CliRunner(ROOT, env, workdir)

    probe = SpeedProbe()
    try:
        setup = []
        for i in range(SETUP_REPEATS):
            start = time.perf_counter()
            proc = runner(["demo", "--output-dir", str(workdir / f"demo{i}")])
            setup.append([time.perf_counter() - start, probe.now()])
            if proc.returncode != 0:
                raise SystemExit(f"demo call failed:\n{proc.stderr}")
        demo = workdir / f"demo{SETUP_REPEATS - 1}"
        cases = workloads.cli_corpus(runner, demo, workdir, big)
        result = {"setup": setup, "origin": origin, "known_defects": []}
        measure_cli(args, cases, probe, result, runner, spans)
    finally:
        probe.close()
    result["reference_s"] = statistics.median(probe.samples)
    result["rss_mb"] = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return result


class CliError(Exception):
    """CLI attempts report failure through exit codes, never raise."""


def measure_cli(args, cases, probe, result, runner, spans):
    workdir = Path(args.workdir)
    if not args.trace:
        result["records"] = closed_loop(cases, args.seconds, CliError, probe)
    else:
        untraced = closed_loop(cases, args.seconds / 2, CliError, probe)
        collector = CliSpans(spans)
        runner.traced = True
        runner.collect = collector
        # one traced demo call, kept apart from the attempts
        collector.attempt = -1
        runner(["demo", "--output-dir", str(workdir / "demo_traced")])
        demo_spans, collector.spans = collector.spans, []

        walls = {}
        traced = closed_loop(cases, args.seconds / 2, CliError, probe,
                             collector, walls)
        for origin_file in collector.origins:
            check_origin(origin_file)
        solves = sum(1 for r in traced if r[0].startswith(("invert/",
                                                           "sweep")))
        n = len(traced)
        extra = {f"cli.import.{key}.ms": collector.imports.get(mod, 0.0) / n
                 for mod, key in spans.IMPORTS.items()}
        demo_ms = [s[2] - s[1] for s in demo_spans
                   if s[0] == "demos.write_demo_files"]
        extra["demos.write_demo_files.ms"] = 1e3 * sum(demo_ms) / max(
            len(demo_ms), 1)
        result["records"] = traced
        result["layers"] = trace_layers(spans, collector.spans, walls,
                                        solves, untraced, traced, extra)
        write_spans(args, collector.spans)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spawn", type=float, required=True,
                   help="perf_counter reading taken just before this process "
                        "was started (CLOCK_MONOTONIC, shared by processes)")
    p.add_argument("--workdir", required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    if args.workload == "cli_corpus":
        result = run_cli(args)
    else:
        result = run_library(args)
    if "records" in result:
        result["correct"] = not any(
            r[2].startswith(INCORRECT)
            for r in result["records"] + result["known_defects"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
