"""resolvinv benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the library is taken from its ``src/``.
Each run starts one workload process (a closed loop: one caller, no threads
of its own, BLAS pinned to one thread, every process on one CPU), checks
every output against a planted truth, prints a readable report and, as its
last line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run is split
into an untraced and a traced half and the metrics are the per-layer ones
(see spans.py).  ``--smoke`` runs every workload at its smallest size, traced
and untraced, and checks that every metric is emitted with its unit.

End-to-end metrics:
  setup_s       median of three set-ups: a fresh process importing resolvinv
                and making one untimed warm-up attempt per input shape (input
                generation excluded); on cli_corpus, the ``resolvinv demo`` call
  solve_ms.p50  median attempt time of each input shape, geometric mean over
                the shapes (failed attempts count with their time to the error)
  solves_per_s  passed attempts per second of attempt time
  peak_rss_mb   peak RSS of the workload process (cli_corpus: largest child)
The times are scaled to a host on which a fixed reference kernel, timed
between attempts on the same CPU, takes REFERENCE_S (see worker.SpeedProbe):
each set-up by the reference taken right after it, each attempt by the
geometric mean of the references taken just before and just after the
stretch of attempts it belongs to (at most SpeedProbe.EVERY_S long).  The
report prints the times unscaled too.  Over ten seeds per workload on a
shared 2-vCPU Xeon VM, whose speed swung by up to 50% between runs, the
worst spreads (IQR/median) were: solve_ms.p50 15% unscaled, 10% scaled;
solves_per_s 15% unscaled, 11% scaled.

The report also prints failed_frac with its base and the outcome counts,
rel_err.max and residual.max over passed attempts, and solve_ms.p90 over
all attempts when a run has at least 100 of them.  The timed attempts are
inputs the library solves; the inputs it is known to fail on get one
attempt each outside the timed loop, and the report lists their outcomes
under "known defects" (they are not counted in attempted or failed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from worker import SETUP_REPEATS, label_medians  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = [("setup_s", "s"), ("solve_ms.p50", "ms"),
              ("solves_per_s", "1/s"), ("peak_rss_mb", "MB")]
REPORT_ONLY = ("failed_frac", "rel_err.max", "residual.max")
# times are scaled to a host on which worker.SpeedProbe's kernel takes this
REFERENCE_S = 0.010
BLAS_THREADS = "1"
DEADLINE_S = 170.0


def pin_cpu() -> int:
    """Run this process and every process it starts on one CPU, so that the
    speed probe measures the core the attempts ran on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def bench_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def provenance(result: dict) -> dict:
    import hashlib

    import numpy
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "cpu_pinned": result["cpu_pinned"],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS), "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16], "resolvinv": result["origin"],
    }


def spawn_worker(workload, seed, seconds, trace, workdir, env, deadline,
                 smoke=False, setup_only=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace), "--workdir", str(workdir)]
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit("out of time before starting a workload process")
    spawn = time.perf_counter()
    # own session, so that a timeout also stops the CLI calls it started
    proc = subprocess.Popen(cmd + ["--spawn", repr(spawn)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        raise SystemExit("workload process ran out of time")
    if proc.returncode != 0:
        raise SystemExit(f"workload process failed with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def stop_group(proc) -> None:
    """Kill a worker's process group and wait until none of it is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_workload(workload, seed, seconds, trace, smoke=False) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    cpu = pin_cpu()
    env = bench_env()
    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = spawn_worker(workload, seed, seconds, trace, workdir, env,
                              deadline, smoke)
        if workload != "cli_corpus" and not trace:
            for _ in range(SETUP_REPEATS - 1):
                extra = spawn_worker(workload, seed, 0, 0, workdir, env,
                                     deadline, smoke, setup_only=True)
                result["setup"] += extra["setup"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["cpu_pinned"] = cpu
    return result


def summarize(result: dict) -> tuple[dict, dict, dict]:
    """(end-to-end metrics, report-only metrics, outcome counts)."""
    records = result["records"]
    outcomes = {}
    for r in records:
        outcomes[r[2]] = outcomes.get(r[2], 0) + 1
    passed = [r for r in records if r[2] == "passed"]
    times = [r[1] for r in records]
    raw = {
        "setup_s": statistics.median(s for s, _ in result["setup"]),
        "solve_ms.p50": 1e3 * geomean_of_medians(records),
        "solves_per_s": len(passed) / sum(times),
    }
    scaled = [[label, sec * REFERENCE_S / ref]
              for label, sec, *_, ref in records]
    e2e = {
        "setup_s": statistics.median(s * REFERENCE_S / ref
                                     for s, ref in result["setup"]),
        "solve_ms.p50": 1e3 * geomean_of_medians(scaled),
        "solves_per_s": len(passed) / sum(r[1] for r in scaled),
        "peak_rss_mb": result["rss_mb"],
    }
    extra = {f"{k} (raw wall time)": v for k, v in raw.items()}
    extra.update({
        "failed_frac": 1.0 - len(passed) / len(records),
        "rel_err.max": max((r[3] for r in passed), default=math.nan),
        "residual.max": max((r[4] for r in passed), default=math.nan),
        "reference_kernel_ms": 1e3 * result["reference_s"],
    })
    if len(records) >= 100:
        extra["solve_ms.p90"] = 1e3 * statistics.quantiles(times, n=10)[-1]
    return e2e, extra, outcomes


def geomean_of_medians(records) -> float:
    logs = [math.log(m) for m in label_medians(records).values()]
    return math.exp(sum(logs) / len(logs))


def shape_table(records) -> list[str]:
    rows = {}
    for label, sec, outcome, *_ in records:
        row = rows.setdefault(label, ([], {}))
        row[0].append(sec)
        row[1][outcome] = row[1].get(outcome, 0) + 1
    return [f"  {label:<28} {1e3 * statistics.median(t):10.3f} ms  "
            + " ".join(f"{k}={v}" for k, v in sorted(o.items()))
            for label, (t, o) in rows.items()]


def report(args, result) -> dict:
    """Print the readable report; return the final JSON object."""
    records = result["records"]
    e2e, extra, outcomes = summarize(result)
    failed = len(records) - outcomes.get("passed", 0)
    print(f"resolvinv benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("provenance: " + json.dumps(provenance(result)))
    print(f"attempts={len(records)} outcomes: "
          + " ".join(f"{k}={v}" for k, v in sorted(outcomes.items())))
    print("per input shape (median time, outcomes):")
    for line in shape_table(records):
        print(line)
    defects = result["known_defects"]
    if defects:
        failing = sum(1 for r in defects if r[2] != "passed")
        print(f"known defects (one attempt each, not timed, not counted): "
              f"{failing} of {len(defects)} failed")
        for label, sec, outcome, *_ in defects:
            print(f"  {label:<28} {1e3 * sec:10.3f} ms  {outcome}")
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit, _ in spans.PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
        for name, value in extra.items():
            base = f" of {len(records)} attempts" if name == "failed_frac" else ""
            print(f"  {name} = {value:.6g}{base}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": result["correct"], "attempted": len(records),
            "failed": failed, "metrics": metrics}


def smoke() -> int:
    """Every workload at its smallest size, untraced and traced: every
    metric must be emitted with the unit BENCHMARK.json gives it."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
             1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=0, seconds=0,
                                      trace=trace)
            result = run_workload(workload, 0, 0, trace, smoke=True)
            out = report(args, result)
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            missing = set(REPORT_ONLY) - set(summarize(result)[1])
            if missing:
                problems.append(f"{workload} trace={trace}: no {missing}")
            if got != units[trace]:
                problems.append(f"{workload} trace={trace}: metrics/units "
                                f"differ from BENCHMARK.json")
            if not out["correct"]:
                problems.append(f"{workload} trace={trace}: incorrect output")
            if not all(math.isfinite(v["value"])
                       for v in out["metrics"].values()):
                problems.append(f"{workload} trace={trace}: non-finite metric")
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if not (ROOT / "src" / "resolvinv" / "__init__.py").is_file():
        print(f"error: no resolvinv sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(report(args, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
