"""Benchmark command for bousspec: run workloads, check them, print metrics.

    python3 perfbench/run.py --workload rough2d_64 --seed 0 --seconds 60 --trace 0

``--workload all`` (the default) runs every workload one after
another.  The load is a closed loop with one client: repetitions run one
at a time, each in a fresh single-threaded process (``worker.py``), so
``peak_rss_mb`` belongs to one repetition and nothing runs beside it.

A run first starts one set-up-only process whose figures are dropped (it
fills the page cache and writes the bytecode caches), then alternates a
set-up-only process and a repetition until ``--seconds`` is used up (at
least ``MIN_REPS`` repetitions), so every kind of sample is spread over
the whole run.  With ``--trace 0`` the end-to-end metrics are measured:
each is the median over the repetitions, and ``setup_s`` the median over
the repetitions and the set-up-only processes.  Each set-up-only process
also times ``worker.CALIBRATION_PASSES`` passes of the fixed kernel in
``calibrate.py``; ``wall_s`` and ``setup_s`` are the measured times
scaled by ``REFERENCE_PASS_S`` over the run's median pass, that is, in
seconds on a host where a pass takes 0.25 s, so that the host's drift
cancels.  The times as measured are printed beside them (``wall_raw_s``,
``setup_raw_s``, ``calib_s``).  With ``--trace 1``
untraced and traced repetitions alternate; the per-layer metrics are
medians over the traced ones, and ``trace.overhead_frac`` compares the
two kinds.

Every repetition is checked (run status, ``div_max``, CSV round trip,
oracle tolerances, final-state fingerprint against ``reference.json``
for the seeds recorded there, and identical fingerprints across the
repetitions of a run).  A repetition that fails a check counts in
``failed``.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record, with the environment and the
fingerprints that ``compare.py`` checks across commits, is written to
``.perfbench/results/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy

from tracer import unit_of
from workloads import WORKLOADS as WORKLOAD_TABLE

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "bousspec")
OUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = tuple(WORKLOAD_TABLE)
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "energy_residual_max": "1"}
# printed beside them, not in the result line: the times as measured
RAW_UNITS = {"wall_raw_s": "s", "setup_raw_s": "s", "calib_s": "s"}
UNITS = {**END_TO_END_UNITS, **RAW_UNITS}
# the calibration pass time that wall_s and setup_s are scaled to
REFERENCE_PASS_S = 0.25
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPS = 3
WORKER_TIMEOUT_S = 150
FINGERPRINT_RTOL = 1e-12


def environment():
    """What every result records about the machine and the code."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(PACKAGE):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, PACKAGE).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "threads": {var: "1" for var in THREAD_VARS},
        "io_note": "fileio does not fsync snapshot writes, so the I/O "
                   "times measure writes to the page cache",
    }


def git_sha():
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def child_env():
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def run_worker(workload, seed, mode):
    """One repetition in a fresh process; returns its result record."""
    workdir = os.path.join(OUT, "work", f"{workload}-{mode}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    result_path = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--workdir", workdir, "--result", result_path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        stderr = proc.stderr
    except subprocess.TimeoutExpired as err:
        stderr = f"timed out after {err.timeout} s"
    try:
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = {"mode": mode,
                  "failures": [f"worker left no result: {stderr[-2000:]}"]}
    if mode == "trace" and not result["failures"]:
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        os.replace(os.path.join(workdir, "trace.json"),
                   os.path.join(OUT, "traces", f"{workload}-seed{seed}.json"))
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def check_fingerprints(workload, seed, reps):
    """Gate every repetition's fingerprint against the reference and the first."""
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["fingerprints"].get(workload, {}).get(str(seed))
    first = None
    for rep in reps:
        fp = rep.get("fingerprint")
        if fp is None:
            continue
        if reference is not None and (len(fp) != len(reference) or any(
                abs(a - b) > FINGERPRINT_RTOL * abs(b)
                for a, b in zip(fp, reference))):
            rep["failures"].append(
                f"fingerprint {fp} differs from reference {reference} "
                f"by more than {FINGERPRINT_RTOL:g} relative")
        if first is None:
            first = fp
        elif fp != first:
            rep["failures"].append(
                f"fingerprint {fp} differs from the run's first {first}")


def summary(values):
    """(median, q1, q3, n) of a list of samples."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, len(values)


def measure(workload, seed, seconds, trace):
    """Run one workload for about ``seconds`` and return its record."""
    start = time.perf_counter()
    modes = ("plain", "trace") if trace else ("plain",)
    min_reps = 1 if trace else MIN_REPS
    run_worker(workload, seed, "setup")  # warm-up, not recorded
    probes, reps = [], []
    longest = 0.0
    while (len(reps) < min_reps * len(modes)
           or time.perf_counter() - start + longest <= seconds):
        began = time.perf_counter()
        probes.append(run_worker(workload, seed, "setup"))
        reps.append(run_worker(workload, seed, modes[len(reps) % len(modes)]))
        longest = max(longest, time.perf_counter() - began)
    check_fingerprints(workload, seed, reps)

    plain = [r for r in reps if r["mode"] == "plain" and "wall_s" in r]
    traced = [r for r in reps if r["mode"] == "trace" and "layers" in r]
    calib = [t for p in probes for t in p.get("calib_s", [])]
    scale = REFERENCE_PASS_S / statistics.median(calib) if calib else 0.0
    wall = [r["wall_s"] for r in plain]
    setup = [r["setup_s"] for r in probes + plain if "setup_s" in r]
    samples = {
        "wall_s": [t * scale for t in wall if scale],
        "setup_s": [t * scale for t in setup if scale],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "energy_residual_max": [r["energy_residual_max"] for r in plain
                                if "energy_residual_max" in r],
        "wall_raw_s": wall, "setup_raw_s": setup, "calib_s": calib,
    }
    metrics = {}
    if trace and traced and plain:
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median(r["layers"][key] for r in traced)
        metrics["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(samples["wall_raw_s"]) - 1.0)
    elif not trace and all(samples.values()):
        metrics = {key: summary(samples[key])[0] for key in END_TO_END_UNITS}
    failed = sum(1 for r in reps if r["failures"])
    probe_failures = [f for p in probes for f in p["failures"]]
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "seconds": seconds, "elapsed_s": time.perf_counter() - start,
        "attempted": len(reps), "failed": failed,
        "correct": failed == 0 and not probe_failures and bool(metrics),
        "samples": samples, "metrics": metrics,
        "absent": traced[0].get("absent", []) if traced else [],
        "fingerprint": next((r["fingerprint"] for r in reps
                             if "fingerprint" in r), None),
        "failures": probe_failures + [f for r in reps for f in r["failures"]],
        "reps": reps,
    }


def report(record):
    """Human-readable lines for one workload record."""
    tag = f"[perfbench] {record['workload']} seed {record['seed']}:"
    for failure in record["failures"]:
        print(f"{tag} FAILED {failure}")
    if record["trace"]:
        for name, value in record["metrics"].items():
            print(f"{tag} {name} = {value:.6g} {unit_of(name)}")
        for name in record["absent"]:
            print(f"{tag} layer {name} absent: its metrics read 0")
    else:
        for name, values in record["samples"].items():
            if values:
                median, q1, q3, n = summary(values)
                print(f"{tag} {name} = {median:.6g} {UNITS[name]} "
                      f"(median; q1 {q1:.6g}, q3 {q3:.6g}; n = {n})")
    print(f"{tag} failed_frac = {record['failed'] / record['attempted']:.6g} 1 "
          f"({record['failed']} of {record['attempted']} repetitions)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"perfbench: no bousspec package at {PACKAGE}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    # every worker runs on the same CPU, so the calibration passes time
    # the CPU the workloads run on: on a shared host one vCPU can run far
    # slower than another for minutes at a time
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = environment()
    print("[perfbench] environment: " + json.dumps(env))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        record = measure(name, args.seed, args.seconds, bool(args.trace))
        record["environment"] = env
        report(record)
        os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
        path = os.path.join(OUT, "results",
                            f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        records.append(record)

    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else record["workload"] + "."
        for name, value in record["metrics"].items():
            unit = unit_of(name) if args.trace else END_TO_END_UNITS[name]
            metrics[prefix + name] = {"value": value, "unit": unit}
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
