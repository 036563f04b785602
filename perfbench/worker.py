"""One repetition of one workload, in a fresh process started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE \
        --workdir DIR --result FILE

``MODE`` is ``setup`` (set-up only, a ``setup_s`` sample, then
``CALIBRATION_PASSES`` timed passes of ``calibrate.py``), ``plain``
(set-up, timed body, checks) or ``trace`` (the same with the tracer
installed between the import and the set-up).  The result is one JSON
object written to ``FILE``; a failed check is reported there, not
raised.  Only the standard library is imported before the set-up clock
starts, so ``setup_s`` includes the import of numpy and ``bousspec``.
"""

import argparse
import importlib
import json
import os
import resource
import sys
import time
import traceback
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CALIBRATION_PASSES = 3
MODULES = ("grid", "fields", "nonlinear", "galerkin",
           "stepper", "diagnostics", "fileio", "cli")


def import_bousspec():
    """The checkout's own package and its modules, as a namespace."""
    sys.path.insert(0, SRC)
    package = importlib.import_module("bousspec")
    found = os.path.dirname(os.path.dirname(os.path.realpath(package.__file__)))
    if found != os.path.realpath(SRC):
        raise ImportError(f"bousspec imported from {package.__file__}, "
                          f"not from {SRC}")
    return SimpleNamespace(**{name: importlib.import_module(f"bousspec.{name}")
                              for name in MODULES})


def run(args):
    result = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
              "failures": []}
    t0 = time.perf_counter()
    bs = import_bousspec()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ctx = workload.setup(bs, args.workdir, args.seed)
    result["setup_s"] = time.perf_counter() - t0
    if args.mode == "setup":
        import calibrate

        result["calib_s"] = calibrate.passes(CALIBRATION_PASSES)
        return result

    t1 = time.perf_counter()
    out = workload.body(bs, ctx)
    result["wall_s"] = time.perf_counter() - t1
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(os.path.join(args.workdir, "trace.json"))
        result["layers"] = tracer.layer_metrics()
        result["absent"] = tracer.absent

    outcome = workload.check(bs, ctx, out)
    result["energy_residual_max"] = outcome.energy_residual_max
    result["fingerprint"] = outcome.fingerprint
    result["failures"] += outcome.failures
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "trace"),
                        required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    try:
        result = run(args)
        code = 0
    except Exception as err:  # reported to run.py as a failed repetition
        traceback.print_exc()
        result = {"workload": args.workload, "seed": args.seed,
                  "mode": args.mode,
                  "failures": [f"{type(err).__name__}: {err}"]}
        code = 1
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
