"""Span tracer for the traced benchmark run, installed from outside the package.

``Tracer.install`` wraps the public functions of every ``bousspec``
module, a few private entry points the layer metrics need (the CLI
subcommand handlers and ``BudgetAccumulator.update``), and the FFT
entry points of ``numpy.fft``.  A wrapper replaces the original on
every loaded ``bousspec`` module that binds it, so calls made through
``from .x import f`` bindings in consumer modules are traced as well.
Nothing in the package is edited; ``uninstall`` puts every binding back.

Each call becomes a span ``[name, start, end, parent]`` kept in memory
and written out by ``dump`` when the run ends.  A span's self time is
its duration minus the time its direct children cover (calls nest on a
single thread, so children never overlap).

A name listed here that a later version of the package no longer
defines is reported in ``absent`` and its metrics read 0, as are the
counters of a call whose arguments or result no longer have the
expected shape; the trace never fails on either.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
import types

import numpy
import numpy.fft

FFT_FUNCTIONS = ("fftn", "ifftn", "rfftn", "irfftn")

# private callables the metrics need, as (span name, module, dotted attribute)
EXTRA_SPANS = (
    ("cli.run", "cli", "_cmd_run"),
    ("cli.diagnose", "cli", "_cmd_diagnose"),
    ("cli.spectrum", "cli", "_cmd_spectrum"),
    ("diagnostics.budget_update", "diagnostics", "BudgetAccumulator.update"),
)

# names whose absence is worth reporting: each feeds a per-layer metric
EXPECTED_SPANS = (
    "stepper.step", "stepper.run_simulation",
    "nonlinear.convect_state", "nonlinear.convect_convolution",
    "fields.leray_project", "fields.enforce_constraints", "fields.norm",
    "diagnostics.build_record", "diagnostics.fit_radius",
    "diagnostics.gevrey_energy",
    "fileio.write_snapshot", "fileio.read_snapshot",
    "fileio.write_diagnostics", "fileio.parse_config",
    "grid.make_grid",
    "galerkin.build_basis", "galerkin.assemble_tensors",
    "galerkin.integrate_galerkin",
) + tuple(span for span, _, _ in EXTRA_SPANS) + tuple(
    f"fft.{name}" for name in FFT_FUNCTIONS
)


def _fft_cost(name, args, kwargs, result):
    """(points, flops, bytes) of one numpy.fft call, computed from shapes.

    The transform length N is the product of the real-space lengths over
    the transformed axes; flops are 5 N log2 N per complex transform and
    2.5 N log2 N per real one, times the batch count.  Bytes are input
    plus output array sizes, not measured memory traffic.
    """
    a = args[0]
    real_side = result if name == "irfftn" else a
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    if axes is None:
        axes = range(real_side.ndim)
    n = math.prod(real_side.shape[ax] for ax in axes)
    batch = real_side.size // n if n else 0
    per = 2.5 if name in ("rfftn", "irfftn") else 5.0
    flops = per * n * math.log2(n) * batch if n > 1 else 0.0
    return a.size, flops, a.nbytes + result.nbytes


def _observe_fft(tracer, name, args, kwargs, result):
    points, flops, nbytes = _fft_cost(name[len("fft."):], args, kwargs, result)
    tracer.count("fft.points", points)
    tracer.count("fft.flops", flops)
    tracer.count("fft.bytes", nbytes)


def _observe_file(arg_index):
    def observe(tracer, name, args, kwargs, result):
        tracer.count(f"{name}.bytes", os.path.getsize(args[arg_index]))
    return observe


def _observe_run(tracer, name, args, kwargs, result):
    held = len(result.snapshots)
    tracer.counters["stepper.snapshots_held"] = max(
        tracer.counters.get("stepper.snapshots_held", 0), held
    )


def _observe_tensors(tracer, name, args, kwargs, result):
    # bytes over every array the system stores, whatever its format;
    # nnz and stored entries over the advection tensors A and B
    tracer.count("galerkin.tensor_bytes", sum(
        value.nbytes for value in vars(result).values()
        if hasattr(value, "nbytes")
    ))
    for attr in ("A", "B"):
        tensor = getattr(result, attr, None)
        if tensor is None or not hasattr(tensor, "size"):
            continue
        tracer.count("galerkin.tensor_nnz", int(numpy.count_nonzero(tensor)))
        tracer.count("galerkin.tensor_stored", int(tensor.size))


OBSERVERS = {
    "stepper.run_simulation": _observe_run,
    "fileio.write_snapshot": _observe_file(2),
    "fileio.read_snapshot": _observe_file(0),
    "fileio.write_diagnostics": _observe_file(1),
    "galerkin.assemble_tensors": _observe_tensors,
}


def unit_of(metric):
    """Unit of a per-layer metric, read off its name."""
    last = metric.rsplit(".", 1)[-1]
    if last.startswith("ms_"):
        return "ms"
    if last.endswith("_s"):
        return "s"
    if "bytes" in last:
        return "B"
    if "flops" in last:
        return "flop"
    if last.endswith(("_frac", "_fill")):
        return "1"
    return "count"


class Tracer:
    """Spans and counters of one traced repetition."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.absent = []
        self._stack = []
        self._undo = []

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name, fn, observe):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                try:
                    observe(self, name, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError,
                        ValueError, OSError):
                    # the call no longer looks as the counter expects
                    if name + " counters" not in self.absent:
                        self.absent.append(name + " counters")
            return result

        return traced

    def _targets(self):
        """(span name, owner, attribute, original) for every traced callable."""
        for name, module in sorted(sys.modules.items()):
            if not name.startswith("bousspec."):
                continue
            short = name[len("bousspec."):]
            for attr in getattr(module, "__all__", ()):
                value = getattr(module, attr, None)
                if (isinstance(value, types.FunctionType)
                        and value.__module__ == module.__name__):
                    yield f"{short}.{attr}", module, attr, value
        for span, short, dotted in EXTRA_SPANS:
            owner = sys.modules.get(f"bousspec.{short}")
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            value = getattr(owner, attr, None)
            if callable(value):
                yield span, owner, attr, value
        fft = numpy.fft
        for attr in FFT_FUNCTIONS:
            value = getattr(fft, attr, None)
            if value is not None:
                yield f"fft.{attr}", fft, attr, value

    def install(self):
        """Wrap every target on its owner and on each module binding it."""
        bound = [module for name, module in list(sys.modules.items())
                 if name == "bousspec" or name.startswith("bousspec.")]
        fft = numpy.fft
        installed = set()
        for span, owner, attr, original in list(self._targets()):
            observe = _observe_fft if owner is fft else OBSERVERS.get(span)
            wrapper = self._wrap(span, original, observe)
            self._set(owner, attr, wrapper)
            for module in bound:
                for key, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        self._set(module, key, wrapper)
            installed.add(span)
        self.absent += [name for name in EXPECTED_SPANS if name not in installed]

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counters": self.counters,
                       "absent": self.absent}, fh)

    def layer_metrics(self):
        """Per-layer metric values (name -> number) from the recorded spans."""
        durations = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            durations.setdefault(name, []).append(end - start)
            if parent >= 0:
                child_time[parent] += end - start
        self_time = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            self_time[name] = self_time.get(name, 0.0) + (end - start - covered)

        def calls(name):
            return len(durations.get(name, ()))

        def total(name):
            return sum(durations.get(name, ()))

        def ms_pct(name, q):
            values = sorted(durations.get(name, ()))
            if not values:
                return 0.0
            # nearest-rank percentile
            rank = max(1, math.ceil(q / 100 * len(values)))
            return 1e3 * values[rank - 1]

        def per(amount, base):
            return amount / base if base else 0.0

        steps = calls("stepper.step")
        records = calls("diagnostics.build_record")
        fft = [f"fft.{name}" for name in FFT_FUNCTIONS]
        c = self.counters
        nnz = c.get("galerkin.tensor_nnz", 0)
        return {
            "stepper.step.ms_p50": ms_pct("stepper.step", 50),
            "stepper.step.ms_p98": ms_pct("stepper.step", 98),
            "stepper.step.self_s": self_time.get("stepper.step", 0.0),
            "stepper.snapshots_held": c.get("stepper.snapshots_held", 0),
            "nonlinear.convect_state.calls": calls("nonlinear.convect_state"),
            "nonlinear.convect_state.total_s": total("nonlinear.convect_state"),
            "nonlinear.convect_convolution.total_s":
                total("nonlinear.convect_convolution"),
            "fft.calls_per_step": per(sum(calls(n) for n in fft), steps),
            "fft.points_per_step": per(c.get("fft.points", 0), steps),
            "fft.total_s": sum(total(n) for n in fft),
            "fft.flops_per_step": per(c.get("fft.flops", 0), steps),
            "fft.bytes_per_step": per(c.get("fft.bytes", 0), steps),
            "fields.leray_project.calls_per_step":
                per(calls("fields.leray_project"), steps),
            "fields.leray_project.total_s": total("fields.leray_project"),
            "fields.enforce_constraints.calls_per_step":
                per(calls("fields.enforce_constraints"), steps),
            "fields.enforce_constraints.total_s":
                total("fields.enforce_constraints"),
            "fields.norm.calls_per_record": per(calls("fields.norm"), records),
            "diagnostics.build_record.ms_p50":
                ms_pct("diagnostics.build_record", 50),
            "diagnostics.build_record.total_s":
                total("diagnostics.build_record"),
            "diagnostics.fit_radius.total_s": total("diagnostics.fit_radius"),
            "diagnostics.budget_update.total_s":
                total("diagnostics.budget_update"),
            "diagnostics.gevrey_energy.total_s":
                total("diagnostics.gevrey_energy"),
            "fileio.write_snapshot.calls": calls("fileio.write_snapshot"),
            "fileio.write_snapshot.bytes": c.get("fileio.write_snapshot.bytes", 0),
            "fileio.write_snapshot.ms_p50": ms_pct("fileio.write_snapshot", 50),
            "fileio.read_snapshot.calls": calls("fileio.read_snapshot"),
            "fileio.read_snapshot.bytes": c.get("fileio.read_snapshot.bytes", 0),
            "fileio.read_snapshot.ms_p50": ms_pct("fileio.read_snapshot", 50),
            "fileio.write_diagnostics.total_s": total("fileio.write_diagnostics"),
            "fileio.write_diagnostics.bytes":
                c.get("fileio.write_diagnostics.bytes", 0),
            "fileio.parse_config.total_s": total("fileio.parse_config"),
            "grid.make_grid.calls": calls("grid.make_grid"),
            "grid.make_grid.total_s": total("grid.make_grid"),
            "galerkin.build_basis.total_s": total("galerkin.build_basis"),
            "galerkin.assemble_tensors.total_s": total("galerkin.assemble_tensors"),
            "galerkin.integrate_galerkin.total_s":
                total("galerkin.integrate_galerkin"),
            "galerkin.tensor_nnz": nnz,
            "galerkin.tensor_bytes": c.get("galerkin.tensor_bytes", 0),
            "galerkin.tensor_fill": per(nnz, c.get("galerkin.tensor_stored", 0)),
            "cli.run.total_s": total("cli.run"),
            "cli.diagnose.total_s": total("cli.diagnose"),
            "cli.spectrum.total_s": total("cli.spectrum"),
        }
