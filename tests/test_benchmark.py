"""The benchmark's workloads run on the package as it is.

``perfbench/workloads.py`` combines raw field coefficients with grid
meshes, so a change of layout could break the benchmark without failing
any other test; these run one seed-0 repetition of each workload as
``run.py`` does and check its gates and its final-state fingerprint.
"""

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
FINGERPRINT_RTOL = 1e-12  # as perfbench/run.py gates it


def check_repetition(tmp_path, workload):
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(PERFBENCH / "worker.py"),
         "--workload", workload, "--seed", "0", "--mode", "plain",
         "--workdir", str(tmp_path), "--result", str(result)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(result.read_text(encoding="utf-8"))
    assert out["failures"] == []
    reference = json.loads((PERFBENCH / "reference.json").read_text(
        encoding="utf-8"))["fingerprints"][workload]["0"]
    assert len(out["fingerprint"]) == len(reference)
    for got, want in zip(out["fingerprint"], reference):
        assert abs(got - want) <= FINGERPRINT_RTOL * abs(want)


def test_cli_oracle_repetition_passes_its_gates(tmp_path):
    check_repetition(tmp_path, "cli_oracle")


def test_rough2d_64_repetition_passes_its_gates(tmp_path):
    # the workload whose step loop the stepper's speed claims rest on
    check_repetition(tmp_path, "rough2d_64")
