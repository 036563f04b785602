"""The benchmark's workloads run on the package as it is.

``perfbench/workloads.py`` combines raw field coefficients with grid
meshes, so a change of layout could break the benchmark without failing
any other test; this one runs a benchmark repetition as ``run.py`` does.
"""

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
FINGERPRINT_RTOL = 1e-12  # as perfbench/run.py gates it


def test_cli_oracle_repetition_passes_its_gates(tmp_path):
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"),
         "--workload", "cli_oracle", "--seed", "0", "--mode", "plain",
         "--workdir", str(tmp_path), "--result", str(result)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(result.read_text(encoding="utf-8"))
    assert out["failures"] == []
    reference = json.loads((PERFBENCH / "reference.json").read_text(
        encoding="utf-8"))["fingerprints"]["cli_oracle"]["0"]
    assert len(out["fingerprint"]) == len(reference)
    for got, want in zip(out["fingerprint"], reference):
        assert abs(got - want) <= FINGERPRINT_RTOL * abs(want)
