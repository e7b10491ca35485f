"""Smoke test of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/smoke.py

It checks that
- every workload runs at tiny sizes, untraced and traced, with no failed op,
  and prints exactly the metric names of BENCHMARK.json, each with its unit;
- the same seed gives the same inputs (SHA-256) and another seed other inputs;
- a planted NaN residual, and a NaN table from the library, count as errors;
- perfbench/layers.json maps every per-layer metric to known workloads;
- outside a checkout the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]


def run(workload: str, seed: int, trace: int, cwd: Path = Path(".")) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


def check_workloads(spec: dict) -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace in (0, 1):
            proc = run(workload, 7, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr)
            info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == expected[trace], (workload, trace, set(units) ^ set(expected[trace]))
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (name, metric)
            assert info["host"]["blas_threads"] == 1, info["host"]
            digests[trace] = info["inputs_sha256"]
        assert digests[0] == digests[1], (workload, digests)
        other = json.loads(run(workload, 8, 0).stdout.strip().splitlines()[-2])
        assert other["inputs_sha256"] != digests[0], workload
        print(f"ok  {workload}: metrics, units and seeded inputs")


def check_nan_gate() -> None:
    import numpy as np

    import phasepoint as pp
    import workloads
    from recorder import Recorder

    for planted in (float("nan"), float("inf"), -float("nan")):
        rec = Recorder(tracing=True)
        ok = rec.run_op("planted", "metaplectic",
                        lambda: rec.check("metaplectic", "planted residual", planted, 1e-10))
        assert not ok and rec.errors["metaplectic"] == 1, (planted, rec.errors)
        assert "metaplectic.residual" not in rec.notes
    rec = Recorder(tracing=False)
    assert rec.run_op("passing", "metaplectic", lambda: rec.check("metaplectic", "r", 1e-16, 1e-10))
    assert not rec.run_op("raising", "oracle", lambda: 1 / 0) and rec.errors["oracle"] == 1

    # The library accepts a NaN amplitude and returns an all-NaN table; the op must fail.
    state = pp.QuantumState(np.array([np.nan, 1.0, 0.0]))
    rec = Recorder(tracing=False)
    assert not rec.run_op("nan state", "wigner", lambda: workloads.wigner_op(rec, state, "odd"))
    assert rec.errors["wigner"] >= 1, rec.errors
    print("ok  planted NaN residuals and NaN tables count as errors")


def check_layer_map(spec: dict) -> None:
    layer_map = json.loads((HERE / "layers.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workload_names = {w["name"] for w in spec["workloads"]}
    mapped = set()
    for entry in layer_map["map"]:
        mapped.update(entry["per_layer"])
        assert set(entry["moves"]) <= end_to_end, entry
        assert set(entry["on"]) | set(entry["not_on"]) == workload_names, entry
        assert not set(entry["on"]) & set(entry["not_on"]), entry
    assert mapped == names, mapped ^ names
    print("ok  layers.json covers every per-layer metric")


def check_bare_directory() -> None:
    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as bare:
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = run("wigner", 1, 0, cwd=Path(bare))
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok  outside a checkout: non-zero exit, no result")


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    check_nan_gate()
    check_layer_map(spec)
    check_bare_directory()
    check_workloads(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
