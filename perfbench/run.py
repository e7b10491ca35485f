"""Run one phasepoint benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a phasepoint checkout: the library is imported from its
``src`` directory. The workloads (wigner, covariance, oracle, cli) and their
metrics are described in perfbench/README.md.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` they are the per-layer ones of a
traced run. The line before it records the host, the SHA-256 of the generated
inputs, the set-up samples and the error counts. Set-up times, like op times,
are taken relative to a reference run just before them (reference.py). Exits 1 without a result when the checkout has
no phasepoint source or a workload process does not finish cleanly.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from reference import REFERENCE_MS, interpreter_start

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7  # set-ups per untraced run; setup_s is the median of their gauged times
TIME_LIMIT = 170.0  # seconds for the whole run, set-ups included


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # One BLAS thread plus this idle parent stays within a 2-core host.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_worker(argv: list[str], deadline: float, setup_only: bool) -> tuple[float, dict | None]:
    """Start one worker; return seconds from start to its ``ready`` line, and its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *argv] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), start_new_session=True
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        with proc.stdout:
            ready = proc.stdout.readline().strip() == "ready"
            setup_s = time.perf_counter() - start
            lines = proc.stdout.read().splitlines()
    finally:
        timer.cancel()
        proc.wait()
    if not ready or proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode} (ready={ready})")
    if setup_only:
        return setup_s, None
    if not lines:
        raise RuntimeError("workload process printed no result")
    return setup_s, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one phasepoint benchmark workload.")
    parser.add_argument("--workload", required=True, choices=("wigner", "covariance", "oracle", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    if not Path("src/phasepoint/__init__.py").is_file():
        print("perfbench: run from the root of a phasepoint checkout (no src/phasepoint)",
              file=sys.stderr)
        return 1
    worker_argv = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        worker_argv.append("--tiny")
    deadline = time.monotonic() + TIME_LIMIT
    setups, setups_wall = [], []

    def set_up(setup_only: bool) -> dict | None:
        """One worker, right after a bare interpreter start that gauges the host."""
        start = time.perf_counter()
        interpreter_start()
        reference_s = time.perf_counter() - start
        setup_s, result = run_worker(worker_argv, deadline, setup_only)
        setups_wall.append(setup_s)
        setups.append(setup_s / reference_s * REFERENCE_MS["cli"] / 1000)
        return result

    try:
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                set_up(setup_only=True)
        result = set_up(setup_only=False)
    except (RuntimeError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    attempted, failed = result["attempted"], result["failed"]
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": result["inputs_sha256"],
        "host": result["host"],
        "setup_s_samples": setups,
        "setup_wall_s": setups_wall,
        "wall": result["wall"],
        "error_rate": failed / attempted,
        "setup_failures": result["setup_failures"],
        "errors": result["errors"],
    }))
    print(json.dumps({
        "correct": failed == 0 and result["setup_failures"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
