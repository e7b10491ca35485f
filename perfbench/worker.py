"""One workload process: set up, signal ready, measure, print one JSON result line.

Started by run.py with ``src`` on PYTHONPATH. Prints ``ready`` on stdout once
set-up is done (run.py times set-up from process start to that line), then,
unless ``--setup-only``, runs the workload's cycle of ops for ``--seconds``
(at least once) and prints its result as the last line. Each op runs right
after its workload's reference routine (reference.py); latencies and
ops_per_s come from each op's wall time over the reference's (see
``Timed.costs``), and the plain wall-time figures go into the result under
``wall``.

With ``--trace 1`` set-up is traced and starts with a layer probe: every
workload's warm-up at tiny sizes, so that each layer's metrics are measured on
every workload. The timed phase is split in two halves, untraced then traced,
whose ops_per_s give the tracing overhead. After both come the workload's
traced-only calls (cli: commands in process) and the peak allocations, measured
in calls outside any span.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

import workloads
from recorder import LAYERS, Recorder
import reference

PROBE_SEED = 20240811  # layer-probe inputs are the same on every run


@dataclass
class Timed:
    """What one timed phase measured."""

    cycle: list  # (label, layer, op, input key), as run
    reference_ms: float
    ratios: dict  # input key -> each op's wall time over its reference's
    latencies: list  # wall time of every op, in order
    failed: int
    wall: float

    def costs(self) -> list[float]:
        """Per cycle entry, its input's cost in seconds at the reference speed, sorted.

        The cost is the median over the run of the op's wall time over the
        wall time of the reference run just before it, times REFERENCE_MS;
        the cycle gives each input its weight in the mix.
        """
        scale = self.reference_ms / 1000
        return sorted(statistics.median(self.ratios[key]) * scale for *_, key in self.cycle)

    def ops_per_s(self) -> float:
        costs = self.costs()
        return len(costs) / sum(costs)


def measure(rec: Recorder, workload: str, cycle, seconds: float) -> Timed:
    """Run the cycle's ops in turn until ``seconds`` have passed and every entry has run."""
    gauge = reference.build(workload)
    ratios = {key: [] for *_, key in cycle}
    latencies, failed = [], 0
    start = time.perf_counter()
    deadline = start + seconds
    for label, layer, op, key in itertools.cycle(cycle):
        t0 = time.perf_counter()
        gauge()
        t1 = time.perf_counter()
        ok = rec.run_op(label, layer, op)
        now = time.perf_counter()
        latencies.append(now - t1)
        ratios[key].append(latencies[-1] / (t1 - t0))
        failed += not ok
        if now >= deadline and len(latencies) >= len(cycle):
            return Timed(cycle, reference.REFERENCE_MS[workload], ratios, latencies, failed,
                         now - start)


def run_setup(rec: Recorder, ops) -> None:
    for label, layer, op in ops:
        if not rec.run_op(label, layer, op):
            rec.setup_failures += 1


def p50_p90_ms(latencies) -> tuple[float, float]:
    ordered = sorted(latencies)
    return (1000 * statistics.median(ordered),
            1000 * statistics.quantiles(ordered, n=10, method="inclusive")[-1])


def end_to_end(timed: Timed, peak_rss_mb: float) -> dict:
    p50, p90 = p50_p90_ms(timed.costs())
    attempted = len(timed.latencies)
    return {
        "ops_per_s": (timed.ops_per_s(), "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "pass_rate": ((attempted - timed.failed) / attempted, "ratio"),
    }


def wall_figures(timed: Timed) -> dict:
    """The same figures from every op's wall time, interference included."""
    p50, p90 = p50_p90_ms(timed.latencies)
    return {"ops_per_s": len(timed.latencies) / sum(timed.latencies), "latency_p50_ms": p50,
            "latency_p90_ms": p90, "seconds": timed.wall}


def family_bytes(n: int, parity: str) -> int:
    """Computed size of the dense kernel cache: points x N^2 complex entries."""
    return workloads.lattice_modulus(parity, n) ** 2 * n * n * 16


def family_peak_alloc_mb(n: int, parity: str) -> float:
    """tracemalloc peak of one cold delta_family build, in a fresh interpreter."""
    code = (
        "import tracemalloc\n"
        "from phasepoint import delta_family\n"
        "tracemalloc.start()\n"
        f"delta_family({n}, {parity!r})\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, text=True)
    return int(out.stdout) / 2**20


def call_peak_alloc_mb(fn, args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def layer_metrics(rec: Recorder, built, untraced: Timed, traced: Timed) -> dict:
    def busy(name):
        return (sum(rec.durations(name)), "s")

    def calls(name):
        return (len(rec.durations(name)), "count")

    def ms(name, reduce=statistics.median):
        values = rec.durations(name)
        return (1000 * reduce(values) if values else 0.0, "ms")

    def noted(key, reduce, unit):
        values = rec.notes.get(key, [])
        return (float(reduce(values)) if values else 0.0, unit)

    families = {family for wl in built for family in wl.families}
    largest = max(families, key=lambda f: family_bytes(*f))
    alloc = {}
    for wl in built:
        for name, fn, make_args in wl.alloc_calls:
            alloc[name] = max(alloc.get(name, 0.0), call_peak_alloc_mb(fn, make_args()))

    untraced_rate, traced_rate = untraced.ops_per_s(), traced.ops_per_s()
    metrics = {
        "symplectic.decompose.calls": calls("symplectic.decompose"),
        "symplectic.decompose.busy_s": busy("symplectic.decompose"),
        "symplectic.word_len.mean": noted("symplectic.word_len", statistics.mean, "count"),
        "metaplectic.u_of.calls": calls("metaplectic.u_of"),
        "metaplectic.u_of.busy_s": busy("metaplectic.u_of"),
        "metaplectic.covariance_residual.calls": calls("metaplectic.covariance_residual"),
        "metaplectic.covariance_residual.busy_s": busy("metaplectic.covariance_residual"),
        "metaplectic.phase_defect.busy_s": busy("metaplectic.phase_defect"),
        "metaplectic.worst_residual": noted("metaplectic.residual", max, "abs"),
        "metaplectic.tolerance_margin": noted("metaplectic.margin", min, "decades"),
        "qops.delta_family.busy_s": busy("qops.delta_family"),
        "qops.delta_family.bytes": (sum(family_bytes(*f) for f in families), "B_computed"),
        "qops.delta_family.peak_alloc_mb": (family_peak_alloc_mb(*largest), "MB"),
        "wigner.wigner_of.calls": calls("wigner.wigner_of"),
        "wigner.wigner_of.busy_s": busy("wigner.wigner_of"),
        "wigner.weyl_quantize.busy_s": busy("wigner.weyl_quantize"),
        "wigner.marginals.busy_s": busy("wigner.marginals"),
        "wigner.wigner_of.peak_alloc_mb": (alloc["wigner.wigner_of"], "MB"),
        "wigner.roundtrip_err": noted("wigner.roundtrip_err", max, "abs"),
        "oracle.verify_uniqueness.busy_s": busy("oracle.verify_uniqueness"),
        "oracle.verify_sw_kernel.busy_s": busy("oracle.verify_sw_kernel"),
        "oracle.solve_covariance.busy_s": busy("oracle.solve_covariance"),
        "oracle.system_bytes": noted("oracle.system_bytes", max, "B_computed"),
        "oracle.solve_covariance.peak_alloc_mb": (alloc["oracle.solve_covariance"], "MB"),
        "oracle.nullity_ok": noted("oracle.nullity_ok", statistics.mean, "ratio"),
        "cli.startup_ms": ms("cli.startup"),
        "cli.decompose.p50_ms": ms("cli.decompose"),
        "cli.rep.p50_ms": ms("cli.rep"),
        "cli.wigner.p50_ms": ms("cli.wigner"),
        "cli.verify.p50_ms": ms("cli.verify"),
        "cli.rep.inproc_ms": ms("cli.rep.inproc", statistics.mean),
        "cli.wigner.inproc_ms": ms("cli.wigner.inproc", statistics.mean),
        "cli.verify.inproc_ms": ms("cli.verify.inproc", statistics.mean),
        "cli.rep.peak_rss_mb": noted("cli.rep.rss_mb", max, "MB"),
        "cli.stdout_bytes": noted("cli.stdout_bytes", statistics.mean, "B"),
        "trace.ops_per_s_untraced": (untraced_rate, "1/s"),
        "trace.ops_per_s_traced": (traced_rate, "1/s"),
        "trace.overhead": (untraced_rate / traced_rate - 1.0, "ratio"),
    }
    for layer, seconds in rec.self_times().items():
        metrics[f"{layer}.self_s"] = (seconds, "s")
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (rec.errors[layer], "count")
    return metrics


def host_record() -> dict:
    """Core count, CPU model, versions, and the BLAS library with its thread count in effect."""
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": None,
    }
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                record["blas_threads"] = getter()
                return record
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    rec = Recorder(tracing=bool(args.trace))
    workload = workloads.build(args.workload, args.seed, rec, args.tiny)
    built = [workload]
    try:
        if args.trace:
            # The probe goes first, while this process is small: a child's
            # ru_maxrss includes the RSS of the parent that spawned it.
            for name in workloads.NAMES:
                probe = workloads.build(name, PROBE_SEED, rec, True)
                built.append(probe)
                run_setup(rec, probe.warm_up + probe.traced_only + probe.probe)
        run_setup(rec, workload.warm_up)
        print("ready", flush=True)
        if args.setup_only:
            return 0

        if args.trace:
            rec.tracing = False
            untraced = measure(rec, args.workload, workload.cycle, args.seconds / 2)
            rec.tracing = True
            traced = measure(rec, args.workload, workload.cycle, args.seconds / 2)
            run_setup(rec, workload.traced_only)
            attempted = len(untraced.latencies) + len(traced.latencies)
            failed = untraced.failed + traced.failed
            metrics = layer_metrics(rec, built, untraced, traced)
            wall = {"untraced": wall_figures(untraced), "traced": wall_figures(traced)}
        else:
            timed = measure(rec, args.workload, workload.cycle, args.seconds)
            attempted, failed = len(timed.latencies), timed.failed
            own_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            peak = workload.peak_rss_mb() if workload.peak_rss_mb else own_rss_mb
            metrics = end_to_end(timed, peak)
            wall = wall_figures(timed)
    finally:
        for wl in built:
            if wl.cleanup:
                wl.cleanup()

    result = {
        "attempted": attempted,
        "failed": failed,
        "setup_failures": rec.setup_failures,
        "errors": rec.errors,
        "inputs_sha256": workload.digest,
        "wall": wall,
        "host": host_record(),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
