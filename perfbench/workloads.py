"""The benchmark's four workloads: seeded inputs, the op on each input, and its checks.

Each workload is a closed loop with one client. ``build`` turns a seed into
inputs before anything is timed, so the library receives only generated
inputs; every op is bound to one input. ``CYCLES`` fixes the order of op
kinds in one round, and a cycle is ``POOL`` rounds, in which each kind walks
through its inputs. Each cycle entry carries the key of its input, so that
the worker can time every input on its own and weigh it by its share of the
cycle. The weights keep the median and p90 latency
inside one size cluster each rather than on the boundary between two.

Sizes are the full ones unless ``tiny`` is set; tiny sizes serve the smoke
test and the layer probe of the traced run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import phasepoint as pp

ODD, EVEN = "odd", "even"
WORKDIR = Path("perfbench") / "_work"  # state files and child stderr, inside the checkout
POOL = 2  # inputs generated per op kind, and rounds per cycle
WORD_LENGTH = 6  # generator factors per random element, as in the test suite
DECOMPOSE_MODULUS = 2**61 - 1

SIZES = {
    "wigner": {False: [(ODD, 41), (EVEN, 16)], True: [(ODD, 5), (EVEN, 4)]},
    "covariance": {False: [(ODD, 31), (EVEN, 32)], True: [(ODD, 5), (EVEN, 4)]},
    "oracle": {False: [(ODD, 9), (EVEN, 8)], True: [(ODD, 3), (EVEN, 4)]},
}
CLI_SIZES = {
    False: {"decompose": DECOMPOSE_MODULUS, "rep": [(ODD, 63), (EVEN, 32)],
            "wigner": 127, "verify": [(ODD, 7), (EVEN, 4)]},
    True: {"decompose": 5, "rep": [(ODD, 3), (EVEN, 2)],
           "wigner": 3, "verify": [(ODD, 3), (EVEN, 2)]},
}
# Op kinds of one round, as indexes into the size list (cli: into its argv
# slots decompose, rep odd, rep even, wigner, verify odd, verify even; the
# nine decompose pairs put the cli median among start-up-bound children;
# a cli cycle is one round, each argv being a single input).
CYCLES = {
    "wigner": (0, 1, 1),
    "covariance": (0, 0, 1),
    "oracle": (0, 0, 1),
    "cli": (0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 4, 5),
}

TOL_EXACT = 1e-12  # float identities of one table or kernel
TOL_COVARIANCE = 1e-10
TOL_PROJECTIVE = 1e-9


@dataclass
class Workload:
    cycle: list  # (label, layer, op, input key) in cycle order
    warm_up: list  # (label, layer, op), one per (N, parity), run during set-up
    digest: str  # SHA-256 of every generated input
    alloc_calls: list = field(default_factory=list)  # (name, fn, make_args) for tracemalloc
    families: list = field(default_factory=list)  # (n, parity) of delta_family builds
    traced_only: list = field(default_factory=list)  # (label, layer, op), after a traced run
    probe: list = field(default_factory=list)  # (label, layer, op), when run as the layer probe
    cleanup: object = None
    peak_rss_mb: object = None  # overrides the worker's own peak RSS (cli: largest child)


def interleave(kinds, order) -> list:
    """``POOL`` rounds of ``order``; each time a kind comes up it takes its next input.

    ``kinds`` holds (label, layer, ops), one op per input.
    """
    cycle, drawn = [], [0] * len(kinds)
    for _ in range(POOL):
        for i in order:
            label, layer, ops = kinds[i]
            k = drawn[i] % len(ops)
            drawn[i] += 1
            cycle.append((label, layer, ops[k], f"{label}#{k}"))
    return cycle


def first_inputs(kinds) -> list:
    """One warm-up op per kind, on its first input."""
    return [(label, layer, ops[0]) for label, layer, ops in kinds]


# -- seeded inputs, made without the library under test ----------------------


def lattice_modulus(parity: str, n: int) -> int:
    return n if parity == ODD else 2 * n


def random_factors(rng, modulus: int) -> tuple:
    return tuple(
        ("+" if rng.integers(2) else "-", int(rng.integers(1, modulus)))
        for _ in range(WORD_LENGTH)
    )


def mat_mul(x, y, m: int) -> tuple:
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % m, (a * f + b * h) % m, (c * e + d * g) % m, (c * f + d * h) % m)


def evaluate_word(factors, m: int) -> tuple:
    """Product of h+^k = [[1,k],[0,1]] and h-^k = [[1,0],[k,1]], left to right."""
    result = (1, 0, 0, 1)
    for sign, k in factors:
        result = mat_mul(result, (1, k, 0, 1) if sign == "+" else (1, 0, k, 1), m)
    return result


def random_entries(rng, modulus: int) -> tuple:
    return evaluate_word(random_factors(rng, modulus), modulus)


def random_amplitudes(rng, n: int) -> np.ndarray:
    vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return vec / np.linalg.norm(vec)


class Digest:
    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, value) -> None:
        if isinstance(value, np.ndarray):
            self._hash.update(np.ascontiguousarray(value).tobytes())
        else:
            self._hash.update(repr(value).encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def finite(array) -> bool:
    return bool(np.isfinite(np.asarray(array)).all())


# -- wigner --------------------------------------------------------------------


def wigner_workload(rec, rng, tiny: bool) -> Workload:
    digest = Digest()
    kinds, pools = [], []
    for parity, n in SIZES["wigner"][tiny]:
        states = []
        for _ in range(POOL):
            amps = random_amplitudes(rng, n)
            digest.add(amps)
            states.append(pp.QuantumState(amps))
        pools.append(states)
        kinds.append((f"wigner.{parity}{n}", "wigner",
                      [lambda state=state, parity=parity: wigner_op(rec, state, parity)
                       for state in states]))
    alloc = [("wigner.wigner_of", pp.wigner_of,
              lambda state=pool_states[0], parity=parity: (state, parity))
             for (parity, _), pool_states in zip(SIZES["wigner"][tiny], pools)]
    return Workload(
        cycle=interleave(kinds, CYCLES["wigner"]),
        warm_up=first_inputs(kinds),
        digest=digest.hexdigest(),
        alloc_calls=alloc,
    )


def wigner_op(rec, state, parity: str) -> None:
    n = state.dim
    table = rec.call("wigner.wigner_of", pp.wigner_of, state, parity)
    margins = rec.call("wigner.marginals", pp.marginals, table)
    quantized = rec.call("wigner.weyl_quantize", pp.weyl_quantize, table.values, parity)

    values = table.values
    amps = state.amplitudes
    rec.expect("wigner", "finite table", finite(values))
    rec.check("wigner", "imaginary part", table.imag_residual, TOL_EXACT)
    rec.check("wigner", "table sum", abs(values.sum() - 1.0), TOL_EXACT)
    position, momentum = margins.position, margins.momentum
    if parity == EVEN:
        rec.check("wigner", "ghost position marginal", np.abs(position[1::2]).max(), TOL_EXACT)
        rec.check("wigner", "ghost momentum marginal", np.abs(momentum[1::2]).max(), TOL_EXACT)
        position, momentum = position[::2], momentum[::2]
    rec.check("wigner", "position marginal", np.abs(position - np.abs(amps) ** 2).max(), TOL_EXACT)
    spectrum = np.abs(np.fft.fft(amps)) ** 2 / n
    rec.check("wigner", "momentum marginal", np.abs(momentum - spectrum).max(), TOL_EXACT)
    roundtrip = np.abs(quantized - np.outer(amps, amps.conj()) / n).max()
    if rec.check("wigner", "weyl_quantize round trip", roundtrip, TOL_EXACT):
        rec.note("wigner.roundtrip_err", roundtrip)


# -- covariance ----------------------------------------------------------------


def covariance_workload(rec, rng, tiny: bool) -> Workload:
    digest = Digest()
    kinds, families = [], []
    for parity, n in SIZES["covariance"][tiny]:
        m = lattice_modulus(parity, n)
        triples = []
        for _ in range(POOL):
            first, second = random_entries(rng, m), random_entries(rng, m)
            product = mat_mul(first, second, m)
            digest.add((m, first, second))
            triples.append(tuple(pp.SympMat(*e, modulus=m) for e in (first, second, product)))
        kinds.append((f"covariance.{parity}{n}", "metaplectic",
                      [lambda triple=triple, parity=parity: covariance_op(rec, *triple, parity)
                       for triple in triples]))
        families.append((n, parity))
    warm = [family_warm_up(rec, n, parity) for n, parity in families] + first_inputs(kinds)
    return Workload(
        cycle=interleave(kinds, CYCLES["covariance"]),
        warm_up=warm,
        digest=digest.hexdigest(),
        families=families,
    )


def family_warm_up(rec, n: int, parity: str):
    """The cold build of the dense kernel cache, timed on its own."""
    return (f"delta_family.{parity}{n}", "qops",
            lambda: rec.call("qops.delta_family", pp.delta_family, n, parity))


def covariance_op(rec, s, s2, s12, parity: str) -> None:
    word = rec.call("symplectic.decompose", pp.decompose, s)
    rec.note("symplectic.word_len", len(word.factors))
    rec.expect("symplectic", "decompose round trip",
               evaluate_word(word.factors, s.modulus) == s.entries)
    u1 = rec.call("metaplectic.u_of", pp.u_of, s, parity).matrix
    u2 = rec.call("metaplectic.u_of", pp.u_of, s2, parity).matrix
    u12 = rec.call("metaplectic.u_of", pp.u_of, s12, parity).matrix
    # The library's residuals skip NaN entries, so non-finite matrices fail here first.
    if not rec.expect("metaplectic", "finite unitaries", finite(u1) and finite(u2) and finite(u12)):
        return
    defect = rec.call("metaplectic.phase_defect", pp.phase_defect, u12, u1 @ u2)
    rec.check("metaplectic", "projectivity U(SS') ~ U(S)U(S')", defect, TOL_PROJECTIVE)
    residual = rec.call("metaplectic.covariance_residual", pp.covariance_residual, u1, s, parity)
    rec.check("metaplectic", "covariance U Delta_p U^dag = Delta_Sp", residual, TOL_COVARIANCE)


# -- oracle --------------------------------------------------------------------


def oracle_workload(rec, rng, tiny: bool) -> Workload:
    digest = Digest()
    kinds, families, integer_builds, alloc = [], [], [], []
    for parity, n in SIZES["oracle"][tiny]:
        m = lattice_modulus(parity, n)
        inputs = []
        for _ in range(POOL):
            entries = random_entries(rng, m)
            reduced = random_entries(rng, n) if parity == EVEN else None
            digest.add((m, entries, reduced))
            inputs.append((pp.SympMat(*entries, modulus=m),
                           pp.SympMat(*reduced, modulus=n) if reduced else None))
        integer_family = {}
        if parity == EVEN:
            integer_builds.append((f"integer_point_family.{n}", "oracle",
                         lambda n=n, out=integer_family: out.update(
                             rec.call("oracle.integer_point_family", pp.integer_point_family, n))))
            alloc.append(("oracle.solve_covariance", pp.solve_covariance,
                          lambda s=inputs[0][1], family=integer_family: (s, family)))
        else:
            alloc.append(("oracle.solve_covariance", pp.solve_covariance,
                          lambda s=inputs[0][0], n=n, parity=parity: (s, pp.delta_family(n, parity))))
        kinds.append((f"oracle.{parity}{n}", "oracle",
                      [lambda pair=pair, parity=parity, n=n, family=integer_family:
                       oracle_op(rec, *pair, parity, n, family) for pair in inputs]))
        families.append((n, parity))
    warm = ([family_warm_up(rec, n, parity) for n, parity in families] + integer_builds
            + first_inputs(kinds))
    return Workload(
        cycle=interleave(kinds, CYCLES["oracle"]),
        warm_up=warm,
        digest=digest.hexdigest(),
        alloc_calls=alloc,
        families=families,
    )


def oracle_op(rec, s, s_reduced, parity: str, n: int, integer_family) -> None:
    points = lattice_modulus(parity, n) ** 2
    report = rec.call("oracle.verify_uniqueness", pp.verify_uniqueness, s, parity)
    rec.note("oracle.system_bytes", points * n**4 * 16)
    unique = report.nullity == 1 and report.unitary_found
    rec.note("oracle.nullity_ok", unique)
    rec.expect("oracle", "covariance solution space is one-dimensional", unique)
    residual = report.closed_form_residual
    rec.check("oracle", "re-solved unitary vs word product",
              float("nan") if residual is None else residual, 1e-9)

    kernel = rec.call("oracle.verify_sw_kernel", pp.verify_sw_kernel, parity, n)
    rec.check("oracle", "hermiticity", kernel.hermiticity, TOL_EXACT)
    if parity == ODD:
        rec.check("oracle", "unit trace", kernel.unit_trace, TOL_EXACT)
        rec.check("oracle", "traciality", kernel.traciality, TOL_EXACT)
        rec.check("oracle", "translation covariance", kernel.translation_covariance, TOL_EXACT)
        return
    # Criterion 06, red by design: even-grid traces are 2 or 0, so max |tr - 1| is 1.
    rec.expect("oracle", "even unit-trace residual is exactly 1",
               abs(kernel.unit_trace - 1.0) <= TOL_EXACT)
    # Criterion 10: integer points alone do not pin the representation down.
    solution = rec.call("oracle.solve_covariance", pp.solve_covariance, s_reduced, integer_family)
    rec.note("oracle.system_bytes", n**2 * n**4 * 16)
    rec.note("oracle.nullity_ok", solution.nullity > 1)
    rec.expect("oracle", "integer-point family leaves nullity > 1", solution.nullity > 1)


# -- cli -----------------------------------------------------------------------


def run_child(rec, env, argv, expected_code: int, command: str) -> tuple[bytes, float]:
    """Run ``python argv`` to completion; return its stdout and its own peak RSS in MB."""
    with tempfile.TemporaryFile(dir=WORKDIR) as errors:
        proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE, stderr=errors, env=env)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != expected_code:
            errors.seek(0)
            tail = errors.read()[-400:].decode(errors="replace")
            rec.fail("cli", f"{command} exited {proc.returncode}, expected {expected_code}: {tail}")
    rss_mb = usage.ru_maxrss / 1024
    rec.note(f"cli.{command}.rss_mb", rss_mb)
    return out, rss_mb


class CliSlot:
    """One argv, run as two children whose stdouts must be byte-identical."""

    def __init__(self, rec, env, argv, expected_code, check):
        self.rec, self.env, self.argv = rec, env, argv
        self.command = argv[0]
        self.expected_code = expected_code
        self.check = check  # (stdout text) -> None, failing through rec
        self.first_stdout = None
        self.peak_rss_mb = 0.0

    def child(self) -> bytes:
        out, rss_mb = self.rec.call(
            f"cli.{self.command}", run_child, self.rec, self.env,
            ["-m", "phasepoint.cli", *self.argv], self.expected_code, self.command,
        )
        self.rec.note("cli.stdout_bytes", len(out))
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        return out

    def first(self) -> None:
        self.first_stdout = self.child()
        self.check(self.first_stdout.decode())

    def second(self) -> None:
        out = self.child()
        self.rec.expect("cli", f"{self.command} stdout byte-identical across runs",
                        self.first_stdout is not None and out == self.first_stdout)

    def in_process(self) -> None:
        from phasepoint import cli

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.rec.call(f"cli.{self.command}.inproc", cli.main, list(self.argv))
        self.rec.expect("cli", f"{self.command} in-process exit code", code == self.expected_code)
        self.check(buffer.getvalue())


def cli_workload(rec, rng, tiny: bool) -> Workload:
    sizes = CLI_SIZES[tiny]
    digest = Digest()
    env = dict(os.environ)
    slots = []

    m = sizes["decompose"]
    entries = random_entries(rng, m)
    digest.add(("decompose", m, entries))
    slots.append(CliSlot(rec, env, ["decompose", "--modulus", str(m), "--matrix", _csv(entries)], 0,
                         lambda out, m=m, e=entries: check_decompose(rec, out, m, e)))

    for parity, n in sizes["rep"]:
        entries = random_entries(rng, lattice_modulus(parity, n))
        digest.add(("rep", parity, n, entries))
        argv = ["rep", "--dim", str(n), "--parity", parity, "--matrix", _csv(entries)]
        slots.append(CliSlot(rec, env, argv, 0, lambda out, n=n: check_rep(rec, out, n)))

    n = sizes["wigner"]
    amps = random_amplitudes(rng, n)
    payload = json.dumps({"dim": n, "amplitudes": [[z.real, z.imag] for z in amps]})
    digest.add(payload)
    handle, name = tempfile.mkstemp(prefix="state-", suffix=".json", dir=WORKDIR)
    with os.fdopen(handle, "w") as state_file:
        state_file.write(payload)
    state_path = Path(name)
    probs = np.abs(np.array([complex(*pair) for pair in json.loads(payload)["amplitudes"]])) ** 2
    slots.append(CliSlot(rec, env, ["wigner", "--state", str(state_path), "--parity", ODD], 0,
                         lambda out: check_wigner(rec, out, probs)))

    for parity, n in sizes["verify"]:
        argv = ["verify", "--dim", str(n), "--parity", parity, "--suite", "all"]
        code = 0 if parity == ODD else 1
        slots.append(CliSlot(rec, env, argv, code, lambda out, code=code: check_verify(rec, out, code)))

    cycle = []
    for index in CYCLES["cli"]:
        slot = slots[index]
        cycle.append((f"cli.{slot.command}", "cli", slot.first, f"cli.{slot.command}#{index}"))
        cycle.append((f"cli.{slot.command}", "cli", slot.second, f"cli.{slot.command}#{index}"))
    startup = ("cli.startup", "cli", lambda: rec.call(
        "cli.startup", run_child, rec, env, ["-c", "import phasepoint"], 0, "startup"))
    families = [(n, parity) for parity, n in sizes["rep"]]
    # Traced runs also time each command in process, on a warm kernel cache,
    # so that child time splits into start-up, cold cache and the command.
    inproc = [(f"cli.{slot.command}.inproc", "cli", slot.in_process)
              for slot in slots if slot.command != "decompose"]
    one_per_command = {slot.command: slot for slot in reversed(slots)}.values()
    return Workload(
        cycle=cycle,
        warm_up=[startup],
        digest=digest.hexdigest(),
        families=families,
        traced_only=[family_warm_up(rec, n, parity) for n, parity in families] + inproc,
        probe=[(f"cli.{slot.command}", "cli", slot.first) for slot in one_per_command],
        cleanup=lambda: state_path.unlink(missing_ok=True),
        peak_rss_mb=lambda: max(slot.peak_rss_mb for slot in slots),
    )


def _csv(entries) -> str:
    return ",".join(str(v) for v in entries)


def check_decompose(rec, out: str, modulus: int, entries) -> None:
    payload = json.loads(out)
    word = tuple((f["gen"], f["exp"]) for f in payload["word"])
    rec.expect("cli", "decompose payload", payload["modulus"] == modulus
               and tuple(payload["matrix"]) == entries and payload["verified"] is True)
    rec.expect("cli", "decompose word evaluates to the input", evaluate_word(word, modulus) == entries)


def check_rep(rec, out: str, n: int) -> None:
    payload = json.loads(out)
    pairs = np.array(payload["unitary"], dtype=float)
    if not rec.expect("cli", "rep unitary is finite N x N", pairs.shape == (n, n, 2) and finite(pairs)):
        return
    unitary = pairs[..., 0] + 1j * pairs[..., 1]
    rec.check("cli", "rep unitarity", np.abs(unitary @ unitary.conj().T - np.eye(n)).max(), TOL_COVARIANCE)
    rec.check("cli", "rep covariance_residual", payload["covariance_residual"], TOL_COVARIANCE)


def check_wigner(rec, out: str, probs: np.ndarray) -> None:
    lines = out.strip().split("\n")
    n = probs.size
    rec.expect("cli", "wigner header", lines[0] == f"# parity=odd, modulus={n}")
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]])
    if not rec.expect("cli", "wigner table is finite N x N", table.shape == (n, n) and finite(table)):
        return
    rec.check("cli", "wigner table sum", abs(table.sum() - 1.0), TOL_EXACT)
    rec.check("cli", "wigner sum line", abs(float(lines[-1].removeprefix("# sum=")) - 1.0), TOL_EXACT)
    rec.check("cli", "wigner position marginal", np.abs(table.sum(axis=1) - probs).max(), TOL_EXACT)


def check_verify(rec, out: str, expected_code: int) -> None:
    payload = json.loads(out)
    failing = {c["name"] for c in payload["checks"] if not c["pass"]}
    if expected_code == 0:
        rec.expect("cli", "verify passes every check", payload["pass"] is True and not failing)
        return
    # Criterion 06, red by design: only the even-grid unit trace fails, at exactly 1.
    trace = [c["max_residual"] for c in payload["checks"] if c["name"] == "sw_unit_trace"]
    rec.expect("cli", "verify fails only sw_unit_trace, at 1.0",
               payload["pass"] is False and failing == {"sw_unit_trace"} and trace == [1.0])


# -----------------------------------------------------------------------------

NAMES = ("wigner", "covariance", "oracle", "cli")


def build(name: str, seed: int, rec, tiny: bool) -> Workload:
    rng = np.random.default_rng([seed, NAMES.index(name)])
    WORKDIR.mkdir(parents=True, exist_ok=True)
    return {"wigner": wigner_workload, "covariance": covariance_workload,
            "oracle": oracle_workload, "cli": cli_workload}[name](rec, rng, tiny)
