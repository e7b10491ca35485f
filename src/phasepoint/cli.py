"""Command-line interface: decompose, rep, wigner and verify subcommands.

All output is deterministic: identical inputs produce byte-identical output.
JSON goes to stdout with full round-trip float formatting; Wigner tables are
CSV with comment-style header and sum lines. Exit codes: 0 success, 1 failed
verification checks, 2 invalid input or flags, 3 decomposition failure.

Only the integer layers load at start-up. The wigner and verify commands
import their numeric layers (and so numpy) when they run, each taking only
what it uses; the parser, decompose and rep never load numpy. Nor do they
load dataclasses or inspect: the integer layers' value classes are plain
slotted classes. tests/test_imports.py checks both.
verify's group-wide suites are one call each, to metaplectic.group_covariance
(certified O(N^2) bounds from U(S)'s exact table, to odd N = 2047 and even
N = 2048) and metaplectic.group_projectivity, which cut their own passes.
rep bounds its output before it starts, builds U(S)'s closed form
(weil.descriptor), checks it exactly with weil.certify, and writes the
unitary's JSON rows one at a time from the descriptor, in O(N) memory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .lattice import EVEN, ODD, ParityError, check_parity, lattice_modulus, symmetric_order
from .symplectic import (
    ENUMERATION_BOUND,
    BoundExceeded,
    DecompositionFailed,
    SympMat,
    bfs_decompose,
    check_bytes,
    decompose,
    enumerate_group,
    generator,
    h_t,
    random_element,
)

# Bytes per unitary entry of rep's output text, refused through check_bytes
# before anything is built: odd N <= 1831, even N <= 1830. An entry is at
# most about 52 B of text ("[re, im], "), 46.7 B on average at odd N = 1831;
# rep's own peak is O(N), about 1.0-1.9 KiB per N (tracemalloc, odd N = 255
# to 1831 and even 256 to 1024, both index styles).
REP_ENTRY_BYTES = 80
PROJECTIVITY_PAIRS = 200
PROJECTIVITY_SEED = 20240


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_matrix(text: str, modulus: int) -> SympMat:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"--matrix expects 4 comma-separated integers, got {text!r}")
    return SympMat(*(int(p) for p in parts), modulus)


def _reorder(matrix, order: list[int]):
    return matrix[order][:, order]


def _float(value: float) -> float:
    # Collapses -0.0 so formatting is stable across code paths.
    return 0.0 + float(value)


def _residual(value: float) -> float | None:
    """A residual for JSON output: NaN and inf have no JSON form, so a
    non-finite residual is written as null."""
    value = float(value)
    return _float(value) if math.isfinite(value) else None


def cmd_decompose(args: argparse.Namespace) -> int:
    if args.modulus < 2:
        return _fail(f"modulus must be >= 2, got {args.modulus}", 2)
    try:
        mat = _parse_matrix(args.matrix, args.modulus)
    except ValueError as exc:  # NotSymplectic included
        return _fail(str(exc), 2)
    try:
        word = bfs_decompose(mat) if args.method == "bfs" else decompose(mat)
    except BoundExceeded as exc:
        return _fail(str(exc), 2)
    except DecompositionFailed as exc:
        return _fail(str(exc), 3)
    if word.evaluate() != mat:
        return _fail("decomposition produced a word that does not verify", 3)
    payload = {
        "modulus": args.modulus,
        "matrix": list(mat.entries),
        "word": [{"gen": sign, "exp": exp} for sign, exp in word.factors],
        "verified": True,
    }
    print(json.dumps(payload))
    return 0


def _root_texts(form) -> list[str]:
    """The JSON text of sqrt(g/N) zeta^e for every exponent e mod L, as an
    [re, im] pair; adding 0.0 collapses -0.0. The angle is rounded as
    qops.unit_roots rounds it, 2 pi e times 1/L, so the pairs are
    u_table's float view."""
    scale = math.sqrt(form.gcd / form.dim)
    inverse = 1.0 / form.root_modulus
    texts = []
    for e in range(form.root_modulus):
        angle = math.tau * e * inverse
        texts.append(f"[{0.0 + scale * math.cos(angle)!r}, {0.0 + scale * math.sin(angle)!r}]")
    return texts


def _unitary_rows(form, order: list[int] | None):
    """The JSON text of each row of U(S), straight from its descriptor, rows
    and columns taken in ``order`` (canonical if None), one row at a time."""
    texts = _root_texts(form)
    zero = "[0.0, 0.0]"
    for i in range(form.dim) if order is None else order:
        columns, exponents = form.row(i)
        cells = [zero] * form.dim
        cells[columns.start::columns.step] = map(texts.__getitem__, exponents)
        yield "[" + ", ".join(cells if order is None else map(cells.__getitem__, order)) + "]"


def cmd_rep(args: argparse.Namespace) -> int:
    try:
        modulus = lattice_modulus(args.dim, args.parity)
    except ParityError as exc:
        return _fail(str(exc), 2)
    try:
        mat = _parse_matrix(args.matrix, modulus)
        check_bytes(f"rep output at dimension {args.dim}", REP_ENTRY_BYTES * args.dim**2)
    except ValueError as exc:  # NotSymplectic and BoundExceeded included
        return _fail(str(exc), 2)
    from . import weil

    try:
        form = weil.descriptor(mat, args.parity)
    except DecompositionFailed as exc:
        return _fail(str(exc), 3)
    except ArithmeticError as exc:  # a step left the closed form
        return _fail(f"U(S) has no closed form: {exc}", 1)
    if not weil.certify(form, mat, args.parity):
        return _fail("U(S)'s closed form fails its covariance certificate", 1)
    order = symmetric_order(args.dim) if args.index_style == "symmetric" else None
    head = {"dim": args.dim, "parity": args.parity, "modulus": modulus, "matrix": list(mat.entries)}
    # The certificate makes the closed form exactly covariant, and the rows
    # are the closed form's own float view.
    tail = {"covariance_residual": 0.0, "exact": True, "table_residual": 0.0}
    # The payload's text, with the unitary's rows written one at a time
    # between its head and tail.
    out = sys.stdout
    out.write(json.dumps(head)[:-1] + ', "unitary": [')
    for i, row in enumerate(_unitary_rows(form, order)):
        out.write(", " + row if i else row)
    out.write("], " + json.dumps(tail)[1:] + "\n")
    return 0


def _load_state(path: str):
    from .wigner import QuantumState

    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    # JSON true and false load as bool, a subclass of int: neither is a number here
    dim = data["dim"]
    if type(dim) is not int:
        raise ValueError(f"dim must be an integer, got {dim!r}")
    amplitudes = data["amplitudes"]
    if len(amplitudes) != dim:
        raise ValueError(f"state file declares dim {dim} but has {len(amplitudes)} amplitudes")
    for pair in amplitudes:
        if type(pair) is not list or len(pair) != 2 or not {type(v) for v in pair} <= {int, float}:
            raise ValueError(f"amplitude {pair!r} is not a pair of numbers")
    return QuantumState([complex(re, im) for re, im in amplitudes])


def cmd_wigner(args: argparse.Namespace) -> int:
    from .wigner import NotNormalized, wigner_of

    try:
        state = _load_state(args.state)
    except NotNormalized as exc:
        return _fail(str(exc), 2)
    # OverflowError: an integer amplitude too large for a float; RecursionError:
    # JSON nested deeper than the decoder's recursion limit
    except (OSError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        return _fail(f"cannot read state file: {exc}", 2)
    try:
        table = wigner_of(state, args.parity)
    except (ParityError, BoundExceeded) as exc:
        return _fail(str(exc), 2)
    values = table.values
    header = f"# parity={args.parity}, modulus={table.modulus}"
    if args.index_style == "symmetric":
        values = _reorder(values, symmetric_order(table.modulus))
        header += ", index-style=symmetric"
    lines = [header]
    lines.extend(",".join(map(repr, row)) for row in (values + 0.0).tolist())
    lines.append(f"# sum={repr(_float(values.sum()))}")
    print("\n".join(lines))
    return 0


def _verify_checks(n: int, parity: str, suite: str, tol: float | None):
    import numpy as np

    from .metaplectic import group_covariance, group_projectivity
    from .oracle import verify_sw_kernel, verify_uniqueness

    modulus = lattice_modulus(n, parity)

    def pick(default: float) -> float:
        return default if tol is None else tol

    checks: list[tuple[str, float, float]] = []
    generators = [
        ("hplus", generator("+", modulus)),
        ("hminus", generator("-", modulus)),
        ("ht", h_t(modulus)),
    ]
    # Narrowest bound first (uniqueness: odd N <= 53, even N <= 52; sw: 111
    # and 70; projectivity: 1671 and 1672; covariance: 2047 and 2048), so
    # that "all" is refused by its first suite, before anything is built.
    if suite in ("uniqueness", "all"):
        for name, mat in generators:
            report = verify_uniqueness(mat, parity)
            gap = float(abs(report.nullity - 1))
            checks.append((f"uniqueness_nullity_{name}", gap, 0.5))
            residual = report.closed_form_residual
            residual = float("inf") if residual is None else residual
            checks.append((f"uniqueness_phase_{name}", residual, pick(1e-9)))
    if suite in ("sw", "all"):
        for name, residual in verify_sw_kernel(parity, n).checks():
            checks.append((f"sw_{name}", residual, pick(1e-12)))
    if suite in ("projectivity", "all"):
        rng = np.random.default_rng(PROJECTIVITY_SEED)
        left = [random_element(modulus, rng) for _ in range(PROJECTIVITY_PAIRS)]
        right = [random_element(modulus, rng) for _ in range(PROJECTIVITY_PAIRS)]
        defects = group_projectivity(zip(left, right), parity)
        checks.append(("projectivity", defects.max(), pick(1e-9)))
    if suite in ("covariance", "all"):
        elements = [mat for _, mat in generators]
        whole_group = modulus <= ENUMERATION_BOUND
        if whole_group:
            elements += enumerate_group(modulus)
        residuals = group_covariance(elements, parity)
        for (name, _), residual in zip(generators, residuals):
            checks.append((f"covariance_{name}", residual, pick(1e-10)))
        if whole_group:
            checks.append(("covariance_group", residuals[len(generators):].max(), pick(1e-9)))
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        return _fail(f"--tol must be a finite number > 0, got {args.tol!r}", 2)
    try:
        check_parity(args.dim, args.parity)
    except ParityError as exc:
        return _fail(str(exc), 2)
    try:
        checks = _verify_checks(args.dim, args.parity, args.suite, args.tol)
    except BoundExceeded as exc:
        return _fail(str(exc), 2)
    results = [
        {"name": name, "max_residual": _residual(residual), "pass": bool(residual < tolerance)}
        for name, residual, tolerance in sorted(checks)
    ]
    all_pass = all(entry["pass"] for entry in results)
    payload = {
        "suite": args.suite,
        "dim": args.dim,
        "parity": args.parity,
        "checks": results,
        "pass": all_pass,
    }
    print(json.dumps(payload, allow_nan=False))
    return 0 if all_pass else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasepoint",
        description="Discrete phase space toolkit: symplectic words, "
        "covariant unitaries, Wigner tables and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="factor a symplectic matrix into generator powers")
    p_dec.add_argument("--modulus", type=int, required=True, help="ring modulus M")
    p_dec.add_argument("--matrix", required=True, help="entries a,b,c,d")
    p_dec.add_argument(
        "--method", choices=["euclid", "bfs"], default="euclid",
        help="Euclidean algorithm (default) or breadth-first shortest-word "
        f"search (modulus <= {ENUMERATION_BOUND})",
    )
    p_dec.set_defaults(func=cmd_decompose)

    p_rep = sub.add_parser("rep", help="emit the covariant unitary for a symplectic matrix")
    p_rep.add_argument("--dim", type=int, required=True, help="Hilbert-space dimension N")
    p_rep.add_argument("--parity", choices=[ODD, EVEN], required=True)
    p_rep.add_argument("--matrix", required=True, help="entries a,b,c,d (modulus N or 2N)")
    p_rep.add_argument("--index-style", choices=["canonical", "symmetric"], default="canonical")
    p_rep.set_defaults(func=cmd_rep)

    p_wig = sub.add_parser("wigner", help="compute the Wigner table of a state file")
    p_wig.add_argument("--state", required=True, help="JSON file with dim and amplitudes")
    p_wig.add_argument("--parity", choices=[ODD, EVEN], required=True)
    p_wig.add_argument("--index-style", choices=["canonical", "symmetric"], default="canonical")
    p_wig.set_defaults(func=cmd_wigner)

    p_ver = sub.add_parser("verify", help="run a verification suite and report residuals")
    p_ver.add_argument("--dim", type=int, required=True)
    p_ver.add_argument("--parity", choices=[ODD, EVEN], required=True)
    p_ver.add_argument(
        "--suite",
        choices=["sw", "covariance", "projectivity", "uniqueness", "all"],
        default="all",
    )
    p_ver.add_argument("--tol", type=float, default=None, help="override all check tolerances")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
