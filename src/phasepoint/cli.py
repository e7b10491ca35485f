"""Command-line interface: decompose, rep, wigner and verify subcommands.

All output is deterministic: identical inputs produce byte-identical output.
JSON goes to stdout with full round-trip float formatting; Wigner tables are
CSV with comment-style header and sum lines. Exit codes: 0 success, 1 failed
verification checks, 2 invalid input or flags, 3 decomposition failure.

Only the integer layers load at start-up. The rep, wigner and verify
commands import their numeric layers (and so numpy) when they run, each
taking only what it uses, so decompose and the parser never load numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .lattice import EVEN, ODD, ParityError, check_parity, lattice_modulus
from .symplectic import (
    ENUMERATION_BOUND,
    BoundExceeded,
    DecompositionFailed,
    SympMat,
    check_bytes,
    decompose,
    enumerate_group,
    generator,
    h_t,
    random_element,
)

PROJECTIVITY_PAIRS = 200
PROJECTIVITY_SEED = 20240


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_matrix(text: str, modulus: int) -> SympMat:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"--matrix expects 4 comma-separated integers, got {text!r}")
    a, b, c, d = (int(p) for p in parts)
    return SympMat(a, b, c, d, modulus)


def _reorder(matrix, order: list[int]):
    return matrix[order][:, order]


def _complex_rows(matrix) -> list[list[list[float]]]:
    import numpy as np

    # Adding 0.0 collapses -0.0 so formatting is stable across code paths.
    return (np.stack([matrix.real, matrix.imag], axis=-1) + 0.0).tolist()


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
        word = decompose(mat, method=args.method)
    except BoundExceeded as exc:
        return _fail(str(exc), 2)
    except DecompositionFailed as exc:
        return _fail(str(exc), 3)
    verified = word.evaluate() == mat
    if not verified:
        return _fail("decomposition produced a word that does not verify", 3)
    payload = {
        "modulus": args.modulus,
        "matrix": list(mat.entries),
        "word": [{"gen": sign, "exp": exp} for sign, exp in word.factors],
        "verified": True,
    }
    print(json.dumps(payload))
    return 0


def cmd_rep(args: argparse.Namespace) -> int:
    try:
        check_parity(args.dim, args.parity)
    except ParityError as exc:
        return _fail(str(exc), 2)
    modulus = lattice_modulus(args.dim, args.parity)
    try:
        mat = _parse_matrix(args.matrix, modulus)
    except ValueError as exc:  # NotSymplectic included
        return _fail(str(exc), 2)
    from .metaplectic import check_covariance_bound, covariance_residual, u_of
    from .qops import symmetric_order

    try:
        check_covariance_bound(args.dim)
    except BoundExceeded as exc:
        return _fail(str(exc), 2)
    try:
        unitary = u_of(mat, args.parity)
    except DecompositionFailed as exc:
        return _fail(str(exc), 3)
    residual = covariance_residual(unitary.matrix, mat, args.parity)
    display = unitary.matrix
    if args.index_style == "symmetric":
        display = _reorder(display, symmetric_order(args.dim))
    payload = {
        "dim": args.dim,
        "parity": args.parity,
        "modulus": modulus,
        "matrix": list(mat.entries),
        "unitary": _complex_rows(display),
        "covariance_residual": _residual(residual),
    }
    print(json.dumps(payload, allow_nan=False))
    return 0


def _load_state(path: str):
    from .wigner import QuantumState

    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    dim = int(data["dim"])
    amplitudes = data["amplitudes"]
    if len(amplitudes) != dim:
        raise ValueError(f"state file declares dim {dim} but has {len(amplitudes)} amplitudes")
    return QuantumState([complex(re, im) for re, im in amplitudes])


def cmd_wigner(args: argparse.Namespace) -> int:
    from .qops import symmetric_order
    from .wigner import NotNormalized, wigner_of

    try:
        state = _load_state(args.state)
    except NotNormalized as exc:
        return _fail(str(exc), 2)
    # OverflowError: a dim of Infinity; RecursionError: JSON nested deeper
    # than the decoder's recursion limit
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

    from .metaplectic import check_covariance_bound, covariance_residual, phase_defect, u_of
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
    if suite in ("sw", "translation", "all"):
        report = verify_sw_kernel(parity, n)
        if suite == "translation":
            checks.append(("translation_weyl", report.translation_covariance, pick(1e-12)))
        else:
            for name, residual in report.checks():
                checks.append((f"sw_{name}", residual, pick(1e-12)))
    if suite in ("uniqueness", "all"):
        for name, mat in generators:
            report = verify_uniqueness(mat, parity)
            gap = float(abs(report.nullity - 1))
            checks.append((f"uniqueness_nullity_{name}", gap, 0.5))
            residual = report.closed_form_residual
            residual = float("inf") if residual is None else residual
            checks.append((f"uniqueness_phase_{name}", residual, pick(1e-9)))
    if suite in ("covariance", "all"):
        check_covariance_bound(n)
        for name, mat in generators:
            residual = covariance_residual(u_of(mat, parity).matrix, mat, parity)
            checks.append((f"covariance_{name}", residual, pick(1e-10)))
        if modulus <= ENUMERATION_BOUND:
            residuals = [
                covariance_residual(u_of(mat, parity).matrix, mat, parity)
                for mat in enumerate_group(modulus)
            ]
            checks.append(("covariance_group", np.max(residuals), pick(1e-9)))
    if suite in ("projectivity", "all"):
        # the U(S) cache holds up to three N x N unitaries per sampled pair:
        # odd N <= 167, even N <= 166
        check_bytes(
            f"projectivity cache of {3 * PROJECTIVITY_PAIRS} unitaries at dimension {n}",
            3 * PROJECTIVITY_PAIRS * n * n * np.dtype(complex).itemsize,
        )
        rng = np.random.default_rng(PROJECTIVITY_SEED)
        cache: dict[SympMat, np.ndarray] = {}

        def rep_of(mat: SympMat) -> np.ndarray:
            if mat not in cache:
                cache[mat] = u_of(mat, parity).matrix
            return cache[mat]

        left = [random_element(modulus, rng) for _ in range(PROJECTIVITY_PAIRS)]
        right = [random_element(modulus, rng) for _ in range(PROJECTIVITY_PAIRS)]
        defects = [
            phase_defect(rep_of(s1 @ s2), rep_of(s1) @ rep_of(s2))
            for s1, s2 in zip(left, right)
        ]
        checks.append(("projectivity", np.max(defects), pick(1e-9)))
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        return _fail(f"--tol must be a finite number > 0, got {args.tol!r}", 2)
    try:
        check_parity(args.dim, args.parity)
    except ParityError as exc:
        return _fail(str(exc), 2)
    if args.suite == "translation" and args.parity == EVEN:
        return _fail("translation suite is defined for odd parity only", 2)
    try:
        checks = _verify_checks(args.dim, args.parity, args.suite, args.tol)
    except BoundExceeded as exc:
        return _fail(str(exc), 2)
    results = [
        {
            "name": name,
            "max_residual": _residual(residual),
            "pass": bool(residual < tolerance),
        }
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
        choices=["sw", "translation", "covariance", "projectivity", "uniqueness", "all"],
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
