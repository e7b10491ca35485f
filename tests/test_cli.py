import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phasepoint import metaplectic, oracle  # the CLI reads its checks here at call time
from phasepoint.cli import PROJECTIVITY_PAIRS, main
from phasepoint.symplectic import SympMat


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_ht(capsys):
    code, out, _ = run(capsys, "decompose", "--modulus", "5", "--matrix", "0,1,4,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["modulus"] == 5
    assert payload["matrix"] == [0, 1, 4, 0]
    assert payload["word"] == [
        {"gen": "+", "exp": 1},
        {"gen": "-", "exp": 4},
        {"gen": "+", "exp": 1},
    ]
    assert payload["verified"] is True


def test_decompose_identity_empty_word(capsys):
    code, out, _ = run(capsys, "decompose", "--modulus", "7", "--matrix", "1,0,0,1")
    assert code == 0
    assert json.loads(out)["word"] == []


def test_decompose_rejects_non_symplectic(capsys):
    code, _, err = run(capsys, "decompose", "--modulus", "7", "--matrix", "1,1,1,1")
    assert code == 2
    assert "det" in err


def test_decompose_bfs_method(capsys):
    code, out, _ = run(
        capsys, "decompose", "--modulus", "5", "--matrix", "2,1,1,1", "--method", "bfs"
    )
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_decompose_bfs_above_bound_exits_two(capsys):
    code, out, err = run(
        capsys, "decompose", "--modulus", "1009", "--matrix", "2,1,1,1", "--method", "bfs"
    )
    assert code == 2
    assert out == ""
    assert "bound" in err


def test_decompose_bad_matrix_string(capsys):
    code, _, err = run(capsys, "decompose", "--modulus", "5", "--matrix", "1,2,3")
    assert code == 2


def test_rep_odd_seven(capsys):
    code, out, _ = run(
        capsys, "rep", "--dim", "7", "--parity", "odd", "--matrix", "1,1,0,1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 7
    assert payload["covariance_residual"] < 1e-10
    matrix = np.array([[complex(re, im) for re, im in row] for row in payload["unitary"]])
    assert np.abs(matrix.conj().T @ matrix - np.eye(7)).max() < 1e-12
    assert matrix[0, 0] == pytest.approx(1 / np.sqrt(7))


def test_rep_even_diagonal_generator(capsys):
    code, out, _ = run(
        capsys, "rep", "--dim", "2", "--parity", "even", "--matrix", "1,0,1,1"
    )
    assert code == 0
    payload = json.loads(out)
    matrix = np.array([[complex(re, im) for re, im in row] for row in payload["unitary"]])
    assert np.abs(matrix - np.diag([1.0, 1j])).max() < 1e-12


def test_rep_identity_up_to_phase(capsys):
    code, out, _ = run(
        capsys, "rep", "--dim", "3", "--parity", "odd", "--matrix", "1,0,0,1"
    )
    assert code == 0
    payload = json.loads(out)
    matrix = np.array([[complex(re, im) for re, im in row] for row in payload["unitary"]])
    off = matrix - np.diag(np.diag(matrix))
    assert np.abs(off).max() < 1e-12
    diag = np.diag(matrix)
    assert np.abs(diag - diag[0]).max() < 1e-12


def test_rep_parity_mismatch(capsys):
    code, _, err = run(
        capsys, "rep", "--dim", "4", "--parity", "odd", "--matrix", "1,0,0,1"
    )
    assert code == 2


def test_rep_symmetric_index_style(capsys):
    code, out, _ = run(
        capsys,
        "rep", "--dim", "3", "--parity", "odd", "--matrix", "1,0,1,1",
        "--index-style", "symmetric",
    )
    assert code == 0
    payload = json.loads(out)
    matrix = np.array([[complex(re, im) for re, im in row] for row in payload["unitary"]])
    w = np.exp(2j * np.pi / 3)
    assert np.abs(matrix - np.diag([w**2, 1, w**2])).max() < 1e-12


def write_state(path, amplitudes):
    data = {
        "dim": len(amplitudes),
        "amplitudes": [[z.real, z.imag] for z in np.asarray(amplitudes, dtype=complex)],
    }
    path.write_text(json.dumps(data))


def test_wigner_basis_state(capsys, tmp_path):
    state_file = tmp_path / "state.json"
    write_state(state_file, [1.0, 0.0, 0.0])
    code, out, _ = run(capsys, "wigner", "--state", str(state_file), "--parity", "odd")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# parity=odd, modulus=3"
    rows = [list(map(float, line.split(","))) for line in lines[1:4]]
    assert rows[0] == pytest.approx([1 / 3, 1 / 3, 1 / 3])
    assert rows[1] == pytest.approx([0.0, 0.0, 0.0])
    assert lines[4].startswith("# sum=")
    assert float(lines[4].split("=")[1]) == pytest.approx(1.0)


def test_wigner_even_doubled_grid(capsys, tmp_path):
    state_file = tmp_path / "state.json"
    write_state(state_file, [0.0, 1.0])
    code, out, _ = run(capsys, "wigner", "--state", str(state_file), "--parity", "even")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# parity=even, modulus=4"
    rows = np.array([list(map(float, line.split(","))) for line in lines[1:5]])
    assert rows.shape == (4, 4)
    marginal = rows.sum(axis=1)
    assert marginal == pytest.approx([0.0, 0.0, 1.0, 0.0])


def test_wigner_symmetric_index_style(capsys, tmp_path):
    state_file = tmp_path / "state.json"
    write_state(state_file, [1.0, 0.0, 0.0])
    code, out, _ = run(
        capsys,
        "wigner", "--state", str(state_file), "--parity", "odd",
        "--index-style", "symmetric",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# parity=odd, modulus=3, index-style=symmetric"
    rows = [list(map(float, line.split(","))) for line in lines[1:4]]
    # symmetric row order is (-1, 0, 1), so the m=0 row sits in the middle
    assert rows[1] == pytest.approx([1 / 3, 1 / 3, 1 / 3])
    assert rows[0] == pytest.approx([0.0, 0.0, 0.0])


def test_wigner_rejects_unnormalized(capsys, tmp_path):
    state_file = tmp_path / "state.json"
    write_state(state_file, [1.0, 1.0])
    code, _, err = run(capsys, "wigner", "--state", str(state_file), "--parity", "even")
    assert code == 2
    assert "norm" in err


def test_wigner_rejects_nan_amplitude(capsys, tmp_path):
    state_file = tmp_path / "state.json"
    write_state(state_file, [float("nan"), 1.0])
    assert "NaN" in state_file.read_text()
    code, out, err = run(capsys, "wigner", "--state", str(state_file), "--parity", "even")
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize(
    "text",
    [
        "[" * 200_000,  # deeper than the JSON decoder's recursion limit
        '{"dim": Infinity, "amplitudes": []}',
    ],
    ids=["deeply-nested", "infinite-dim"],
)
def test_wigner_rejects_unreadable_state_file(capsys, tmp_path, text):
    state_file = tmp_path / "state.json"
    state_file.write_text(text)
    code, out, err = run(capsys, "wigner", "--state", str(state_file), "--parity", "odd")
    assert code == 2
    assert out == ""
    assert "cannot read state file" in err


def test_wigner_parity_mismatch(capsys, tmp_path):
    state_file = tmp_path / "state.json"
    write_state(state_file, [1.0, 0.0, 0.0])
    code, _, _ = run(capsys, "wigner", "--state", str(state_file), "--parity", "even")
    assert code == 2


def test_verify_odd_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "--dim", "5", "--parity", "odd", "--suite", "all")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(names)
    assert all(c["pass"] for c in payload["checks"])


def test_verify_even_covariance_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--dim", "2", "--parity", "even", "--suite", "covariance"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert any(c["name"] == "covariance_group" for c in payload["checks"])


def test_verify_even_sw_reports_trace_failure(capsys):
    # The even-lattice kernel is traceless at ghost points, so the strict
    # unit-trace check cannot pass; the suite reports it honestly.
    code, out, _ = run(capsys, "verify", "--dim", "2", "--parity", "even", "--suite", "sw")
    assert code == 1
    payload = json.loads(out)
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["sw_hermiticity"]["pass"] is True
    assert by_name["sw_unit_trace"]["pass"] is False
    assert by_name["sw_unit_trace"]["max_residual"] == pytest.approx(1.0)


def test_verify_parity_mismatch_exits_two(capsys):
    code, _, _ = run(capsys, "verify", "--dim", "4", "--parity", "odd")
    assert code == 2


def test_verify_translation_even_rejected(capsys):
    code, _, _ = run(
        capsys, "verify", "--dim", "2", "--parity", "even", "--suite", "translation"
    )
    assert code == 2


def test_verify_translation_reports_kernel_suite_figure(capsys):
    code, out, _ = run(capsys, "verify", "--dim", "5", "--parity", "odd", "--suite", "translation")
    assert code == 0
    (check,) = json.loads(out)["checks"]
    assert check["name"] == "translation_weyl"
    assert check["max_residual"] == oracle.verify_sw_kernel("odd", 5).translation_covariance


def test_verify_all_runs_kernel_suite_once(capsys, monkeypatch):
    calls = []
    suite = oracle.verify_sw_kernel

    def counted(parity, n):
        calls.append((parity, n))
        return suite(parity, n)

    monkeypatch.setattr(oracle, "verify_sw_kernel", counted)
    code, out, _ = run(capsys, "verify", "--dim", "3", "--parity", "odd", "--suite", "all")
    assert code == 0
    assert calls == [("odd", 3)]
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert "sw_translation_covariance" in names
    assert "translation_weyl" not in names


@pytest.mark.parametrize("parity,dim", [("odd", 3), ("even", 2)])
def test_verify_projectivity_byte_bound(capsys, byte_bound, parity, dim):
    # the U(S) cache: three N x N complex unitaries per sampled pair
    cache_bytes = 3 * PROJECTIVITY_PAIRS * dim**2 * 16
    byte_bound(cache_bytes)
    argv = ("verify", "--dim", str(dim), "--parity", parity, "--suite", "projectivity")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["pass"] is True
    byte_bound(cache_bytes - 1)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "bound" in err


def test_verify_tol_override(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--dim", "3", "--parity", "odd", "--suite", "covariance",
        "--tol", "1e-30",
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
def test_verify_rejects_bad_tol_before_any_suite(capsys, monkeypatch, tol):
    def no_suite(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(oracle, "verify_sw_kernel", no_suite)
    code, out, err = run(
        capsys, "verify", "--dim", "3", "--parity", "odd", "--suite", "sw", f"--tol={tol}"
    )
    assert code == 2
    assert out == ""
    assert "--tol" in err


def test_verify_fails_on_nan_group_residual(capsys, monkeypatch):
    # -I is no generator, so only the whole-group check sees the NaN
    target = SympMat(2, 0, 0, 2, 3)
    residual = metaplectic.covariance_residual
    monkeypatch.setattr(
        metaplectic,
        "covariance_residual",
        lambda u, s, parity: float("nan") if s == target else residual(u, s, parity),
    )
    code, out, _ = run(capsys, "verify", "--dim", "3", "--parity", "odd", "--suite", "covariance")
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["covariance_group"]["pass"] is False
    assert by_name["covariance_hplus"]["pass"] is True


def strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not valid JSON")

    return json.loads(text, parse_constant=reject)


def test_verify_writes_nan_residual_as_null(capsys, monkeypatch):
    target = SympMat(2, 0, 0, 2, 3)
    residual = metaplectic.covariance_residual
    monkeypatch.setattr(
        metaplectic,
        "covariance_residual",
        lambda u, s, parity: float("nan") if s == target else residual(u, s, parity),
    )
    code, out, _ = run(capsys, "verify", "--dim", "3", "--parity", "odd", "--suite", "covariance")
    assert code == 1
    payload = strict_json(out)
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["covariance_group"] == {
        "name": "covariance_group",
        "max_residual": None,
        "pass": False,
    }
    assert payload["pass"] is False


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_rep_writes_non_finite_residual_as_null(capsys, monkeypatch, value):
    monkeypatch.setattr(metaplectic, "covariance_residual", lambda u, s, parity: value)
    code, out, _ = run(capsys, "rep", "--dim", "3", "--parity", "odd", "--matrix", "1,1,0,1")
    assert code == 0
    assert strict_json(out)["covariance_residual"] is None


def test_rep_builds_no_kernel_cache(capsys, no_dense_kernel):
    code, out, _ = run(capsys, "rep", "--dim", "9", "--parity", "odd", "--matrix", "2,1,1,1")
    assert code == 0
    assert json.loads(out)["covariance_residual"] < 1e-10


def run_capped(*argv):
    """Run the CLI in a child capped at 1 GiB of address space, so a missing
    size bound fails with MemoryError instead of exhausting the host."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    return subprocess.run(
        [sys.executable, "-m", "phasepoint.cli", *argv],
        capture_output=True, text=True, env=env, preexec_fn=cap_memory, timeout=120,
    )


def test_verify_uniqueness_above_bound_exits_two():
    # The uniqueness graph at odd N = 127 has about 260 million edges, several
    # GB of arrays; it must be refused before anything is built.
    child = run_capped("verify", "--dim", "127", "--parity", "odd", "--suite", "uniqueness")
    assert child.returncode == 2
    assert child.stdout == ""
    assert "bound" in child.stderr


def test_verify_uniqueness_at_dimension_31_passes(capsys):
    code, out, _ = run(capsys, "verify", "--dim", "31", "--parity", "odd", "--suite", "uniqueness")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert len(payload["checks"]) == 6


def test_verify_sw_at_dimension_31_passes(capsys):
    code, out, _ = run(capsys, "verify", "--dim", "31", "--parity", "odd", "--suite", "sw")
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--dim", "55", "--parity", "odd", "--suite", "sw"),
        ("verify", "--dim", "40", "--parity", "even", "--suite", "sw"),
        ("verify", "--dim", "55", "--parity", "odd", "--suite", "all"),
        ("verify", "--dim", "55", "--parity", "odd", "--suite", "translation"),
        ("verify", "--dim", "40", "--parity", "even", "--suite", "all"),
    ],
)
def test_verify_dense_suites_above_bound_exit_two(argv):
    # The kernel suites (sw, translation, and so all) share the uniqueness
    # graph's bound, odd N <= 53 and even N <= 38; above it they are
    # refused before any table is built.
    child = run_capped(*argv)
    assert child.returncode == 2
    assert child.stdout == ""
    assert "bound" in child.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("rep", "--dim", "255", "--parity", "odd", "--matrix", "1,1,0,1"),
        ("rep", "--dim", "256", "--parity", "even", "--matrix", "1,1,0,1"),
        ("verify", "--dim", "255", "--parity", "odd", "--suite", "covariance"),
    ],
)
def test_covariance_above_bound_exits_two(argv):
    # The covariance residual's N^3 blocks pass 256 MiB above odd N = 187
    # and even N = 188; rep refuses before it builds U(S).
    child = run_capped(*argv)
    assert child.returncode == 2
    assert child.stdout == ""
    assert "bound" in child.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--dim", "169", "--parity", "odd", "--suite", "projectivity"),
        ("verify", "--dim", "168", "--parity", "even", "--suite", "projectivity"),
        ("verify", "--dim", "20001", "--parity", "odd", "--suite", "projectivity"),
    ],
)
def test_projectivity_above_bound_exits_two(argv):
    # The cache of 600 N x N unitaries passes 256 MiB above odd N = 167 and
    # even N = 166; at N = 20001 one generator alone is several GB.
    child = run_capped(*argv)
    assert child.returncode == 2
    assert child.stdout == ""
    assert "bound" in child.stderr


def test_wigner_above_bound_exits_two(tmp_path):
    # A 2049 x 2049 odd table is past the 256 MiB bound of the transform.
    dim = 2049
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"dim": dim, "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * (dim - 1)}))
    child = run_capped("wigner", "--state", str(state), "--parity", "odd")
    assert child.returncode == 2
    assert child.stdout == ""
    assert "bound" in child.stderr


def test_bad_flags_exit_two(capsys):
    assert run(capsys, "verify", "--dim", "3", "--parity", "odd", "--suite", "bogus")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_outputs_are_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--dim", "3", "--parity", "odd", "--suite", "projectivity")
    _, second, _ = run(capsys, "verify", "--dim", "3", "--parity", "odd", "--suite", "projectivity")
    assert first == second
    _, r1, _ = run(capsys, "rep", "--dim", "5", "--parity", "odd", "--matrix", "2,1,1,1")
    _, r2, _ = run(capsys, "rep", "--dim", "5", "--parity", "odd", "--matrix", "2,1,1,1")
    assert r1 == r2
