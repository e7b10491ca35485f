import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from phasepoint import metaplectic, oracle, weil  # the CLI reads these at call time
from phasepoint.cli import _build_parser, main
from phasepoint.lattice import hilbert_dim, symmetric_order
from phasepoint.metaplectic import u_of, u_table
from phasepoint.qops import unit_roots
from phasepoint.symplectic import SympMat, enumerate_group, random_element


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


# Fixed before the comparison was first run. The printed entries and
# u_table's float view are one root of unity scaled by sqrt(g/N), from
# math.cos and math.sin against numpy's exp: 2 ulp of a unit entry. (rep
# rounds the angle as unit_roots does, and here they agree bit for bit.)
# u_of builds U(S) with FFTs, so it is only near its table.
TABLE_TOLERANCE = 4.5e-16
FFT_TOLERANCE = 1e-12


def printed_unitary(parser, s, parity, style):
    """rep's matrix for ``s``, run in process, as an (N, N, 2) float array."""
    n = hilbert_dim(s.modulus, parity)
    args = parser.parse_args(["rep", "--dim", str(n), "--parity", parity, "--index-style", style,
                              "--matrix", ",".join(map(str, s.entries))])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert args.func(args) == 0
    payload = json.loads(out.getvalue())
    assert payload["exact"] is True and payload["covariance_residual"] == 0.0
    return np.array(payload["unitary"])


def assert_rep_matches_its_references(parser, s, parity):
    table = u_table(s, parity)
    view = np.where(table.support, table.scale * unit_roots(table.root_modulus)[table.exponents], 0)
    built = u_of(s, parity).matrix
    order = symmetric_order(view.shape[0])
    for style, rows in (("canonical", slice(None)), ("symmetric", np.ix_(order, order))):
        pairs = printed_unitary(parser, s, parity, style)
        printed = pairs[..., 0] + 1j * pairs[..., 1]
        support = table.support[rows]
        assert np.array_equal((pairs != 0).any(axis=-1), support), (s, style)
        assert np.abs(printed - view[rows]).max() <= TABLE_TOLERANCE, (s, style)
        assert np.abs(printed - built[rows]).max() <= FFT_TOLERANCE, (s, style)


@pytest.mark.parametrize("modulus,parity", [(m, "odd") for m in (3, 5, 7, 9, 11)]
                         + [(m, "even") for m in (4, 8, 12)])
def test_rep_prints_the_closed_form_on_whole_group(modulus, parity):
    parser = _build_parser()
    for s in enumerate_group(modulus):
        assert_rep_matches_its_references(parser, s, parity)


@pytest.mark.parametrize("n,parity", [(255, "odd"), (256, "even")])
def test_rep_prints_the_closed_form_at_large_dimensions(n, parity):
    parser = _build_parser()
    rng = np.random.default_rng(20 + n)
    for _ in range(20):
        s = random_element(2 * n if parity == "even" else n, rng)
        assert_rep_matches_its_references(parser, s, parity)


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


def test_wigner_accepts_state_within_norm_tolerance(capsys, tmp_path):
    # |psi|^2 = 1 + 1.8e-8 is admitted, and the table sums to it
    state_file = tmp_path / "state.json"
    write_state(state_file, [1.000000009, 0.0, 0.0])
    code, out, _ = run(capsys, "wigner", "--state", str(state_file), "--parity", "odd")
    assert code == 0
    lines = out.strip().splitlines()
    rows = np.array([list(map(float, line.split(","))) for line in lines[1:4]])
    norm2 = 1.000000009**2
    assert rows.sum() == pytest.approx(norm2, rel=0, abs=1e-15)
    assert float(lines[4].split("=")[1]) == pytest.approx(norm2, rel=0, abs=1e-15)


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
        '{"dim": 3.7, "amplitudes": [[1, 0], [0, 0], [0, 0]]}',
        '{"dim": "3", "amplitudes": [[1, 0], [0, 0], [0, 0]]}',
        '{"dim": true, "amplitudes": [[1, 0], [0, 0]]}',
        '{"dim": 3, "amplitudes": [[true, 0], [0, false], [0, 0]]}',
        '{"dim": 3, "amplitudes": [[1, 0], [0, 0], [1' + "0" * 400 + ', 0]]}',
    ],
    ids=[
        "deeply-nested",
        "infinite-dim",
        "float-dim",
        "string-dim",
        "bool-dim",
        "bool-amplitude",
        "huge-amplitude",
    ],
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


def test_verify_translation_suite_is_a_usage_error(capsys):
    # its one figure is sw's sw_translation_covariance, so it is no suite
    for dim, parity in (("5", "odd"), ("2", "even")):
        argv = ("verify", "--dim", dim, "--parity", parity, "--suite", "translation")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("usage:")
        assert "argument --suite: invalid choice: 'translation'" in err


def test_verify_translation_reports_kernel_suite_figure(capsys):
    code, out, _ = run(capsys, "verify", "--dim", "5", "--parity", "odd", "--suite", "sw")
    assert code == 0
    by_name = {check["name"]: check for check in json.loads(out)["checks"]}
    expected = oracle.verify_sw_kernel("odd", 5).translation_covariance
    assert by_name["sw_translation_covariance"]["max_residual"] == expected


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
    # one pair: six N x N complex arrays
    pair_bytes = 6 * dim**2 * 16
    byte_bound(pair_bytes)
    argv = ("verify", "--dim", str(dim), "--parity", parity, "--suite", "projectivity")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["pass"] is True
    byte_bound(pair_bytes - 1)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "bound" in err


@pytest.mark.parametrize("parity,dim", [("odd", 7), ("odd", 11), ("even", 4)])
def test_verify_output_does_not_depend_on_pass_size(capsys, stack_budget, parity, dim):
    argv = ("verify", "--dim", str(dim), "--parity", parity, "--suite", "all")
    code, expected, _ = run(capsys, *argv)
    element_bytes = metaplectic._BOUND_ENTRY_BYTES * dim**2
    # one element per pass; then passes of 5 covariance elements, which the
    # 3 + |Sp_M| elements (339, 1323, 387) and the 200 projectivity pairs
    # (in passes of 17, 26 and 11) do not divide
    for budget in (1, 5 * element_bytes):
        stack_budget(budget)
        assert run(capsys, *argv)[:2] == (code, expected)


def test_verify_covariance_working_set_stays_near_the_pass_cap(capsys):
    # one unstacked pass over Sp_11 would hold 3 + 1320 elements at
    # 64 B per entry, about 7.7 kB each, about 10 MB
    argv = ("verify", "--dim", "11", "--parity", "odd", "--suite", "covariance")
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(out)["pass"] is True
    assert peak < 8 * 2**20


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


def nan_residual_at(target):
    """group_covariance with a NaN figure for the element ``target``."""
    residuals = metaplectic.group_covariance

    def patched(elements, parity):
        elements = list(elements)
        figures = residuals(elements, parity)
        figures[[s == target for s in elements]] = np.nan
        return figures

    return patched


def test_verify_fails_on_nan_group_residual(capsys, monkeypatch):
    # -I is no generator, so only the whole-group check sees the NaN
    target = SympMat(2, 0, 0, 2, 3)
    monkeypatch.setattr(metaplectic, "group_covariance", nan_residual_at(target))
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
    monkeypatch.setattr(metaplectic, "group_covariance", nan_residual_at(target))
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


def test_rep_exits_one_when_the_certificate_fails(capsys, monkeypatch):
    monkeypatch.setattr(weil, "certify", lambda form, s, parity: False)
    code, out, err = run(capsys, "rep", "--dim", "5", "--parity", "odd", "--matrix", "2,1,1,1")
    assert code == 1
    assert out == ""
    assert "certificate" in err


def test_rep_exits_one_when_the_closed_form_breaks(capsys, monkeypatch):
    def broken(word, parity):
        raise ArithmeticError("descriptor is not periodic in m")

    monkeypatch.setattr(weil, "compose", broken)
    code, out, err = run(capsys, "rep", "--dim", "5", "--parity", "odd", "--matrix", "2,1,1,1")
    assert code == 1
    assert out == ""
    assert "periodic" in err


def test_verify_covariance_exits_one_when_no_table_can_be_certified(capsys, monkeypatch):
    # U(S) scaled by 1.01 does not round to a table, so no figure is
    # certified: each is inf, written as null, and fails
    build = metaplectic._u_stack
    monkeypatch.setattr(metaplectic, "_u_stack", lambda *args: build(*args) * 1.01)
    code, out, err = run(capsys, "verify", "--dim", "5", "--parity", "odd", "--suite", "covariance")
    assert code == 1
    assert err == ""
    payload = strict_json(out)
    assert payload["pass"] is False
    assert [c["max_residual"] for c in payload["checks"]] == [None] * 4
    assert not any(c["pass"] for c in payload["checks"])


@pytest.mark.parametrize(
    "argv",
    [
        ("rep", "--dim", "63", "--parity", "odd", "--matrix", "2,1,1,1"),
        ("rep", "--dim", "32", "--parity", "even", "--matrix", "5,2,2,1", "--index-style", "symmetric"),
    ],
)
def test_rep_streams_the_text_of_one_json_dump(capsys, argv):
    # rep writes the unitary's rows one at a time; the text is still that of
    # one json.dumps of the whole payload
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps(strict_json(out), allow_nan=False) + "\n"


def test_rep_peak_is_linear_in_the_dimension():
    # rep holds one row and the L = 8R texts of its roots, 1.0 to 1.8 KiB
    # per N here; a budget of 4 KiB per N, fixed before measuring, is about
    # a twentieth of what rounding U(S) to a table held (78 B per entry).
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for dim, parity in (("1023", "odd"), ("1024", "even")):
            argv = ["rep", "--dim", dim, "--parity", parity, "--matrix", "5,2,2,1"]
            assert main(argv[:2] + ["3" if parity == "odd" else "2"] + argv[3:]) == 0
            tracemalloc.start()
            try:
                code = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert peak < 4096 * int(dim), (dim, parity, peak)


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


def test_verify_uniqueness_at_largest_even_dimension_passes(capsys):
    # even N = 52, admitted through the certified fold's N^2 representatives
    code, out, _ = run(capsys, "verify", "--dim", "52", "--parity", "even", "--suite", "uniqueness")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_sw_at_dimension_31_passes(capsys):
    code, out, _ = run(capsys, "verify", "--dim", "31", "--parity", "odd", "--suite", "sw")
    assert code == 0
    assert json.loads(out)["pass"] is True


# The ids are kept from when this list also held a translation argv (argv3),
# a suite verify no longer offers.
@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--dim", "113", "--parity", "odd", "--suite", "sw"),
        ("verify", "--dim", "72", "--parity", "even", "--suite", "sw"),
        ("verify", "--dim", "55", "--parity", "odd", "--suite", "all"),
        ("verify", "--dim", "54", "--parity", "even", "--suite", "all"),
    ],
    ids=["argv0", "argv1", "argv2", "argv4"],
)
def test_verify_dense_suites_above_bound_exit_two(argv):
    # The kernel suite (sw) has its own bound over the whole lattice, odd
    # N <= 111 and even N <= 70, and above it is refused before any table
    # is built; all also stops where uniqueness does, above odd N = 53 and
    # even N = 52.
    child = run_capped(*argv)
    assert child.returncode == 2
    assert child.stdout == ""
    assert "bound" in child.stderr


@pytest.mark.parametrize("dim,parity", [("55", "odd"), ("54", "even")])
def test_verify_all_is_refused_before_any_suite_builds(capsys, monkeypatch, dim, parity):
    # all runs its suites narrowest bound first, so uniqueness refuses the
    # request before the kernel suite (admitted to odd 111, even 70) builds
    calls = []
    monkeypatch.setattr(oracle, "verify_sw_kernel", lambda *args: calls.append(args))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", "--dim", dim, "--parity", parity, "--suite", "all")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert "uniqueness graph" in err
    assert calls == []
    assert peak < 2**20


@pytest.mark.parametrize("dim,parity,failing", [("111", "odd", []), ("70", "even", ["sw_unit_trace"])])
def test_verify_sw_at_largest_dimensions(dim, parity, failing):
    # the kernel suite's largest sizes, in the capped child; on the doubled
    # grid only the red unit trace (criterion 06) fails
    child = run_capped("verify", "--dim", dim, "--parity", parity, "--suite", "sw")
    assert child.returncode == (1 if failing else 0), child.stderr
    checks = strict_json(child.stdout)["checks"]
    assert [check["name"] for check in checks if not check["pass"]] == failing


# The id argv2 is kept from when this list also held rep's two argvs, which
# test_rep_is_exact_above_the_covariance_bound now covers.
@pytest.mark.parametrize(
    "argv",
    [("verify", "--dim", "2049", "--parity", "odd", "--suite", "covariance")],
    ids=["argv2"],
)
def test_covariance_above_bound_exits_two(argv):
    # One covariance element's 64 bytes per entry pass 256 MiB above odd
    # N = 2047 and even N = 2048, as u_of's build does; refused before U(S)
    # is built.
    child = run_capped(*argv)
    assert child.returncode == 2
    assert child.stdout == ""
    assert "bound" in child.stderr


@pytest.mark.parametrize("dim,parity", [("1023", "odd"), ("1024", "even")])
def test_verify_covariance_passes_at_large_dimensions(dim, parity):
    child = run_capped("verify", "--dim", dim, "--parity", parity, "--suite", "covariance")
    assert child.returncode == 0, child.stderr
    assert strict_json(child.stdout)["pass"] is True


@pytest.mark.parametrize("dim,parity", [("255", "odd"), ("256", "even")])
def test_rep_is_exact_above_the_covariance_bound(dim, parity):
    # rep certifies U(S)'s closed form in O(1), with no table or N^3 block
    child = run_capped("rep", "--dim", dim, "--parity", parity, "--matrix", "2,1,1,1")
    assert child.returncode == 0, child.stderr
    payload = strict_json(child.stdout)
    assert payload["exact"] is True
    assert payload["covariance_residual"] == 0.0
    assert payload["table_residual"] < 1e-12


@pytest.mark.parametrize("dim,parity", [("1833", "odd"), ("1832", "even")])
def test_rep_above_output_bound_exits_two(dim, parity):
    # rep's output bound, 80 bytes per unitary entry, passes 256 MiB above
    # odd N = 1831 and even N = 1830; rep refuses before it builds U(S)
    child = run_capped("rep", "--dim", dim, "--parity", parity, "--matrix", "1,1,0,1")
    assert child.returncode == 2
    assert child.stdout == ""
    assert "rep output" in child.stderr


@pytest.mark.parametrize("dim", ["2049", "20001"])
def test_rep_above_unitary_bound_exits_two(dim):
    # far above the output bound, which refuses before anything is allocated
    child = run_capped("rep", "--dim", dim, "--parity", "odd", "--matrix", "1,1,0,1")
    assert child.returncode == 2
    assert child.stdout == ""
    assert "bound" in child.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--dim", "1673", "--parity", "odd", "--suite", "projectivity"),
        ("verify", "--dim", "1674", "--parity", "even", "--suite", "projectivity"),
        ("verify", "--dim", "20001", "--parity", "odd", "--suite", "projectivity"),
    ],
)
def test_projectivity_above_bound_exits_two(argv):
    # One pair's six N x N complex arrays pass 256 MiB above odd N = 1671
    # and even N = 1672; at N = 20001 one generator alone is several GB.
    child = run_capped(*argv)
    assert child.returncode == 2
    assert child.stdout == ""
    assert "bound" in child.stderr


@pytest.mark.parametrize("dim,parity", [("10000000000000000001", "odd"), ("4611686018427387906", "even")])
def test_projectivity_above_int64_moduli_is_refused_before_any_draw(capsys, dim, parity):
    # Moduli above 2^63, where numpy draws no random element: the pair's
    # bound refuses the request first, in process, with nothing allocated.
    argv = ("verify", "--dim", dim, "--parity", parity, "--suite", "projectivity")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert f"projectivity pair at dimension {dim} needs" in err
    assert peak < 2**20


def test_verify_projectivity_at_dimension_169_passes(capsys):
    argv = ("verify", "--dim", "169", "--parity", "odd", "--suite", "projectivity")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("parity,dim", [("odd", "5"), ("even", "4")])
def test_verify_projectivity_catches_a_broken_representation(capsys, monkeypatch, parity, dim):
    # a phase on one row of U(S) whenever b and c are both nonzero: still
    # deterministic in S, but no longer projective
    u_stack = metaplectic._u_stack

    def mutant(elements, lattice_parity):
        stack = u_stack(elements, lattice_parity)
        for matrix, s in zip(stack, elements):
            if s.b and s.c:
                matrix[0] *= 1j
        return stack

    monkeypatch.setattr(metaplectic, "_u_stack", mutant)
    argv = ("verify", "--dim", dim, "--parity", parity, "--suite", "projectivity")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    (check,) = json.loads(out)["checks"]
    assert check["name"] == "projectivity"
    assert check["pass"] is False


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
