"""The package root, the lattice helpers, the point action
(phasepoint.apply_point), U(S)'s closed form (weil) and the decompose and
rep commands must run without numpy, and without ``dataclasses`` or
``inspect``.

The child process poisons ``numpy`` in ``sys.modules`` before anything from
phasepoint is imported, so any import of numpy (direct, or through a numeric
layer) raises ImportError there and fails the test. ``dataclasses`` loads
``inspect`` and its import chain, about 12 ms of every decompose process,
so the child also checks that neither was loaded.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from phasepoint.cli import main

CHILD = r"""
import contextlib
import io
import json
import sys

sys.modules["numpy"] = None

import phasepoint
from phasepoint import cli, lattice, symplectic, weil


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def fail_decompose(s):
    raise symplectic.DecompositionFailed("injected failure")


def wrong_word(s):
    return symplectic.GenWord((), s.modulus)


results = {"help": run("--help")}
results["hilbert_dim"] = [lattice.hilbert_dim(7, "odd"), lattice.hilbert_dim(8, "even")]
big = 2**20
results["fold_exponent"] = [
    lattice.fold_exponent(x, y, big)
    for x, y in ((big + 3, 4), (big + 3, 5), (3, big + 5), (big + 3, big + 5), (-1, 1))
]
results["certified"] = [
    weil.certify(weil.descriptor(s, parity), s, parity)
    for s, parity in ((symplectic.SympMat(2, 1, 1, 1, 2**61 - 1), "odd"),
                      (symplectic.SympMat(2, 1, 1, 1, 2**21), "even"))
]
results["apply_point"] = phasepoint.apply_point(symplectic.SympMat(2, 1, 1, 1, 5), (1, 2))
for method, name in (("euclid", "decompose"), ("bfs", "bfs_decompose")):
    dec = ("decompose", "--method", method, "--modulus")
    results[method] = [
        run(*dec, "11", "--matrix", "2,1,1,1"),
        run(*dec, "11", "--matrix", "1,1,1,1"),
        run(*dec, "11", "--matrix", "1,2"),
        run(*dec, "1", "--matrix", "1,0,0,1"),
    ]
    if method == "bfs":
        results[method].append(run(*dec, "1009", "--matrix", "2,1,1,1"))
    for fake in (fail_decompose, wrong_word):
        setattr(cli, name, fake)
        results[method].append(run(*dec, "11", "--matrix", "2,1,1,1"))
    setattr(cli, name, getattr(symplectic, name))
rep = ("rep", "--parity")
results["rep"] = [
    run(*rep, parity, "--dim", dim, "--matrix", "5,2,2,1", "--index-style", style)
    for parity, dim in (("odd", "63"), ("even", "32"))
    for style in ("canonical", "symmetric")
]
results["rep"].append(run(*rep, "odd", "--dim", "63", "--matrix", "1,1,1,1"))
results["rep"].append(run(*rep, "odd", "--dim", "1833", "--matrix", "2,1,1,1"))
weil.four_factor_word = fail_decompose
results["rep"].append(run(*rep, "odd", "--dim", "63", "--matrix", "2,1,1,1"))
weil.four_factor_word = symplectic.four_factor_word
results["start_up_modules"] = sorted(
    name for name in ("dataclasses", "inspect") if name in sys.modules
)
results["numeric_modules"] = sorted(
    name for name in sys.modules
    if name.startswith("phasepoint.") and name.split(".")[1] in
    ("qops", "metaplectic", "wigner", "oracle")
)
print(json.dumps(results))
"""


def test_root_and_decompose_import_no_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    child = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, env=env, timeout=60
    )
    assert child.returncode == 0, child.stderr
    results = json.loads(child.stdout)
    assert results["help"]["code"] == 0
    assert "decompose" in results["help"]["out"]
    assert results["hilbert_dim"] == [7, 4]
    # Delta_(x+N,y) = (-1)^y Delta_(x,y), Delta_(x,y+N) = (-1)^x Delta_(x,y)
    assert results["fold_exponent"] == [0, 2**20, 2**20, 0, 2**20]
    assert results["certified"] == [True, True]
    assert results["apply_point"] == [4, 3]
    for method, expected in (("euclid", [0, 2, 2, 2, 3, 3]), ("bfs", [0, 2, 2, 2, 2, 3, 3])):
        runs = results[method]
        assert [r["code"] for r in runs] == expected
        assert json.loads(runs[0]["out"])["verified"] is True
        for r in runs[1:]:
            assert r["out"] == ""
            assert r["err"].startswith("error:")
    rep = results["rep"]
    assert [r["code"] for r in rep] == [0, 0, 0, 0, 2, 2, 3]
    argvs = [("rep", "--parity", parity, "--dim", dim, "--matrix", "5,2,2,1", "--index-style", style)
             for parity, dim in (("odd", "63"), ("even", "32"))
             for style in ("canonical", "symmetric")]
    for r, argv in zip(rep, argvs):
        # the same text as a run beside numpy and the numeric layers
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(argv)) == 0
        assert r["out"] == out.getvalue()
        payload = json.loads(r["out"])
        assert (payload["exact"], len(payload["unitary"])) == (True, int(argv[4]))
    for r in rep[4:]:
        assert r["out"] == ""
        assert r["err"].startswith("error:")
    assert "det" in rep[4]["err"]
    assert "bound" in rep[5]["err"]
    assert "injected" in rep[6]["err"]
    assert results["numeric_modules"] == []
    assert results["start_up_modules"] == []


def test_only_qops_references_delta_family():
    # The dense kernel family is a small-N test reference: the oracles and
    # the CLI read the kernel_factors tables, so no other module of the
    # package may import or call it.
    import ast

    package = Path(__file__).resolve().parents[1] / "src" / "phasepoint"
    references = []
    for path in sorted(package.glob("*.py")):
        if path.name == "qops.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name == "delta_family":
                references.append(f"{path.name}:{node.lineno}")
    assert references == []


def test_cli_names_no_private_attribute_of_another_module():
    # verify's group-wide passes sit behind metaplectic's public drivers:
    # the CLI imports no underscore name from the package and reads no
    # underscore attribute of a package module it imported.
    import ast

    path = Path(__file__).resolve().parents[1] / "src" / "phasepoint" / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, references = set(), []
    for node in ast.walk(tree):
        package = getattr(node, "module", None) or ""
        if isinstance(node, ast.ImportFrom) and (node.level or package.startswith("phasepoint")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    references.append(f"cli.py:{node.lineno} {alias.name}")
                if node.module is None or node.module == "phasepoint":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            names = [a for a in node.names if a.name.startswith("phasepoint")]
            modules.update(a.asname or a.name for a in names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            if ast.unparse(node.value) in modules:
                references.append(f"cli.py:{node.lineno} {ast.unparse(node)}")
    assert references == []
