"""Property tests over random generator words and command-line inputs
(needs hypothesis, a test extra)."""

import contextlib
import io
import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from phasepoint import cli  # noqa: E402
from phasepoint.oracle import verify_uniqueness  # noqa: E402
from phasepoint.lattice import EVEN, ODD, lattice_modulus  # noqa: E402
from phasepoint.symplectic import GenWord  # noqa: E402

# composite dimensions: odd 9, 15, 21, 25 and even 6, 10, 12 (moduli 2N)
COMPOSITE = [(9, ODD), (15, ODD), (21, ODD), (25, ODD), (6, EVEN), (10, EVEN), (12, EVEN)]


@st.composite
def words_at_composite_moduli(draw):
    n, parity = draw(st.sampled_from(COMPOSITE))
    modulus = lattice_modulus(n, parity)
    factors = draw(
        st.lists(
            st.tuples(st.sampled_from("+-"), st.integers(1, modulus - 1)),
            min_size=1,
            max_size=8,
        )
    )
    return GenWord(tuple(factors), modulus).evaluate(), parity


@settings(max_examples=60, deadline=None)
@given(words_at_composite_moduli())
def test_uniqueness_holds_for_random_words(case):
    s, parity = case
    report = verify_uniqueness(s, parity)
    assert report.nullity == 1
    assert report.unitary_found
    assert report.closed_form_residual < 1e-9


MODULI = st.one_of(
    st.sampled_from([0, 1, -1, 2, 3, 4, 12, 13, 2**61 - 1, 2**64 + 1]),
    st.integers(-(2**70), 2**70),
)
ENTRY = st.one_of(st.integers(-(2**70), 2**70), st.integers(-3, 12))
WELL_FORMED = st.lists(ENTRY, min_size=4, max_size=4).map(lambda e: ",".join(map(str, e)))
MALFORMED = st.one_of(
    st.text(max_size=24),
    st.lists(ENTRY, max_size=6).map(lambda e: ",".join(map(str, e))),
    st.sampled_from(["", ",,,", "1,0,0,1,", "1;0;0;1", "1.0,0,0,1", "a,b,c,d", " 1, 0, 0, 1"]),
)


@st.composite
def decompose_arguments(draw):
    """A modulus and a matrix string: symplectic for that modulus (written
    with representatives off by random multiples of it), well formed but
    arbitrary, or malformed."""
    modulus = draw(MODULI)
    if modulus >= 2 and draw(st.booleans()):
        factors = draw(
            st.lists(st.tuples(st.sampled_from("+-"), st.integers(1, modulus - 1)), max_size=6)
        )
        entries = GenWord(tuple(factors), modulus).evaluate().entries
        shifts = draw(st.lists(st.integers(-3, 3), min_size=4, max_size=4))
        matrix = ",".join(str(e + k * modulus) for e, k in zip(entries, shifts))
    else:
        matrix = draw(st.one_of(WELL_FORMED, MALFORMED))
    return draw(st.one_of(st.just(str(modulus)), st.text(max_size=8))), matrix


def run_cli(argv):
    """cli.main on argv: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(arguments=decompose_arguments(), method=st.sampled_from(["euclid", "bfs"]))
def test_decompose_command_exits_cleanly(arguments, method):
    modulus, matrix = arguments
    code, out, err = run_cli(
        ["decompose", f"--modulus={modulus}", f"--matrix={matrix}", f"--method={method}"]
    )
    assert code in (0, 2, 3)
    if code:
        assert "error:" in err
        assert out == ""


# rep, verify and wigner over bad and boundary input. Dimensions are only
# invalid, small (<= 9) or huge (>= 10^4): a huge one must be refused by a
# size bound before any work, so no large suite ever runs.
DIMENSIONS = st.one_of(
    st.integers(-3, 9),
    st.sampled_from([-(10**6), 10_000, 10_001, 2**31 + 1]),
    st.integers(10_000, 10**12),
)
PARITIES = st.sampled_from([ODD, EVEN, ODD, EVEN, "diagonal"])
NAN_MATRICES = st.sampled_from(["nan,0,0,1", "1,0,0,nan", "inf,1,0,1", "1e3,0,0,1", "-nan,0,0,1"])
TOLS = st.one_of(
    st.none(),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "0", "-0", "-1", "1e-30", "1e-9", "1", "x"]),
    st.floats().map(repr),
)
SUITES = st.sampled_from(["sw", "translation", "covariance", "projectivity", "uniqueness", "all"])


def assert_clean_exit(code, out, err):
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert "error:" in err
        assert out == ""


@st.composite
def rep_matrices(draw, dim, parity):
    """A symplectic matrix for the lattice when it has one, else any string."""
    fits = parity in (ODD, EVEN) and 2 <= dim <= 9 and (dim % 2 == 1) == (parity == ODD)
    if fits and draw(st.booleans()):
        modulus = lattice_modulus(dim, parity)
        factors = draw(
            st.lists(st.tuples(st.sampled_from("+-"), st.integers(1, modulus - 1)), max_size=6)
        )
        return ",".join(map(str, GenWord(tuple(factors), modulus).evaluate().entries))
    return draw(st.one_of(WELL_FORMED, MALFORMED, NAN_MATRICES))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=DIMENSIONS, parity=PARITIES)
def test_rep_command_exits_cleanly(data, dim, parity):
    matrix = data.draw(rep_matrices(dim, parity))
    assert_clean_exit(*run_cli(["rep", f"--dim={dim}", f"--parity={parity}", f"--matrix={matrix}"]))


@settings(max_examples=150, deadline=None)
@given(dim=DIMENSIONS, parity=PARITIES, suite=SUITES, tol=TOLS)
def test_verify_command_exits_cleanly(dim, parity, suite, tol):
    argv = ["verify", f"--dim={dim}", f"--parity={parity}", f"--suite={suite}"]
    if tol is not None:
        argv.append(f"--tol={tol}")
    code, out, err = run_cli(argv)
    assert_clean_exit(code, out, err)
    if tol is not None and code != 2:
        assert math.isfinite(float(tol)) and float(tol) > 0


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["dim", "amplitudes", "x"]), inner, max_size=3),
    max_leaves=12,
)
BROKEN_TEXT = st.sampled_from(
    [
        "[" * 200_000,
        '{"dim": 3, "amplitudes": ' + "[" * 200_000,
        '{"dim": Infinity, "amplitudes": []}',
        '{"dim": NaN, "amplitudes": []}',
        '{"dim": 1e400, "amplitudes": []}',
        '{"dim": 2, "amplitudes": [[1e400, 0], [0, 0]]}',
        '{"dim": 2, "amplitudes": [[NaN, 0], [0, 0]]}',
        "",
        "{",
    ]
)


@st.composite
def state_files(draw):
    """The text of a state file: a state of small or huge dimension (with a
    declared dim that may be wrong, and amplitudes that may be
    unnormalized or NaN), arbitrary JSON, or broken text."""
    kind = draw(st.sampled_from(["state", "json", "text"]))
    if kind == "text":
        return draw(st.one_of(BROKEN_TEXT, st.text(max_size=40)))
    if kind == "json":
        return json.dumps(draw(JSON_VALUES))
    dim = draw(st.one_of(st.integers(0, 9), st.sampled_from([10_000, 10_001])))
    if dim <= 9 and draw(st.booleans()):
        pairs = st.tuples(st.floats(), st.floats()).map(list)
        amplitudes = draw(st.lists(pairs, min_size=dim, max_size=dim))
    else:
        amplitudes = [[0.0, 0.0]] * dim
        if dim:
            amplitudes[draw(st.integers(0, dim - 1))] = [1.0, 0.0]
    declared = draw(st.one_of(st.just(dim), st.integers(-1, 11), JSON_VALUES))
    return json.dumps({"dim": declared, "amplitudes": amplitudes})


@pytest.fixture(scope="module")
def state_path(tmp_path_factory):
    return tmp_path_factory.mktemp("state") / "state.json"


@settings(max_examples=150, deadline=None)
@given(text=state_files(), parity=PARITIES)
def test_wigner_command_exits_cleanly(state_path, text, parity):
    state_path.write_text(text, encoding="utf-8")
    assert_clean_exit(*run_cli(["wigner", f"--state={state_path}", f"--parity={parity}"]))
