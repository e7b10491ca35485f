"""Property tests over random generator words and command-line inputs
(needs hypothesis, a test extra)."""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from phasepoint import cli  # noqa: E402
from phasepoint.oracle import verify_uniqueness  # noqa: E402
from phasepoint.qops import EVEN, ODD  # noqa: E402
from phasepoint.symplectic import GenWord  # noqa: E402

# composite dimensions: odd 9, 15, 21, 25 and even 6, 10, 12 (moduli 2N)
COMPOSITE = [(9, ODD), (15, ODD), (21, ODD), (25, ODD), (6, EVEN), (10, EVEN), (12, EVEN)]


@st.composite
def words_at_composite_moduli(draw):
    n, parity = draw(st.sampled_from(COMPOSITE))
    modulus = n if parity == ODD else 2 * n
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


@settings(max_examples=300, deadline=None)
@given(arguments=decompose_arguments(), method=st.sampled_from(["euclid", "bfs"]))
def test_decompose_command_exits_cleanly(arguments, method):
    modulus, matrix = arguments
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(
            ["decompose", f"--modulus={modulus}", f"--matrix={matrix}", f"--method={method}"]
        )
    assert code in (0, 2, 3)
    if code:
        assert "error:" in err.getvalue()
        assert out.getvalue() == ""
