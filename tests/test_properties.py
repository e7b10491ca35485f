"""Property tests over random generator words (needs hypothesis, a test extra)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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
