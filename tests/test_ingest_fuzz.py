"""load_spec on hostile file structure: it returns a spec or raises SpecError.

Any JSON root, rows of arbitrary JSON values, NaN/Infinity tokens, integers
beyond the double range, nesting far past the parser's recursion limit and
invalid UTF-8 bytes. A traceback of any other type would reach the CLI as
exit 1 instead of the exit 2 an invalid specification gets.
"""
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from wdistill.cli import load_spec
from wdistill.errors import SpecError
from wdistill.protocol import WPrimeSpec

HUGE = 10**400  # beyond the largest double
NUMBERS = st.floats() | st.integers(-HUGE, HUGE)  # floats() draws nan and +-inf
SCALARS = st.none() | st.booleans() | NUMBERS | st.text(max_size=6)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**64), 2**64)


def pairs(numbers):
    return st.lists(numbers, min_size=2, max_size=2)


# all rows well formed, so that some files get as far as the magnitudes; or any rows
ROWS = st.lists(pairs(FINITE), min_size=2, max_size=6) | st.lists(pairs(NUMBERS) | VALUES, max_size=6)
DOCS = VALUES | st.fixed_dictionaries(
    {"coefficients": ROWS}, optional={"normalize": st.booleans() | VALUES}
)
# json.dumps writes NaN and Infinity tokens for non-finite floats
TEXTS = DOCS.map(json.dumps) | st.integers(0, 10**5).map(
    lambda depth: '{"coefficients": ' + "[" * depth + "]" * depth + "}"
)
BAD_UTF8 = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"])


@st.composite
def files(draw) -> bytes:
    data = draw(TEXTS).encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(BAD_UTF8) + data[at:]
    return data


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=files(), allow_unnormalized=st.booleans())
def test_load_spec_returns_a_spec_or_raises_spec_error(tmp_path_factory, data, allow_unnormalized):
    path = tmp_path_factory.getbasetemp() / "hostile.json"
    path.write_bytes(data)
    try:
        spec, factor = load_spec(str(path), allow_unnormalized)
    except SpecError:
        return
    assert isinstance(spec, WPrimeSpec) and isinstance(factor, float)
