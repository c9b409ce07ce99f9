"""The array loader against the list-based reference ingest.

wdistill.cli.load_spec parses the rows into one float64 array and sums the
squares with numpy; tests/support/ingest.py keeps the loader that built a
Python complex per row and summed with a loop. On every file both must
return the same coefficients and factor to the bit, or raise the same error
with the same message.
"""
import json

import numpy as np
import pytest

from support import ingest
from wdistill.cli import load_spec


def _outcome(loader, path: str, allow_unnormalized: bool = False):
    try:
        spec, factor = loader(path, allow_unnormalized)
    except Exception as exc:  # the error itself is the outcome
        return type(exc), str(exc)
    return spec.coeffs.tobytes(), factor.hex()


def _assert_same(path: str, allow_unnormalized: bool = False):
    new = _outcome(load_spec, path, allow_unnormalized)
    ref = _outcome(ingest.load_spec, path, allow_unnormalized)
    assert new == ref
    return new


def _random_doc(seed: int) -> dict:
    """One of four kinds of coefficient file, chosen by seed: a unit vector
    as written, integer rows, rows with signed-zero components, and
    magnitudes scaled by up to 1e+-200; the last three set normalize."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 64))
    kind = seed % 4
    if kind == 1:
        rows = rng.integers(-10**6, 10**6, (n, 2)).tolist()
        rows[0][int(rng.integers(2))] = 2**60 + int(rng.integers(1, 2**20))  # beyond 2^53
        return {"coefficients": rows, "normalize": True}
    weights = rng.uniform(0.2, 1.0, n)
    c = np.sqrt(weights / weights.sum()) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    if kind == 3:
        c = c * 10.0 ** rng.uniform(-200.0, 200.0)
    rows = [[z.real, z.imag] for z in c.tolist()]
    if kind == 2:
        for row in rows:
            if rng.random() < 0.5:
                row[int(rng.integers(2))] = float(rng.choice([0.0, -0.0]))
    return {"coefficients": rows, "normalize": kind != 0}


@pytest.mark.parametrize("seed", range(200))
def test_random_files_match_the_reference(tmp_path, seed):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_random_doc(seed)), encoding="utf-8")
    assert isinstance(_assert_same(str(path))[0], bytes)


def test_unnormalized_file_matches_the_reference(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"coefficients": [[3, 0], [0, -4], [1.5, 2.5]]}), encoding="utf-8")
    assert _assert_same(str(path))[0].__name__ == "SpecError"
    assert isinstance(_assert_same(str(path), allow_unnormalized=True)[0], bytes)


# raw file text, malformed or at the edge of the accepted range
EDGE_FILES = {
    "bool": '{"coefficients": [[0.6, 0], [true, 0.8]]}',
    "string": '{"coefficients": [[0.6, 0], ["0.8", 0]]}',
    "nested": '{"coefficients": [[0.6, 0], [[0.8], 0]]}',
    "null": '{"coefficients": [[0.6, 0], null]}',
    "null_component": '{"coefficients": [[0.6, 0], [0.8, null]]}',
    "nan": '{"coefficients": [[0.6, 0], [NaN, 0.8]]}',
    "infinity": '{"coefficients": [[0.6, 0], [0, Infinity]]}',
    "minus_infinity": '{"coefficients": [[0.6, 0], [-Infinity, 0]]}',
    "three_elements": '{"coefficients": [[0.6, 0, 0], [0.8, 0]]}',
    "one_element": '{"coefficients": [[0.6, 0], [0.8]]}',
    "one_row": '{"coefficients": [[1, 0]]}',
    "int_401_digits": '{"coefficients": [[1, 0], [1' + "0" * 400 + ", 0]]}",
    "int_301_digits": '{"coefficients": [[1, 0], [1' + "0" * 300 + ', 0]], "normalize": true}',
    # a JSON -0 is the integer 0: -3 + 0i, arg pi, where a float -0.0 would give -pi
    "minus_zero_ints": '{"coefficients": [[-3, -0], [-0, 4]], "normalize": true}',
    "all_zero": '{"coefficients": [[0, -0.0], [0.0, 0]], "normalize": true}',
    "subnormal_only": '{"coefficients": [[5e-324, 0], [0, 5e-324]], "normalize": true}',
    "underflow": '{"coefficients": [[1.0, 0.0], [1e-170, 0.0]]}',
    "dynamic_range": '{"coefficients": [[1e200, 0], [1e-200, 0]], "normalize": true}',
    "zero_row": '{"coefficients": [[1, 0], [0, 0]]}',
    "not_object": "[[0.6, 0], [0.8, 0]]",
    "no_coefficients": '{"coeffs": [[0.6, 0], [0.8, 0]]}',
    "coefficients_not_list": '{"coefficients": "nope"}',
    "duplicate_keys": '{"coefficients": [[1, 0]], "coefficients": [[0.6, 0], [0, 0.8]]}',
    "normalize_not_bool": '{"coefficients": [[3, 0], [4, 0]], "normalize": 1}',
    "invalid_json": "{not json",
    "unnormalized": '{"coefficients": [[3, 0], [4, 0]]}',
    # 0.8060503826503107 ** 2 (libm pow) and its np.square round apart
    "square_rounding": '{"coefficients": [[0.8060503826503107, 0], [0.8060503826503107, 0]], "normalize": true}',
}


@pytest.mark.parametrize("name", sorted(EDGE_FILES))
def test_edge_files_match_the_reference(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(EDGE_FILES[name], encoding="utf-8")
    _assert_same(str(path))


def test_missing_file_matches_the_reference(tmp_path):
    kind, message = _assert_same(str(tmp_path / "absent.json"))
    assert kind.__name__ == "UsageError" and "cannot read" in message
