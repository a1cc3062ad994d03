import json
import math

import numpy as np

from gradcert.serialize import fmt_float, render_json, write_json


def test_fmt_float_round_trips():
    cases = [
        0.0,
        1.0,
        29.0 / 35.0,
        math.pi,
        1e-300,
        -2.2250738585072014e-308,
        5e-324,
        1.7976931348623157e308,
        0.1,
        2.0 / 3.0,
    ]
    for x in cases:
        assert float(fmt_float(x)) == x


def test_fmt_float_special_values():
    assert fmt_float(float("nan")) == "nan"
    assert fmt_float(float("inf")) == "inf"
    assert fmt_float(float("-inf")) == "-inf"


def test_fmt_float_precision():
    # 29/35 needs all 17 digits to survive a round trip
    s = fmt_float(29.0 / 35.0)
    assert s == "0.82857142857142863"


def test_render_json_is_valid_and_ordered():
    doc = {"b": 1, "a": [1.5, 2.5], "m": {"x": True, "y": None}}
    text = render_json(doc)
    parsed = json.loads(text)
    assert parsed == {"b": 1, "a": [1.5, 2.5], "m": {"x": True, "y": None}}
    # insertion order preserved verbatim
    assert text.index('"b"') < text.index('"a"') < text.index('"m"')


def test_render_json_arrays_round_trip():
    arr = np.array([[1.0, 2.0 / 3.0], [1e-17, 3e8]])
    parsed = json.loads(render_json({"m": arr}))
    assert np.array_equal(np.array(parsed["m"]), arr)


def test_render_json_nonfinite_becomes_null():
    parsed = json.loads(render_json({"v": [1.0, float("nan"), float("inf")]}))
    assert parsed["v"] == [1.0, None, None]


def test_render_json_deterministic():
    doc = {"x": np.arange(20) / 7.0, "s": "hi", "f": False}
    assert render_json(doc) == render_json(doc)


def test_write_json_converts_numpy_values_to_strict_json(tmp_path):
    path = tmp_path / "doc.json"
    doc = {
        "nan": np.float64("nan"),
        "count": np.int64(7),
        "flag": np.bool_(True),
        "v": np.array([1.5, np.inf, -np.inf, 0.1]),
        "inf": -math.inf,
    }
    write_json(path, doc)

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    parsed = json.loads(path.read_text(), parse_constant=refuse)
    assert parsed == {"nan": None, "count": 7, "flag": True, "v": [1.5, None, None, 0.1], "inf": None}
