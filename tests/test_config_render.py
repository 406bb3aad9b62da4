"""Canonical serialization, config validation and SVG rendering."""

import hashlib
import json
import math
import struct
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import oracles
from stitsim import geometry as geo
from stitsim import stit
from stitsim.config import (_MARK, Encoded, config_hash, dumps_canonical,
                            measure_from_json, measure_to_json, number_texts,
                            run_config_from_json, sanitize, window_from_json)
from stitsim.errors import ConfigError
from stitsim.measure import axis_measure, isotropic_measure
from stitsim.pht import PoissonHyperplanePattern, pattern_to_json, simulate_pht
from stitsim.render import render_pattern, render_tessellation
from stitsim.rng import stream


def test_dumps_canonical_forms():
    assert dumps_canonical({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    assert dumps_canonical([1.0, 0.5, True, None]) == '[1.0,0.5,true,null]'
    assert dumps_canonical(0.1) == "0.1"
    assert dumps_canonical(2.0 ** 0.5) == "1.4142135623730951"
    assert dumps_canonical("a\"b") == '"a\\"b"'
    for x in (-0.0, 2.0, 1e16, 5e-324, 0.1, 2.0 ** 0.5):
        back = json.loads(dumps_canonical(x))
        assert type(back) is float
        assert struct.pack("<d", back) == struct.pack("<d", x)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            dumps_canonical([bad])
    with pytest.raises(TypeError):
        dumps_canonical({"a": object()})


def test_dumps_canonical_splices_encoded_values():
    # a pre-encoded value is written where it stands, in a dict or a list,
    # and keys sort around it
    obj = {"b": Encoded('[{"a":1},2.5]'), "c": "x",
           "a": [1, Encoded("null"), {"z": Encoded("-0.0"), "y": 1e-05}]}
    plain = {"b": [{"a": 1}, 2.5], "c": "x",
             "a": [1, None, {"z": -0.0, "y": 1e-05}]}
    text = dumps_canonical(obj)
    assert text == '{"a":[1,null,{"y":1e-05,"z":-0.0}],"b":[{"a":1},2.5],"c":"x"}'
    assert text == dumps_canonical(plain)
    assert json.loads(text) == json.loads(json.dumps(plain))
    # strings equal to the stand-ins json writes for Encoded values stay
    # quoted strings, as keys and as values, and every value still lands
    for marks in ([_MARK.format(0)], [_MARK.format(0), _MARK.format(1)]):
        tricky = {"a": marks, "b": Encoded("[7]"), marks[0]: "k",
                  "c": ["x" + marks[0], Encoded("8")]}
        back = {"a": marks, "b": [7], marks[0]: "k",
                "c": ["x" + marks[0], 8]}
        text = dumps_canonical(tricky)
        assert json.loads(text) == back
        assert text == dumps_canonical(back)
    # non-finite floats beside an Encoded value still raise
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            dumps_canonical({"a": Encoded("1"), "b": [bad]})
    with pytest.raises(TypeError):
        dumps_canonical({"a": Encoded("1"), "b": object()})


def test_number_texts_match_python_formatting():
    # one text per distinct bit pattern: -0.0 and 0.0 stay apart
    a = np.array([[0.1, -0.0], [1e-05, 0.0], [1e+16, 0.1], [5e-324, -2.5]])
    assert number_texts(a).tolist() == [[repr(x) for x in row]
                                        for row in a.tolist()]
    assert number_texts(np.array([3, 0, 3, 12])).tolist() == \
        ["3", "0", "3", "12"]
    v = np.array([-1e-7, 0.004999, 0.005, 1234.5678, -0.0])
    assert number_texts(v, "%.2f").tolist() == [f"{x:.2f}" for x in v.tolist()]
    assert number_texts(np.zeros((0, 2))).shape == (0, 2)


def test_config_hash_stable():
    h = config_hash({"gamma": 1.0, "axes": [1, 2]})
    assert h == config_hash({"axes": [1, 2], "gamma": 1.0})
    assert len(h) == 16
    assert h != config_hash({"axes": [1, 2], "gamma": 1.5})


def test_sanitize_nonfinite():
    assert sanitize({"a": math.inf, "b": [1.0, -math.inf]}) == \
        {"a": "inf", "b": [1.0, "-inf"]}


def test_measure_round_trip():
    for m in (axis_measure([1.0, 2.0]), isotropic_measure(0.7)):
        again = measure_from_json(measure_to_json(m))
        assert measure_to_json(again) == measure_to_json(m)


def test_config_validation_errors():
    base = {
        "model": "stit",
        "measure": {"gamma": 1.0, "directional": {"kind": "isotropic2d"}},
        "window": {"kind": "box", "lo": [-1, -1], "hi": [1, 1]},
        "time": 1.0,
    }
    assert run_config_from_json(base).model == "stit"
    with pytest.raises(ConfigError):
        run_config_from_json({**base, "extra": 1})
    with pytest.raises(ConfigError):
        run_config_from_json({**base, "rho": 1.0})
    with pytest.raises(ConfigError):
        run_config_from_json({**base, "model": "voronoi"})
    with pytest.raises(ConfigError):
        measure_from_json({"gamma": 1.0,
                           "directional": {"kind": "discrete", "axes": [],
                                           "junk": 1}})
    with pytest.raises(ConfigError):
        window_from_json({"kind": "sphere"})
    # isotropic measure with a 3-D window is a regime mismatch
    bad = {**base,
           "window": {"kind": "box", "lo": [-1, -1, -1], "hi": [1, 1, 1]}}
    with pytest.raises(ConfigError, match="RegimeMismatch"):
        run_config_from_json(bad)


def test_render_tessellation_svg():
    lam = axis_measure([1.0, 1.0])
    window = geo.Box((-1.0, -1.0), (1.0, 1.0))
    T = stit.slice_at(stit.simulate(lam, window, 1.0, stream(80, 0)), 1.0)
    svg = render_tessellation(T)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    # 2 units wide at 100 px per unit
    assert root.attrib["width"] == "200"
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    assert len(paths) == len(T.cells) + 1  # cells plus the window border


def test_render_pattern_svg():
    lam = axis_measure([1.0, 1.0])
    window = geo.Box((-2.0, -2.0), (2.0, 2.0))
    pat = simulate_pht(lam, 1.0, window, stream(81, 0))
    svg = render_pattern(pat)
    root = ET.fromstring(svg)
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    assert len(paths) == len(pat.hyperplanes) + 1
    # all coordinates inside the 400 x 400 canvas
    for el in paths:
        nums = [float(x) for x in
                el.attrib["d"].replace("M", " ").replace("L", " ")
                .replace("Z", " ").split()]
        assert all(-1e-6 <= v <= 400 + 1e-6 for v in nums)


PENTAGON = geo.Polygon2D(((-1.6, -0.9), (1.4, -1.2), (1.8, 0.7), (0.2, 1.9),
                          (-1.3, 1.1)))
W = geo.Box((-2.0, -2.0), (2.0, 2.0))


def test_render_pattern_isotropic_golden():
    # lines in general position on a pentagon: chords of every slope
    pat = simulate_pht(isotropic_measure(1.0), 3.0, PENTAGON, stream(83, 0))
    assert len(pat.offsets) == 14
    assert hashlib.sha256(render_pattern(pat).encode()).hexdigest() == \
        "27d6a69176305da7191f2beaea6c2baf3594405b6b4fd9b03a1f26fd202143df"


PATTERNS = {
    # name: (measure or None, window, rho, seed or (normals, offsets))
    "empty": (None, W, 1.0, (np.zeros((0, 2)), np.zeros(0))),
    # -0.0 as an offset and in a normal, exponent-form reprs, a line on the
    # window's edge and one outside it
    "edge_floats": (None, W, 1.0, (
        np.array([[1.0, 0.0], [0.6, 0.8], [-0.0, 1.0], [0.0, 1.0],
                  [1.0, 0.0], [0.8, -0.6]]),
        np.array([-0.0, 1e-05, 1e+16, 0.1, 2.0, -1.5]))),
    "axis": (axis_measure([1.0, 1.0]), W, 2.0, 84),
    "isotropic": (isotropic_measure(1.0), PENTAGON, 3.0, 85),
}


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_pattern_writers_match_oracles(name):
    # pattern_to_json and render_pattern write from the pattern's arrays
    # the bytes the oracles write one dict and one point at a time
    measure, window, rho, rows = PATTERNS[name]
    pat = (PoissonHyperplanePattern(window, rho, *rows) if measure is None
           else simulate_pht(measure, rho, window, stream(rows, 0)))
    text = dumps_canonical(pattern_to_json(pat))
    assert text == oracles.dumps_canonical(oracles.pattern_to_json(pat))
    assert render_pattern(pat) == oracles.render_pattern(pat)
    if name == "edge_floats":
        for form in ('"d":-0.0', '"d":1e-05', '"d":1e+16', '"u":[-0.0,1.0]'):
            assert form in text


def test_render_tessellation_matches_oracle_at_negative_zero():
    # cells a hair outside the window put coordinates that round to -0.00
    # on the canvas; polygon cells of several vertex counts share one array
    window = geo.Box((-1.0, -1.0), (1.0, 1.0))
    boxes = geo.BoxCells(np.array([[-1.0 - 1e-9, -1.0], [0.0, -1.0]]),
                         np.array([[0.0, 1.0 + 1e-9], [1.0, 1.0]]))
    V = np.array([[[-1.0 - 1e-9, -1.0], [0.0, -1.0], [0.0, 1.0], [-1.0, 1.0]],
                  [[0.0, -1.0], [1.0, -1.0], [0.0, 1.0 + 1e-9], [0.0, -1.0]]])
    for cells in (boxes, geo.PolygonCells(V, np.array([4, 3]))):
        T = stit.Tessellation(window, np.zeros(2, dtype=np.int64), cells, 1)
        svg = render_tessellation(T)
        assert "-0.00" in svg
        assert svg == oracles.render_tessellation(T)


def test_render_rejects_non_planar():
    lam = axis_measure([1.0, 1.0, 1.0])
    window = geo.Box((-1,) * 3, (1,) * 3)
    T = stit.slice_at(stit.simulate(lam, window, 0.3, stream(82, 0)), 0.3)
    with pytest.raises(ValueError):
        render_tessellation(T)
