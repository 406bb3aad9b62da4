"""Canonical serialization, config validation and SVG rendering."""

import json
import math
import struct
import xml.etree.ElementTree as ET

import pytest

from stitsim import geometry as geo
from stitsim import stit
from stitsim.config import (config_hash, dumps_canonical, measure_from_json,
                            measure_to_json, run_config_from_json, sanitize,
                            window_from_json)
from stitsim.errors import ConfigError
from stitsim.measure import axis_measure, isotropic_measure
from stitsim.pht import simulate_pht
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


def test_render_rejects_non_planar():
    lam = axis_measure([1.0, 1.0, 1.0])
    window = geo.Box((-1,) * 3, (1,) * 3)
    T = stit.slice_at(stit.simulate(lam, window, 0.3, stream(82, 0)), 0.3)
    with pytest.raises(ValueError):
        render_tessellation(T)
