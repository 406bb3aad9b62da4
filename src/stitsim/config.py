"""Run configuration schema, canonical JSON and config hashing.

Serialized floats are IEEE-754 doubles printed in Python's shortest
round-trip repr (`0.1`, `1.0`, `-0.0`, `1e+16`), so `json.loads` gives back
the same double; keys are sorted and separators are fixed, so a
(config, seed) pair determines every output byte.  The writers' large
arrays reach dumps_canonical as Encoded values, texts written from array
columns (number_texts, join_rows), and are written in place unchanged.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import ConfigError
from .measure import Discrete, DrivingMeasure, Isotropic2D


@dataclass(frozen=True, eq=False)
class Encoded:
    """A value held as its canonical JSON text: dumps_canonical places the
    text in its output as it stands.  The writers' large arrays are values
    of this kind, written from array columns when the payload is built."""

    text: str


def _holds_encoded(obj) -> bool:
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return isinstance(obj, Encoded)
    return any(map(_holds_encoded, obj))


def dumps_canonical(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace, floats in Python's
    shortest round-trip repr.  Non-finite floats raise ValueError and
    values JSON has no form for raise TypeError.

    An Encoded value is written as its text, and a dict or list that holds
    one at any depth key by key (sorted) or item by item.  Anything else,
    a payload with no Encoded value included, is one json.dumps call.
    """
    if isinstance(obj, Encoded):
        return obj.text
    if not _holds_encoded(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(k) + ":" + dumps_canonical(v)
                              for k, v in sorted(obj.items())) + "}"
    return "[" + ",".join(map(dumps_canonical, obj)) + "]"


def number_texts(a) -> np.ndarray:
    """Each entry of the numeric array a as its JSON text (Python's repr
    for a float), an object array of a's shape.  Each distinct value, for
    floats each bit pattern, so -0.0 apart from 0.0, is formatted once."""
    a = np.asarray(a)
    is_float = a.dtype.kind == "f"
    keys, inv = np.unique(
        np.ascontiguousarray(a, np.float64).ravel().view(np.int64) if is_float
        else a.ravel(), return_inverse=True)
    values = (keys.view(np.float64) if is_float else keys).tolist()
    text = json.dumps(values)[1:-1].split(", ")
    return np.array(text, dtype=object)[inv].reshape(a.shape)


def _rows(pieces) -> int:
    return max(len(p) for p in pieces if not isinstance(p, str))


def join_rows(pieces, sep: str, start: str = "", end: str = "") -> str:
    """start, the rows' texts joined by sep, then end; row i is the
    concatenation of every piece's text: pieces[j][i] for a column of
    texts, pieces[j] for a string.  One join over all rows."""
    rows = _rows(pieces)
    if not rows:
        return start + end
    table = np.empty((rows, len(pieces) + 1), dtype=object)
    for j, p in enumerate(pieces):
        table[:, j] = p
    table[:, -1] = sep
    items = table.ravel().tolist()
    items[0], items[-1] = start + items[0], end
    return "".join(items)


def row_texts(pieces) -> list[str]:
    """Each row's text of join_rows, as a list; no text may hold a
    newline."""
    return join_rows(pieces, "\n").split("\n") if _rows(pieces) else []


def object_pieces(fields: dict) -> list:
    """Pieces (join_rows) of row i as the canonical JSON object
    {key: fields[key][i]}, each value a column of JSON texts."""
    pieces = []
    for key in sorted(fields):
        pieces += ["," + json.dumps(key) + ":", fields[key]]
    return ["{" + pieces[0][1:]] + pieces[1:] + ["}"]


def objects_text(fields: dict) -> str:
    """The canonical JSON array of object_pieces' rows."""
    return join_rows(object_pieces(fields), ",", "[", "]")


def hyperplane_fields(u, d) -> dict:
    """Fields (object_pieces) of the hyperplanes {x : <x, u[i]> = d[i]} as
    {"u": u[i], "d": d[i]}."""
    u = number_texts(u)
    pieces = ["["]
    for c in range(u.shape[1]):
        pieces += [u[:, c], ","]
    return {"d": number_texts(d), "u": row_texts(pieces[:-1] + ["]"])}


def config_hash(obj) -> str:
    return hashlib.sha256(dumps_canonical(obj).encode()).hexdigest()[:16]


def sanitize(obj):
    """Coerce numpy scalars and non-finite floats into JSON-clean values."""
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes, dict, list, tuple)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
    if isinstance(obj, dict):
        return {k: sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# measure and window configs

def measure_to_json(m: DrivingMeasure) -> dict:
    if isinstance(m.directional, Isotropic2D):
        directional = {"kind": "isotropic2d"}
    else:
        directional = {
            "kind": "discrete",
            "axes": [{"u": list(u), "w": w} for u, w in m.directional.axes],
        }
    return {"gamma": m.gamma, "directional": directional}


def _require_keys(d: dict, allowed: set[str], required: set[str], where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r:.40}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {where}")


def _float(x, what: str) -> float:
    """float(x) for a config number; NaN and infinities are config errors."""
    try:
        v = float(x)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"{what}: {e}") from e
    if not math.isfinite(v):
        raise ConfigError(f"{what} must be a finite number, got {v!r}")
    return v


def measure_from_json(d: dict) -> DrivingMeasure:
    _require_keys(d, {"gamma", "directional"}, {"gamma", "directional"}, "measure")
    dd = d["directional"]
    if not isinstance(dd, dict) or "kind" not in dd:
        raise ConfigError("directional must be an object with a 'kind'")
    try:
        if dd["kind"] == "isotropic2d":
            _require_keys(dd, {"kind"}, {"kind"}, "directional")
            return DrivingMeasure(_float(d["gamma"], "gamma"), Isotropic2D())
        if dd["kind"] == "discrete":
            _require_keys(dd, {"kind", "axes"}, {"kind", "axes"}, "directional")
            axes = []
            for ax in dd["axes"]:
                _require_keys(ax, {"u", "w"}, {"u", "w"}, "axis")
                axes.append((tuple(_float(x, "axis u") for x in ax["u"]),
                             _float(ax["w"], "axis w")))
            return DrivingMeasure(_float(d["gamma"], "gamma"), Discrete(tuple(axes)))
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from e
    raise ConfigError(f"unknown directional kind {dd['kind']!r}")


def _coord(x, what: str) -> float:
    """A window coordinate: finite and inside the range the geometry's
    absolute tolerance is made for (geo.GEOM_TOL)."""
    v = _float(x, what)
    if abs(v) > geo.WINDOW_LIMIT:
        raise ConfigError(f"{what} {v:g} is outside [-{geo.WINDOW_LIMIT:g}, "
                          f"{geo.WINDOW_LIMIT:g}]")
    return v


def window_from_json(d: dict):
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("window must be an object with a 'kind'")
    try:
        if d["kind"] == "box":
            _require_keys(d, {"kind", "lo", "hi"}, {"kind", "lo", "hi"}, "window")
            return geo.Box(tuple(_coord(x, "window lo") for x in d["lo"]),
                           tuple(_coord(x, "window hi") for x in d["hi"]))
        if d["kind"] == "polygon":
            _require_keys(d, {"kind", "vertices"}, {"kind", "vertices"}, "window")
            return geo.Polygon2D(tuple(tuple(_coord(x, "window vertex") for x in p)
                                       for p in d["vertices"]))
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from e
    raise ConfigError(f"unknown window kind {d['kind']!r}")


@dataclass(frozen=True)
class RunConfig:
    model: str  # "stit" or "pht"
    measure: DrivingMeasure
    window: geo.Polytope
    time: float
    rho: float
    method: str


def run_config_from_json(d: dict) -> RunConfig:
    allowed = {"model", "measure", "window", "time", "method", "rho"}
    _require_keys(d, allowed, {"model", "measure", "window"}, "config")
    model = d["model"]
    if model not in ("stit", "pht"):
        raise ConfigError(f"model must be 'stit' or 'pht', got {model!r}")
    measure = measure_from_json(d["measure"])
    window = window_from_json(d["window"])
    if isinstance(measure.directional, Isotropic2D) and window.dim != 2:
        raise ConfigError("RegimeMismatch: isotropic measure requires a 2-D window")
    if isinstance(measure.directional, Discrete) and \
            measure.directional.dim != window.dim:
        raise ConfigError("RegimeMismatch: measure and window dimensions differ")
    if window.dim > 2 and measure.axis_rates(window.dim) is None:
        raise ConfigError(
            "RegimeMismatch: dimensions above 2 support only coordinate-axis measures")
    if model == "stit":
        if "rho" in d:
            raise ConfigError("'rho' is a pht key")
        t = _float(d.get("time", 1.0), "time")
        if t <= 0:
            raise ConfigError("time must be positive")
        method = d.get("method", "direct")
        if method not in ("direct", "rejection"):
            raise ConfigError(f"method must be 'direct' or 'rejection', got {method!r}")
        return RunConfig("stit", measure, window, t, 0.0, method)
    if "time" in d or "method" in d:
        raise ConfigError("'time'/'method' are stit keys")
    rho = _float(d.get("rho", 1.0), "rho")
    if rho < 0:
        raise ConfigError("rho must be non-negative")
    return RunConfig("pht", measure, window, 0.0, rho, "direct")
