"""JSON snapshot files for fields and metrics.

Snapshot schema: a JSON object with keys ``spec`` (n, resolutions, periods),
``basic``, ``kind``, ``encoding``, ``layout`` and ``values``.  The
``f64le-base64`` encoding stores the values as the base64 of their
little-endian float64 bytes, in row-major order over the documented axis
order (x^1, y^1, ..., x^n, y^n, x, y).  The ``layout`` says which reals
they are, one layout per kind:

* ``real``: a scalar field (scalar fields are real), one value per point;
* ``parts``: a Hermitian field, the n x n real planes of
  :func:`transverse._parts` one after the other: plane (j, j) holds
  Re g_{j jbar}, and for j < k plane (j, k) holds Re g_{j kbar} and plane
  (k, j) holds Im g_{j kbar}.  The matrices are assembled from them, so
  they are Hermitian by construction.

Without ``encoding`` (and ``layout``) the reader takes the list form:
``values`` is a flat list, one number per point for a scalar field, and
for a Hermitian field the n x n matrix flattened row-major at each point,
each complex entry an [re, im] pair.
"""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path

import numpy as np

from .exceptions import GridError, PositivityLost, SnapshotError
from .grid import GridSpec, ScalarField
from .transverse import HermitianField, _assemble, _parts

__all__ = [
    "spec_to_dict",
    "spec_from_dict",
    "field_to_dict",
    "field_from_dict",
    "save_snapshot",
    "load_snapshot",
    "load_metric_bundle",
]


def spec_to_dict(spec: GridSpec) -> dict:
    return {
        "n": spec.n,
        "transverse_resolution": list(spec.transverse_resolution),
        "transverse_periods": list(spec.transverse_periods),
        "leaf_resolution": list(spec.leaf_resolution) if spec.has_leaf else None,
        "leaf_periods": list(spec.leaf_periods) if spec.has_leaf else None,
    }


def _integer(value, name: str) -> int:
    """``value`` when it is a JSON integer (a JSON boolean is not one), else TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _resolutions(values) -> tuple[int, ...]:
    return tuple(_integer(r, "every resolution") for r in values)


def _periods(values) -> tuple[float, ...]:
    """``values`` when it is a JSON list of numbers (no booleans or strings), else TypeError."""
    if not isinstance(values, list) or any(
        isinstance(p, bool) or not isinstance(p, (int, float)) for p in values
    ):
        raise TypeError(f"periods must be a list of numbers, got {values!r}")
    return tuple(values)


def spec_from_dict(d: dict) -> GridSpec:
    try:
        return GridSpec(
            n=_integer(d["n"], "n"),
            transverse_resolution=_resolutions(d["transverse_resolution"]),
            transverse_periods=_periods(d["transverse_periods"]),
            leaf_resolution=_resolutions(d["leaf_resolution"]) if d.get("leaf_resolution") else None,
            leaf_periods=_periods(d["leaf_periods"]) if d.get("leaf_periods") else None,
        )
    except (KeyError, TypeError, ValueError, GridError) as exc:
        raise SnapshotError(f"malformed grid spec: {exc}") from exc


ENCODING = "f64le-base64"

# The layout of an encoded payload, by snapshot kind.
_LAYOUTS = {"scalar": "real", "hermitian": "parts"}
_F64LE = np.dtype("<f8")


def _encoded(field: ScalarField | HermitianField) -> tuple[dict, bytes]:
    """The snapshot of ``field`` but its ``values``, and the base64 bytes of those values."""
    if isinstance(field, ScalarField):
        kind, layout, reals = "scalar", "real", field.values
    elif isinstance(field, HermitianField):
        kind, layout, reals = "hermitian", "parts", _parts(field.matrices)
    else:
        raise SnapshotError(f"cannot snapshot a {type(field).__name__}")
    header = {
        "kind": kind, "spec": spec_to_dict(field.spec), "basic": field.basic,
        "encoding": ENCODING, "layout": layout,
    }
    return header, base64.b64encode(np.ascontiguousarray(reals, dtype=_F64LE))


def field_to_dict(field: ScalarField | HermitianField) -> dict:
    header, values = _encoded(field)
    return {**header, "values": values.decode("ascii")}


def _decode_list(raw: list, complex_: bool) -> np.ndarray:
    try:
        if complex_:
            arr = np.array([complex(re, im) for re, im in raw], dtype=np.complex128)
        else:
            arr = np.array([float(v) for v in raw], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SnapshotError(f"malformed values array: {exc}") from exc
    return arr


def _decode_base64(raw, layout, kind: str) -> np.ndarray:
    """The real values of an encoded payload whose ``layout`` fits ``kind``."""
    if layout not in _LAYOUTS.values():
        raise SnapshotError(f"unknown layout {layout!r}")
    if layout != _LAYOUTS[kind]:
        raise SnapshotError(f"layout {layout!r} does not fit a {kind} field")
    if not isinstance(raw, str):
        raise SnapshotError("encoded values must be a base64 string")
    try:
        data = base64.b64decode(raw, validate=True)
    except ValueError as exc:  # binascii.Error, or a character that is not ASCII
        raise SnapshotError(f"encoded values are not base64: {exc}") from exc
    if len(data) % _F64LE.itemsize:
        raise SnapshotError(f"{len(data)} bytes are not a whole number of float64 values")
    return np.frombuffer(data, dtype=_F64LE)


def _decode(d: dict, kind: str) -> tuple[np.ndarray, str]:
    """The flat values of a snapshot's payload, and their layout.

    The list form gives the layout ``matrices`` for Hermitian fields (n x n
    complex entries per point) and ``real`` for scalars.
    """
    raw = d["values"]
    if "encoding" in d:
        encoding, layout = d["encoding"], d["layout"]
        if encoding != ENCODING:
            raise SnapshotError(f"unknown encoding {encoding!r}")
        return _decode_base64(raw, layout, kind), layout
    if not isinstance(raw, list):
        raise SnapshotError("values must be a list")
    if kind == "hermitian":
        return _decode_list(raw, True), "matrices"
    return _decode_list(raw, False), "real"


def _field(kind: str, spec: GridSpec, basic: bool, values: np.ndarray, layout: str):
    """The field of flat ``values`` in ``layout``, checked for its length, shape and finiteness."""
    shape = spec.shape(basic)
    n = spec.n
    per_point = n * n if kind == "hermitian" else 1
    points = math.prod(shape)
    if values.size != points * per_point:
        raise ValueError(f"{values.size} values for {points} points x {per_point}")
    if kind == "scalar":
        return ScalarField(spec, values.reshape(shape), basic)
    if layout == "parts":
        return HermitianField._assembled(spec, _assemble(values.reshape((n, n) + shape)), basic)
    return HermitianField(spec, values.reshape(shape + (n, n)), basic)


def field_from_dict(d: dict) -> ScalarField | HermitianField:
    if not isinstance(d, dict):
        raise SnapshotError("a field snapshot must be a JSON object")
    try:
        kind = d["kind"]
        spec = spec_from_dict(d["spec"])
        basic = d["basic"]
        if not isinstance(basic, bool):
            raise SnapshotError(f"basic must be true or false, got {basic!r}")
        if kind not in ("scalar", "hermitian"):
            raise SnapshotError(f"unknown snapshot kind {kind!r}")
        values, layout = _decode(d, kind)
    except KeyError as exc:
        raise SnapshotError(f"snapshot is missing key {exc}") from exc
    try:
        return _field(kind, spec, basic, values, layout)
    except (ValueError, GridError) as exc:
        raise SnapshotError(f"invalid {kind} field: {exc}") from exc


def save_snapshot(field, path: str | Path):
    """Write ``json.dumps(field_to_dict(field))``, byte for byte, without a JSON pass over the values.

    ``values`` is the last key, and base64 needs no JSON escape, so the
    payload is spliced in after the rest of the object.
    """
    header, values = _encoded(field)
    with open(path, "wb") as out:
        out.write(json.dumps(header)[:-1].encode("ascii"))
        out.write(b', "values": "')
        out.write(values)
        out.write(b'"}')


def _read_object(path: str | Path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SnapshotError("snapshot must be a JSON object")
    return data


def load_snapshot(path: str | Path):
    return field_from_dict(_read_object(path))


def load_metric_bundle(path: str | Path) -> tuple[HermitianField, HermitianField | None]:
    """A metric snapshot, either bare or as {"metric": ..., "ricci": ...}.

    The optional explicit Ricci field supports synthetic transversally
    Einstein data, which cannot arise from differentiating any periodic
    metric on the chart.  Both fields must be finite (as every
    :class:`HermitianField` is), the metric positive definite, and the Ricci
    field on the metric's grid.
    """
    data = _read_object(path)
    if "metric" in data:
        metric = field_from_dict(data["metric"])
        ricci_f = field_from_dict(data["ricci"]) if data.get("ricci") else None
    else:
        metric = field_from_dict(data)
        ricci_f = None
    if not isinstance(metric, HermitianField) or (
        ricci_f is not None and not isinstance(ricci_f, HermitianField)
    ):
        raise SnapshotError("metric snapshots must hold Hermitian fields")
    if ricci_f is not None and (ricci_f.spec, ricci_f.basic) != (metric.spec, metric.basic):
        raise SnapshotError("the Ricci field must live on the metric's grid")
    try:
        metric.checked_positive()
    except PositivityLost as exc:
        raise SnapshotError(f"the metric is not positive definite: {exc}") from exc
    return metric, ricci_f
