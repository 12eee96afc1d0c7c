"""JSON snapshot files for fields, metrics, and charts.

Snapshot schema: a JSON object with keys ``spec`` (n, resolutions, periods),
``basic``, ``kind`` and ``values``.  Values are flat lists in row-major
order over the documented axis order (x^1, y^1, ..., x^n, y^n, x, y);
complex numbers are stored as [re, im] pairs.  Hermitian snapshots flatten
the n x n matrix row-major at each point.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .exceptions import GridError, PositivityLost, SnapshotError
from .grid import GridSpec, ScalarField
from .transverse import HermitianField

__all__ = [
    "spec_to_dict",
    "spec_from_dict",
    "field_to_dict",
    "field_from_dict",
    "save_snapshot",
    "load_snapshot",
    "load_metric_bundle",
    "chart_to_dict",
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


def spec_from_dict(d: dict) -> GridSpec:
    try:
        return GridSpec(
            n=_integer(d["n"], "n"),
            transverse_resolution=_resolutions(d["transverse_resolution"]),
            transverse_periods=tuple(d["transverse_periods"]),
            leaf_resolution=_resolutions(d["leaf_resolution"]) if d.get("leaf_resolution") else None,
            leaf_periods=tuple(d["leaf_periods"]) if d.get("leaf_periods") else None,
        )
    except (KeyError, TypeError, ValueError, GridError) as exc:
        raise SnapshotError(f"malformed grid spec: {exc}") from exc


def _encode_values(values: np.ndarray) -> list:
    if np.iscomplexobj(values):
        pairs = np.ascontiguousarray(values, dtype=np.complex128).view(np.float64)
        return pairs.reshape(-1, 2).tolist()
    return np.asarray(values, dtype=np.float64).reshape(-1).tolist()


def _decode_values(raw: list, complex_: bool) -> np.ndarray:
    try:
        if complex_:
            arr = np.array([complex(re, im) for re, im in raw], dtype=np.complex128)
        else:
            arr = np.array([float(v) for v in raw], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SnapshotError(f"malformed values array: {exc}") from exc
    return arr


def field_to_dict(field: ScalarField | HermitianField) -> dict:
    if isinstance(field, ScalarField):
        return {
            "kind": "scalar",
            "spec": spec_to_dict(field.spec),
            "basic": field.basic,
            "values": _encode_values(field.values),
        }
    if isinstance(field, HermitianField):
        return {
            "kind": "hermitian",
            "spec": spec_to_dict(field.spec),
            "basic": field.basic,
            "values": _encode_values(field.matrices),
        }
    raise SnapshotError(f"cannot snapshot a {type(field).__name__}")


def field_from_dict(d: dict) -> ScalarField | HermitianField:
    if not isinstance(d, dict):
        raise SnapshotError("a field snapshot must be a JSON object")
    try:
        kind = d["kind"]
        spec = spec_from_dict(d["spec"])
        basic = d["basic"]
        raw = d["values"]
    except KeyError as exc:
        raise SnapshotError(f"snapshot is missing key {exc}") from exc
    if not isinstance(basic, bool):
        raise SnapshotError(f"basic must be true or false, got {basic!r}")
    if kind not in ("scalar", "hermitian"):
        raise SnapshotError(f"unknown snapshot kind {kind!r}")
    if not isinstance(raw, list):
        raise SnapshotError("values must be a list")
    try:
        shape = spec.shape(basic)
        if kind == "scalar":
            complex_ = bool(raw) and isinstance(raw[0], list)
            return ScalarField(spec, _decode_values(raw, complex_).reshape(shape), basic)
        n = spec.n
        return HermitianField(spec, _decode_values(raw, True).reshape(shape + (n, n)), basic)
    except (ValueError, GridError) as exc:
        raise SnapshotError(f"invalid {kind} field: {exc}") from exc


def save_snapshot(field, path: str | Path):
    Path(path).write_text(json.dumps(field_to_dict(field)))


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


def chart_to_dict(chart) -> dict:
    """Chart snapshot: potential, form components, and per-point J matrices."""

    def form_dict(form):
        return {
            "degree": form.degree,
            "components": {
                ",".join(map(str, idx)): _encode_values(f.values)
                for idx, f in sorted(form.components.items())
            },
            "linear": {
                ",".join(map(str, idx)): [float(v) for v in lin]
                for idx, lin in sorted(form.linear.items())
            },
        }

    return {
        "kind": "vaisman_chart",
        "spec": spec_to_dict(chart.spec),
        "h": field_to_dict(chart.h),
        "base": _encode_values(chart.base),
        "metric": field_to_dict(chart.metric),
        "theta": form_dict(chart.theta),
        "theta_c": form_dict(chart.theta_c),
        "omega": form_dict(chart.omega),
        "J": _encode_values(chart.jmat),
    }
