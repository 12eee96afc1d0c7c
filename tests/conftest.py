import base64

import numpy as np
import pytest
from hypothesis import settings

from vaisflow.grid import GridSpec
from vaisflow.snapshots import spec_to_dict
from vaisflow.transverse import HermitianField

# Every hypothesis test draws the same examples on every run, so Tier-1
# stays reproducible; tests that set max_examples themselves keep theirs.
settings.register_profile(
    "vaisflow", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("vaisflow")

TWO_PI = 2.0 * np.pi


def basic_spec(n=1, res=64):
    return GridSpec(n, (res,) * (2 * n), (TWO_PI,) * (2 * n))


def full_spec(n=1, res=64, leaf=8):
    return GridSpec(
        n, (res,) * (2 * n), (TWO_PI,) * (2 * n),
        leaf_resolution=(leaf, leaf), leaf_periods=(TWO_PI, TWO_PI),
    )


def list_dict(field):
    """A field snapshot in the list form: flat values, complex entries as [re, im] pairs."""
    hermitian = isinstance(field, HermitianField)
    values = field.matrices if hermitian else field.values
    if np.iscomplexobj(values):
        flat = values.view(np.float64).reshape(-1, 2).tolist()
    else:
        flat = values.reshape(-1).tolist()
    return {
        "kind": "hermitian" if hermitian else "scalar",
        "spec": spec_to_dict(field.spec),
        "basic": field.basic,
        "values": flat,
    }


def encoded_fault(d, fault):
    """Corrupt the encoded snapshot ``d`` in place with ``fault``; the error it must name."""
    raw = base64.b64decode(d["values"])
    if fault == "short_payload":
        d["values"] = base64.b64encode(raw[:-8]).decode()
        return "invalid hermitian field"
    if fault == "ragged_payload":
        d["values"] = base64.b64encode(raw[:-3]).decode()
        return "whole number of float64"
    if fault == "not_base64":
        d["values"] = "!" + d["values"][1:]
        return "not base64"
    if fault == "not_ascii":
        d["values"] = "\u00e9" + d["values"][1:]
        return "not base64"
    if fault == "bad_padding":
        d["values"] = d["values"][:-1]
        return "not base64"
    if fault == "payload_not_a_string":
        d["values"] = np.frombuffer(raw, "<f8").tolist()
        return "base64 string"
    if fault in ("inf_entry", "nan_entry"):
        reals = np.frombuffer(raw, "<f8").copy()
        reals[5] = np.inf if fault == "inf_entry" else np.nan
        d["values"] = base64.b64encode(reals.tobytes()).decode()
        return "finite"
    if fault == "unknown_layout":
        d["layout"] = "matrices"
        return "unknown layout"
    if fault == "layout_not_a_string":
        d["layout"] = [1, 2]
        return "unknown layout"
    if fault == "missing_layout":
        del d["layout"]
        return "missing key"
    if fault == "unknown_encoding":
        d["encoding"] = "f32le-base64"
        return "unknown encoding"
    if fault == "null_encoding":
        d["encoding"] = None
        return "unknown encoding"
    if fault == "scalar_layout":
        d["layout"] = "real"
        return "does not fit a hermitian field"
    assert fault == "parts_scalar"
    d["kind"] = "scalar"
    return "does not fit a scalar field"


ENCODED_FAULTS = [
    "short_payload", "ragged_payload", "not_base64", "not_ascii", "bad_padding",
    "payload_not_a_string", "inf_entry", "nan_entry", "unknown_layout",
    "layout_not_a_string", "missing_layout", "unknown_encoding", "null_encoding",
    "scalar_layout", "parts_scalar",
]


@pytest.fixture
def spec64():
    return basic_spec(res=64)


@pytest.fixture
def spec128():
    return basic_spec(res=128)
