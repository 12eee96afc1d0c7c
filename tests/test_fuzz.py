"""Fuzzed configs and snapshots driven through ``main()``.

Whatever the input, the command ends with one of its documented exit codes
(0-4) and never with an uncaught exception.  Snapshots come in the list
form and in the encoded (base64 float64) form.
"""

import base64
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from vaisflow.cli import main

EXIT_CODES = {0, 1, 2, 3, 4}


def mostly(valid, other):
    """``valid`` about three draws in four, else ``other``."""
    return st.integers(0, 3).flatmap(lambda i: valid if i < 3 else other)


# Config values: sensible values most of the time, else edge floats and junk.
EDGE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "-1", "1e-300", "1e300", "nan", "inf", "-inf", "abc", ""]),
)


def floats(low, high):
    return mostly(st.floats(low, high).map(repr), EDGE)


RESOLUTION = mostly(
    st.tuples(st.sampled_from([8, 12, 16]), st.sampled_from([8, 12, 16])).map(
        lambda rs: f"{rs[0]} {rs[1]}"
    ),
    st.sampled_from(["7 8", "8", "8 8 8", "0 8", "-2 8", "x y"]),
)
PERIODS = st.tuples(floats(0.5, 10.0), floats(0.5, 10.0)).map(" ".join)
BOOLS = mostly(st.sampled_from(["false", "true"]), st.sampled_from(["yes", "0", "maybe"]))
PRESETS = mostly(st.sampled_from(["flat", "cos_bump", "product_bump"]), st.just("wobble"))

CHART = st.fixed_dictionaries(
    {
        "n": mostly(st.just("1"), st.sampled_from(["0", "-1", "x"])),
        "transverse_resolution": RESOLUTION,
    },
    optional={
        "transverse_periods": PERIODS,
        "potential": PRESETS,
        "amplitude": floats(-1.0, 1.0),
        "leaf_resolution": mostly(st.just("8 8"), st.sampled_from(["8", "7 7"])),
        "leaf_periods": PERIODS,
    },
)
# max_steps is always set, and at most 3 when valid, so every run stays short.
FLOW = st.fixed_dictionaries(
    {"max_steps": mostly(st.sampled_from(["1", "2", "3"]), st.sampled_from(["0", "-1", "2.5"]))},
    optional={
        "class_k": mostly(st.sampled_from(["-1", "0"]), st.sampled_from(["1", "k"])),
        "dt_initial": floats(1e-6, 1.0),
        "dt_safety": floats(0.01, 1.0),
        "ricci_tolerance": floats(1e-12, 1.0),
        "rescaled": BOOLS,
        "extended": BOOLS,
        "positivity_floor": floats(1e-12, 1.0),
        "chi": PRESETS,
        "chi_amplitude": floats(-1.0, 1.0),
        "t_final": floats(1e-3, 1.0),
    },
)


def _section(name, values):
    return f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())


@given(chart=CHART, flow=FLOW)
def test_fuzzed_flow_config(chart, flow):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(
            _section("chart", chart) + _section("flow", flow) + f"[output]\ndirectory = {out}\n"
        )
        assert main(["flow", str(cfg)]) in EXIT_CODES


# Snapshot JSON for fields on an 8^2 grid: a positive Hermitian field most of
# the time, with each part replaced by junk some of the time.
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3),
    st.lists(st.integers(0, 9), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
NUMBERS = st.floats(allow_nan=True, allow_infinity=True)
SPEC = mostly(
    st.just({"n": 1, "transverse_resolution": [8, 8], "transverse_periods": [6.0, 6.0]}),
    st.fixed_dictionaries({
        "n": st.one_of(st.just(1), JUNK),
        "transverse_resolution": st.one_of(st.lists(st.integers(-1, 9), max_size=3), JUNK),
        "transverse_periods": st.one_of(st.lists(NUMBERS, max_size=3), JUNK),
        "leaf_resolution": st.one_of(st.none(), st.just([8, 8]), JUNK),
        "leaf_periods": st.one_of(st.none(), st.just([6.0, 6.0]), JUNK),
    }),
)
VALUES = mostly(
    st.lists(st.tuples(st.floats(0.5, 2.0), st.just(0.0)).map(list), min_size=64, max_size=64),
    st.one_of(
        st.lists(st.tuples(NUMBERS, st.just(0.0)).map(list), min_size=64, max_size=64),
        st.lists(NUMBERS, min_size=64, max_size=64),
        st.lists(st.tuples(NUMBERS, NUMBERS).map(list), max_size=65),
        JUNK,
    ),
)
FIELD = mostly(
    st.fixed_dictionaries({
        "kind": mostly(st.just("hermitian"), st.one_of(st.just("scalar"), JUNK)),
        "spec": mostly(SPEC, JUNK),
        "basic": mostly(st.just(True), JUNK),
        "values": VALUES,
    }),
    JUNK,
)
SNAPSHOT = st.one_of(FIELD, st.fixed_dictionaries({"metric": FIELD}, optional={"ricci": FIELD}))


@given(snapshot=SNAPSHOT)
def test_fuzzed_snapshot(snapshot):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snap.json"
        path.write_text(json.dumps(snapshot))
        assert main(["fit-einstein", str(path), "-o", str(Path(tmp) / "fit.json")]) in EXIT_CODES


# Encoded snapshots on the same grid: valid parts most of the time, else
# non-finite or miscounted values, bytes that are not whole float64s, text
# that is not base64, an unknown encoding or a layout that is unknown or
# does not fit the kind.
def _b64(reals):
    return base64.b64encode(np.asarray(reals, dtype="<f8").tobytes()).decode("ascii")


PAYLOAD = mostly(
    st.lists(st.floats(0.5, 2.0), min_size=64, max_size=64).map(_b64),
    st.one_of(
        st.lists(NUMBERS, min_size=64, max_size=64).map(_b64),
        st.lists(NUMBERS, max_size=130).map(_b64),
        st.binary(max_size=600).map(lambda b: base64.b64encode(b).decode("ascii")),
        st.text(max_size=12),
        JUNK,
    ),
)
ENCODED_FIELD = st.fixed_dictionaries({
    "kind": mostly(st.just("hermitian"), st.one_of(st.just("scalar"), JUNK)),
    "spec": mostly(SPEC, JUNK),
    "basic": mostly(st.just(True), JUNK),
    "encoding": mostly(st.just("f64le-base64"), st.one_of(st.just("f32le-base64"), JUNK)),
    "layout": mostly(st.just("parts"), st.one_of(st.sampled_from(["real", "complex", "rows"]), JUNK)),
    "values": PAYLOAD,
})
ENCODED_SNAPSHOT = st.one_of(
    ENCODED_FIELD,
    st.fixed_dictionaries({"metric": ENCODED_FIELD}, optional={"ricci": st.one_of(ENCODED_FIELD, FIELD)}),
)


@given(snapshot=ENCODED_SNAPSHOT)
def test_fuzzed_encoded_snapshot(snapshot):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snap.json"
        path.write_text(json.dumps(snapshot))
        assert main(["fit-einstein", str(path), "-o", str(Path(tmp) / "fit.json")]) in EXIT_CODES
