import base64
import json

import numpy as np
import pytest

from conftest import ENCODED_FAULTS, basic_spec, encoded_fault, full_spec, list_dict
from vaisflow.exceptions import GridError, SnapshotError
from vaisflow.grid import ScalarField
from vaisflow.snapshots import (
    ENCODING,
    field_from_dict,
    field_to_dict,
    load_metric_bundle,
    load_snapshot,
    save_snapshot,
)
from vaisflow.transverse import HermitianField, _assemble, metric_from_potential


class TestScalarRoundTrip:
    def test_real_basic(self, tmp_path):
        spec = basic_spec(res=16)
        f = ScalarField.from_function(spec, lambda x, y: np.cos(x) + 0.3 * np.sin(y))
        path = tmp_path / "f.json"
        save_snapshot(f, path)
        g = load_snapshot(path)
        assert isinstance(g, ScalarField)
        assert g.basic
        assert np.array_equal(g.values, f.values)

    def test_complex_full(self, tmp_path):
        """A complex field is refused before it can be written; its real part round-trips."""
        spec = full_spec(res=16, leaf=8)
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((16, 16, 8, 8)) + 1j * rng.standard_normal((16, 16, 8, 8))
        with pytest.raises(GridError, match="scalar field values must be real"):
            ScalarField(spec, vals, basic=False)
        f = ScalarField(spec, vals.real, basic=False)
        path = tmp_path / "c.json"
        save_snapshot(f, path)
        g = load_snapshot(path)
        assert np.array_equal(g.values, f.values)

    def test_row_major_order_documented(self):
        spec = basic_spec(res=8)
        vals = np.arange(64, dtype=float).reshape(8, 8)
        d = field_to_dict(ScalarField(spec, vals))
        assert _reals(d)[:9].tolist() == list(range(9))  # row-major flattening


class TestHermitianRoundTrip:
    def test_metric(self, tmp_path):
        spec = basic_spec(res=32)
        h = ScalarField.from_function(spec, lambda x, y: -0.4 * np.cos(x))
        g = metric_from_potential(h, HermitianField.identity(spec))
        path = tmp_path / "g.json"
        save_snapshot(g, path)
        back = load_snapshot(path)
        assert isinstance(back, HermitianField)
        assert np.array_equal(back.matrices, g.matrices)

    def test_bundle_with_synthetic_ricci(self, tmp_path):
        spec = basic_spec(res=16)
        g = HermitianField.identity(spec)
        ric = HermitianField(spec, 2.0 * g.matrices)
        path = tmp_path / "bundle.json"
        path.write_text(
            json.dumps({"metric": list_dict(g), "ricci": list_dict(ric)})
        )
        metric, ricci_T = load_metric_bundle(path)
        assert np.array_equal(metric.matrices, g.matrices)
        assert np.array_equal(ricci_T.matrices, ric.matrices)

    def test_bare_metric_bundle(self, tmp_path):
        spec = basic_spec(res=16)
        g = HermitianField.identity(spec)
        path = tmp_path / "bare.json"
        save_snapshot(g, path)
        metric, ricci_T = load_metric_bundle(path)
        assert ricci_T is None


class TestMalformed:
    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_missing_keys(self):
        with pytest.raises(SnapshotError):
            field_from_dict({"kind": "scalar"})

    def test_unknown_kind(self, tmp_path):
        spec = basic_spec(res=16)
        d = list_dict(ScalarField.zeros(spec))
        d["kind"] = "tensor"
        with pytest.raises(SnapshotError):
            field_from_dict(d)

    def test_wrong_number_of_values(self):
        d = list_dict(ScalarField.zeros(basic_spec(res=16)))
        d["values"] = d["values"][:-1]
        with pytest.raises(SnapshotError, match="invalid scalar field"):
            field_from_dict(d)

    def test_non_hermitian_matrices(self):
        spec = basic_spec(n=2, res=8)
        d = list_dict(HermitianField.identity(spec))
        d["values"][1] = [0.5, 0.0]  # g_{1 2bar} = 0.5 but g_{2 1bar} = 0
        with pytest.raises(SnapshotError, match="not Hermitian"):
            field_from_dict(d)

    @pytest.mark.parametrize("key, value", [
        ("transverse_resolution", [7, 8]),
        ("transverse_periods", [6.0, float("inf")]),
        ("n", 2),
    ])
    def test_invalid_spec(self, key, value):
        d = list_dict(ScalarField.zeros(basic_spec(res=8)))
        d["spec"][key] = value
        with pytest.raises(SnapshotError, match="malformed grid spec"):
            field_from_dict(d)

    @pytest.mark.parametrize("value", ["false", "no", 0.5, 0, 1, None, [True]])
    def test_basic_must_be_a_boolean(self, value):
        d = list_dict(ScalarField.zeros(basic_spec(res=8)))
        d["basic"] = value
        with pytest.raises(SnapshotError, match="basic must be true or false"):
            field_from_dict(d)

    @pytest.mark.parametrize("key, value", [
        ("n", 1.9),
        ("n", 1.0),
        ("n", True),
        ("n", "1"),
        ("transverse_resolution", [8, 8.5]),
        ("transverse_resolution", [8.0, 8]),
        ("leaf_resolution", [8, 8.0]),
        ("leaf_resolution", [False, 8]),
    ])
    def test_integers_must_be_json_integers(self, key, value):
        d = list_dict(ScalarField.zeros(full_spec(res=8, leaf=8)))
        d["spec"][key] = value
        with pytest.raises(SnapshotError, match="malformed grid spec: .* must be an integer"):
            field_from_dict(d)

    @pytest.mark.parametrize("key, value", [
        ("transverse_periods", "66"),
        ("transverse_periods", ["6.28", "6.28"]),
        ("transverse_periods", [True, True]),
        ("leaf_periods", "66"),
        ("leaf_periods", [6.0, "6.28"]),
        ("leaf_periods", [True, 6.0]),
    ])
    def test_periods_must_be_a_list_of_numbers(self, key, value):
        d = list_dict(ScalarField.zeros(full_spec(res=8, leaf=8)))
        d["spec"][key] = value
        with pytest.raises(SnapshotError, match="malformed grid spec: periods must be a list of numbers"):
            field_from_dict(d)

    @pytest.mark.parametrize("values", [5, "abc", {"a": 1}, None])
    def test_values_not_a_list(self, values):
        d = list_dict(ScalarField.zeros(basic_spec(res=8)))
        d["values"] = values
        with pytest.raises(SnapshotError, match="values must be a list"):
            field_from_dict(d)

    @pytest.mark.parametrize("values", [["a", 1], [1.0, None], [[1.0, "x"], [0.0, 0.0]]])
    def test_list_values_that_are_not_numbers(self, values):
        d = list_dict(ScalarField.zeros(basic_spec(res=8)))
        d["values"] = values
        with pytest.raises(SnapshotError, match="malformed values array"):
            field_from_dict(d)

    def test_scalar_list_form_has_no_pairs(self):
        d = list_dict(ScalarField.zeros(basic_spec(res=8)))
        d["values"] = [[1.0, 0.0]] * 64
        with pytest.raises(SnapshotError, match="malformed values array"):
            field_from_dict(d)

    def test_only_fields_are_written(self):
        with pytest.raises(SnapshotError, match="cannot snapshot a ndarray"):
            field_to_dict(np.zeros((8, 8)))

    def test_field_not_an_object(self, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps({"metric": [1, 2, 3]}))
        with pytest.raises(SnapshotError, match="JSON object"):
            load_metric_bundle(path)

    def test_metric_not_positive(self, tmp_path):
        spec = basic_spec(res=8)
        path = tmp_path / "neg.json"
        save_snapshot(HermitianField.identity(spec).scaled(-1.0), path)
        with pytest.raises(SnapshotError, match="not positive definite"):
            load_metric_bundle(path)

    @pytest.mark.parametrize("field", ["metric", "ricci"])
    def test_non_finite_values(self, tmp_path, field):
        g = list_dict(HermitianField.identity(basic_spec(res=8)))
        bundle = {"metric": g, "ricci": json.loads(json.dumps(g))}
        bundle[field]["values"][5] = [float("inf"), 0.0]
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(bundle))
        with pytest.raises(SnapshotError, match="finite"):
            load_metric_bundle(path)

    def test_ricci_on_another_grid(self, tmp_path):
        g = HermitianField.identity(basic_spec(res=8))
        ric = HermitianField.identity(basic_spec(res=16))
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps({"metric": list_dict(g), "ricci": list_dict(ric)}))
        with pytest.raises(SnapshotError, match="metric's grid"):
            load_metric_bundle(path)

    def test_scalar_not_a_metric(self, tmp_path):
        spec = basic_spec(res=16)
        path = tmp_path / "scalar.json"
        save_snapshot(ScalarField.zeros(spec), path)
        with pytest.raises(SnapshotError):
            load_metric_bundle(path)


def _reals(d):
    """The float64 values of an encoded payload."""
    assert d["encoding"] == ENCODING
    return np.frombuffer(base64.b64decode(d["values"], validate=True), dtype="<f8")


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


SPECIALS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 1e308, 1 / 3]
FINITE_SPECIALS = [0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e-300, 1 / 3]


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128, np.complex64])
def test_encoding_round_trips_specials_bit_exact(dtype):
    """The payload of a field made from a strided array holds the bits of its float64 values.

    A complex array has no scalar payload: the field refuses it first.
    """
    values = np.resize(np.array(SPECIALS), (8, 16))
    if np.issubdtype(dtype, np.complexfloating):
        pairs = np.empty(values.shape, dtype=np.complex128)
        pairs.real, pairs.imag = values, values[:, ::-1]
        values = pairs
    with np.errstate(over="ignore"):  # 1e308 is infinite in single precision
        values = values.astype(dtype)[:, ::2]  # a strided view
    spec = basic_spec(res=8)
    if np.iscomplexobj(values):
        with pytest.raises(GridError, match="scalar field values must be real"):
            ScalarField(spec, values)
        return
    d = field_to_dict(ScalarField(spec, values))
    assert d["layout"] == "real"
    assert np.array_equal(_bits(_reals(d)), _bits(values.astype(np.float64)).reshape(-1))


def _special_parts(n, shape, rng):
    """Random parts with -0.0, subnormals and huge values planted in every plane."""
    parts = rng.standard_normal((n, n) + shape)
    flat = parts.reshape(n * n, -1)
    flat[:, : len(FINITE_SPECIALS)] = FINITE_SPECIALS
    return parts


class TestEncodedRoundTrip:
    @pytest.mark.parametrize("n, basic", [
        (1, True), (1, False), (2, True), (2, False), (3, True),
    ])
    def test_hermitian_bit_exact(self, tmp_path, n, basic):
        spec = basic_spec(n=n, res=8) if basic else full_spec(n=n, res=8, leaf=8)
        parts = _special_parts(n, spec.shape(basic), np.random.default_rng(n))
        g = HermitianField._assembled(spec, _assemble(parts), basic)
        path = tmp_path / "g.json"
        save_snapshot(g, path)
        d = json.loads(path.read_text())
        assert (d["encoding"], d["layout"]) == (ENCODING, "parts")
        assert np.array_equal(_bits(_reals(d)), _bits(parts).reshape(-1))
        back = load_snapshot(path)
        assert (back.spec, back.basic) == (spec, basic)
        assert np.array_equal(_bits(back.matrices), _bits(g.matrices))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128, np.complex64])
    @pytest.mark.parametrize("basic", [True, False])
    def test_scalar_bit_exact(self, tmp_path, dtype, basic):
        spec = basic_spec(res=8) if basic else full_spec(res=8, leaf=8)
        shape = spec.shape(basic)
        values = np.resize(np.array(SPECIALS), (2,) + shape)
        if np.issubdtype(dtype, np.complexfloating):
            pairs = np.empty(values.shape, dtype=np.complex128)
            pairs.real, pairs.imag = values, values[..., ::-1]
            values = pairs
        with np.errstate(over="ignore"):  # 1e308 is infinite in single precision
            values = values.astype(dtype)[::-2]  # a strided view
        if np.iscomplexobj(values):  # never written: the field refuses complex values
            with pytest.raises(GridError, match="scalar field values must be real"):
                ScalarField(spec, values[0], basic)
            return
        f = ScalarField(spec, values[0], basic)
        path = tmp_path / "f.json"
        save_snapshot(f, path)
        back = load_snapshot(path)
        assert back.values.dtype == f.values.dtype
        assert np.array_equal(_bits(back.values), _bits(f.values))

    @pytest.mark.parametrize("potential", [
        # Im g_{1 2bar} is +0.0 at every point, so the lower triangle holds -0.0.
        lambda x1, y1, x2, y2: -0.1 * np.cos(x1 + x2) + 0.05 * np.sin(y1 + y2),
        lambda x1, y1, x2, y2: -0.1 * np.cos(x1 - y2) * np.sin(y1 + 2 * x2),
    ], ids=["real_mixed", "complex_mixed"])
    def test_metric_from_potential_bit_exact(self, tmp_path, potential):
        spec = basic_spec(n=2, res=16)
        g = metric_from_potential(ScalarField.from_function(spec, potential), HermitianField.identity(spec))
        assert np.any(g.matrices[..., 0, 1])
        save_snapshot(g, tmp_path / "g.json")
        back = load_snapshot(tmp_path / "g.json")
        assert np.array_equal(_bits(back.matrices), _bits(g.matrices))

    def test_two_saves_give_identical_bytes(self, tmp_path):
        spec = basic_spec(n=2, res=8)
        g = HermitianField._assembled(spec, _assemble(_special_parts(2, spec.shape(True), np.random.default_rng(7))))
        save_snapshot(g, tmp_path / "a.json")
        save_snapshot(load_snapshot(tmp_path / "a.json"), tmp_path / "b.json")
        save_snapshot(g, tmp_path / "c.json")
        a = (tmp_path / "a.json").read_bytes()
        assert a == (tmp_path / "b.json").read_bytes() == (tmp_path / "c.json").read_bytes()

    @pytest.mark.parametrize("kind", ["scalar", "hermitian"])
    @pytest.mark.parametrize("n, basic", [(1, True), (1, False), (2, True), (2, False)])
    def test_save_writes_the_json_of_the_dict(self, tmp_path, kind, n, basic):
        """The file is json.dumps(field_to_dict(field)), byte for byte."""
        spec = basic_spec(n=n, res=8) if basic else full_spec(n=n, res=8, leaf=8)
        rng = np.random.default_rng(n)
        if kind == "scalar":
            field = ScalarField(spec, rng.standard_normal(spec.shape(basic)), basic)
        else:
            field = HermitianField._assembled(
                spec, _assemble(_special_parts(n, spec.shape(basic), rng)), basic
            )
        save_snapshot(field, tmp_path / "f.json")
        assert (tmp_path / "f.json").read_bytes() == json.dumps(field_to_dict(field)).encode()

    def test_list_form_and_encoded_give_the_same_field(self):
        spec = basic_spec(n=2, res=8)
        h = ScalarField.from_function(spec, lambda *c: -0.1 * np.cos(c[0]) * np.sin(c[3]))
        g = metric_from_potential(h, HermitianField.identity(spec))
        listed, encoded = field_from_dict(list_dict(g)), field_from_dict(field_to_dict(g))
        assert np.array_equal(listed.matrices, g.matrices)
        assert np.array_equal(encoded.matrices, g.matrices)


class TestMalformedEncoded:
    @pytest.mark.parametrize("fault", ENCODED_FAULTS)
    def test_metric_fault(self, tmp_path, fault):
        d = field_to_dict(HermitianField.identity(basic_spec(n=2, res=8)))
        named = encoded_fault(d, fault)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        with pytest.raises(SnapshotError, match=named):
            load_metric_bundle(path)

    @pytest.mark.parametrize("layout", ["parts", "complex"])
    def test_real_scalar_in_another_layout(self, layout):
        d = field_to_dict(ScalarField.zeros(basic_spec(res=8)))
        d["layout"] = layout
        with pytest.raises(SnapshotError, match="does not fit" if layout == "parts" else "unknown layout"):
            field_from_dict(d)

    def test_old_complex_scalar_snapshot(self):
        """A complex scalar as interleaved (re, im) pairs, whatever their count, is not read."""
        d = field_to_dict(ScalarField.zeros(basic_spec(res=8)))
        for count in (128, 127):
            d["layout"], d["values"] = "complex", base64.b64encode(np.ones(count).tobytes()).decode()
            with pytest.raises(SnapshotError, match="unknown layout 'complex'"):
                field_from_dict(d)

    def test_identity_as_written(self):
        d = field_to_dict(HermitianField.identity(basic_spec(n=2, res=8)))
        assert set(d) == {"kind", "spec", "basic", "encoding", "layout", "values"}
        assert (d["kind"], d["encoding"], d["layout"]) == ("hermitian", "f64le-base64", "parts")
        planes = _reals(d).reshape(2, 2, 8, 8, 8, 8)
        assert np.all(planes[0, 0] == 1.0) and np.all(planes[1, 1] == 1.0)
        assert not np.any(planes[0, 1]) and not np.any(planes[1, 0])
