import json
import math
from pathlib import Path

import numpy as np
import pytest

import vaisflow.cli as cli_module
import vaisflow.flow as flow_module
from conftest import basic_spec
from vaisflow.cli import main
from vaisflow.config import MAX_GRID_ENTRIES, load_config
from vaisflow.grid import ScalarField
from vaisflow.snapshots import field_to_dict, save_snapshot
from vaisflow.transverse import HermitianField, metric_from_potential


def write_config(path, body):
    path.write_text(body)
    return str(path)


FLAT_FLOW = """
[chart]
n = 1
transverse_resolution = 32 32
transverse_periods = 6.283185307179586 6.283185307179586
potential = flat

[flow]
class_k = 0
ricci_tolerance = 1e-6

[output]
directory = {out}
"""

BUMP_FLOW = """
# perturbed-torus run
[chart]
n = 1
transverse_resolution = 32 32
transverse_periods = 6.283185307179586 6.283185307179586
potential = cos_bump
amplitude = -0.4

[flow]
class_k = 0
ricci_tolerance = 1e-5

[output]
directory = {out}
checkpoint_every = 0
"""

CHECKS = """
[checks]
resolutions = 32 64
leaf_resolution = 8 8
potential = cos_bump
amplitude = -0.4
inject_defect = {defect}

[output]
directory = {out}
"""


class TestCmdFlow:
    def test_flat_chart_single_row(self, tmp_path):
        cfg = write_config(tmp_path / "flat.cfg", FLAT_FLOW.format(out=tmp_path / "out"))
        assert main(["flow", cfg]) == 0
        lines = (tmp_path / "out" / "history.csv").read_text().strip().splitlines()
        assert lines[0] == "step,t,dt,ricci_sup,dphidt_sup,min_eig,max_eig,leafwise_defect"
        assert len(lines) == 2  # header + the single converged row
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["converged"] and report["reason"] == "converged"

    def test_bump_chart_converges(self, tmp_path):
        cfg = write_config(tmp_path / "bump.cfg", BUMP_FLOW.format(out=tmp_path / "out"))
        assert main(["flow", cfg]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["final_ricci_sup"] < 1e-5
        assert (tmp_path / "out" / "metric_final.json").exists()

    def test_invalid_dt_names_key(self, tmp_path, capsys):
        body = FLAT_FLOW.format(out=tmp_path / "out").replace(
            "class_k = 0", "class_k = 0\ndt_initial = -1"
        )
        cfg = write_config(tmp_path / "bad.cfg", body)
        assert main(["flow", cfg]) == 1
        assert "dt_initial" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        body = FLAT_FLOW.format(out=tmp_path / "out").replace(
            "class_k = 0", "class_k = 0\nwibble = 3"
        )
        cfg = write_config(tmp_path / "bad2.cfg", body)
        assert main(["flow", cfg]) == 1
        assert "wibble" in capsys.readouterr().err

    def test_not_converged_exit_code(self, tmp_path):
        body = BUMP_FLOW.format(out=tmp_path / "out").replace(
            "ricci_tolerance = 1e-5", "ricci_tolerance = 1e-5\nmax_steps = 3"
        )
        cfg = write_config(tmp_path / "short.cfg", body)
        assert main(["flow", cfg]) == 2

    def test_breakdown_exit_code(self, tmp_path):
        body = BUMP_FLOW.format(out=tmp_path / "out").replace(
            "ricci_tolerance = 1e-5", "ricci_tolerance = 1e-12\npositivity_floor = 0.95"
        )
        cfg = write_config(tmp_path / "broken.cfg", body)
        assert main(["flow", cfg]) == 3
        failure = json.loads((tmp_path / "out" / "report.json").read_text())["failure"]
        assert failure["min_eigenvalue"] <= 0.95
        assert len(failure["location"]) == 2

    def test_non_finite_potential_exit_code(self, tmp_path, monkeypatch):
        def nan_rhs(values, t, state, *, out=None, **kwargs):
            out = np.empty(values.shape) if out is None else out
            out.fill(np.nan)
            return out

        monkeypatch.setattr(flow_module, "_rhs_values", nan_rhs)
        cfg = write_config(tmp_path / "bump.cfg", BUMP_FLOW.format(out=tmp_path / "out"))
        assert main(["flow", cfg]) == 3
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert (report["reason"], report["steps"], report["failure"]) == ("non_finite", 0, None)

    @pytest.mark.parametrize("key", ["amplitude", "chi_amplitude"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_amplitude_is_a_config_error(self, tmp_path, capsys, key, value):
        body = BUMP_FLOW.format(out=tmp_path / "out")
        if key == "amplitude":
            body = body.replace("amplitude = -0.4", f"amplitude = {value}")
        else:
            body = body.replace("class_k = 0", f"class_k = 0\nchi = cos_bump\nchi_amplitude = {value}")
        cfg = write_config(tmp_path / "nan.cfg", body)
        with np.errstate(invalid="ignore"):
            assert main(["flow", cfg]) == 1
        assert "finite" in capsys.readouterr().err

    def test_infinite_period_is_a_config_error(self, tmp_path, capsys):
        body = FLAT_FLOW.format(out=tmp_path / "out").replace(
            "transverse_periods = 6.283185307179586 6.283185307179586",
            "transverse_periods = inf 6.283185307179586",
        )
        cfg = write_config(tmp_path / "inf.cfg", body)
        assert main(["flow", cfg]) == 1
        assert "finite" in capsys.readouterr().err

    def test_reproducible_history(self, tmp_path):
        cfg_a = write_config(tmp_path / "a.cfg", BUMP_FLOW.format(out=tmp_path / "out_a"))
        cfg_b = write_config(tmp_path / "b.cfg", BUMP_FLOW.format(out=tmp_path / "out_b"))
        assert main(["flow", cfg_a]) == 0
        assert main(["flow", cfg_b]) == 0
        a = (tmp_path / "out_a" / "history.csv").read_bytes()
        b = (tmp_path / "out_b" / "history.csv").read_bytes()
        assert a == b

    def test_checkpoints_written(self, tmp_path):
        body = BUMP_FLOW.format(out=tmp_path / "out").replace(
            "checkpoint_every = 0", "checkpoint_every = 50"
        )
        cfg = write_config(tmp_path / "ck.cfg", body)
        assert main(["flow", cfg]) == 0
        snaps = sorted((tmp_path / "out").glob("metric_0*.json"))
        assert snaps, "expected checkpoint snapshots"

    @pytest.mark.parametrize("t_final, final_is_checkpoint", [(0.05, True), (0.06, False)])
    def test_final_checkpoint_encoded_once(
        self, tmp_path, monkeypatch, t_final, final_is_checkpoint
    ):
        """A run whose last step is a checkpoint encodes that metric once, for both files."""
        body = BUMP_FLOW.format(out=tmp_path / "out").replace(
            "checkpoint_every = 0", "checkpoint_every = 5"
        ).replace("class_k = 0", f"class_k = 0\ndt_initial = 0.01\nt_final = {t_final}")
        cfg = write_config(tmp_path / "ck.cfg", body)
        encoded = []
        encode = cli_module.save_snapshot

        def counted(field, path):
            encoded.append(Path(path).name)
            encode(field, path)

        monkeypatch.setattr(cli_module, "save_snapshot", counted)
        assert main(["flow", cfg]) == 2
        out = tmp_path / "out"
        assert json.loads((out / "report.json").read_text())["steps"] == round(t_final / 0.01)
        final = [] if final_is_checkpoint else ["metric_final.json"]
        assert encoded == ["metric_000000.json", "metric_000005.json", *final, "phi_final.json"]
        same = (out / "metric_final.json").read_bytes() == (out / "metric_000005.json").read_bytes()
        assert same == final_is_checkpoint

    @pytest.mark.parametrize(
        "chart",
        [
            "transverse_resolution = 512 512\nleaf_resolution = 8 8",  # 2^24 points
            "n = 2\ntransverse_resolution = 32 32 64 64",  # 2^22 points, 2x2 matrices
        ],
    )
    def test_grid_at_the_point_limit_is_accepted(self, tmp_path, chart):
        body = f"[chart]\n{chart}\n[output]\ndirectory = out\n"
        cfg = load_config(write_config(tmp_path / "edge.cfg", body))
        points = math.prod(cfg.chart.grid_spec().full_shape)
        assert points * cfg.chart.n**2 == MAX_GRID_ENTRIES

    @pytest.mark.parametrize(
        "chart, key",
        [
            ("n = 2", "chart:"),  # 64 points on each of 4 axes by default
            ("n = 3", "chart:"),  # and on each of 6
            ("n = 4\ntransverse_resolution = 8 8 8 8 8 8 8 8", "chart.n:"),
            ("n = 5\ntransverse_resolution = 8 8 8 8 8 8 8 8 8 8", "chart.n:"),
            ("transverse_resolution = 2048 2048\nleaf_resolution = 8 8", "chart:"),
        ],
    )
    def test_grid_above_the_point_limit_is_a_config_error(self, tmp_path, capsys, chart, key):
        body = f"[chart]\n{chart}\n[output]\ndirectory = {tmp_path / 'out'}\n"
        cfg = write_config(tmp_path / "huge.cfg", body)
        assert main(["flow", cfg]) == 1
        err = capsys.readouterr().err
        assert f"config error: {key}" in err and str(MAX_GRID_ENTRIES) in err
        assert not (tmp_path / "out").exists()

    def test_unwritable_output_directory(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cfg = write_config(
            tmp_path / "bad_out.cfg", FLAT_FLOW.format(out=blocker / "out")
        )
        assert main(["flow", cfg]) == 1
        assert "output.directory" in capsys.readouterr().err


class TestCmdCheckStructure:
    def test_passes(self, tmp_path):
        cfg = write_config(
            tmp_path / "checks.cfg", CHECKS.format(defect="false", out=tmp_path / "out")
        )
        assert main(["check-structure", cfg]) == 0
        payload = json.loads((tmp_path / "out" / "checks.json").read_text())
        assert payload["fitted_order"] >= 3.5
        assert not payload["failures"]

    def test_flat_chart_exact(self, tmp_path):
        body = CHECKS.format(defect="false", out=tmp_path / "out").replace(
            "potential = cos_bump", "potential = flat"
        )
        cfg = write_config(tmp_path / "flat_checks.cfg", body)
        assert main(["check-structure", cfg]) == 0
        payload = json.loads((tmp_path / "out" / "checks.json").read_text())
        assert all(row["r1"] < 1e-12 for row in payload["results"])

    def test_invalid_resolution_is_a_config_error(self, tmp_path, capsys):
        body = CHECKS.format(defect="false", out=tmp_path / "out").replace(
            "resolutions = 32 64", "resolutions = 63 64"
        )
        cfg = write_config(tmp_path / "odd.cfg", body)
        assert main(["check-structure", cfg]) == 1
        assert "checks.resolutions" in capsys.readouterr().err

    @pytest.mark.parametrize("resolutions", ["", "64"])
    def test_fewer_than_two_resolutions_is_a_config_error(self, tmp_path, capsys, resolutions):
        body = CHECKS.format(defect="false", out=tmp_path / "out").replace(
            "resolutions = 32 64", f"resolutions = {resolutions}"
        )
        cfg = write_config(tmp_path / "one.cfg", body)
        assert main(["check-structure", cfg]) == 1
        assert "checks.resolutions: needs at least two" in capsys.readouterr().err
        assert not (tmp_path / "out" / "checks.json").exists()

    def test_grid_above_the_point_limit_is_a_config_error(self, tmp_path, capsys):
        body = CHECKS.format(defect="false", out=tmp_path / "out").replace(
            "resolutions = 32 64", "resolutions = 64 1024"
        )
        cfg = write_config(tmp_path / "huge.cfg", body)
        assert main(["check-structure", cfg]) == 1
        assert "config error: checks.resolutions:" in capsys.readouterr().err

    def test_non_finite_amplitude_fails_construction(self, tmp_path, capsys):
        body = CHECKS.format(defect="false", out=tmp_path / "out").replace(
            "amplitude = -0.4", "amplitude = nan"
        )
        cfg = write_config(tmp_path / "nan.cfg", body)
        assert main(["check-structure", cfg]) == 4
        assert "chart construction at 32" in capsys.readouterr().err

    def test_injected_defect_detected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "checks.cfg", CHECKS.format(defect="true", out=tmp_path / "out")
        )
        assert main(["check-structure", cfg]) == 4
        err = capsys.readouterr().err
        assert "d omega = theta ^ omega" in err


class TestCmdFitEinstein:
    def test_flow_endpoint_is_ricci_flat(self, tmp_path):
        cfg = write_config(tmp_path / "bump.cfg", BUMP_FLOW.format(out=tmp_path / "out"))
        body = (tmp_path / "bump.cfg").read_text().replace("1e-5", "1e-6")
        write_config(tmp_path / "bump.cfg", body)
        assert main(["flow", str(tmp_path / "bump.cfg")]) == 0
        out = tmp_path / "fit.json"
        assert main(["fit-einstein", str(tmp_path / "out" / "metric_final.json"), "-o", str(out)]) == 0
        fit = json.loads(out.read_text())
        assert abs(fit["lambda"] + 0.5) < 1e-5
        assert abs(fit["alpha"] - 1.0) < 1e-5
        assert abs(fit["beta"] - 0.5) < 1e-5
        assert fit["constraints_ok"]

    def test_synthetic_ke_snapshot(self, tmp_path):
        spec = basic_spec(res=16)
        g = HermitianField.identity(spec)
        ric = HermitianField(spec, 1.0 * g.matrices)
        bundle = {"metric": field_to_dict(g), "ricci": field_to_dict(ric)}
        path = tmp_path / "ke.json"
        path.write_text(json.dumps(bundle))
        out = tmp_path / "ke.fit.json"
        assert main(["fit-einstein", str(path), "-o", str(out)]) == 0
        fit = json.loads(out.read_text())
        assert abs(fit["lambda"] - 0.5) < 1e-10
        assert fit["homothety_a"] == 1.0
        assert fit["weyl_residual"] < 1e-10

    def test_malformed_snapshot(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{ nope")
        assert main(["fit-einstein", str(path)]) == 1

    def test_non_finite_ricci_exits_1(self, tmp_path, capsys):
        # Periods this small square to zero spacing, so the Ricci stencils overflow.
        d = field_to_dict(HermitianField.identity(basic_spec(res=8)))
        d["spec"]["transverse_periods"] = [1e-300, 1e-300]
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(d))
        with np.errstate(all="ignore"):
            assert main(["fit-einstein", str(path)]) == 1
        assert "no finite Ricci field" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["value_count", "non_hermitian", "bad_spec", "values_type"])
    def test_invalid_snapshot_exits_1(self, tmp_path, capsys, fault):
        d = field_to_dict(HermitianField.identity(basic_spec(n=2, res=8)))
        if fault == "value_count":
            d["values"].pop()
        elif fault == "non_hermitian":
            d["values"][1] = [0.5, 0.0]
        elif fault == "bad_spec":
            d["spec"]["transverse_resolution"][0] = 7
        else:
            d["kind"], d["values"] = "scalar", 1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        assert main(["fit-einstein", str(path)]) == 1
        assert "snapshot error" in capsys.readouterr().err


class TestCmdReport:
    def test_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bump.cfg", BUMP_FLOW.format(out=tmp_path / "out"))
        assert main(["flow", cfg]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path / "out" / "history.csv")]) == 0
        out = capsys.readouterr().out
        assert "final ricci_sup" in out
        assert "monotone" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.csv")]) == 1

    @pytest.mark.parametrize("fault, named", [
        ("missing_column", "no 'ricci_sup' column"),
        ("non_numeric", "row 2: ricci_sup = 'abc'"),
        ("short_row", "row 1: ricci_sup = None"),
        ("not_utf8", "utf-8"),
    ])
    def test_malformed_history_exits_1(self, tmp_path, capsys, fault, named):
        columns = list(flow_module.HISTORY_COLUMNS)
        rows = [[repr(0.5 * k)] * len(columns) for k in range(3)]
        if fault == "missing_column":
            i = columns.index("ricci_sup")
            for line in [columns] + rows:
                del line[i]
        elif fault == "non_numeric":
            rows[1][columns.index("ricci_sup")] = "abc"
        elif fault == "short_row":
            del rows[0][columns.index("ricci_sup"):]
        text = "\n".join(",".join(line) for line in [columns] + rows) + "\n"
        path = tmp_path / "history.csv"
        path.write_bytes(text.encode() + (b"\xff\n" if fault == "not_utf8" else b""))
        assert main(["report", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("malformed history: ")
        assert named in err
