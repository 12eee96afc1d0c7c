"""The four benchmark workloads.

Each workload is a closed loop with one client: the harness in ``run.py``
sends the next request only after the last one has finished.  A workload
draws its potential amplitudes from the ``--seed`` argument, builds its
inputs in :meth:`setup`, serves one request per :meth:`request` call, and
checks the output of each request in :meth:`check`.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np

# Library calls go through module attributes so that the tracer's wrappers
# see the calls the benchmark makes itself (set-up and isolated calls).
from vaisflow import cli, flow, grid, snapshots, transverse, vaisman
from vaisflow.config import load_config
from vaisflow.grid import GridSpec, ScalarField
from vaisflow.presets import potential_field
from vaisflow.transverse import HermitianField

TWO_PI = 2.0 * math.pi

# Grid sizes and run lengths.  "smoke" keeps the same code paths at tiny
# sizes so that the benchmark's own test finishes in seconds.
PROFILES = {
    "full": {
        "converge_res": 64,
        "ext_res": 64, "ext_leaf": 16, "ext_t_final": 0.08,
        "n2_res": 16, "n2_t_final": 1.5, "n2_checkpoint_every": 5,
        "structure_resolutions": (32, 64, 128),
        "iso_basic_res": 64, "iso_full": (64, 16), "iso_n2_res": 16, "iso_reps": 5,
    },
    "smoke": {
        "converge_res": 16,
        "ext_res": 16, "ext_leaf": 8, "ext_t_final": 0.05,
        "n2_res": 8, "n2_t_final": 0.2, "n2_checkpoint_every": 2,
        "structure_resolutions": (16, 32),
        "iso_basic_res": 16, "iso_full": (16, 8), "iso_n2_res": 8, "iso_reps": 2,
    },
}


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


def _spec(n: int, res: int, leaf: int | None = None) -> GridSpec:
    return GridSpec(
        n, (res,) * (2 * n), (TWO_PI,) * (2 * n),
        leaf_resolution=(leaf, leaf) if leaf else None,
        leaf_periods=(TWO_PI, TWO_PI) if leaf else None,
    )


class Workload:
    """Common parts: seeded parameters, work directory, isolated layer calls."""

    name = ""
    flow_config: flow.FlowConfig | None = None

    def __init__(self, seed: int, profile: str, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.size = PROFILES[profile]
        self.workdir = workdir
        self.params: dict = {}

    def draw(self, key: str, low: float, high: float) -> float:
        value = float(self.rng.uniform(low, high))
        self.params[key] = value
        return value

    def before_request(self, index: int):
        """Untimed preparation of one request (a fresh output directory)."""
        return None

    def after_request(self, index: int):
        """Untimed clean-up once a request's output is checked."""

    def flow_facts(self, output) -> tuple[int, float]:
        """(RK4 steps, final t) of a request; (0, 0.0) for non-flow workloads."""
        return 0, 0.0

    def array_bytes(self) -> int:
        """Bytes of one float64 field on the workload's largest grid."""
        raise NotImplementedError

    def isolated(self, mid_state) -> dict[str, float]:
        """Median time in ms of single calls into each layer on this workload's inputs."""
        size = self.size
        reps = size["iso_reps"]
        out = {}
        basic = _spec(1, size["iso_basic_res"])
        res, leaf = size["iso_full"]
        full = _spec(1, res, leaf)
        amp = self.params.get("amplitude", -0.4)
        h1 = potential_field(basic, "cos_bump", amp)
        phi_full = _leaf_varying_phi(full, 0.01).values
        for label, values, spec in (("basic", h1.values, basic), ("full", phi_full, full)):
            for axis, step in enumerate(spec.spacings):
                out[f"iso.diff1.{label}.ax{axis}.ms"] = _median_ms(
                    lambda: grid.diff1(values, axis, step), reps)
                out[f"iso.diff2.{label}.ax{axis}.ms"] = _median_ms(
                    lambda: grid.diff2(values, axis, step), reps)
        spec2 = _spec(2, size["iso_n2_res"])
        h2 = potential_field(spec2, "product_bump", amp)
        out["iso.ddbar.n1.ms"] = _median_ms(lambda: transverse.ddbar(h1), reps)
        out["iso.ddbar.n2.ms"] = _median_ms(lambda: transverse.ddbar(h2), reps)

        g2 = transverse.metric_from_potential(h2, HermitianField.identity(spec2))
        path = self.workdir / "iso_metric.json"
        out["iso.save_snapshot.n2.ms"] = _median_ms(
            lambda: snapshots.save_snapshot(g2, path), max(2, reps // 2))
        out["iso.load_snapshot.n2.ms"] = _median_ms(
            lambda: snapshots.load_snapshot(path), max(2, reps // 2))
        path.unlink()

        for key in ("iso.ma_rhs.ms", "iso.ma_rhs_extended.ms", "iso.step.ms",
                    "iso.ricci_residual.ms"):
            out[key] = 0.0
        if mid_state is not None:
            cfg = self.flow_config
            if mid_state.phi.basic:
                out["iso.ma_rhs.ms"] = _median_ms(lambda: flow.ma_rhs(mid_state), reps)
            else:
                out["iso.ma_rhs_extended.ms"] = _median_ms(
                    lambda: flow.ma_rhs_extended(mid_state), reps)
            out["iso.step.ms"] = _median_ms(lambda: flow.step(mid_state, cfg), max(2, reps // 2))
            out["iso.ricci_residual.ms"] = _median_ms(
                lambda: flow.ricci_residual(mid_state, cfg), reps)
        return out


def _leaf_varying_phi(spec: GridSpec, eps: float) -> ScalarField:
    """A small potential that varies along the leaves (and, weakly, across them)."""
    return ScalarField.from_function(
        spec,
        lambda x1, y1, x, y: eps * (1.0 + 0.5 * np.cos(x1)) * (np.cos(x) + 0.5 * np.sin(y)),
        basic=False,
    )


class ConvergeN1(Workload):
    """Criterion 2: the n = 1 basic flow on a 64^2 grid run until ricci_sup < 1e-6."""

    name = "converge_n1_64"
    flow_config = flow.FlowConfig(class_k=0, ricci_tolerance=1e-6)

    def __init__(self, seed, profile, workdir):
        super().__init__(seed, profile, workdir)
        self.amplitude = self.draw("amplitude", -0.41, -0.39)
        self.spec = _spec(1, self.size["converge_res"])

    def array_bytes(self):
        return int(np.prod(self.spec.transverse_shape)) * 8

    def setup(self):
        h = potential_field(self.spec, "cos_bump", self.amplitude)
        g0 = transverse.metric_from_potential(h, HermitianField.identity(self.spec))
        return flow.initial_state(g0)

    def request(self, state, _ctx):
        return flow.run(state, self.flow_config)

    def flow_facts(self, report):
        return report.steps, report.final_t

    def digest(self, report):
        return _sha256("\n".join(report.history_csv_lines()).encode())

    def corrupt(self, report):
        report.history[-1] = dict(report.history[-1], ricci_sup=1.0)

    def check(self, report):
        failures = []
        if not report.converged:
            failures.append(f"not converged: {report.reason}")
        if not report.history[-1]["ricci_sup"] < 1e-6:
            failures.append(f"final ricci_sup {report.history[-1]['ricci_sup']:.3e} >= 1e-6")
        det = flow.transverse_metric(report.final_state).matrices[..., 0, 0].real
        if not np.ptp(det) < 1e-5:
            failures.append(f"ptp(det) {np.ptp(det):.3e} >= 1e-5")
        sups = [row["ricci_sup"] for row in report.history]
        tail = sups[len(sups) // 5:]
        if not all(b <= a for a, b in zip(tail, tail[1:])):
            failures.append("ricci_sup not monotone over the last 80% of the run")
        return failures


class ExtendedLeafvar(Workload):
    """Criterion 3's grid, with an initial potential that varies along the leaves."""

    name = "extended_leafvar_n1_64x16"
    flow_config = flow.FlowConfig(class_k=0, extended=True, ricci_tolerance=1e-6)

    def __init__(self, seed, profile, workdir):
        super().__init__(seed, profile, workdir)
        self.amplitude = self.draw("amplitude", -0.41, -0.39)
        self.leaf_eps = self.draw("leaf_eps", 0.008, 0.012)
        self.spec = _spec(1, self.size["ext_res"], self.size["ext_leaf"])
        self.t_final = self.size["ext_t_final"]
        self.params["t_final"] = self.t_final

    def array_bytes(self):
        return int(np.prod(self.spec.full_shape)) * 8

    def setup(self):
        h = potential_field(self.spec, "cos_bump", self.amplitude)
        g0 = transverse.metric_from_potential(h, HermitianField.identity(self.spec))
        return flow.initial_state(g0, phi=_leaf_varying_phi(self.spec, self.leaf_eps))

    def request(self, state, _ctx):
        return flow.run(state, self.flow_config, t_final=self.t_final)

    def flow_facts(self, report):
        return report.steps, report.final_t

    def digest(self, report):
        return _sha256(
            "\n".join(report.history_csv_lines()).encode(),
            report.final_state.phi.values.tobytes(),
        )

    def corrupt(self, report):
        report.history[-1] = dict(report.history[-1], leafwise_defect=math.nan)

    def check(self, report):
        failures = []
        if report.reason != "not_converged" or not report.final_t >= self.t_final - 1e-12:
            failures.append(f"run ended with {report.reason} at t={report.final_t}")
        defects = [row["leafwise_defect"] for row in report.history]
        if not all(math.isfinite(d) for d in defects):
            failures.append("leafwise_defect not finite")
        elif not all(b <= a for a, b in zip(defects, defects[1:])):
            failures.append("leafwise_defect increased")
        phi = report.final_state.phi
        if phi.basic or not defects[-1] > 0.0:
            failures.append("final phi is basic")
        if not all(row["min_eig"] > 0.0 for row in report.history):
            failures.append("min_eig <= 0")
        return failures


_N2_CONFIG = """\
[chart]
n = 2
transverse_resolution = {res} {res} {res} {res}
transverse_periods = {p} {p} {p} {p}
potential = product_bump
amplitude = {amplitude!r}

[flow]
class_k = 0
ricci_tolerance = 1e-6
t_final = {t_final!r}

[output]
directory = {out}
checkpoint_every = {every}
"""


class FlowN2IO(Workload):
    """``vaisflow flow`` with n = 2 on 16^4 with checkpoints, then ``fit-einstein``."""

    name = "flow_n2_io_16"
    flow_config = flow.FlowConfig(class_k=0, ricci_tolerance=1e-6)

    def __init__(self, seed, profile, workdir):
        super().__init__(seed, profile, workdir)
        self.amplitude = self.draw("amplitude", -0.42, -0.38)
        self.res = self.size["n2_res"]
        self.t_final = self.size["n2_t_final"]
        self.every = self.size["n2_checkpoint_every"]
        self.params.update(t_final=self.t_final, checkpoint_every=self.every)

    def array_bytes(self):
        return self.res ** 4 * 8

    def _write_config(self, outdir: Path) -> Path:
        path = outdir.with_suffix(".cfg")
        path.write_text(_N2_CONFIG.format(
            res=self.res, p=repr(TWO_PI), amplitude=self.amplitude,
            t_final=self.t_final, out=outdir, every=self.every,
        ))
        return path

    def setup(self):
        # What `vaisflow flow` does before its first step.
        path = self._write_config(self.workdir / "setup")
        cfg = load_config(path)
        spec = cfg.chart.grid_spec()
        h = potential_field(spec, cfg.chart.potential, cfg.chart.amplitude)
        g0 = transverse.metric_from_potential(h, HermitianField.identity(spec))
        return flow.initial_state(g0)

    def before_request(self, index):
        outdir = self.workdir / f"req{index}"
        return outdir, self._write_config(outdir)

    def after_request(self, index):
        shutil.rmtree(self.workdir / f"req{index}", ignore_errors=True)
        (self.workdir / f"req{index}.cfg").unlink(missing_ok=True)

    def request(self, _state, ctx):
        outdir, config = ctx
        flow_rc = cli.main(["flow", str(config)])
        fit_rc = cli.main(["fit-einstein", str(outdir / "metric_final.json"),
                           "-o", str(outdir / "fit.json")])
        return {"outdir": outdir, "flow_rc": flow_rc, "fit_rc": fit_rc}

    def flow_facts(self, output):
        try:
            report = json.loads((output["outdir"] / "report.json").read_text())
        except (OSError, ValueError):
            return 0, 0.0
        return report["steps"], report["final_t"]

    def digest(self, output):
        outdir = output["outdir"]
        try:
            return _sha256((outdir / "history.csv").read_bytes(), (outdir / "fit.json").read_bytes())
        except OSError as exc:
            return f"missing output: {exc}"

    def corrupt(self, output):
        (output["outdir"] / f"metric_{self.every:06d}.json").unlink()

    def check(self, output):
        outdir = output["outdir"]
        failures = []
        if output["flow_rc"] != 2:
            failures.append(f"flow exit code {output['flow_rc']} != 2")
        if output["fit_rc"] != 0:
            failures.append(f"fit-einstein exit code {output['fit_rc']} != 0")
        try:
            report = json.loads((outdir / "report.json").read_text())
            fit = json.loads((outdir / "fit.json").read_text())
        except (OSError, ValueError) as exc:
            return failures + [f"unreadable report: {exc}"]
        if not math.isclose(report["final_t"], self.t_final, rel_tol=0, abs_tol=1e-9):
            failures.append(f"stopped at t={report['final_t']}, not t_final")
        expected = ["history.csv", "metric_final.json", "phi_final.json"] + [
            f"metric_{k:06d}.json" for k in range(0, report["steps"] + 1, self.every)
        ]
        missing = [name for name in expected if not (outdir / name).is_file()]
        if missing:
            failures.append(f"missing outputs: {missing}")
        for key, value in fit.items():
            if isinstance(value, bool) or key == "n":
                continue
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                failures.append(f"fit value {key}={value!r} not finite")
        final = outdir / "metric_final.json"
        if final.is_file():
            g = snapshots.load_snapshot(final)
            again = outdir / "roundtrip.json"
            snapshots.save_snapshot(g, again)
            g2 = snapshots.load_snapshot(again)
            if not (np.array_equal(g.matrices, g2.matrices)
                    and again.read_bytes() == final.read_bytes()):
                failures.append("load(save(g)) round trip is not bit-equal")
        return failures


_STRUCTURE_CONFIG = """\
[checks]
resolutions = {resolutions}
potential = cos_bump
amplitude = {amplitude!r}
deform_amplitude = {deform!r}

[output]
directory = {out}
"""


class StructureCheck(Workload):
    """``vaisflow check-structure`` at resolutions 32, 64 and 128."""

    name = "structure_check"

    def __init__(self, seed, profile, workdir):
        super().__init__(seed, profile, workdir)
        self.amplitude = self.draw("amplitude", -0.42, -0.38)
        self.deform = self.draw("deform_amplitude", -0.21, -0.19)
        self.resolutions = self.size["structure_resolutions"]
        self.outdir = workdir / "out"
        self.config = workdir / "structure.cfg"
        self.config.write_text(_STRUCTURE_CONFIG.format(
            resolutions=" ".join(map(str, self.resolutions)),
            amplitude=self.amplitude, deform=self.deform, out=self.outdir,
        ))

    def array_bytes(self):
        cfg = load_config(self.config)
        leaf = cfg.checks.leaf_resolution
        return max(self.resolutions) ** 2 * leaf[0] * leaf[1] * 8

    def setup(self):
        # Config load and chart construction at every resolution.
        cfg = load_config(self.config)
        charts = []
        for res in cfg.checks.resolutions:
            spec = GridSpec(1, (res, res), (TWO_PI, TWO_PI),
                            leaf_resolution=cfg.checks.leaf_resolution,
                            leaf_periods=(TWO_PI, TWO_PI))
            h = potential_field(spec, cfg.checks.potential, cfg.checks.amplitude)
            charts.append(vaisman.build_chart(spec, h))
        return charts

    def before_request(self, index):
        (self.outdir / "checks.json").unlink(missing_ok=True)

    def request(self, _charts, _ctx):
        rc = cli.main(["check-structure", str(self.config)])
        return {"rc": rc, "checks": (self.outdir / "checks.json").read_bytes()}

    def digest(self, output):
        return _sha256(output["checks"])

    def corrupt(self, output):
        output["rc"] = 4

    def check(self, output):
        failures = []
        if output["rc"] != 0:
            failures.append(f"check-structure exit code {output['rc']} != 0")
        payload = json.loads(output["checks"])
        order = payload.get("fitted_order")
        if order is None or not order >= 3.5:
            failures.append(f"fitted order {order} < 3.5")
        return failures


WORKLOADS = {cls.name: cls for cls in (ConvergeN1, ExtendedLeafvar, FlowN2IO, StructureCheck)}
