"""Batch driver: run flows, verify chart structure, fit Einstein models.

Commands
--------
``vaisflow flow <config>``
    Run the transverse flow described by the config; writes ``history.csv``,
    checkpoint snapshots, a final metric snapshot, and ``report.json`` into
    the output directory.  Exit code 0 on convergence, 2 when the step or
    time budget ran out, 3 on positivity loss / step floor / divergence /
    a non-finite potential, 1 on a configuration error.

``vaisflow check-structure <config>``
    Build charts at the configured resolutions (at least two), run the
    structure identity suite, and report residuals plus the fitted
    convergence order.  Exit 0 when everything passes, 4 when an identity
    fails (named on stderr).

``vaisflow fit-einstein <snapshot> [-o out.json]``
    Fit the quasi-Einstein decomposition to a metric snapshot (optionally
    carrying an explicit Ricci field for synthetic data) and write the fit
    report.  Exit 0 when the input parses, 1 otherwise.

``vaisflow report <history.csv>``
    Summary statistics of a flow history to standard output.  Exit 0, or 1
    when the history is missing, unreadable, empty or malformed.

Every command exits 1 as well when it cannot write an output file, with
``cannot write output:`` and the path on standard error.

The environment variable ``VAISFLOW_VERBOSITY`` (quiet / normal / debug)
controls progress logging on standard error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import shutil
import sys
from pathlib import Path

from . import einstein as es
from . import flow as fl
from . import vaisman as vm
from .config import ExperimentConfig, load_config
from .convergence import fitted_order
from .exceptions import (
    ConfigError,
    DegenerateScale,
    GridError,
    IdentityViolation,
    InexactClass,
    PositivityLost,
    SnapshotError,
)
from .presets import chi_field, potential_field
from .snapshots import load_metric_bundle, save_snapshot
from .transverse import HermitianField, _metric_with_ddbar, ricci

log = logging.getLogger("vaisflow")

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_NOT_CONVERGED = 2
_EXIT_BREAKDOWN = 3
_EXIT_IDENTITY = 4

# Pass threshold for the structure residual, anchored at 1e-5 on a
# 128-point axis and scaled by the fourth-order rate.
_R1_ANCHOR = 1e-5
_R1_ANCHOR_RES = 128


def _setup_logging():
    level = {"quiet": logging.WARNING, "normal": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("VAISFLOW_VERBOSITY", "normal"), logging.INFO
    )
    logging.basicConfig(stream=sys.stderr, level=level, format="%(message)s")


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(prog="vaisflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_flow = sub.add_parser("flow", help="run a transverse flow experiment")
    p_flow.add_argument("config", type=Path)

    p_check = sub.add_parser("check-structure", help="verify chart structure identities")
    p_check.add_argument("config", type=Path)

    p_fit = sub.add_parser("fit-einstein", help="fit the quasi-Einstein decomposition")
    p_fit.add_argument("snapshot", type=Path)
    p_fit.add_argument("-o", "--output", type=Path, default=None)

    p_rep = sub.add_parser("report", help="summarize a flow history CSV")
    p_rep.add_argument("history", type=Path)

    args = parser.parse_args(argv)
    try:
        if args.command == "flow":
            return cmd_flow(args.config)
        if args.command == "check-structure":
            return cmd_check_structure(args.config)
        if args.command == "fit-einstein":
            return cmd_fit_einstein(args.snapshot, args.output)
        return cmd_report(args.history)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except SnapshotError as exc:
        print(f"snapshot error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except OSError as exc:  # every read converts its own, so this is an output write
        print(f"cannot write output: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

def _build_initial_state(cfg: ExperimentConfig) -> fl.FlowState:
    spec = cfg.chart.grid_spec()
    h = potential_field(spec, cfg.chart.potential, cfg.chart.amplitude)
    try:
        # Not checked positive here: the one spectrum of initial_state checks it.
        g0 = _metric_with_ddbar(spec, HermitianField.identity(spec).matrices, h.values, True)
    except GridError as exc:  # non-finite coefficients
        raise ConfigError(f"chart.potential: inadmissible potential ({exc})") from exc
    try:
        return fl.initial_state(g0, chi_field(spec, cfg.chi, cfg.chi_amplitude))
    except PositivityLost as exc:
        raise ConfigError(f"chart.potential: inadmissible potential ({exc})") from exc
    except (GridError, InexactClass) as exc:
        # e.g. a non-finite chi, or a volume density that under- or overflows
        raise ConfigError(f"chart, flow.chi: no admissible initial state ({exc})") from exc


def _prepare_outdir(cfg: ExperimentConfig) -> Path:
    outdir = Path(cfg.output.directory)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output.directory: cannot create {outdir} ({exc})") from exc
    return outdir


def cmd_flow(config_path: Path) -> int:
    cfg = load_config(config_path)
    outdir = _prepare_outdir(cfg)
    state = _build_initial_state(cfg)

    cadence = cfg.output.checkpoint_every
    last_checkpoint = {}  # the state and the file of the last checkpoint written

    def progress(k: int, row: dict, current: fl.FlowState):
        if k % 500 == 0:
            log.info(
                "step %d  t=%.6g  ricci_sup=%.3e  dt=%.3e",
                k, row["t"], row["ricci_sup"], row["dt"],
            )
        if cadence > 0 and k % cadence == 0:
            path = outdir / f"metric_{k:06d}.json"
            save_snapshot(fl.transverse_metric(current, rescaled=cfg.flow.rescaled), path)
            last_checkpoint.update(state=current, path=path)

    report = fl.run(state, cfg.flow, t_final=cfg.t_final, progress=progress)

    history_path = outdir / "history.csv"
    history_path.write_text("\n".join(report.history_csv_lines()) + "\n")

    final_metric = outdir / "metric_final.json"
    if last_checkpoint.get("state") is report.final_state:  # encoded already
        shutil.copyfile(last_checkpoint["path"], final_metric)
    else:
        save_snapshot(
            fl.transverse_metric(report.final_state, rescaled=cfg.flow.rescaled), final_metric
        )
    save_snapshot(report.final_state.phi, outdir / "phi_final.json")

    payload = {
        "converged": report.converged,
        "reason": report.reason,
        "final_t": report.final_t,
        "steps": report.steps,
        "final_ricci_sup": report.history[-1]["ricci_sup"] if report.history else None,
        "failure": report.failure,
        "history": str(history_path),
    }
    (outdir / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
    log.info("flow finished: %s at t=%.6g after %d steps", report.reason, report.final_t, report.steps)

    if report.converged:
        return _EXIT_OK
    if report.reason == "not_converged":
        return _EXIT_NOT_CONVERGED
    return _EXIT_BREAKDOWN


# ---------------------------------------------------------------------------
# check-structure
# ---------------------------------------------------------------------------

def _r1_threshold(resolution: int) -> float:
    return max(1e-12, _R1_ANCHOR * (_R1_ANCHOR_RES / resolution) ** 4)


def cmd_check_structure(config_path: Path) -> int:
    cfg = load_config(config_path)
    checks = cfg.checks
    outdir = _prepare_outdir(cfg)

    results = []
    failures: list[str] = []
    r1_values = []
    for res, spec in zip(checks.resolutions, checks.grid_specs()):
        h = potential_field(spec, checks.potential, checks.amplitude)
        try:
            chart = vm.build_chart(spec, h)
            deformed = vm.deform(
                chart, potential_field(spec, "cos_bump", checks.deform_amplitude)
            )
        except (GridError, IdentityViolation, PositivityLost) as exc:
            failures.append(f"chart construction at {res}: {exc}")
            continue

        r1, r2 = vm.verify_vaisman(chart.omega, chart.theta)
        j2, j2_deformed = chart.j_squared, deformed.j_squared

        row = {
            "resolution": res,
            "r1": r1,
            "r2": r2,
            "r1_threshold": _r1_threshold(res),
            "j_squared": j2,
            "j_squared_deformed": j2_deformed,
        }
        results.append(row)
        r1_values.append(r1)
        if r1 > row["r1_threshold"]:
            failures.append(
                f"d omega = theta ^ omega fails at {res}: residual {r1:.3e} > {row['r1_threshold']:.3e}"
            )
        if r2 > 1e-12:
            failures.append(f"d theta = 0 fails at {res}: residual {r2:.3e}")

    order = None
    if len(r1_values) >= 2 and all(v > 1e-13 for v in r1_values):
        order = fitted_order(checks.resolutions, r1_values)
        if order < 3.5:
            failures.append(f"structure residual order {order:.2f} < 3.5")

    payload = {"results": results, "fitted_order": order, "failures": failures}
    (outdir / "checks.json").write_text(json.dumps(payload, indent=2) + "\n")
    for row in results:
        print(
            f"resolution {row['resolution']}: r1={row['r1']:.3e} r2={row['r2']:.3e} "
            f"J^2 defect={row['j_squared']:.3e}"
        )
    if order is not None:
        print(f"fitted order: {order:.2f}")
    if failures:
        for message in failures:
            print(f"FAILED: {message}", file=sys.stderr)
        return _EXIT_IDENTITY
    print("all structure identities pass")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# fit-einstein
# ---------------------------------------------------------------------------

def cmd_fit_einstein(snapshot_path: Path, output: Path | None) -> int:
    metric, ricci_T = load_metric_bundle(snapshot_path)
    n = metric.spec.n
    try:
        if ricci_T is None:
            ricci_T = ricci(metric)
        block = es.assemble_full_ricci(ricci_T, metric, n)
    except GridError as exc:  # e.g. a Ricci field that overflows on a tiny grid spacing
        raise SnapshotError(f"no finite Ricci field for this snapshot: {exc}") from exc
    fit = es.quasi_einstein_fit(block, metric, n)
    try:
        homothety_a = es.ke_homothety(fit.lambda_, n)
    except DegenerateScale:
        homothety_a = None
    # The chart's p0k residual is its Einstein-Weyl residual; both keys carry it.
    p0k_ok, residual = es.p0k_check(block, metric, n)

    payload = {
        "n": n,
        "lambda": fit.lambda_,
        "alpha": fit.alpha,
        "beta": fit.beta,
        "residual": fit.residual,
        "constraints_ok": fit.constraints_ok,
        "weyl_residual": residual,
        "homothety_a": homothety_a,
        "p0k_ok": p0k_ok,
        "p0k_residual": residual,
    }
    out = output if output is not None else snapshot_path.with_suffix(".fit.json")
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    return _EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

# The history columns the report reads; each of their cells must be a number.
_REPORT_COLUMNS = ("t", "ricci_sup", "min_eig", "max_eig", "leafwise_defect")


def _number_column(header: list[str], rows: list[dict], name: str) -> list[float]:
    """Column ``name`` of ``rows`` as floats; ValueError names the column or row."""
    if name not in header:
        raise ValueError(f"no {name!r} column")
    values = []
    for k, row in enumerate(rows, 1):
        try:
            values.append(float(row[name]))
        except (TypeError, ValueError):  # a short row's missing cell is None
            raise ValueError(f"row {k}: {name} = {row[name]!r} is not a number") from None
    return values


def cmd_report(history_path: Path) -> int:
    try:
        with open(history_path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        header = reader.fieldnames if rows else _REPORT_COLUMNS
        columns = {name: _number_column(header, rows, name) for name in _REPORT_COLUMNS}
    except OSError as exc:
        print(f"cannot read history: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except (ValueError, csv.Error) as exc:  # UnicodeDecodeError is a ValueError
        print(f"malformed history: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    if not rows:
        print("empty history", file=sys.stderr)
        return _EXIT_CONFIG
    ricci_sups = columns["ricci_sup"]
    tail = ricci_sups[len(ricci_sups) // 5 :]
    monotone = all(tail[i + 1] <= tail[i] for i in range(len(tail) - 1))
    last = rows[-1]
    print(f"steps:            {len(rows) - 1}")
    print(f"final t:          {last['t']}")
    print(f"final ricci_sup:  {last['ricci_sup']}")
    print(f"final eig range:  [{last['min_eig']}, {last['max_eig']}]")
    print(f"max leaf defect:  {max(columns['leafwise_defect'])!r}")
    print(f"ricci_sup monotone over final 80%: {monotone}")
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
