"""Byte digests of canonical runs, so a change can show that it keeps every bit.

Run from a checkout as ``python tests/digests.py``: it prints, as JSON, the
key the digests hold for (the numpy version and the SIMD target numpy
dispatches each transcendental ufunc the runs call to) and the sha256 of
each run's output bytes.  ``tests/digests.json`` holds the committed
digests, which ``tests/test_digests.py`` compares; a change that moves
bits on purpose rewrites that file with ``python tests/digests.py --write``
and says which digests moved, and why.

The runs:

- ``bump_64``: 200 steps of the n = 1 flow of the 64^2 cos bump (history, phi);
- ``extended_leafvar_64x16``: 10 extended steps on 64^2 x 16^2 from a phi
  that varies along the leaves, a sweep of two lanes (history, phi);
- ``rescaled_chi``: 10 rescaled, extended steps with chi and k = -1 on
  32^2 x 8^2 (history, phi);
- ``n2_offdiag_16``: 10 n = 2 steps on 16^4 of a potential whose metric has
  off-diagonal entries, with k = -1 (history, phi, and the public Ricci of
  the final metric);
- ``n2_extended_leafvar_8``: 3 extended n = 2 steps on 8^4 x 8^2 from a phi
  that varies along the leaves, with off-diagonal entries (history, phi);
- ``check_structure``: ``checks.json`` of ``vaisflow check-structure`` at 32 and 64.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # run as a script: use the package of this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from vaisflow import cli
from vaisflow.flow import FlowConfig, initial_state, run, transverse_metric
from vaisflow.grid import GridSpec, ScalarField
from vaisflow.presets import potential_field
from vaisflow.transverse import HermitianField, ddbar, metric_from_potential, ricci

DIGESTS_FILE = Path(__file__).with_name("digests.json")
TWO_PI = 2.0 * np.pi
# The transcendental ufuncs the runs call; their SIMD target can move the last bit.
_UFUNCS = ("log", "exp", "cos", "sin")


def key() -> dict:
    """What the digests hold for: the numpy version and each ufunc's float64 SIMD target."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy < 2.0
        targets = None
    else:
        info = opt_func_info(func_name="^(" + "|".join(_UFUNCS) + ")$")
        targets = {name: info[name]["dd"]["current"] for name in _UFUNCS}
    return {"numpy": np.__version__, "simd": targets}


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _report_bytes(report) -> tuple[bytes, bytes]:
    return "\n".join(report.history_csv_lines()).encode(), report.final_state.phi.values.tobytes()


def _spec(n, res, leaf=None):
    if leaf is None:
        return GridSpec(n, res, (TWO_PI,) * (2 * n))
    periods = (TWO_PI,) * (2 * n)
    return GridSpec(n, res, periods, leaf_resolution=leaf, leaf_periods=(TWO_PI, TWO_PI))


def _bump_state(spec, phi=None, chi=None):
    h = potential_field(spec, "cos_bump", -0.4)
    return initial_state(metric_from_potential(h, HermitianField.identity(spec)), chi, phi)


def _leaf_varying(spec, eps):
    return ScalarField.from_function(
        spec,
        lambda x1, y1, x, y: eps * (1.0 + 0.5 * np.cos(x1)) * (np.cos(x) + 0.5 * np.sin(y)),
        basic=False,
    )


def bump_64() -> str:
    state = _bump_state(_spec(1, (64, 64)))
    report = run(state, FlowConfig(ricci_tolerance=1e-30, max_steps=200))
    return _sha256(*_report_bytes(report))


def extended_leafvar_64x16() -> str:
    spec = _spec(1, (64, 64), (16, 16))
    state = _bump_state(spec, phi=_leaf_varying(spec, 0.01))
    report = run(state, FlowConfig(extended=True, ricci_tolerance=1e-30, max_steps=10))
    return _sha256(*_report_bytes(report))


def rescaled_chi() -> str:
    spec = _spec(1, (32, 32), (8, 8))
    chi = ddbar(ScalarField.from_function(spec, lambda x, y: 0.1 * np.sin(x + y)))
    state = _bump_state(spec, phi=_leaf_varying(spec, 0.01), chi=chi)
    config = FlowConfig(
        class_k=-1, rescaled=True, extended=True, ricci_tolerance=1e-30, max_steps=10
    )
    return _sha256(*_report_bytes(run(state, config)))


def n2_offdiag_16() -> str:
    spec = _spec(2, (16,) * 4)
    h = ScalarField.from_function(
        spec, lambda x1, y1, x2, y2: -0.4 * np.cos(x1 - x2) + 0.1 * np.sin(y1 + y2)
    )
    state = initial_state(metric_from_potential(h, HermitianField.identity(spec)))
    report = run(state, FlowConfig(class_k=-1, ricci_tolerance=1e-30, max_steps=10))
    ric = ricci(transverse_metric(report.final_state)).matrices
    return _sha256(*_report_bytes(report), ric.tobytes())


def n2_extended_leafvar_8() -> str:
    spec = _spec(2, (8,) * 4, (8, 8))
    h = ScalarField.from_function(spec, lambda x1, y1, x2, y2: -0.4 * np.cos(x1 - x2))
    phi = ScalarField.from_function(
        spec,
        lambda x1, y1, x2, y2, x, y: (
            0.01 * (1.0 + 0.5 * np.sin(x1 + y2)) * (np.cos(x) + np.sin(y))
        ),
        basic=False,
    )
    state = initial_state(metric_from_potential(h, HermitianField.identity(spec)), phi=phi)
    report = run(state, FlowConfig(extended=True, ricci_tolerance=1e-30, max_steps=3))
    return _sha256(*_report_bytes(report))


_STRUCTURE_CONFIG = """\
[checks]
resolutions = 32 64
potential = cos_bump
amplitude = -0.4
deform_amplitude = -0.2

[output]
directory = {out}
"""


def check_structure() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        config = Path(tmp) / "structure.cfg"
        config.write_text(_STRUCTURE_CONFIG.format(out=out))
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["check-structure", str(config)])
        if rc != 0:
            raise RuntimeError(f"check-structure exited {rc}")
        return _sha256((out / "checks.json").read_bytes())


RUNS = {
    run_.__name__: run_
    for run_ in (
        bump_64, extended_leafvar_64x16, rescaled_chi, n2_offdiag_16, n2_extended_leafvar_8,
        check_structure,
    )
}


def digests() -> dict:
    return {"key": key(), "digests": {name: make() for name, make in RUNS.items()}}


if __name__ == "__main__":
    result = json.dumps(digests(), indent=2) + "\n"
    if sys.argv[1:] == ["--write"]:
        DIGESTS_FILE.write_text(result)
    print(result, end="")
