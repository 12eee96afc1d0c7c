"""Experiment configuration files.

Plain-text sections-and-keys format: ``[section]`` headers, ``key = value``
lines, ``#`` comments.  Example::

    [chart]
    n = 1
    transverse_resolution = 64 64
    transverse_periods = 6.283185307179586 6.283185307179586
    potential = cos_bump
    amplitude = -0.4

    [flow]
    class_k = 0
    ricci_tolerance = 1e-6

    [output]
    directory = out

Unknown keys are rejected so typos fail loudly; every validation error
names the offending section.key.  A chart or check grid of dimension n may
hold at most :data:`MAX_GRID_ENTRIES` / n^2 points (leaf axes included), so
one n x n complex matrix field on it stays within 256 MiB.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .exceptions import ConfigError, GridError
from .flow import FlowConfig
from .grid import GridSpec
from .presets import POTENTIAL_PRESETS

__all__ = [
    "MAX_GRID_ENTRIES", "ChartSection", "ChecksSection", "OutputSection", "ExperimentConfig",
    "load_config",
]

_TWO_PI = 2.0 * math.pi

MAX_GRID_ENTRIES = 2**24  # grid points times n^2, the entries of one n x n matrix field
# The largest chart.n whose coarsest grid, 8 points per axis, stays within the limit.
_MAX_N = max(n for n in range(1, 64) if 8 ** (2 * n) * n * n <= MAX_GRID_ENTRIES)

@dataclass(frozen=True)
class ChartSection:
    n: int = 1
    transverse_resolution: tuple[int, ...] = (64, 64)
    transverse_periods: tuple[float, ...] = (_TWO_PI, _TWO_PI)
    leaf_resolution: tuple[int, int] | None = None
    leaf_periods: tuple[float, float] | None = None
    potential: str = "flat"
    amplitude: float = 0.0

    def grid_spec(self) -> GridSpec:
        return _bounded(GridSpec(
            self.n,
            self.transverse_resolution,
            self.transverse_periods,
            self.leaf_resolution,
            self.leaf_periods,
        ), "chart")


@dataclass(frozen=True)
class ChecksSection:
    resolutions: tuple[int, ...] = (64, 128)
    leaf_resolution: tuple[int, int] = (8, 8)
    potential: str = "cos_bump"
    amplitude: float = -0.4
    deform_amplitude: float = -0.2

    def grid_specs(self) -> list[GridSpec]:
        """One n = 1 spec per resolution, all with 2 pi periods.

        The convergence-order check needs at least two resolutions.
        """
        if len(self.resolutions) < 2:
            raise ConfigError(
                f"checks.resolutions: needs at least two resolutions, got {list(self.resolutions)}"
            )
        specs = [
            GridSpec(1, (res, res), (_TWO_PI, _TWO_PI), self.leaf_resolution, (_TWO_PI, _TWO_PI))
            for res in self.resolutions
        ]
        return [_bounded(spec, "checks.resolutions") for spec in specs]


def _bounded(spec: GridSpec, key: str) -> GridSpec:
    """``spec``, or a :class:`ConfigError` naming ``key`` when its grid is over the limit."""
    points = math.prod(spec.full_shape)
    if points * spec.n**2 > MAX_GRID_ENTRIES:
        raise ConfigError(
            f"{key}: the grid {' x '.join(map(str, spec.full_shape))} has {points} points, "
            f"above the limit of {MAX_GRID_ENTRIES} / n^2 = {MAX_GRID_ENTRIES // spec.n**2}"
        )
    return spec


@dataclass(frozen=True)
class OutputSection:
    directory: str = "out"
    checkpoint_every: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    chart: ChartSection
    flow: FlowConfig
    chi: str
    chi_amplitude: float
    t_final: float | None
    checks: ChecksSection
    output: OutputSection


_KNOWN_KEYS = {
    "chart": {f.name for f in fields(ChartSection)},
    "flow": {f.name for f in fields(FlowConfig)} | {"chi", "chi_amplitude", "t_final"},
    "checks": {f.name for f in fields(ChecksSection)},
    "output": {f.name for f in fields(OutputSection)},
}


def _fail(section: str, key: str, message: str):
    raise ConfigError(f"{section}.{key}: {message}")


def _get(cp, section, key, cast, default, validate=None):
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key)
    try:
        value = cast(raw)
    except (TypeError, ValueError):
        _fail(section, key, f"cannot parse {raw!r}")
    if validate is not None:
        validate(value)
    return value


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.split())


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split())


def _bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(raw)


# By field annotation, for the sections that :func:`_section` reads.
_CASTS = {
    "int": int, "float": float, "bool": _bool, "str": str,
    "tuple[int, ...]": _ints, "tuple[int, int]": _ints,
}


def _preset(section: str, key: str):
    """The validator of a key that names a potential preset."""
    return lambda v: v in POTENTIAL_PRESETS or _fail(section, key, f"unknown preset {v!r}")


_VALIDATORS = {
    ("checks", "potential"): _preset("checks", "potential"),
    ("output", "checkpoint_every"):
        lambda v: v >= 0 or _fail("output", "checkpoint_every", "must be >= 0"),
}


def _section(cp, section: str, cls):
    """``cls`` from the keys of ``section`` that the file sets; the others keep their defaults."""
    return cls(**{
        f.name: _get(cp, section, f.name, _CASTS[f.type], None, _VALIDATORS.get((section, f.name)))
        for f in fields(cls)
        if cp.has_option(section, f.name)
    })


def load_config(path: str | Path) -> ExperimentConfig:
    """The experiment config in the file at ``path``.

    Raises :class:`ConfigError` when the file does not exist, cannot be
    read (a directory, say) or decoded, or does not parse or validate.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        with open(path) as fh:
            cp.read_file(fh, source=str(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"{section}.{key}: unknown key")

    n = _get(
        cp, "chart", "n", int, 1,
        lambda v: v <= _MAX_N or _fail(
            "chart", "n", f"{v} needs more than the limit of {MAX_GRID_ENTRIES} / n^2 grid points"
        ),
    )
    res = _get(cp, "chart", "transverse_resolution", _ints, (64,) * (2 * n))
    per = _get(cp, "chart", "transverse_periods", _floats, (_TWO_PI,) * (2 * n))
    leaf_res = _get(cp, "chart", "leaf_resolution", _ints, None)
    leaf_per = _get(cp, "chart", "leaf_periods", _floats, (_TWO_PI, _TWO_PI) if leaf_res else None)
    potential = _get(cp, "chart", "potential", str, "flat", _preset("chart", "potential"))
    amplitude = _get(cp, "chart", "amplitude", float, 0.0)
    chart = ChartSection(n, res, per, leaf_res, leaf_per, potential, amplitude)
    try:
        chart.grid_spec()
    except GridError as exc:
        raise ConfigError(f"chart: {exc}") from exc

    try:
        flow_cfg = _section(cp, "flow", FlowConfig)
    except GridError as exc:
        raise ConfigError(f"flow.{exc}") from exc
    if flow_cfg.extended and chart.leaf_resolution is None:
        raise ConfigError("flow.extended: needs chart.leaf_resolution / chart.leaf_periods")

    chi = _get(
        cp, "flow", "chi", str, "none",
        lambda v: v in ("none", "", *POTENTIAL_PRESETS) or _fail("flow", "chi", f"unknown preset {v!r}"),
    )
    chi_amplitude = _get(cp, "flow", "chi_amplitude", float, 0.0)
    t_final = _get(
        cp, "flow", "t_final", float, None,
        lambda v: v > 0 or _fail("flow", "t_final", "must be positive"),
    )

    checks = _section(cp, "checks", ChecksSection)
    try:
        checks.grid_specs()
    except GridError as exc:
        raise ConfigError(f"checks.resolutions: {exc}") from exc

    output = _section(cp, "output", OutputSection)

    return ExperimentConfig(chart, flow_cfg, chi, chi_amplitude, t_final, checks, output)
