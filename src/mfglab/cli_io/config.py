"""Experiment configuration: one YAML file per run, strictly validated.

The schema is a fixed tree of typed fields with defaults; unknown keys are
rejected with their dotted path, type mismatches and inconsistent values
raise distinct error kinds.  ``model.params`` is the single free-form
mapping: it is passed to the builtin model as keyword arguments, and a
key the builtin does not take, or a value out of its range, is a
``ConfigValueError`` that names it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from ..asymptotics import SweepParams
from ..cost_models import BUILTIN_MODELS, CostFunctional, build_model
from ..errors import ConfigError
from ..finite_horizon import MfgParams, horizon_steps
from ..grid_geometry import SpatialGrid
from ..measures import DEFAULT_SIZE_CAP, DiscreteMeasure
from ..static_game import constant_damping, harmonic_damping


class ConfigFileError(ConfigError):
    """Missing, unreadable, or syntactically invalid config file."""


class ConfigSchemaError(ConfigError):
    """Unknown key or wrong value type; carries the dotted key path."""


class ConfigValueError(ConfigError):
    """Well-typed but inconsistent values (ranges, divisibility, ...)."""


@dataclass(frozen=True)
class Field:
    kind: str
    default: object = None
    choices: tuple = ()


_DAMPING = {
    "kind": Field("enum", "harmonic", choices=("harmonic", "constant")),
    "value": Field("opt_float", None),
}

# the keys of solve_mfg's MfgParams, shared by evolve and sweep
_MFG = {
    "tol": Field("float", MfgParams.tol),
    "max_iter": Field("int", MfgParams.max_iter),
    "control_radius": Field("opt_float", MfgParams.control_radius),
    "control_mesh": Field("opt_float", MfgParams.control_mesh),
    "path_cap": Field("int", MfgParams.path_cap),
    "w1_size_cap": Field("int", MfgParams.w1_size_cap),
}

# the keys of run_sweep's SweepParams besides mfg and seed
_SWEEP = {
    "mode": Field("enum", SweepParams.mode, choices=("fixed_steps", "fixed_dt")),
    "n_steps": Field("int", SweepParams.n_steps),
    "dt": Field("opt_float", SweepParams.dt),
    "s_grid": Field("float_list", SweepParams.s_grid),
    "R": Field("float", SweepParams.R),
    "delta_occ": Field("float", SweepParams.delta_occ),
    "eps_min": Field("opt_float", SweepParams.eps_min),
    "wkam_cap": Field("float", SweepParams.wkam_cap),
    "slack": Field("float", SweepParams.slack),
    "atol": Field("float", SweepParams.atol),
    "support_cap": Field("float", SweepParams.support_cap),
    "rate_ratio_cap": Field("float", SweepParams.rate_ratio_cap),
    "semilimit_tol": Field("float", SweepParams.semilimit_tol),
}

SCHEMA = {
    "seed": Field("int", 0),
    "model": {
        "name": Field("opt_str", None),
        "dim": Field("int", 1),
        "params": Field("free_map", {}),
    },
    "grid": {
        "lower": Field("opt_float_list", None),
        "upper": Field("opt_float_list", None),
        "n_cells": Field("opt_int_list", None),
    },
    "m0": {
        "kind": Field(
            "enum", "uniform_core", choices=("uniform_core", "uniform_box", "dirac", "file")
        ),
        "n_particles": Field("int", 256),
        "lower": Field("opt_float_list", None),
        "upper": Field("opt_float_list", None),
        "point": Field("opt_float_list", None),
        "path": Field("opt_str", None),
    },
    "static": {
        "tol": Field("float", 1e-9),
        "max_iter": Field("int", 200),
        "br_mode": Field("enum", "uniform", choices=("uniform", "project")),
        "eps_min": Field("opt_float", None),
        "w1_size_cap": Field("int", DEFAULT_SIZE_CAP),
        "damping": _DAMPING,
    },
    "ergodic": {
        "measure_file": Field("opt_str", None),
        "static_tol": Field("float", 1e-6),
        "sweep_tol": Field("float", 1e-12),
        "max_sweeps": Field("int", 200),
        "eps_min": Field("opt_float", None),
    },
    "evolve": {
        "T": Field("float", 1.0),
        "dt": Field("float", 0.02),
        **_MFG,
        "damping": _DAMPING,
    },
    "sweep": {
        "T_list": Field("float_list", (5.0, 10.0, 20.0, 40.0)),
        **_SWEEP,
        **_MFG,
    },
    "validate": {
        "n_random": Field("int", 3),
        "lipschitz_slack": Field("float", 1.10),
    },
}


def _coerce_scalar(value, kind: str, path: str):
    def fail(expected: str):
        raise ConfigSchemaError(f"key '{path}' expects {expected}, got {value!r}")

    if kind.startswith("opt_"):
        if value is None:
            return None
        kind = kind[4:]
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            fail("an integer")
        return int(value)
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            fail("a number")
        try:
            # PyYAML reads exponent-only literals like 1e-9 as strings
            number = float(value)
        except (ValueError, OverflowError):
            fail("a number")
        if not math.isfinite(number):
            raise ConfigSchemaError(f"'{path}' must be finite, got {value!r}")
        return number
    if kind == "str":
        if not isinstance(value, str):
            fail("a string")
        return value
    raise AssertionError(f"unhandled scalar kind {kind}")


def _coerce(value, spec: Field, path: str):
    kind = spec.kind
    if value is None and kind.startswith("opt_"):
        return None
    if kind == "enum":
        if not isinstance(value, str) or value not in spec.choices:
            raise ConfigSchemaError(
                f"key '{path}' expects one of {list(spec.choices)}, got {value!r}"
            )
        return value
    if kind == "free_map":
        if not isinstance(value, dict):
            raise ConfigSchemaError(f"key '{path}' expects a mapping, got {value!r}")
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise ConfigSchemaError(f"key '{path}' has a non-string subkey {k!r}")
            if isinstance(v, str):
                try:
                    v = float(v)
                except ValueError:
                    pass
            out[k] = v
        return out
    if kind.endswith("_list"):
        base = kind[:-5]
        if base.startswith("opt_"):
            base = base[4:]
        if not isinstance(value, (list, tuple)):
            raise ConfigSchemaError(f"key '{path}' expects a list, got {value!r}")
        return [_coerce_scalar(v, base, f"{path}[{i}]") for i, v in enumerate(value)]
    return _coerce_scalar(value, kind, path)


def _walk(user, schema: dict, path: str) -> dict:
    if user is None:
        user = {}
    if not isinstance(user, dict):
        raise ConfigSchemaError(f"key '{path or '<root>'}' expects a mapping, got {user!r}")
    out = {}
    for key in user:
        if key not in schema:
            dotted = f"{path}.{key}" if path else str(key)
            raise ConfigSchemaError(f"unknown key '{dotted}'")
    for key, spec in schema.items():
        dotted = f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            out[key] = _walk(user.get(key), spec, dotted)
        else:
            if key in user:
                out[key] = _coerce(user[key], spec, dotted)
            else:
                default = spec.default
                if isinstance(default, tuple):
                    default = list(default)
                elif isinstance(default, dict):
                    default = dict(default)
                out[key] = default
    return out


# keys that must be positive wherever a solver section sets them; the
# sweep's own keys are checked by SweepParams (see sweep_params)
_POSITIVE = (
    "tol", "static_tol", "sweep_tol", "control_radius", "control_mesh",
    "path_cap", "w1_size_cap",
)


def _divides(dt: float, T: float) -> bool:
    try:
        horizon_steps(T, dt)
    except ValueError:
        return False
    return True


def _check_axis_list(values, dim: int, dotted: str):
    if values is not None and len(values) != dim:
        raise ConfigValueError(
            f"'{dotted}' has {len(values)} entries but model.dim = {dim}"
        )


def _semantic_checks(cfg: dict):
    model = cfg["model"]
    if not model["name"]:
        raise ConfigValueError("'model.name' is required")
    if model["name"] not in BUILTIN_MODELS:
        raise ConfigValueError(
            f"'model.name' {model['name']!r} is not a known model; "
            f"choose from {sorted(BUILTIN_MODELS)}"
        )
    dim = model["dim"]
    if dim not in (1, 2):
        raise ConfigValueError(f"'model.dim' must be 1 or 2, got {dim}")

    grid = cfg["grid"]
    for key in ("lower", "upper", "n_cells"):
        _check_axis_list(grid[key], dim, f"grid.{key}")
    if grid["lower"] is not None and grid["upper"] is not None:
        if any(lo >= hi for lo, hi in zip(grid["lower"], grid["upper"])):
            raise ConfigValueError("'grid.lower' must be below 'grid.upper' on every axis")
    if grid["n_cells"] is not None and any(n < 2 for n in grid["n_cells"]):
        raise ConfigValueError("'grid.n_cells' must be at least 2 per axis")

    m0 = cfg["m0"]
    if m0["n_particles"] < 1:
        raise ConfigValueError("'m0.n_particles' must be positive")
    if m0["kind"] == "uniform_box":
        if m0["lower"] is None or m0["upper"] is None:
            raise ConfigValueError("m0.kind 'uniform_box' requires 'm0.lower' and 'm0.upper'")
        _check_axis_list(m0["lower"], dim, "m0.lower")
        _check_axis_list(m0["upper"], dim, "m0.upper")
        if any(lo > hi for lo, hi in zip(m0["lower"], m0["upper"])):
            raise ConfigValueError("'m0.lower' must not exceed 'm0.upper'")
    elif m0["kind"] == "dirac":
        if m0["point"] is None:
            raise ConfigValueError("m0.kind 'dirac' requires 'm0.point'")
        _check_axis_list(m0["point"], dim, "m0.point")
    elif m0["kind"] == "file":
        if m0["path"] is None:
            raise ConfigValueError("m0.kind 'file' requires 'm0.path'")

    for section in ("static", "ergodic", "evolve", "sweep", "validate"):
        for key, val in cfg[section].items():
            if key in _POSITIVE and val is not None and not val > 0:
                raise ConfigValueError(f"'{section}.{key}' must be positive, got {val}")
            if key in ("eps_min", "n_random") and val is not None and val < 0:
                raise ConfigValueError(f"'{section}.{key}' must be nonnegative, got {val}")
            if key in ("max_iter", "max_sweeps", "lipschitz_slack") and val < 1:
                raise ConfigValueError(f"'{section}.{key}' must be at least 1")

    for section in ("static", "evolve"):
        damping = cfg[section]["damping"]
        if damping["kind"] == "constant":
            value = damping["value"]
            if value is None or not (0.0 < value <= 1.0):
                raise ConfigValueError(
                    f"'{section}.damping.value' must lie in (0, 1] for constant damping"
                )

    ev = cfg["evolve"]
    if ev["T"] <= 0 or ev["dt"] <= 0:
        raise ConfigValueError("'evolve.T' and 'evolve.dt' must be positive")
    if not _divides(ev["dt"], ev["T"]):
        raise ConfigValueError(
            f"'evolve.dt' = {ev['dt']} does not divide 'evolve.T' = {ev['T']}"
        )

    sw = cfg["sweep"]
    if len(sw["T_list"]) == 0:
        raise ConfigValueError("'sweep.T_list' must not be empty")
    if any(T <= 0 for T in sw["T_list"]):
        raise ConfigValueError("'sweep.T_list' entries must be positive")
    if len(set(sw["T_list"])) != len(sw["T_list"]):
        raise ConfigValueError("'sweep.T_list' entries must be distinct")
    sweep_params(sw, cfg["seed"])  # the range rules of SweepParams
    if sw["mode"] == "fixed_dt":
        bad = [T for T in sw["T_list"] if not _divides(sw["dt"], T)]
        if bad:
            raise ConfigValueError(
                f"'sweep.dt' = {sw['dt']} does not divide 'sweep.T_list' entries {bad}"
            )


@dataclass(eq=False)
class ExperimentConfig:
    """Validated config with defaults applied.

    ``sha256`` hashes the normalized content (canonical JSON), so two
    files that parse to the same experiment share a hash.
    """

    data: dict
    sha256: str
    source_dir: Path = field(default_factory=Path)

    @property
    def seed(self) -> int:
        return self.data["seed"]

    def resolve(self, relative: str) -> Path:
        path = Path(relative)
        return path if path.is_absolute() else self.source_dir / path


def normalize(raw: dict) -> dict:
    """Schema-walk a raw mapping: reject unknown keys, fill defaults."""
    cfg = _walk(raw, SCHEMA, "")
    _semantic_checks(cfg)
    return cfg


def config_from_dict(raw: dict, source_dir: Path | None = None) -> ExperimentConfig:
    cfg = normalize(raw)
    payload = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return ExperimentConfig(
        data=cfg,
        sha256=hashlib.sha256(payload).hexdigest(),
        source_dir=source_dir or Path("."),
    )


def parse_config(path) -> ExperimentConfig:
    """Load, schema-check, and cross-validate one experiment file."""
    p = Path(path)
    if not p.is_file():
        raise ConfigFileError(f"config file not found: {p}")
    try:
        raw = yaml.safe_load(p.read_text())
    except yaml.YAMLError as exc:
        raise ConfigFileError(f"config file {p} is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigSchemaError(f"config file {p} must contain a top-level mapping")
    return config_from_dict(raw, source_dir=p.parent)


# -- constructors from a validated config ----------------------------------


def build_grid(cfg: ExperimentConfig) -> SpatialGrid:
    model = cfg.data["model"]
    g = cfg.data["grid"]
    dim = model["dim"]
    lower = g["lower"] if g["lower"] is not None else [-2.0] * dim
    upper = g["upper"] if g["upper"] is not None else [2.0] * dim
    n_cells = g["n_cells"] if g["n_cells"] is not None else [200] * dim
    if dim == 2:
        # the modules of the 2D W1 and Dijkstra crosscheck: a 2D run loads
        # them while its config is set up, not inside the solve
        import scipy.optimize  # noqa: F401
        import scipy.sparse.csgraph  # noqa: F401
    return SpatialGrid(tuple(lower), tuple(upper), tuple(int(n) for n in n_cells))


def build_cost(cfg: ExperimentConfig, grid: SpatialGrid) -> CostFunctional:
    model = cfg.data["model"]
    try:
        return build_model(
            model["name"],
            model["dim"],
            grid.lower,
            grid.upper,
            model["params"],
        )
    except (TypeError, ValueError) as exc:
        raise ConfigValueError(f"'model.params' rejected by {model['name']!r}: {exc}") from exc


def build_initial_measure(
    cfg: ExperimentConfig, grid: SpatialGrid, F: CostFunctional
) -> DiscreteMeasure:
    from .formats import read_measure_csv

    m0 = cfg.data["m0"]
    dim = F.dim
    if m0["kind"] == "dirac":
        return DiscreteMeasure.dirac(np.asarray(m0["point"], dtype=float))
    if m0["kind"] == "file":
        return read_measure_csv(cfg.resolve(m0["path"]))
    if m0["kind"] == "uniform_box":
        lower = np.asarray(m0["lower"], dtype=float)
        upper = np.asarray(m0["upper"], dtype=float)
    else:  # uniform_core
        lower = np.asarray(F.core_lower, dtype=float)
        upper = np.asarray(F.core_upper, dtype=float)
        lower = np.maximum(lower, grid.lower_array)
        upper = np.minimum(upper, grid.upper_array)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x6D30]))
    points = lower + (upper - lower) * rng.random((m0["n_particles"], dim))
    return DiscreteMeasure.uniform(points)


def mfg_params(section: dict) -> MfgParams:
    """The ``MfgParams`` of an ``evolve`` or ``sweep`` section."""
    return MfgParams(**{key: section[key] for key in _MFG})


def sweep_params(section: dict, seed: int) -> SweepParams:
    """The ``SweepParams`` of a ``sweep`` section, drawing with ``seed``;
    a knob out of its range is a ``ConfigValueError`` naming its key (the
    ``ValueError`` of ``SweepParams`` or ``MfgParams`` starts with it)."""
    knobs = {key: section[key] for key in _SWEEP}
    knobs["s_grid"] = tuple(knobs["s_grid"])
    try:
        return SweepParams(**knobs, mfg=mfg_params(section), seed=seed)
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        raise ConfigValueError(f"'sweep.{name}' {rest}") from exc


def make_damping(damping_cfg: dict):
    if damping_cfg["kind"] == "constant":
        return constant_damping(float(damping_cfg["value"]))
    return harmonic_damping
