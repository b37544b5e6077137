"""Seeded experiment configs for the benchmark workloads.

Each workload is one `mfglab` subcommand on one config.  The benchmark seed
becomes the config's ``seed``, which drives the m0 sampling and every solver
seed, so one seed always yields the same inputs.  With seed 0 the two sweeps
start from the same initial cloud as the acceptance fixtures.

The sizes are scaled down from the acceptance fixtures (horizons up to 40)
and the ROADMAP 2D solve (41^2 cells) so that one solve takes a few seconds
and a timed run holds several of them; the layers that dominate each
workload are the same as at full size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    command: str
    # per-layer counts that must be non-zero in every traced run
    reaches: tuple[str, ...]


_SOLVER_LAYERS = (
    "cli_io.parse_config",
    "cli_io.write",
    "finite_horizon.solve_mfg",
    "finite_horizon.solve_hjb_backward",
    "finite_horizon.transport_forward",
    "finite_horizon.a_priori_report",
    "measures.wasserstein1",
    "measures.wasserstein1_capped",
    "measures.mix_paths",
    "cost_models.evaluate_many",
    "grid_geometry.interpolate_many",
    "grid_geometry.locate",
)
_SWEEP_LAYERS = _SOLVER_LAYERS + (
    "asymptotics.run_sweep",
    "asymptotics.singleton_limit_check",
    "asymptotics.semilimit_surrogates",
    "finite_horizon.occupational_fractions",
    "eikonal_ergodic.build_ergodic_triple",
    "eikonal_ergodic.solve_eikonal",
)

_SWEEP_REACHES = tuple(f"{layer}.calls" for layer in _SWEEP_LAYERS) + (
    "measures.wasserstein1.calls.cdf_1d",
)
WORKLOADS = {
    "sweep_qc_1d": Workload("sweep", _SWEEP_REACHES),
    "sweep_lqr_1d": Workload("sweep", _SWEEP_REACHES),
    "evolve_qc_2d": Workload(
        "evolve",
        tuple(f"{layer}.calls" for layer in _SOLVER_LAYERS)
        + ("measures.wasserstein1.calls.assignment", "measures.wasserstein1.calls.general"),
    ),
}

# Shorter sweeps stop passing: at horizons (1.5, 3, 6) the LQR sweep fails
# its limit checks.  The smoke pass keeps three horizons (the semilimit
# surrogates need three) but makes them short; its sweeps need not pass.
SWEEP_T_LIST = [2.0, 4.0, 8.0]
SMOKE_T_LIST = [0.5, 1.0, 1.5]
# From T = 0.3 on the 2D fixed point takes a second iteration, whose damped
# path has unequal weights, so W1 takes the general transportation path.
EVOLVE_T = 0.4
SMOKE_EVOLVE_T = 0.3


def config(name: str, seed: int, smoke: bool = False) -> dict:
    """The experiment config of workload ``name`` for one seed."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    if name == "evolve_qc_2d":
        return {
            "seed": seed,
            "model": {"name": "quadratic_congestion", "dim": 2},
            "grid": {"lower": [-2.0, -2.0], "upper": [2.0, 2.0], "n_cells": [20, 20]},
            "m0": {"kind": "uniform_box", "lower": [-0.5, -0.5], "upper": [0.5, 0.5], "n_particles": 64},
            # control radius and mesh stay at their defaults (3705 controls)
            "evolve": {"T": SMOKE_EVOLVE_T if smoke else EVOLVE_T, "dt": 0.05},
        }
    qc = name == "sweep_qc_1d"
    sweep = {
        "T_list": SMOKE_T_LIST if smoke else SWEEP_T_LIST,
        "mode": "fixed_dt",
        "dt": 0.05,
        "control_mesh": 0.05 if qc else 0.02,
        "eps_min": 1e-9,
    }
    if qc:
        sweep["path_cap"] = 1024
    return {
        "seed": seed,
        "model": {"name": "quadratic_congestion" if qc else "lqr_oracle", "dim": 1},
        "grid": {"lower": [-2.0], "upper": [2.0], "n_cells": [160 if qc else 200]},
        "m0": {"kind": "uniform_box", "lower": [-0.5], "upper": [0.5], "n_particles": 256},
        "sweep": sweep,
    }


def write_config(name: str, seed: int, directory: Path, smoke: bool = False) -> Path:
    """Write the workload's config into ``directory``; JSON is valid YAML."""
    path = Path(directory) / f"{name}.yaml"
    path.write_text(json.dumps(config(name, seed, smoke), indent=2) + "\n")
    return path
