"""Command-line entry point: static / ergodic / evolve / sweep / validate.

All numeric parameters live in the config file; flags only pick the
subcommand, the config path, the output directory, and verbosity.  Exit
codes: 0 success (possibly with warnings), 2 config error, 3 solver error
(out of memory included), 4 assumption violation found by `validate`.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from ..asymptotics import SweepParams, failed_checks, run_sweep, sweep_verdict, value_ball
from ..cost_models import validate_assumptions
from ..eikonal_ergodic import build_ergodic_triple
from ..errors import ConfigError, MfgError, StaticResidualError
from ..finite_horizon import a_priori_report, solve_mfg
from ..static_game import solve_static
from .config import (
    ConfigValueError,
    ExperimentConfig,
    build_cost,
    build_grid,
    build_initial_measure,
    make_damping,
    parse_config,
)
from .formats import (
    read_measure_csv,
    write_csv,
    write_field_csv,
    write_json,
    write_measure_csv,
    write_path_jsonl,
)

LOG = logging.getLogger("mfglab.cli")

COMMANDS = ("static", "ergodic", "evolve", "sweep", "validate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfglab",
        description=(
            "Solvers and long-horizon experiments for deterministic "
            "first-order mean field games with non-monotone costs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "static": "solve the static equilibrium by damped best response",
        "ergodic": "build and check the ergodic triple seeded by a static measure",
        "evolve": "solve the finite-horizon game by HJB/transport fixed point",
        "sweep": "run the horizon sweep and its long-time limit metrics",
        "validate": "run the structural assumption diagnostics for a model",
    }
    for name in COMMANDS:
        sp = sub.add_parser(name, help=helps[name])
        sp.add_argument("config", help="experiment config file (YAML)")
        sp.add_argument(
            "--output-dir",
            default=None,
            help="directory for output artifacts (default: current directory)",
        )
        sp.add_argument(
            "-v",
            "--verbose",
            action="count",
            default=0,
            help="increase log verbosity (-v info, -vv debug)",
        )
    return parser


def _setup_logging(verbosity: int):
    level = logging.WARNING
    if verbosity == 1:
        level = logging.INFO
    elif verbosity >= 2:
        level = logging.DEBUG
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s")


def _run_static(cfg: ExperimentConfig, out: Path) -> int:
    grid = build_grid(cfg)
    F = build_cost(cfg, grid)
    m0 = build_initial_measure(cfg, grid, F)
    sc = cfg.data["static"]
    result = solve_static(
        F,
        grid,
        m0,
        damping_schedule=make_damping(sc["damping"]),
        tol=sc["tol"],
        max_iter=sc["max_iter"],
        eps_min=sc["eps_min"],
        br_mode=sc["br_mode"],
        w1_size_cap=sc["w1_size_cap"],
    )
    sha, seed = cfg.sha256, cfg.seed
    write_csv(
        out / "static_iterates.csv",
        "static",
        sha,
        seed,
        ["iteration", "residual", "d1_step"],
        result.history,
    )
    write_measure_csv(out / "static_measure.csv", result.measure, "static", sha, seed)
    write_json(
        out / "static_summary.json",
        {
            "converged": result.converged,
            "residual": result.residual,
            "iterations": result.iterations,
            "support_size": result.measure.size,
        },
        "static",
        sha,
        seed,
    )
    if not result.converged:
        LOG.warning(
            "static solve stopped at residual %.3e without reaching tol %.3e",
            result.residual,
            sc["tol"],
        )
    return 0


def _run_ergodic(cfg: ExperimentConfig, out: Path) -> int:
    grid = build_grid(cfg)
    F = build_cost(cfg, grid)
    ec = cfg.data["ergodic"]
    if ec["measure_file"] is not None:
        m = read_measure_csv(cfg.resolve(ec["measure_file"]))
    else:
        m = build_initial_measure(cfg, grid, F)
    try:
        triple = build_ergodic_triple(
            F,
            m,
            grid,
            static_tol=ec["static_tol"],
            eps_min=ec["eps_min"],
            sweep_tol=ec["sweep_tol"],
            max_sweeps=ec["max_sweeps"],
        )
    except StaticResidualError as exc:
        raise StaticResidualError(
            f"{exc}; raise ergodic.static_tol to accept this measure, or give "
            "ergodic.measure_file a static equilibrium solved with a narrow argmin "
            "band (static.eps_min and ergodic.eps_min, e.g. 1e-9)",
            residual=exc.residual,
            tol=exc.tol,
        ) from exc
    sha, seed = cfg.sha256, cfg.seed
    write_field_csv(out / "ergodic_value.csv", grid, triple.v, "v", "ergodic", sha, seed)
    write_json(
        out / "ergodic_summary.json",
        {
            "c": triple.c,
            "residuals": triple.residuals,
            "boundary_monotone": triple.boundary_monotone,
            "dirichlet_points": triple.dirichlet.points,
        },
        "ergodic",
        sha,
        seed,
    )
    # c is the slice minimum and v = 0 on the argmin set by construction;
    # what can fail is m charging nodes farther than a cell from that set
    violation = triple.residuals["support_violation"]
    if violation > grid.max_spacing * (1.0 + 1e-9):
        LOG.warning(
            "support_violation %.6g exceeds one cell (%.6g): the measure charges "
            "points off the argmin set of its own cost slice",
            violation,
            grid.max_spacing,
        )
    return 0


def _run_evolve(cfg: ExperimentConfig, out: Path) -> int:
    grid = build_grid(cfg)
    F = build_cost(cfg, grid)
    m0 = build_initial_measure(cfg, grid, F)
    ev = cfg.data["evolve"]
    eq = solve_mfg(
        F,
        m0,
        ev["T"],
        grid,
        ev["dt"],
        damping_schedule=make_damping(ev["damping"]),
        tol=ev["tol"],
        max_iter=ev["max_iter"],
        control_radius=ev["control_radius"],
        control_mesh=ev["control_mesh"],
        path_cap=ev["path_cap"],
        w1_size_cap=ev["w1_size_cap"],
        seed=cfg.seed,
    )
    sha, seed = cfg.sha256, cfg.seed
    write_csv(
        out / "evolve_trace.csv",
        "evolve",
        sha,
        seed,
        ["iteration", "br_residual", "step_residual"],
        eq.trace,
    )
    # one row per (checkpoint, node): t, the node's coordinates, u
    ckpt = eq.checkpoints.astype(int)
    snap_rows = np.empty((ckpt.size, grid.n_nodes, grid.dim + 2))
    snap_rows[..., 0] = eq.value.times[ckpt][:, None]
    snap_rows[..., 1:-1] = grid.nodes
    snap_rows[..., -1] = eq.value.values[ckpt].reshape(ckpt.size, -1)
    coord_cols = [f"x{i + 1}" for i in range(grid.dim)]
    write_csv(
        out / "evolve_u_checkpoints.csv",
        "evolve",
        sha,
        seed,
        ["t", *coord_cols, "u"],
        snap_rows.reshape(-1, grid.dim + 2),
    )
    write_path_jsonl(out / "evolve_path.jsonl", eq.flow_path, "evolve", sha, seed)
    stats = eq.trajectory_stats
    write_csv(
        out / "evolve_stats.csv",
        "evolve",
        sha,
        seed,
        ["particle", "sup_position", "sup_speed"],
        zip(range(stats.sup_position.size), stats.sup_position.tolist(), stats.sup_speed.tolist()),
    )
    write_json(
        out / "evolve_summary.json",
        {
            "converged": eq.converged,
            "iterations": eq.iterations,
            "br_residual": eq.br_residual,
            "w1_capped": eq.w1_capped,
            "chi_hat": stats.chi_hat,
            "chi_prime_hat": stats.chi_prime_hat,
            "r1_hat": stats.r1_hat,
            "checkpoints": eq.checkpoints,
            "a_priori": a_priori_report(eq.value, F),
        },
        "evolve",
        sha,
        seed,
    )
    if not eq.converged:
        LOG.warning(
            "fixed point stopped at best-response residual %.3e without reaching tol %.3e",
            eq.br_residual,
            ev["tol"],
        )
    return 0


# The columns of sweep_records.csv: one row per (horizon record r, index j
# into its s grid).
_SWEEP_COLUMNS = (
    ("T", lambda r, j: r.T),
    ("dt", lambda r, j: r.dt),
    ("n_steps", lambda r, j: r.n_steps),
    ("s", lambda r, j: r.s_grid[j]),
    ("t", lambda r, j: r.s_times[j]),
    ("support_dist", lambda r, j: r.support_dist[j]),
    ("d1_to_limit", lambda r, j: r.d1_to_limit[j]),
    ("value_rate_err", lambda r, j: r.value_rate_err[j]),
    ("value_rate_err_times_T", lambda r, j: r.T * r.value_rate_err[j]),
    ("wkam_err", lambda r, j: r.wkam_err[j]),
    ("chi_hat", lambda r, j: r.chi_hat),
    ("chi_prime_hat", lambda r, j: r.chi_prime_hat),
    ("r1_hat", lambda r, j: r.r1_hat),
    ("rho_max", lambda r, j: float(r.rho.max())),
    ("occ_bound", lambda r, j: r.occ_bound),
    ("grad_max", lambda r, j: r.a_priori["grad_max"]),
    ("iterations", lambda r, j: r.iterations),
    ("converged", lambda r, j: r.converged),
    ("tainted", lambda r, j: not r.converged),
    ("estimated", lambda r, j: r.estimated),
    ("c_star", lambda r, j: r.c_star_used),
)


def _run_sweep(cfg: ExperimentConfig, out: Path) -> int:
    grid = build_grid(cfg)
    F = build_cost(cfg, grid)
    m0 = build_initial_measure(cfg, grid, F)
    sw = cfg.data["sweep"]
    if not value_ball(grid, sw["R"]).any():
        raise ConfigValueError(f"'sweep.R' = {sw['R']} leaves no grid node inside its ball")
    params = SweepParams(
        mode=sw["mode"],
        n_steps=sw["n_steps"],
        dt=sw["dt"],
        s_grid=tuple(sw["s_grid"]),
        R=sw["R"],
        delta_occ=sw["delta_occ"],
        tol=sw["tol"],
        max_iter=sw["max_iter"],
        control_radius=sw["control_radius"],
        control_mesh=sw["control_mesh"],
        path_cap=sw["path_cap"],
        w1_size_cap=sw["w1_size_cap"],
        eps_min=sw["eps_min"],
        seed=cfg.seed,
    )
    records = run_sweep(F, m0, sw["T_list"], grid, params)
    sha, seed = cfg.sha256, cfg.seed

    write_csv(
        out / "sweep_records.csv",
        "sweep",
        sha,
        seed,
        [name for name, _ in _SWEEP_COLUMNS],
        [
            tuple(value(r, j) for _, value in _SWEEP_COLUMNS)
            for r in records
            for j in range(len(r.s_grid))
        ],
    )

    summary = sweep_verdict(
        records,
        F,
        grid,
        slack=sw["slack"],
        atol=sw["atol"],
        support_cap=sw["support_cap"],
        rate_ratio_cap=sw["rate_ratio_cap"],
        wkam_cap=sw["wkam_cap"],
        semilimit_tol=sw["semilimit_tol"],
    )
    write_json(out / "sweep_summary.json", summary, "sweep", sha, seed)
    for r in records:
        if not r.converged:
            LOG.warning(
                "horizon T=%g did not reach the fixed-point tolerance "
                "(best-response residual %.3e)",
                r.T,
                r.br_residual,
            )
    failed = failed_checks(summary)
    if failed:
        LOG.warning("sweep failed its limit checks: %s", ", ".join(failed))
    return 0


def _run_validate(cfg: ExperimentConfig, out: Path) -> int:
    grid = build_grid(cfg)
    F = build_cost(cfg, grid)
    vc = cfg.data["validate"]
    report = validate_assumptions(
        F,
        grid,
        seed=cfg.seed,
        n_random=vc["n_random"],
        lipschitz_slack=vc["lipschitz_slack"],
    )
    write_json(out / "validate_report.json", report, "validate", cfg.sha256, cfg.seed)
    print(f"model: {report['model']} (dim {F.dim})")
    for key, value in sorted(report["metrics"].items()):
        print(f"  {key}: {value}")
    for violation in report["violations"]:
        print(f"violation: {violation}")
    if report["violations"]:
        print(f"validation: FAIL ({len(report['violations'])} violations)")
        return 4
    print("validation: PASS")
    return 0


_RUNNERS = {
    "static": _run_static,
    "ergodic": _run_ergodic,
    "evolve": _run_evolve,
    "sweep": _run_sweep,
    "validate": _run_validate,
}


def run(command: str, cfg: ExperimentConfig, output_dir) -> int:
    """Programmatic dispatch used by the CLI and by tests."""
    if command not in _RUNNERS:
        raise ConfigError(f"unknown subcommand {command!r}")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[command](cfg, out)


def entrypoint(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging(args.verbose)
    try:
        cfg = parse_config(args.config)
        return run(args.command, cfg, args.output_dir or Path.cwd())
    except ConfigError as exc:
        LOG.error("config error: %s", exc)
        return 2
    except MfgError as exc:
        LOG.error("solver error: %s", exc)
        return 3
    except MemoryError as exc:
        LOG.error("solver error: out of memory: %s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(entrypoint())
