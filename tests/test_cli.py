"""Config parsing, CLI subcommands, artifact formats, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
import yaml

import mfglab
from mfglab import ConfigError, DiscreteMeasure
from mfglab.cli_io import (
    ConfigSchemaError,
    entrypoint,
    parse_config,
    read_measure_csv,
    run,
    write_csv,
    write_measure_csv,
)


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


MINIMAL = """
model:
  name: quadratic_congestion
  dim: 1
"""


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, MINIMAL))
        assert cfg.seed == 0
        assert cfg.data["model"]["name"] == "quadratic_congestion"
        assert cfg.data["static"]["tol"] == 1e-9
        assert cfg.data["evolve"]["dt"] == 0.02
        assert cfg.data["sweep"]["T_list"] == [5.0, 10.0, 20.0, 40.0]
        assert cfg.data["m0"]["kind"] == "uniform_core"
        assert len(cfg.sha256) == 64

    def test_sha_tracks_content_not_formatting(self, tmp_path):
        a = parse_config(write_config(tmp_path, MINIMAL, "a.yaml"))
        spaced = MINIMAL.replace("dim: 1", "dim:   1") + "\n# comment\n"
        b = parse_config(write_config(tmp_path, spaced, "b.yaml"))
        c = parse_config(write_config(tmp_path, MINIMAL + "seed: 5\n", "c.yaml"))
        assert a.sha256 == b.sha256
        assert a.sha256 != c.sha256

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.yaml")

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigSchemaError, match="unknown key 'viscosity'"):
            parse_config(write_config(tmp_path, MINIMAL + "viscosity: 0.1\n"))

    def test_unknown_nested_key(self, tmp_path):
        text = MINIMAL + "static:\n  warp: 2\n"
        with pytest.raises(ConfigSchemaError, match="unknown key 'static.warp'"):
            parse_config(write_config(tmp_path, text))

    def test_type_error_names_dotted_path(self, tmp_path):
        text = MINIMAL + "static:\n  tol: fast\n"
        with pytest.raises(ConfigError, match="static.tol"):
            parse_config(write_config(tmp_path, text))

    def test_numeric_strings_accepted_for_floats(self, tmp_path):
        # YAML reads bare 1e-9 as a string; the loader coerces it
        text = MINIMAL + "static:\n  eps_min: 1e-9\n"
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.data["static"]["eps_min"] == 1e-9

    def test_unknown_model_name(self, tmp_path):
        text = MINIMAL.replace("quadratic_congestion", "viscosity")
        with pytest.raises(ConfigError, match="model"):
            parse_config(write_config(tmp_path, text))

    def test_unsupported_dimension(self, tmp_path):
        text = MINIMAL.replace("dim: 1", "dim: 3")
        with pytest.raises(ConfigError, match="dim"):
            parse_config(write_config(tmp_path, text))

    def test_evolve_divisibility_names_both_keys(self, tmp_path):
        text = MINIMAL + "evolve:\n  T: 1.0\n  dt: 0.3\n"
        with pytest.raises(ConfigError, match=r"'evolve\.dt'.*'evolve\.T'"):
            parse_config(write_config(tmp_path, text))

    def test_sweep_divisibility_names_both_keys(self, tmp_path):
        text = MINIMAL + "sweep:\n  mode: fixed_dt\n  dt: 0.3\n  T_list: [1.0, 2.0]\n"
        with pytest.raises(ConfigError, match=r"'sweep\.dt'.*'sweep\.T_list'"):
            parse_config(write_config(tmp_path, text))

    def test_dirac_requires_point(self, tmp_path):
        text = MINIMAL + "m0:\n  kind: dirac\n"
        with pytest.raises(ConfigError, match="point"):
            parse_config(write_config(tmp_path, text))

    def test_file_requires_path(self, tmp_path):
        text = MINIMAL + "m0:\n  kind: file\n"
        with pytest.raises(ConfigError, match="path"):
            parse_config(write_config(tmp_path, text))

    def test_damping_constant_range(self, tmp_path):
        text = MINIMAL + "static:\n  damping:\n    kind: constant\n    value: 1.5\n"
        with pytest.raises(ConfigError, match="damping"):
            parse_config(write_config(tmp_path, text))

    def test_axis_length_mismatch(self, tmp_path):
        text = MINIMAL + "grid:\n  lower: [-2.0, -2.0]\n  upper: [2.0, 2.0]\n"
        with pytest.raises(ConfigError, match="grid"):
            parse_config(write_config(tmp_path, text))


def assert_reruns_are_byte_identical(tmp_path, command, text):
    """Two runs of one config write the same files, byte for byte."""
    cfg = write_config(tmp_path, text)
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert entrypoint([command, str(cfg), "--output-dir", str(out1)]) == 0
    assert entrypoint([command, str(cfg), "--output-dir", str(out2)]) == 0
    names = sorted(path.name for path in out1.iterdir())
    assert names and names == sorted(path.name for path in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


STATIC_CONFIG = """
seed: 0
model:
  name: quadratic_congestion
  dim: 1
grid:
  n_cells: [100]
m0:
  kind: dirac
  point: [0.8]
static:
  eps_min: 1.0e-9
"""


class TestStaticCommand:
    def test_artifacts_and_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, STATIC_CONFIG)
        out = tmp_path / "out"
        assert entrypoint(["static", str(cfg), "--output-dir", str(out)]) == 0
        for name in ("static_iterates.csv", "static_measure.csv", "static_summary.json"):
            assert (out / name).exists()
        summary = json.loads((out / "static_summary.json").read_text())
        assert summary["meta"]["command"] == "static"
        assert summary["converged"] is True
        assert summary["residual"] <= 1e-9
        measure = read_measure_csv(out / "static_measure.csv")
        np.testing.assert_allclose(measure.points, [[0.0]], atol=1e-12)

    def test_reruns_are_byte_identical(self, tmp_path):
        assert_reruns_are_byte_identical(tmp_path, "static", STATIC_CONFIG)

    def test_verbose_prints_the_stop_reason_on_stderr(self, tmp_path):
        # a child process: in-process, pytest's own root handlers would make
        # the CLI's logging.basicConfig a no-op
        cfg = write_config(tmp_path, STATIC_CONFIG)
        src = str(Path(mfglab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "mfglab", "static", str(cfg), "--output-dir", str(tmp_path), "-v"]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert proc.returncode == 0
        assert "RuntimeWarning" not in proc.stderr
        assert "INFO mfglab.static_game: static solve converged at iteration" in proc.stderr
        assert "DEBUG" not in proc.stderr
        assert proc.stdout == ""

    def test_header_comment_lines(self, tmp_path):
        cfg = write_config(tmp_path, STATIC_CONFIG)
        out = tmp_path / "out"
        entrypoint(["static", str(cfg), "--output-dir", str(out)])
        lines = (out / "static_measure.csv").read_text().splitlines()
        assert lines[0].startswith("# mfglab ")
        assert lines[1] == "# command: static"
        assert lines[2].startswith("# config_sha256: ")
        assert lines[3] == "# seed: 0"


ERGODIC_CONFIG = """
seed: 0
model:
  name: quadratic_congestion
  dim: 1
grid:
  n_cells: [100]
ergodic:
  measure_file: static_measure.csv
  eps_min: 1.0e-9
"""


class TestErgodicCommand:
    def test_pipeline_from_static_measure(self, tmp_path, caplog):
        static_cfg = write_config(tmp_path, STATIC_CONFIG, "static.yaml")
        assert entrypoint(["static", str(static_cfg), "--output-dir", str(tmp_path)]) == 0
        ergodic_cfg = write_config(tmp_path, ERGODIC_CONFIG, "ergodic.yaml")
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert entrypoint(["ergodic", str(ergodic_cfg), "--output-dir", str(tmp_path)]) == 0
        assert not [r for r in caplog.records if r.levelname == "WARNING"]
        summary = json.loads((tmp_path / "ergodic_summary.json").read_text())
        assert set(summary) == {"meta", "c", "residuals", "boundary_monotone", "dirichlet_points"}
        assert set(summary["residuals"]) == {
            "crosscheck_gap",
            "continuity_residual",
            "continuity_family",
            "support_violation",
            "static_residual",
        }
        assert summary["c"] == pytest.approx(0.0, abs=1e-12)
        # the static measure charges only the argmin set: within one cell
        assert summary["residuals"]["support_violation"] <= 4.0 / 100
        assert summary["residuals"]["static_residual"] <= 1e-12
        assert (tmp_path / "ergodic_value.csv").exists()

    def test_measure_off_the_argmin_set_exits_0_with_warning(self, tmp_path, caplog):
        # a Dirac at 0.5 is 12.5 cells from K = {0}; a loose static_tol
        # lets the triple be built, and the run reports the violation
        text = ERGODIC_CONFIG.replace(
            "  measure_file: static_measure.csv\n", "  static_tol: 1.0\n"
        ) + "m0:\n  kind: dirac\n  point: [0.5]\n"
        cfg = write_config(tmp_path, text, "off.yaml")
        with caplog.at_level("WARNING", logger="mfglab.cli"):
            assert entrypoint(["ergodic", str(cfg), "--output-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "ergodic_summary.json").read_text())
        assert summary["residuals"]["support_violation"] == pytest.approx(0.5, abs=1e-12)
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert "support_violation 0.5 exceeds one cell" in warnings[0].getMessage()

    def test_non_equilibrium_measure_exits_3(self, tmp_path, caplog):
        bad = DiscreteMeasure.dirac([0.5])
        write_measure_csv(tmp_path / "off.csv", bad, "test", "0" * 64, 0)
        text = ERGODIC_CONFIG.replace("static_measure.csv", "off.csv")
        cfg = write_config(tmp_path, text, "bad.yaml")
        assert entrypoint(["ergodic", str(cfg), "--output-dir", str(tmp_path)]) == 3
        # the error line the CLI prints on stderr names the keys to set
        assert "solver error: measure is not a static equilibrium" in caplog.text
        assert "ergodic.static_tol" in caplog.text and "ergodic.eps_min" in caplog.text


EVOLVE_CONFIG = """
seed: 0
model:
  name: quadratic_congestion
  dim: 1
grid:
  n_cells: [100]
m0:
  kind: uniform_box
  lower: [-0.5]
  upper: [0.5]
  n_particles: 8
evolve:
  T: 0.5
  dt: 0.05
"""


EVOLVE_2D_CONFIG = """
seed: 0
model:
  name: quadratic_congestion
  dim: 2
grid:
  n_cells: [12, 12]
m0:
  kind: uniform_box
  lower: [-0.5, -0.5]
  upper: [0.5, 0.5]
  n_particles: 8
evolve:
  T: 0.2
  dt: 0.05
"""


class TestEvolveCommand:
    def test_2d_reruns_are_byte_identical(self, tmp_path):
        assert_reruns_are_byte_identical(tmp_path, "evolve", EVOLVE_2D_CONFIG)

    def test_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, EVOLVE_CONFIG)
        out = tmp_path / "out"
        assert entrypoint(["evolve", str(cfg), "--output-dir", str(out)]) == 0
        summary = json.loads((out / "evolve_summary.json").read_text())
        assert summary["converged"] is True
        assert summary["a_priori"]["grad_max"] <= summary["a_priori"]["grad_bound"]

        path_lines = (out / "evolve_path.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in path_lines]
        assert records[0]["kind"] == "meta"
        assert records[0]["n_times"] == 11
        slices = [r for r in records[1:] if r["kind"] == "slice"]
        assert len(slices) == 11
        assert len(slices[0]["positions"]) == 8

        ckpt_lines = [
            line
            for line in (out / "evolve_u_checkpoints.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        n_checkpoints = len(summary["checkpoints"])
        assert len(ckpt_lines) - 1 == n_checkpoints * 101  # header + rows

        stats_lines = [
            line
            for line in (out / "evolve_stats.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(stats_lines) - 1 == 8

    def test_non_converged_solve_exits_0_with_warning(self, tmp_path, caplog):
        cfg = write_config(tmp_path, EVOLVE_CONFIG + "  max_iter: 1\n  tol: 1.0e-15\n")
        with caplog.at_level("WARNING", logger="mfglab.cli"):
            assert entrypoint(["evolve", str(cfg), "--output-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "evolve_summary.json").read_text())
        assert summary["converged"] is False
        assert "without reaching tol" in caplog.text

    @pytest.mark.parametrize("cap, capped", [(512, False), (4, True)])
    def test_summary_reports_w1_capped(self, tmp_path, cap, capped):
        cfg = parse_config(write_config(tmp_path, EVOLVE_2D_CONFIG + f"  w1_size_cap: {cap}\n"))
        assert run("evolve", cfg, tmp_path) == 0
        summary = json.loads((tmp_path / "evolve_summary.json").read_text())
        assert summary["w1_capped"] is capped
        # 8 particles downsampled to 4: the residual is a sampled estimate
        # whose noise keeps it above tol
        assert summary["converged"] is not capped

    def test_boundary_escape_exits_3(self, tmp_path):
        text = EVOLVE_CONFIG.replace(
            "kind: uniform_box\n  lower: [-0.5]\n  upper: [0.5]\n  n_particles: 8",
            "kind: dirac\n  point: [1.99]",
        )
        cfg = write_config(tmp_path, text)
        assert entrypoint(["evolve", str(cfg), "--output-dir", str(tmp_path)]) == 3


SWEEP_CONFIG = """
seed: 0
model:
  name: quadratic_congestion
  dim: 1
grid:
  n_cells: [80]
m0:
  kind: uniform_box
  lower: [-0.5]
  upper: [0.5]
  n_particles: 8
sweep:
  T_list: [1.0, 2.0]
  mode: fixed_steps
  n_steps: 20
  eps_min: 1.0e-9
"""


class TestSweepCommand:
    def test_rows_and_summary(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        out = tmp_path / "out"
        assert entrypoint(["sweep", str(cfg), "--output-dir", str(out)]) == 0
        lines = [
            line
            for line in (out / "sweep_records.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        header = lines[0].split(",")
        assert header[:6] == ["T", "dt", "n_steps", "s", "t", "support_dist"]
        assert len(lines) - 1 == 2 * 5  # two horizons x five s values
        summary = json.loads((out / "sweep_summary.json").read_text())
        for key in (
            "support_decay_ok",
            "support_final",
            "value_rate_times_T",
            "value_rate_ratio",
            "chi_hat_stable",
            "occ_bound_max",
            "tainted_any",
            "passed",
        ):
            assert key in summary
        assert summary["T_list"] == [1.0, 2.0]
        assert "singleton" in summary  # quadratic congestion has a one-point argmin
        assert "semilimit_gaps" not in summary  # needs three horizons

    def test_every_row_fills_every_column(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        out = tmp_path / "out"
        assert entrypoint(["sweep", str(cfg), "--output-dir", str(out)]) == 0
        lines = [
            line
            for line in (out / "sweep_records.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        header = lines[0].split(",")
        assert header == [
            "T", "dt", "n_steps", "s", "t", "support_dist", "d1_to_limit", "value_rate_err",
            "value_rate_err_times_T", "wkam_err", "chi_hat", "chi_prime_hat", "r1_hat", "rho_max",
            "occ_bound", "grad_max", "iterations", "converged", "tainted", "estimated", "c_star",
        ]
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert all(len(line.split(",")) == len(header) for line in lines[1:])
        for row in rows:
            # t = s T, and the scaled rate error is the rate error times T
            assert float(row["t"]) == pytest.approx(float(row["s"]) * float(row["T"]))
            assert float(row["value_rate_err_times_T"]) == pytest.approx(
                float(row["T"]) * float(row["value_rate_err"]), nan_ok=True
            )

    def test_reruns_are_byte_identical(self, tmp_path):
        assert_reruns_are_byte_identical(tmp_path, "sweep", SWEEP_CONFIG)

    def test_failed_verdict_exits_0_with_warning(self, tmp_path, caplog):
        cfg = write_config(tmp_path, SWEEP_CONFIG + "  max_iter: 1\n  tol: 1.0e-15\n")
        with caplog.at_level("WARNING", logger="mfglab.cli"):
            assert entrypoint(["sweep", str(cfg), "--output-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert summary["tainted_any"] is True
        assert summary["passed"] is False
        assert "did not reach the fixed-point tolerance" in caplog.text

    def test_failed_checks_of_a_converged_sweep_are_named(self, tmp_path, caplog):
        # short LQR horizons: every solve converges, but the limit checks fail
        cfg = write_config(tmp_path, LQR_SHORT_SWEEP_CONFIG)
        with caplog.at_level("WARNING", logger="mfglab.cli"):
            assert entrypoint(["sweep", str(cfg), "--output-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert summary["tainted_any"] is False
        assert summary["passed"] is False
        warnings = [r for r in caplog.records if r.name == "mfglab.cli" and r.levelname == "WARNING"]
        assert len(warnings) == 1
        message = warnings[0].getMessage()
        for name in ("support_final_ok", "value_rate_ok", "chi_prime_hat_stable"):
            assert summary[name] is False
            assert name in message
        assert summary["singleton"]["passed"] is False
        assert "singleton.passed" in message
        for name in ("support_decay_ok", "chi_hat_stable", "r1_hat_stable", "semilimit_ok"):
            assert summary[name] is True
            assert name not in message


LQR_SHORT_SWEEP_CONFIG = """
seed: 0
model:
  name: lqr_oracle
  dim: 1
grid:
  lower: [-2.0]
  upper: [2.0]
  n_cells: [200]
m0:
  kind: uniform_box
  lower: [-0.5]
  upper: [0.5]
  n_particles: 256
sweep:
  T_list: [0.5, 1.0, 1.5]
  mode: fixed_dt
  dt: 0.05
  control_mesh: 0.02
  eps_min: 1.0e-9
"""


VALIDATE_CONFIG = """
seed: 0
model:
  name: quadratic_congestion
  dim: 1
grid:
  n_cells: [160]
"""


class TestValidateCommand:
    def test_clean_model_exits_0(self, tmp_path, capsys):
        cfg = write_config(tmp_path, VALIDATE_CONFIG)
        assert entrypoint(["validate", str(cfg), "--output-dir", str(tmp_path)]) == 0
        assert "validation: PASS" in capsys.readouterr().out
        report = json.loads((tmp_path / "validate_report.json").read_text())
        assert report["violations"] == []

    def test_violations_exit_4(self, tmp_path, capsys):
        # shrinking the declared core box below the argmin-extraction
        # tolerance makes the detected argmin leak outside it
        text = VALIDATE_CONFIG.replace(
            "grid:", "  params:\n    core: 0.05\ngrid:"
        ).replace("[160]", "[80]")
        cfg = write_config(tmp_path, text)
        assert entrypoint(["validate", str(cfg), "--output-dir", str(tmp_path)]) == 4
        out = capsys.readouterr().out
        assert "validation: FAIL" in out
        report = json.loads((tmp_path / "validate_report.json").read_text())
        assert any("argmin leaves the core box" in v for v in report["violations"])


class TestModuleImport:
    def test_main_submodule_is_the_module(self):
        import mfglab.cli_io.main as m

        assert callable(m.run)
        assert callable(m.parse_config)

    def test_all_lists_every_public_name_and_each_resolves(self):
        # a deleted function must not leave a stale export behind
        bound = {
            name
            for name, value in vars(mfglab).items()
            if not name.startswith("_") and not isinstance(value, ModuleType)
        }
        assert set(mfglab.__all__) - {"__version__"} == bound
        assert len(mfglab.__all__) == len(set(mfglab.__all__))
        star = {}
        exec("from mfglab import *", star)
        assert all(name in star for name in mfglab.__all__)


MODULE_PROBE = """
import json, sys
from mfglab.cli_io.config import build_grid
from mfglab.cli_io.main import parse_config, run

command, config, out = sys.argv[1:]
cfg = parse_config(config)
if command == "setup":
    build_grid(cfg)
else:
    assert run(command, cfg, out) == 0
loaded = [name for name in sys.modules if name.startswith("scipy") or name == "numpy.ma"]
print(json.dumps(sorted(loaded)))
"""


def modules_loaded_after(tmp_path, command, text) -> list:
    """The scipy modules, and numpy.ma, that a fresh process has loaded
    after it imports mfglab and runs ``command`` on the config (``setup``:
    parse it and build its grid).  scipy loads numpy.ma, and so does a
    plain np.unique since numpy 2.3; a 1D run needs neither."""
    cfg = write_config(tmp_path, text)
    src = str(Path(mfglab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-c", MODULE_PROBE, command, str(cfg), str(tmp_path / "out")]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestScipyOnlyIn2D:
    def test_1d_sweep_loads_no_scipy(self, tmp_path):
        # the sweep builds the ergodic triple, whose crosscheck is the 1D
        # graph distance, and takes 1D W1s
        assert modules_loaded_after(tmp_path, "sweep", SWEEP_CONFIG) == []

    def test_2d_setup_loads_the_2d_solvers(self, tmp_path):
        loaded = modules_loaded_after(tmp_path, "setup", EVOLVE_2D_CONFIG)
        assert "scipy.optimize" in loaded
        assert "scipy.sparse.csgraph" in loaded


# a small run of every command; each case below sets one value out of range
SMALL_RUN = {
    "model": {"name": "quadratic_congestion", "dim": 1},
    "grid": {"n_cells": [20]},
    "m0": {"n_particles": 8},
    "evolve": {"T": 0.2, "dt": 0.1},
    "sweep": {"T_list": [1.0], "n_steps": 10, "eps_min": 1e-9},
}

OUT_OF_RANGE = [
    ("evolve", "evolve.control_mesh", -0.1, {}),
    ("sweep", "sweep.control_mesh", -0.1, {}),
    ("evolve", "evolve.control_radius", 0.0, {}),
    ("evolve", "evolve.path_cap", 0, {}),
    ("evolve", "evolve.w1_size_cap", 0, {"model.dim": 2, "grid.n_cells": [10, 10]}),
    ("static", "static.eps_min", -1.0, {}),
    ("ergodic", "ergodic.eps_min", -1.0, {"m0.kind": "dirac", "m0.point": [0.0]}),
    ("sweep", "sweep.eps_min", -1.0, {}),
    ("sweep", "sweep.R", -1.0, {}),
    ("sweep", "sweep.delta_occ", 0.0, {}),
    # 21 cells of [-2, 2] put no node within 0.001 of the origin
    ("sweep", "sweep.R", 0.001, {"grid.n_cells": [21]}),
]


class TestEntrypointErrors:
    def test_config_error_exits_2(self, tmp_path):
        text = MINIMAL.replace("quadratic_congestion", "viscosity")
        cfg = write_config(tmp_path, text)
        assert entrypoint(["static", str(cfg), "--output-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "command, key, value, others",
        OUT_OF_RANGE,
        ids=[f"{key}={value}" for _, key, value, _ in OUT_OF_RANGE],
    )
    def test_value_out_of_range_exits_2_naming_its_key(
        self, tmp_path, caplog, command, key, value, others
    ):
        raw = {section: dict(body) for section, body in SMALL_RUN.items()}
        for dotted, val in [*others.items(), (key, value)]:
            section, name = dotted.split(".")
            raw.setdefault(section, {})[name] = val
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        with caplog.at_level("ERROR", logger="mfglab.cli"):
            assert entrypoint([command, str(cfg), "--output-dir", str(tmp_path)]) == 2
        assert f"config error: '{key}'" in caplog.text

    @pytest.mark.parametrize(
        "model, key",
        [
            ("quadratic_congestion", "cor"),
            ("two_wells", "core"),
            ("separated_kernel", "delt"),
            ("fG_plus_g", "core"),
            ("lqr_oracle", "c_sta"),
        ],
    )
    def test_unknown_model_parameter_exits_2_naming_it(self, tmp_path, caplog, model, key):
        raw = {section: dict(body) for section, body in SMALL_RUN.items()}
        raw["model"] = {"name": model, "dim": 1, "params": {key: 1.0}}
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        with caplog.at_level("ERROR", logger="mfglab.cli"):
            assert entrypoint(["static", str(cfg), "--output-dir", str(tmp_path)]) == 2
        assert f"'model.params' rejected by '{model}'" in caplog.text
        assert f"unexpected keyword argument '{key}'" in caplog.text

    @pytest.mark.parametrize(
        "command, model, key, value",
        [
            ("validate", "quadratic_congestion", "core", -0.5),
            ("static", "quadratic_congestion", "core", -0.5),
            ("static", "lqr_oracle", "c_star", float("nan")),
            ("static", "separated_kernel", "delta", float("nan")),
        ],
    )
    def test_model_parameter_out_of_range_exits_2_naming_it(
        self, tmp_path, caplog, command, model, key, value
    ):
        raw = {section: dict(body) for section, body in SMALL_RUN.items()}
        raw["model"] = {"name": model, "dim": 1, "params": {key: value}}
        cfg = write_config(tmp_path, yaml.safe_dump(raw))
        with caplog.at_level("ERROR", logger="mfglab.cli"):
            assert entrypoint([command, str(cfg), "--output-dir", str(tmp_path)]) == 2
        assert f"'model.params' rejected by '{model}': {key} must be finite" in caplog.text

    def test_out_of_memory_exits_3(self, tmp_path, monkeypatch, caplog):
        def run_out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 3.20 GiB for an array")

        monkeypatch.setattr("mfglab.cli_io.main.run", run_out_of_memory)
        cfg = write_config(tmp_path, MINIMAL)
        with caplog.at_level("ERROR", logger="mfglab.cli"):
            assert entrypoint(["evolve", str(cfg), "--output-dir", str(tmp_path)]) == 3
        assert "solver error: out of memory: Unable to allocate 3.20 GiB" in caplog.text

    def test_missing_config_exits_2(self, tmp_path):
        assert entrypoint(["static", str(tmp_path / "nope.yaml")]) == 2

    def test_run_rejects_unknown_command(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, MINIMAL))
        with pytest.raises(ConfigError, match="subcommand"):
            run("simulate", cfg, tmp_path)


class TestMeasureCsvRoundtrip:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(6, 2))
        w = rng.random(6) + 0.1
        m = DiscreteMeasure(pts, w / w.sum())
        path = tmp_path / "m.csv"
        write_measure_csv(path, m, "test", "f" * 64, 7)
        back = read_measure_csv(path)
        np.testing.assert_array_equal(back.points, m.points)
        np.testing.assert_array_equal(back.weights, m.weights)

    def test_rejects_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,mass\n0.0,1.0\n")
        with pytest.raises(ConfigError):
            read_measure_csv(bad)

    def test_rejects_empty_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ConfigError):
            read_measure_csv(empty)


def per_cell_fmt(value) -> str:
    """The per-cell CSV formatter the writer used before it formatted
    blocks; its strings are the artifact format."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


class TestCsvFormat:
    SPECIAL = [-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-300, 5e-324, 0.1, 1.0 / 3.0, 1e22, -2.5e-17, 3.0]

    def written_rows(self, tmp_path, rows):
        path = tmp_path / "t.csv"
        write_csv(path, "test", "0" * 64, 3, ["a", "b"], rows)
        lines = path.read_text().splitlines()
        header = [f"# mfglab {mfglab.__version__}", "# command: test", f"# config_sha256: {'0' * 64}", "# seed: 3"]
        assert lines[:5] == header + ["a,b"]
        return lines[5:]

    def test_typed_rows_match_the_per_cell_formatter(self, tmp_path):
        rows = [
            (True, False),
            (np.bool_(True), np.bool_(False)),
            (np.int64(-3), 7, np.int32(2**31 - 1)),
            (-0.0, np.float64(-0.0)),
            (float("nan"), np.nan, np.float64("nan")),
            (np.inf, -np.inf, np.float64(-np.inf)),
            (1e-300, np.float64(1e-300), 5e-324),
            (np.int64(2), 0.1, True, np.float32(0.1), np.float64(1 / 3), "tag", np.bool_(False), -0.0),
        ]
        expect = [",".join(per_cell_fmt(v) for v in row) for row in rows]
        assert self.written_rows(tmp_path, rows) == expect
        assert expect[0] == "1,0" and expect[3] == "-0.0,-0.0" and expect[5] == "inf,-inf,-inf"

    @pytest.mark.parametrize(
        "block",
        [
            np.array(SPECIAL).reshape(-1, 2),
            np.array(SPECIAL).reshape(-1, 4),
            np.random.default_rng(0).standard_normal((50, 3)) * 10.0 ** np.arange(-150, 150, 100),
            np.arange(-6, 6, dtype=np.int64).reshape(-1, 3),
            np.array([[True, False], [False, True]]),
        ],
        ids=["special-2", "special-4", "random", "int64", "bool"],
    )
    def test_array_blocks_match_the_per_cell_formatter(self, tmp_path, block):
        expect = [",".join(per_cell_fmt(v) for v in row) for row in block]
        assert self.written_rows(tmp_path, block) == expect
        assert self.written_rows(tmp_path, [tuple(row) for row in block]) == expect
