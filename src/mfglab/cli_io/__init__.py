"""Config parsing, deterministic serialization, and the CLI entry point."""

from .config import (
    ConfigFileError,
    ConfigSchemaError,
    ConfigValueError,
    ExperimentConfig,
    build_cost,
    build_grid,
    build_initial_measure,
    config_from_dict,
    make_damping,
    normalize,
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
from .main import build_parser, entrypoint, run

__all__ = [
    "ConfigFileError",
    "ConfigSchemaError",
    "ConfigValueError",
    "ExperimentConfig",
    "build_cost",
    "build_grid",
    "build_initial_measure",
    "build_parser",
    "config_from_dict",
    "entrypoint",
    "make_damping",
    "normalize",
    "parse_config",
    "read_measure_csv",
    "run",
    "write_csv",
    "write_field_csv",
    "write_json",
    "write_measure_csv",
    "write_path_jsonl",
]
