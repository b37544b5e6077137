"""Deterministic on-disk formats shared by every subcommand.

Every file starts with the same comment header (package version, command,
config hash, seed) and contains no timestamps, so identical configs produce
byte-identical artifacts.  CSV: comma-separated, '.' decimal, one header
line naming the columns; floats use shortest round-trip notation.  JSON
files embed the same metadata under a "meta" key; JSON-lines files carry it
as a first meta record.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from ..errors import ConfigError
from ..measures import DiscreteMeasure


def _package_version() -> str:
    from .. import __version__

    return __version__


def fmt_value(value) -> str:
    """One CSV cell: booleans as 1/0, integers in decimal, floats in
    shortest round-trip notation (``repr`` of the Python float)."""
    if type(value) is float:  # the common cell, and all that a float block yields
        return repr(value)
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def header_lines(command: str, config_sha256: str, seed: int) -> list[str]:
    return [
        f"# mfglab {_package_version()}",
        f"# command: {command}",
        f"# config_sha256: {config_sha256}",
        f"# seed: {seed}",
    ]


def meta_object(command: str, config_sha256: str, seed: int) -> dict:
    return {
        "package": "mfglab",
        "version": _package_version(),
        "command": command,
        "config_sha256": config_sha256,
        "seed": int(seed),
    }


def write_csv(path, command: str, config_sha256: str, seed: int, columns, rows):
    """One header-comment block, one column-name line, then data rows.

    ``rows`` is an iterable of rows or a 2D array; an array is turned into
    Python scalars by ``tolist`` (exact), so each cell formats as
    ``fmt_value`` of the array element would.
    """
    path = Path(path)
    lines = header_lines(command, config_sha256, seed)
    lines.append(",".join(columns))
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    lines.extend(",".join(map(fmt_value, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def measure_columns(dim: int) -> list[str]:
    return ["weight"] + [f"x{i + 1}" for i in range(dim)]


def write_measure_csv(path, m: DiscreteMeasure, command: str, config_sha256: str, seed: int):
    rows = np.column_stack([m.weights, m.points])
    write_csv(path, command, config_sha256, seed, measure_columns(m.dim), rows)


def read_measure_csv(path) -> DiscreteMeasure:
    """Read a measure CSV (weight, x1[, x2]); comment lines are skipped."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"measure file not found: {path}")
    lines = [
        line for line in path.read_text().splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise ConfigError(f"measure file {path} has no data")
    reader = csv.reader(lines)
    header = next(reader)
    if not header or header[0].strip() != "weight":
        raise ConfigError(f"measure file {path} must start with a 'weight,x1[,x2]' header")
    dim = len(header) - 1
    if dim not in (1, 2):
        raise ConfigError(f"measure file {path} must have 1 or 2 coordinate columns")
    weights, points = [], []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != dim + 1:
            raise ConfigError(f"measure file {path}, row {lineno}: expected {dim + 1} fields")
        try:
            weights.append(float(row[0]))
            points.append([float(v) for v in row[1:]])
        except ValueError as exc:
            raise ConfigError(f"measure file {path}, row {lineno}: {exc}") from exc
    return DiscreteMeasure(np.asarray(points), np.asarray(weights))


def write_field_csv(
    path, grid, values, value_column: str, command: str, config_sha256: str, seed: int
):
    """Node-indexed scalar field in row-major node order: x1[,x2],value."""
    flat = np.asarray(values, dtype=float).ravel()
    if flat.size != grid.n_nodes:
        raise ValueError("field size does not match the grid")
    columns = [f"x{i + 1}" for i in range(grid.dim)] + [value_column]
    write_csv(path, command, config_sha256, seed, columns, np.column_stack([grid.nodes, flat]))


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if np.isfinite(f) else repr(f)
    return obj


def write_json(path, payload: dict, command: str, config_sha256: str, seed: int):
    doc = {"meta": meta_object(command, config_sha256, seed)}
    doc.update(_jsonify(payload))
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_path_jsonl(path, measure_path, command: str, config_sha256: str, seed: int):
    """Measure path as JSON lines: one meta record, then one per time."""
    records = [meta_object(command, config_sha256, seed)]
    records[0]["kind"] = "meta"
    records[0]["weights"] = _jsonify(measure_path.weights)
    records[0]["n_times"] = int(measure_path.n_times)
    for k in range(measure_path.n_times):
        records.append(
            {
                "kind": "slice",
                "index": k,
                "t": float(measure_path.times[k]),
                "positions": _jsonify(measure_path.positions[k]),
            }
        )
    text = "\n".join(json.dumps(rec, sort_keys=True) for rec in records)
    Path(path).write_text(text + "\n")
