"""Outside-in span recorder for the public functions of each `mfglab` layer.

The tracer replaces each listed function (or method) with a wrapper that
records one span per call: layer name, start, end, the enclosing span and a
few work counts read from the arguments or the result.  Functions are
patched in every `mfglab` module namespace that binds them, so calls made
through ``from .x import f`` reach the wrapper too.  Spans stay in memory
until the run ends.  Nothing in the program is edited.

A layer's self time is its span durations minus the time covered by its
child spans; the part of the traced window covered by no span is reported
as unattributed, so self times plus the unattributed time add up to the
traced window.  No layer waits on a queue, lock or other process (the
solvers are single-threaded and only write artifacts), so no waiting time
is recorded.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

CORNER_BYTES = 16  # one int64 index and one float64 weight per foot corner


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_pairs(args, kwargs, result):
    points = np.asarray(_arg(args, kwargs, 1, "points"))
    n_points = points.shape[0] if points.ndim == 2 else 1
    return {"pairs": n_points * _arg(args, kwargs, 2, "m").size}


def _count_hjb(args, kwargs, result):
    grid = _arg(args, kwargs, 2, "grid")
    n_c = result.controls.shape[0]
    return {
        "node_control_steps": grid.n_nodes * n_c * result.n_steps,
        "foot_table_mb": grid.n_nodes * n_c * 2**grid.dim * CORNER_BYTES / 1e6,
    }


def _count_transport(args, kwargs, result):
    value = _arg(args, kwargs, 0, "value")
    m0 = _arg(args, kwargs, 1, "m0")
    return {"particle_control_steps": m0.size * value.controls.shape[0] * value.n_steps}


def _count_w1(args, kwargs, result):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    if a.dim == 1:
        return {"cdf_1d": 1}
    # the same dispatch rule as measures.wasserstein1
    uniform = (
        a.size == b.size
        and np.allclose(a.weights, 1.0 / a.size, atol=1e-12, rtol=0.0)
        and np.allclose(b.weights, 1.0 / b.size, atol=1e-12, rtol=0.0)
    )
    if uniform:
        return {"assignment": 1}
    return {"general": 1, "general_pairs": a.size * b.size}


def _count_capped(args, kwargs, result):
    return {"capped": int(bool(result[1]))}


def _count_iterations(args, kwargs, result):
    return {"iterations": result.iterations}


def _count_slots(args, kwargs, result):
    return {"slots_out": result.n_slots}


def _count_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# (module, attribute or Class.method, layer name, work counter)
TARGETS = (
    ("mfglab.cli_io.config", "parse_config", "cli_io.parse_config", None),
    ("mfglab.cli_io.formats", "write_csv", "cli_io.write", _count_bytes),
    ("mfglab.cli_io.formats", "write_json", "cli_io.write", _count_bytes),
    ("mfglab.cli_io.formats", "write_path_jsonl", "cli_io.write", _count_bytes),
    ("mfglab.cli_io.formats", "write_measure_csv", "cli_io.write", _count_bytes),
    ("mfglab.cli_io.formats", "write_field_csv", "cli_io.write", _count_bytes),
    ("mfglab.asymptotics", "run_sweep", "asymptotics.run_sweep", None),
    ("mfglab.asymptotics", "singleton_limit_check", "asymptotics.singleton_limit_check", None),
    ("mfglab.asymptotics", "semilimit_surrogates", "asymptotics.semilimit_surrogates", None),
    ("mfglab.finite_horizon", "solve_mfg", "finite_horizon.solve_mfg", _count_iterations),
    ("mfglab.finite_horizon", "solve_hjb_backward", "finite_horizon.solve_hjb_backward", _count_hjb),
    ("mfglab.finite_horizon", "transport_forward", "finite_horizon.transport_forward", _count_transport),
    ("mfglab.finite_horizon", "occupational_fractions", "finite_horizon.occupational_fractions", None),
    ("mfglab.finite_horizon", "a_priori_report", "finite_horizon.a_priori_report", None),
    ("mfglab.measures", "wasserstein1", "measures.wasserstein1", _count_w1),
    ("mfglab.measures", "wasserstein1_capped", "measures.wasserstein1_capped", _count_capped),
    ("mfglab.measures", "mix_paths", "measures.mix_paths", _count_slots),
    ("mfglab.cost_models", "CostFunctional.evaluate_many", "cost_models.evaluate_many", _count_pairs),
    ("mfglab.grid_geometry", "SpatialGrid.interpolate_many", "grid_geometry.interpolate_many", None),
    ("mfglab.grid_geometry", "SpatialGrid.locate", "grid_geometry.locate", None),
    ("mfglab.eikonal_ergodic", "build_ergodic_triple", "eikonal_ergodic.build_ergodic_triple", None),
    ("mfglab.eikonal_ergodic", "solve_eikonal", "eikonal_ergodic.solve_eikonal", None),
)


class Tracer:
    """Records spans of wrapped calls while ``enabled``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = True
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = Span(name, self._stack[-1] if self._stack else -1, 0.0)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> dict:
        """Patch every target in every loaded `mfglab` module that binds it.

        Returns, per target, the module namespaces that were patched.
        """
        patched = {}
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method), counter))
                patched[f"{module_name}.{attr}"] = [module_name]
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, counter)
            where = []
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "mfglab" and not mod_name.startswith("mfglab."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        where.append(mod_name)
            patched[f"{module_name}.{attr}"] = sorted(where)
        return patched


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _nearest(spans, index: int, names: set) -> str | None:
    """Name of the closest enclosing span whose name is in ``names``."""
    p = spans[index].parent
    while p >= 0:
        if spans[p].name in names:
            return spans[p].name
        p = spans[p].parent
    return None


def layer_metrics(spans, window_s: float) -> dict:
    """Per-layer metrics of one traced run.

    ``window_s`` is the traced wall time; self times of all spans plus
    ``trace.unattributed_s`` equal it.
    """
    own = self_times(spans)
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    for i, s in enumerate(spans):
        add(f"{s.name}.calls", 1)
        add(f"{s.name}.self_s", own[i])
        for key, value in s.counts.items():
            if key == "foot_table_mb":
                m[f"{s.name}.{key}"] = max(m.get(f"{s.name}.{key}", 0.0), value)
            elif key == "bytes" and s.parent >= 0 and spans[s.parent].name == s.name:
                continue  # a writer that delegates to another writer: count the file once
            else:
                add(f"{s.name}.{key}", value)
        if s.name == "cost_models.evaluate_many":
            caller = _nearest(spans, i, {
                "finite_horizon.occupational_fractions",
                "finite_horizon.solve_hjb_backward",
            })
            if caller is not None:
                add(f"cost_models.evaluate_many.in_{caller.split('.')[1]}.self_s", own[i])
        if s.name == "measures.wasserstein1_capped" and _nearest(spans, i, {"finite_horizon.solve_mfg"}):
            add("finite_horizon.solve_mfg.w1_calls", 1)
    for kind in ("cdf_1d", "assignment", "general"):
        m[f"measures.wasserstein1.calls.{kind}"] = m.pop(f"measures.wasserstein1.{kind}", 0)
    m.setdefault("measures.wasserstein1.general_pairs", 0)
    iterations = m.get("finite_horizon.solve_mfg.iterations", 0)
    w1_calls = m.pop("finite_horizon.solve_mfg.w1_calls", 0)
    m["finite_horizon.solve_mfg.w1_calls_per_iteration"] = w1_calls / iterations if iterations else 0.0
    covered = sum(s.end - s.start for s in spans if s.parent < 0)
    m["trace.unattributed_s"] = window_s - covered
    m["trace.window_s"] = window_s
    return m
