"""mfglab benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep_qc_1d --seed 0 --seconds 44 --trace 0

The checkout is the parent of this directory and must hold ``src/mfglab``
and ``BENCHMARK.json``.  The workload's config is generated from ``--seed``
(see ``workloads.py``).  The benchmark runs it again and again, one fresh
child process at a time (a closed loop with one client; BLAS/OpenMP threads
pinned to 1, the child pinned to one core), each through the public CLI dispatch
``mfglab.cli_io.main.run``, and starts another run only while that one is
expected to end within ``--seconds`` (at least two runs per set).

Every run is checked: it fails on a non-zero exit, on a sweep whose
``passed`` or an evolve whose ``converged`` is not true, or on artifacts
whose digest differs from the other runs of the set.  Artifacts go to a
scratch directory inside the checkout that is deleted after hashing.

``--trace 0`` reports the end-to-end metrics of untraced runs.  The solve
is gated on its CPU time (``solve_cpu_s``: user plus system time of the
child, from the parsed config to the last artifact written), not on its
wall time.  The child is single-threaded and pinned to one core, so the two
agree on an idle machine; under load from other virtual machines on the
host, the wall time also counts the time the core was taken away (steal
time), which the kernel leaves out of a process's CPU time.  The wall-time
median ``wall_s`` is printed on its own line beside the gated metrics.
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics of the traced ones (see ``tracer.py``); a traced run also
fails when its spans disagree with the artifacts (solve and transport calls
against the iterations recorded) or when a layer the workload must reach
was never called.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give each timing's median, tail percentile, range and sample count, and the
run's context: cores, Python, numpy, scipy, BLAS, src line count, the
failed fraction and the certified errors from the summary artifact
(``support_final`` and ``wkam_final`` of a sweep, ``br_residual`` of an
evolve).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Span, layer_metrics  # noqa: E402
from workloads import WORKLOADS, write_config  # noqa: E402

CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Rep:
    """One child run and what its gate found."""

    traced: bool
    data: dict = field(default_factory=dict)
    digest: str = ""
    summary: dict = field(default_factory=dict)
    iterations: int = 0
    horizons: int = 0
    layers: dict = field(default_factory=dict)
    failure: str = ""
    duration: float = 0.0


def spawn(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        env={**os.environ, **{var: "1" for var in THREAD_VARS}},
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def read_artifacts(command: str, out: Path) -> tuple[dict, int, int]:
    """(summary, total fixed-point iterations, solves) from a run's artifacts."""
    summary = json.loads((out / f"{command}_summary.json").read_text())
    if command == "evolve":
        return summary, int(summary["iterations"]), 1
    lines = [ln for ln in (out / "sweep_records.csv").read_text().splitlines() if not ln.startswith("#")]
    per_T = {(row["T"], int(row["iterations"])) for row in csv.DictReader(lines)}
    return summary, sum(it for _, it in per_T), len(per_T)


def accuracy(summary: dict) -> dict:
    """The certified errors a run reports in its summary artifact."""
    if "br_residual" in summary:
        return {"br_residual": summary["br_residual"]}
    return {
        "support_final": summary["support_final"],
        "wkam_final": summary.get("singleton", {}).get("wkam_final"),
    }


def run_once(name: str, cfg_path: Path, work: Path, index: int, traced: bool) -> Rep:
    command = WORKLOADS[name].command
    out, res = work / f"out{index}", work / f"rep{index}.json"
    rep = Rep(traced)
    t0 = time.monotonic()
    try:
        proc = spawn(
            ["--config", str(cfg_path), "--command", command, "--out", str(out), "--result", str(res)]
            + (["--trace"] if traced else []),
            work,
        )
    except subprocess.TimeoutExpired:
        rep.failure = f"timed out after {CHILD_TIMEOUT_S:g} s"
        return rep
    finally:
        rep.duration = time.monotonic() - t0
    try:
        if proc.returncode != 0:
            rep.failure = f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
            return rep
        rep.data = json.loads(res.read_text())
        rep.digest = digest(out)
        rep.summary, rep.iterations, rep.horizons = read_artifacts(command, out)
        if traced:
            rep.layers = layer_metrics([Span(**s) for s in rep.data["spans"]], rep.data["window_s"])
        ok_key = "converged" if command == "evolve" else "passed"
        if rep.summary.get(ok_key) is not True:
            rep.failure = f"{command}_summary.json has {ok_key} = {rep.summary.get(ok_key)}"
        elif traced:
            rep.failure = coverage_failure(name, rep)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        res.unlink(missing_ok=True)
    return rep


def coverage_failure(name: str, rep: Rep) -> str:
    """Why the traced run's spans disagree with its artifacts, or ''."""
    m = rep.layers
    expected = {
        "finite_horizon.solve_hjb_backward.calls": rep.iterations,
        "finite_horizon.transport_forward.calls": rep.iterations,
        "finite_horizon.solve_mfg.calls": rep.horizons,
    }
    for key, want in expected.items():
        if m.get(key, 0) != want:
            return f"coverage: {key} = {m.get(key, 0)}, artifacts say {want}"
    missed = [key for key in WORKLOADS[name].reaches if not m.get(key)]
    if missed:
        return f"coverage: nothing recorded for {missed}"
    if m["trace.unattributed_s"] < -1e-6:
        return "coverage: spans extend outside the traced window"
    return ""


def gate_digests(reps: list[Rep]) -> None:
    """Fail each run whose artifacts differ from the most common digest."""
    counts = Counter(r.digest for r in reps if r.digest)
    if not counts:
        return
    ref, _ = counts.most_common(1)[0]
    for r in reps:
        if r.digest and r.digest != ref and not r.failure:
            r.failure = "artifact digest differs from the other runs of this seed"


def tail_percentile(values: list[float]):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(values)
    q = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if q < 50:
        return None
    ordered = sorted(values)
    return q, ordered[math.ceil(q * n / 100) - 1]


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path):
    cfg_path = write_config(name, seed, work)
    # untimed warm-up: compiles bytecode and fills the file cache for imports
    warm = spawn(["--import-only", "--result", str(work / "context.json")], work)
    if warm.returncode != 0:
        raise RuntimeError(f"cannot import mfglab: {warm.stderr.strip()[-500:]}")
    context = json.loads((work / "context.json").read_text())["context"]

    reps: list[Rep] = []
    start = time.monotonic()
    while True:
        reps.append(run_once(name, cfg_path, work, len(reps), trace and len(reps) % 2 == 1))
        typical = statistics.median(r.duration for r in reps)
        if len(reps) >= 2 and time.monotonic() - start + typical > seconds:
            break
    gate_digests(reps)
    return reps, context


def summarize(reps: list[Rep], trace: bool) -> tuple[dict, dict]:
    """(metric values, per-timing sample lists) from the runs of a set."""
    ok = [r for r in reps if not r.failure]
    if not ok:
        raise RuntimeError("no run passed its checks; first failure: " + reps[0].failure)
    plain = [r for r in ok if not r.traced]
    samples = {
        "solve_cpu_s": [r.data["cpu_s"] for r in plain],
        "wall_s": [r.data["wall_s"] for r in plain],
        "setup_s": [r.data["setup_s"] for r in plain],
        "peak_rss_mb": [r.data["peak_rss_mb"] for r in plain],
    }
    metrics = {k: statistics.median(v) for k, v in samples.items() if v}
    if trace:
        traced = [r for r in ok if r.traced]
        if not traced or not plain:
            raise RuntimeError("a traced set needs a completed traced and untraced run")
        for key in set().union(*(r.layers for r in traced)):
            samples[key] = [r.layers.get(key, 0) for r in traced]
            metrics[key] = statistics.median(samples[key])
        samples["trace.wall_s"] = [r.data["wall_s"] for r in traced]
        metrics["trace.overhead_s"] = statistics.median(samples["trace.wall_s"]) - metrics["wall_s"]
    return metrics, samples


def src_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (src / "mfglab").rglob("*.py"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="mfglab benchmark (see module docstring)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    src = ROOT / "src"
    bench_file = ROOT / "BENCHMARK.json"
    if not (src / "mfglab" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"{ROOT} holds no src/mfglab package or no BENCHMARK.json", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    section = bench["per_layer" if args.trace else "end_to_end"]

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        reps, context = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
        metrics, samples = summarize(reps, bool(args.trace))
    except RuntimeError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    failed = sum(1 for r in reps if r.failure)
    for r in reps:
        if r.failure:
            print(f"run failed ({'traced' if r.traced else 'untraced'}): {r.failure}")
    context.update(
        nproc=os.cpu_count(),
        src_lines=src_lines(src),
        workload=args.workload,
        seed=args.seed,
        runs_traced=sum(r.traced for r in reps),
        runs_untraced=sum(not r.traced for r in reps),
        failed_frac=failed / len(reps),
        accuracy=accuracy(next(r.summary for r in reps if not r.failure)),
    )
    print("context " + json.dumps(context, sort_keys=True))
    out = {}
    for spec in section:
        out[spec["name"]] = {"value": metrics.get(spec["name"], 0), "unit": spec["unit"]}
    # wall_s is printed beside the gated metrics, not gated (see the docstring)
    for key in [spec["name"] for spec in section if spec["unit"] == "s"] + ["wall_s"]:
        values = samples.get(key, [])
        if values:
            tail = tail_percentile(values)
            tail_txt = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no tail percentile"
            print(
                f"{key}: median {metrics[key]:.4f} s, {tail_txt}, "
                f"range {min(values):.4f}-{max(values):.4f} s, n={len(values)}"
            )
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
