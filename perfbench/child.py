"""One benchmark run of one `mfglab` subcommand, in a fresh process.

Pins itself to one core, then times set-up (this script's start to `mfglab`
imported, config parsed and grid, model and m0 built) and the solve (the CLI
dispatch ``run``, from the parsed config to the last artifact written; wall
and CPU time), and writes its timings, peak RSS, exit code and, when traced,
its spans as JSON to ``--result``.  ``mfglab`` is imported from ``src/``
beside this directory.

    python3 perfbench/child.py --config CFG --command sweep \
        --out OUT_DIR --result RESULT.json [--trace]
    python3 perfbench/child.py --import-only --result CONTEXT.json
"""

from __future__ import annotations

import time

START = time.perf_counter()

import os  # noqa: E402

# one core for the whole run: the process is single-threaded, and a run that
# migrates between cores pays for cold caches
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _context() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--config")
    p.add_argument("--command")
    p.add_argument("--out")
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--import-only", action="store_true", help="import mfglab, record the context and stop")
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import mfglab
    from mfglab.cli_io.config import build_cost, build_grid, build_initial_measure

    pkg = Path(mfglab.__file__).resolve().parent
    if pkg.parent != SRC.resolve():
        print(f"mfglab imported from {pkg}, not from {SRC}", file=sys.stderr)
        return 2
    if args.import_only:
        Path(args.result).write_text(json.dumps({"context": _context()}))
        return 0

    cli = importlib.import_module("mfglab.cli_io.main")
    result: dict = {}
    tracer = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        from tracer import Tracer

        tracer = Tracer()
        result["patched"] = tracer.install()

    t_parse = time.perf_counter()
    cfg = cli.parse_config(args.config)
    t_parsed = time.perf_counter()
    if tracer is not None:
        tracer.enabled = False  # set-up builds below repeat inside run()
    grid = build_grid(cfg)
    F = build_cost(cfg, grid)
    build_initial_measure(cfg, grid, F)
    setup_s = time.perf_counter() - START
    if tracer is not None:
        tracer.enabled = True
    t_run = time.perf_counter()
    c_run = time.process_time()
    code = cli.run(args.command, cfg, args.out)
    c_end = time.process_time()
    t_end = time.perf_counter()

    result.update(
        exit_code=code,
        setup_s=setup_s,
        wall_s=t_end - t_run,
        cpu_s=c_end - c_run,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        result["window_s"] = (t_parsed - t_parse) + (t_end - t_run)
        result["spans"] = [asdict(s) for s in tracer.spans]
    Path(args.result).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
