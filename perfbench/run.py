#!/usr/bin/env python3
"""End-to-end benchmark of lssrings, with an optional traced round.

    python3 perfbench/run.py --workload corpus6 --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ./src. One
run sets the program up several times (fresh import, parse of the
inputs, warm-up) and reports the median as ``setup_s``; then it repeats
whole rounds over the workload's input set until ``--seconds`` of timed
rounds have passed and reports the median round as ``wall_s``. Outputs
are checked after each round, outside the timed region. With
``--trace 1`` one more round runs with every layer wrapped, and the
per-layer metrics replace the end-to-end ones. The last line on stdout
is the JSON result; the environment block goes to stderr.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 5
PROGRAM_MODULES = ("graphs", "kernel", "rationals", "posmatch", "pmd", "scan",
                   "reports", "cli")

import tracing  # noqa: E402
import workloads  # noqa: E402


def import_program() -> SimpleNamespace:
    """Import lssrings afresh from ./src (dropping any earlier import)."""
    for name in [m for m in sys.modules if m == "lssrings" or m.startswith("lssrings.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"lssrings.{m}") for m in PROGRAM_MODULES}
    pkg = sys.modules["lssrings"]
    if Path(pkg.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"lssrings came from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**mods)


def environment(lss) -> dict:
    return {"python": platform.python_version(),
            "rationals_backend": lss.rationals.BACKEND,
            "kernel_backend": lss.kernel.BACKEND,
            "nproc": os.cpu_count()}


def measure_round(wl, tracer):
    """One timed round, then its checks; returns (wall, operations, failed,
    check failures). The outcomes are dropped before the next round."""
    t0 = time.perf_counter()
    outcomes = wl.run_round(tracer)
    wall = time.perf_counter() - t0
    failed = sum(map(workloads.is_failure, outcomes))
    return wall, len(outcomes), failed, wl.check_round(outcomes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lssrings" / "__init__.py").is_file():
        print(f"error: no lssrings package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload](args.seed)

    setup_s, parse_s = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lss = import_program()
        parse_s.append(wl.setup(lss))
        setup_s.append(time.perf_counter() - t0)
    env = environment(lss)
    print(json.dumps({"environment": env}), file=sys.stderr)

    patches = tracing.Patches()
    wl.capture(patches)
    walls, errors = [], []
    attempted = failed = 0
    while sum(walls) < args.seconds or not walls:
        wall, n_ops, n_failed, errs = measure_round(wl, None)
        walls.append(wall)
        attempted += n_ops
        failed += n_failed
        errors += errs
        if len(walls) == 1:
            # Peak of set-up plus one pass: later rounds only add allocator
            # fragmentation, which would tie the figure to the round count.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors += wl.check_run()
    wall_s = statistics.median(walls)

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(patches)
        traced_wall, n_ops, n_failed, errs = measure_round(wl, tracer)
        patches.undo()
        attempted += n_ops
        failed += n_failed
        errors += errs
        metrics = tracer.layer_metrics(statistics.median(parse_s), traced_wall - wall_s)
        tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.npz",
                     {"workload": args.workload, "seed": args.seed, "environment": env})
    else:
        patches.undo()
        metrics = {"setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                   "wall_s": {"value": wall_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}

    for err in errors[:20]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    print(f"{args.workload}: {len(walls)} rounds, {attempted} operations, "
          f"{failed} failed, {len(errors)} check failures", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
