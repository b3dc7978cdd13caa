"""Times the incremental artifact graph: cold build vs warm no-op.

The property under measurement is "do nothing fast": after one cold
full-repro run, a second run must discover graph-wide — across
processes, via the persisted state — that nothing changed, execute zero
cells and zero renders, and finish in milliseconds rather than re-paying
workload generation.  The bench runs the complete artifact surface
(all eight targets) three ways:

* **cold** — empty cache, everything dirty, full computation, in a
  fresh child interpreter: ``load_benchmark`` memoizes workloads per
  process, so a cold run in this one could reuse traces an earlier
  bench generated and skip trace generation, the largest cold stage;
* **warm no-op** — same arguments again in this process, a fresh
  :class:`SweepCache` instance over the cold run's root (nothing
  in-process carries over);
* **dry-run** — planning only (:func:`repro.experiments.plan_targets`),
  the cost of answering "what would run?".

The three legs run :data:`REPEATS` times, interleaved (cold, warm,
dry-run, cold, …) over a fresh root each round, and the artifact
reports each leg's median.  It asserts every warm run executed nothing
and produced texts byte-identical to its cold run, gates the warm no-op
wall time at full calibrated scale, and records the timings in
``benchmarks/results/graph.txt`` plus the machine-readable
``BENCH_graph.json`` (schema-checked by the ``bench-smoke`` and
``graph-smoke`` CI jobs).
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

from conftest import BENCH_FLOW_SCALE, emit, emit_json

from repro.experiments import plan_targets, run_targets
from repro.experiments.engine import SweepCache
from repro.experiments.report import fmt, render_table

#: Warm no-op ceiling at full scale.  The claim is "milliseconds"; the
#: gate is deliberately padded (state read + ~700 key hashes + eight
#: render reads) so a noisy machine cannot flake, while still being
#: orders of magnitude below any path that regenerates a workload.
MAX_WARM_NOOP_SECONDS = 2.0

#: Planning alone must be cheaper than (or equal to) the no-op run.
MAX_DRY_RUN_SECONDS = 2.0

#: Interleaved rounds of the three legs; the artifact reports medians.
REPEATS = 3

#: The cold leg, run by a child interpreter: ``<root> <scale> <out>``.
_COLD_CHILD = """
import json, sys, time
from repro.experiments import run_targets
from repro.experiments.engine import SweepCache
root, scale, out = sys.argv[1], float(sys.argv[2]), sys.argv[3]
start = time.perf_counter()
run = run_targets(None, flow_scale=scale, cache=SweepCache(root))
seconds = time.perf_counter() - start
with open(out, "w") as handle:
    json.dump({"seconds": seconds, "executed_cells": run.executed_cells,
               "texts": run.texts}, handle)
"""

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _cold_in_child(root: pathlib.Path) -> dict:
    """One cold full repro in a fresh interpreter; its timing and texts."""
    out = root.parent / f"{root.name}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    subprocess.run(
        [
            sys.executable,
            "-c",
            _COLD_CHILD,
            str(root),
            repr(BENCH_FLOW_SCALE),
            str(out),
        ],
        env=env,
        check=True,
    )
    return json.loads(out.read_text())


def _timed(runner):
    start = time.perf_counter()
    result = runner()
    return time.perf_counter() - start, result


def test_graph_engine(results_dir, tmp_path_factory):
    cold_runs, warm_runs, dry_runs = [], [], []
    for round_index in range(REPEATS):
        root = tmp_path_factory.mktemp(f"graph-cache-{round_index}")
        cold = _cold_in_child(root)
        # A fresh cache instance: cross-run warmth comes from disk only.
        warm_s, warm = _timed(
            lambda: run_targets(
                None, flow_scale=BENCH_FLOW_SCALE, cache=SweepCache(root)
            )
        )
        dry_s, dry = _timed(
            lambda: plan_targets(
                None, flow_scale=BENCH_FLOW_SCALE, cache=SweepCache(root)
            )
        )
        cells = len(dry.built.cells)
        assert cold["executed_cells"] == cells  # cold built every cell
        assert warm.executed_cells == 0  # the no-op executed nothing
        assert warm.executed_renders == 0
        assert warm.texts == cold["texts"]  # and served identical artifacts
        assert not dry.plan.dirty  # the dry-run agrees: nothing to do
        cold_runs.append(cold["seconds"])
        warm_runs.append(warm_s)
        dry_runs.append(dry_s)

    nodes = len(dry.built.graph)
    cold_s = statistics.median(cold_runs)
    warm_s = statistics.median(warm_runs)
    dry_s = statistics.median(dry_runs)

    gate_applied = BENCH_FLOW_SCALE >= 1.0
    if gate_applied:
        assert warm_s < MAX_WARM_NOOP_SECONDS, (
            f"warm no-op full repro took {warm_s:.3f}s over {nodes} "
            f"nodes; the floor is {MAX_WARM_NOOP_SECONDS:.1f}s"
        )
        assert dry_s < MAX_DRY_RUN_SECONDS

    rows = [
        ["cold full repro", fmt(cold_s, 3), fmt(1.0, 1)],
        ["warm no-op", fmt(warm_s, 3), fmt(cold_s / warm_s, 1)],
        ["dry-run (plan only)", fmt(dry_s, 3), fmt(cold_s / dry_s, 1)],
    ]
    emit(
        results_dir,
        "graph",
        render_table(
            headers=["mode", "seconds", "speedup vs cold"],
            rows=rows,
            title=(
                f"Artifact graph: full repro ({nodes} nodes, "
                f"{cells} cells), cold (child interpreter) vs warm "
                f"no-op vs dry-run, median of {REPEATS}"
            ),
        ),
    )
    emit_json(
        results_dir,
        "graph",
        {
            "flow_scale": BENCH_FLOW_SCALE,
            "cpu_count": os.cpu_count(),
            "repeats": REPEATS,
            "nodes": nodes,
            "cells": cells,
            "cold_seconds": cold_s,
            "warm_noop_seconds": warm_s,
            "dry_run_seconds": dry_s,
            "cold_runs_seconds": cold_runs,
            "warm_noop_runs_seconds": warm_runs,
            "dry_run_runs_seconds": dry_runs,
            "warm_executed_cells": warm.executed_cells,
            "warm_executed_renders": warm.executed_renders,
            "warm_dirty_nodes": len(warm.plan.dirty),
            "max_warm_noop_seconds": MAX_WARM_NOOP_SECONDS,
            "noop_gate_applied": gate_applied,
        },
    )
