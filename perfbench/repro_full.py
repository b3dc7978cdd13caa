"""Workload ``repro_full``: cold full repro, then warm no-op reruns.

Each cold run is a fresh interpreter with an empty cache directory —
``load_benchmark`` memoizes workloads (and their traces) per process,
so a second cold run in the same process would silently skip trace
generation, about half the cold time.  The parent spawns this file as a
child per cold run; the child imports the package (set-up), runs
``run_targets`` for all eight targets serially, then reruns it
:data:`WARM_RERUNS` times on the warm cache, and writes its
measurements to ``--out``.

The surrogates are seeded by their specs, so ``--seed`` does not apply
here: every run renders the same texts, checked against the sha256
pins in ``pins.json``.

Run a child by hand with::

    python3 perfbench/repro_full.py --cache-dir D --out result.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from contextlib import ExitStack, contextmanager, nullcontext
from pathlib import Path

#: Flow scale of every cold run (the pins are recorded at this scale).
FLOW_SCALE = 0.05
#: Warm no-op reruns per child.
WARM_RERUNS = 20
#: Cold children per run, at least (more while time remains).
MIN_CHILDREN = 3
#: Loop timings per host-speed probe: each child's cold run is timed
#: once, between two probes (see ``common.HostSpeed``).
PROBE_SPINS = 5
#: Per-child wall-clock limit.
CHILD_TIMEOUT_S = 150

PINS = Path(__file__).resolve().parent / "pins.json"

TARGET_ORDER = (
    "table1",
    "table2",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "claims",
    "phases",
)

#: Span names of the cold run, mapped to their per-layer metric.
COLD_SELF_METRICS = {
    "workloads.generate": "workloads.generate_s",
    "prediction.net": "prediction.net_s",
    "prediction.path_profile": "prediction.path_profile_s",
    "metrics.hot_set": "metrics.hot_set_s",
    "metrics.evaluate": "metrics.evaluate_s",
    "engine.digest": "engine.digest_s",
    "engine.cache_put": "engine.cache_put_s",
    "engine.cache_get": "engine.cache_get_s",
    "engine.plan": "engine.plan_s",
    "engine.state_save": "engine.state_save_s",
    "engine.sweep": "engine.sweep_s",
    "dynamo.simulate": "dynamo.simulate_s",
    "repro.run": "repro.other_s",
    **{f"experiments.{t}": f"experiments.{t}_s" for t in TARGET_ORDER},
}

#: Span names of a warm rerun, mapped to their per-layer metric.
WARM_SELF_METRICS = {
    "engine.plan": "warm.engine.plan_s",
    "engine.cache_get": "warm.engine.cache_get_s",
    "engine.cache_put": "warm.engine.cache_put_s",
    "engine.state_save": "warm.engine.state_save_s",
    "engine.digest": "warm.engine.digest_s",
    "repro.run": "warm.repro.other_s",
}

#: Kernel spans whose time ``engine.sweep_overhead_s`` excludes.
SWEEP_KERNELS = (
    "prediction.net",
    "prediction.path_profile",
    "metrics.hot_set",
    "metrics.evaluate",
)

COUNT_METRICS = (
    "workloads.occurrences",
    "prediction.net_cells",
    "prediction.path_profile_cells",
    "engine.cache_hits",
    "engine.cache_misses",
    "warm.engine.cache_hits",
)

PER_LAYER = (
    "repro.cold_s",
    "repro.warm_ms",
    *COLD_SELF_METRICS.values(),
    "engine.sweep_overhead_s",
    *COUNT_METRICS,
    *WARM_SELF_METRICS.values(),
    "repro_full.accounted_pct",
    "repro_full.trace_overhead_pct",
)


# ----------------------------------------------------------------------
# Child: one fresh interpreter
# ----------------------------------------------------------------------
def _probes():
    from tracing import Probe

    from repro.dynamo.system import DynamoSystem
    from repro.experiments import targets
    from repro.experiments.engine import cache, executor, graph
    from repro.metrics import hotpaths, quality
    from repro.prediction.net import NETPredictor
    from repro.prediction.path_profile import PathProfilePredictor
    from repro.workloads.generator import WorkloadGenerator

    def hit(result):
        return int(result is not None)

    return [
        Probe(
            "workloads.generate",
            WorkloadGenerator,
            "generate",
            count=lambda trace: len(trace.path_ids),
        ),
        Probe("prediction.net", NETPredictor, "run"),
        Probe("prediction.path_profile", PathProfilePredictor, "run"),
        Probe("metrics.hot_set", hotpaths, "hot_path_set"),
        Probe("metrics.evaluate", quality, "evaluate_prediction"),
        Probe("engine.digest", cache, "trace_digest"),
        Probe("engine.cache_get", cache.SweepCache, "get", count=hit),
        Probe("engine.cache_put", cache.SweepCache, "put"),
        Probe("engine.cache_get", graph.RenderStore, "get", count=hit),
        Probe("engine.cache_put", graph.RenderStore, "put"),
        Probe("engine.plan", targets, "plan_targets"),
        Probe("engine.state_save", graph.GraphState, "save"),
        Probe("engine.sweep", executor, "run_sweep"),
        Probe("dynamo.simulate", DynamoSystem, "run"),
    ]


@contextmanager
def _traced_targets(tracer):
    """Wrap every target's render/build callable for the block."""
    import dataclasses

    from repro.experiments import targets

    saved = dict(targets.TARGETS)
    for name, spec in saved.items():
        field = "render_points" if spec.sweep else "build"
        wrapped = tracer.wrap(f"experiments.{name}", getattr(spec, field))
        targets.TARGETS[name] = dataclasses.replace(spec, **{field: wrapped})
    try:
        yield
    finally:
        targets.TARGETS.clear()
        targets.TARGETS.update(saved)


def _cold_layers(tracer, root: int) -> dict[str, float]:
    from tracing import calls, counted, self_time, total_time

    table = tracer.summarize([root])
    layers = {
        metric: self_time(table, span)
        for span, metric in COLD_SELF_METRICS.items()
    }
    sweeps = [
        index
        for index in tracer.subtree(root)
        if tracer.spans[index][0] == "engine.sweep"
    ]
    in_sweep = tracer.summarize(sweeps)
    layers["engine.sweep_overhead_s"] = total_time(
        in_sweep, "engine.sweep"
    ) - sum(total_time(in_sweep, span) for span in SWEEP_KERNELS)
    layers["workloads.occurrences"] = counted(table, "workloads.generate")
    layers["prediction.net_cells"] = calls(table, "prediction.net")
    layers["prediction.path_profile_cells"] = calls(
        table, "prediction.path_profile"
    )
    hits = counted(table, "engine.cache_get")
    layers["engine.cache_hits"] = hits
    layers["engine.cache_misses"] = calls(table, "engine.cache_get") - hits
    mapped = sum(
        self_time(table, span) for span in COLD_SELF_METRICS
    )
    layers["repro_full.accounted_pct"] = (
        100.0 * mapped / tracer.duration(root)
    )
    return layers


def _warm_layers(tracer, root: int) -> dict[str, float]:
    from tracing import counted, self_time

    table = tracer.summarize([root])
    layers = {
        metric: self_time(table, span)
        for span, metric in WARM_SELF_METRICS.items()
    }
    layers["warm.engine.cache_hits"] = counted(table, "engine.cache_get")
    mapped = sum(self_time(table, span) for span in WARM_SELF_METRICS)
    layers["warm.accounted_pct"] = 100.0 * mapped / tracer.duration(root)
    return layers


def child_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    from common import HostSpeed, self_peak_rss_mb

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from tracing import Tracer

    from repro.experiments.engine import SweepCache
    from repro.experiments.targets import run_targets

    cache_dir = Path(args.cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=False)
    ready = time.time()
    host = HostSpeed(spins=PROBE_SPINS)
    ready_probe = host.last

    tracer = Tracer() if args.trace else None

    def timed_run():
        started = time.perf_counter()
        with tracer.span("repro.run") if tracer else nullcontext():
            run = run_targets(
                None, flow_scale=FLOW_SCALE, cache=SweepCache(cache_dir)
            )
        return run, time.perf_counter() - started

    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed(_probes()))
            stack.enter_context(_traced_targets(tracer))
        cold, cold_s = timed_run()
        cold_scaled = host.scale(cold_s)
        warm_s, warm_mismatches = [], 0
        for _ in range(WARM_RERUNS):
            warm, seconds = timed_run()
            warm_s.append(seconds)
            # A no-op rerun executes nothing and serves the same texts.
            warm_mismatches += sum(
                warm.texts.get(name) != text
                for name, text in cold.texts.items()
            ) + len(set(warm.texts) - set(cold.texts))
            if warm.executed_cells or warm.executed_renders:
                warm_mismatches += 1
        to_reference = host.scale(sum(warm_s)) / sum(warm_s)

    hashes = {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in cold.texts.items()
    }
    result = {
        "ready_wall": ready,
        "ready_probe_s": ready_probe,
        "cold_s": cold_s,
        "cold_scaled_s": cold_scaled,
        "warm_s": warm_s,
        "warm_scaled_s": [seconds * to_reference for seconds in warm_s],
        "hashes": hashes,
        "warm_mismatches": warm_mismatches,
        "maxrss_mb": self_peak_rss_mb(),
    }
    if tracer is not None:
        roots = tracer.roots("repro.run")
        result["cold_layers"] = _cold_layers(tracer, roots[0])
        result["warm_layers"] = [
            _warm_layers(tracer, root) for root in roots[1:]
        ]
        if args.spans:
            tracer.dump(args.spans)
    Path(args.out).write_text(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Parent
# ----------------------------------------------------------------------
def _spawn(work: Path, index: int, trace: bool) -> dict | None:
    from common import REFERENCE_SPIN_S, HostSpeed

    out = work / f"child-{index}.json"
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--cache-dir",
        str(work / f"cache-{index}"),
        "--out",
        str(out),
        "--trace",
        str(int(trace)),
    ]
    if trace:
        command += ["--spans", str(work.parent / "repro_full.spans.json")]
    # The child imports this checkout's src/, whatever PYTHONPATH says.
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    spawn_probe = HostSpeed(spins=PROBE_SPINS).last
    spawned = time.time()
    try:
        completed = subprocess.run(
            command,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"repro_full child {index} timed out\n")
        return None
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr[-4000:])
        return None
    result = json.loads(out.read_text())
    result["setup_s"] = result["ready_wall"] - spawned
    result["setup_scaled_s"] = (
        result["setup_s"]
        * REFERENCE_SPIN_S
        * 2
        / (spawn_probe + result["ready_probe_s"])
    )
    return result


def _check(result: dict, pins: dict) -> tuple[int, int]:
    """(attempted, failed) target renders of one child."""
    attempted = len(TARGET_ORDER) * (1 + len(result["warm_s"]))
    failed = result["warm_mismatches"]
    for name in TARGET_ORDER:
        if result["hashes"].get(name) != pins["sha256"][name]:
            failed += 1
    return attempted, failed


def run(seconds: float, seed: int, trace: bool, work: Path) -> dict:
    """Measure the workload; returns the benchmark's result fields."""
    del seed  # surrogates are seeded by their specs
    from common import median

    pins = json.loads(PINS.read_text())
    if pins["flow_scale"] != FLOW_SCALE:
        raise SystemExit("pins.json was recorded at another flow scale")
    children: list[tuple[bool, dict | None]] = []
    start = time.perf_counter()
    index = 0
    while True:
        traced = bool(trace and index % 2 == 1)
        children.append((traced, _spawn(work, index, traced)))
        index += 1
        kinds = {kind for kind, _ in children}
        enough = index >= MIN_CHILDREN and (not trace or len(kinds) == 2)
        if enough and time.perf_counter() - start >= seconds:
            break

    attempted = failed = 0
    for _, result in children:
        if result is None:
            attempted += len(TARGET_ORDER)
            failed += len(TARGET_ORDER)
            continue
        a, f = _check(result, pins)
        attempted += a
        failed += f
    ok = [(kind, r) for kind, r in children if r is not None]
    plain = [r for kind, r in ok if not kind]
    out = {"attempted": attempted, "failed": failed, "detail": {}}
    if not plain:
        out["failed"] = max(failed, 1)
        return out
    warm = [s for r in plain for s in r["warm_s"]]
    cold = median(r["cold_s"] for r in plain)
    out["detail"] = {
        "flow_scale": FLOW_SCALE,
        "cold_runs": len(plain),
        "warm_samples": len(warm),
        "repro.cold_s": cold,
        "cold_runs_s": [round(r["cold_s"], 4) for r in plain],
        "cold_runs_scaled_s": [round(r["cold_scaled_s"], 4) for r in plain],
        "repro.warm_ms": 1000.0 * median(warm),
    }
    if not trace:
        warm_scaled = [s for r in plain for s in r["warm_scaled_s"]]
        out["metrics"] = {
            "setup_s": (median(r["setup_scaled_s"] for r in plain), "s"),
            "peak_rss_mb": (median(r["maxrss_mb"] for r in plain), "MB"),
            "slow_leg_s": (median(r["cold_scaled_s"] for r in plain), "s"),
            "fast_leg_s": (median(warm_scaled), "s"),
        }
        return out
    traced = [r for kind, r in ok if kind]
    if not traced:
        out["failed"] = max(failed, 1)
        return out
    layers: dict[str, float] = {}
    for name in traced[0]["cold_layers"]:
        layers[name] = median(r["cold_layers"][name] for r in traced)
    warm_layers = [w for r in traced for w in r["warm_layers"]]
    for name in warm_layers[0]:
        layers[name] = median(w[name] for w in warm_layers)
    layers["repro.cold_s"] = cold
    layers["repro.warm_ms"] = out["detail"]["repro.warm_ms"]
    traced_cold = median(r["cold_s"] for r in traced)
    layers["repro_full.trace_overhead_pct"] = 100.0 * (traced_cold / cold - 1)
    out["layers"] = layers
    out["accounted"] = {
        "cold": layers["repro_full.accounted_pct"],
        "warm": layers.pop("warm.accounted_pct"),
    }
    return out


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
