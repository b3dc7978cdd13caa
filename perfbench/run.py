"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload repro_full --seed 1 --seconds 30 --trace 0

Workloads:

* ``repro_full`` — cold full repro of all eight targets from an empty
  cache in a fresh interpreter, then warm no-op reruns.
* ``serve_replay`` — the loadgen corpus replayed by a closed-loop
  client against an in-memory and a durable prediction server.
* ``vm_tiers`` — the seven ISA programs on the interp, fragments and
  compiled tiers of the mini-Dynamo.

Every workload reports the same end-to-end metrics (``--trace 0``):

* ``setup_s`` — set-up time, median of several set-ups in the run;
* ``peak_rss_mb`` — peak resident memory of the measuring process;
* ``slow_leg_s`` / ``fast_leg_s`` — the workload's two legs:

  =============  ===============================  =============================
  workload       slow leg                         fast leg
  =============  ===============================  =============================
  repro_full     cold full repro (s)              warm no-op rerun (s)
  serve_replay   durable-server replay (s)        in-memory replay (s)
  vm_tiers       fragments tier, s per 10^6       compiled tier, s per 10^6
                 instructions (geomean)           instructions (geomean)
  =============  ===============================  =============================

The three times are scaled to a reference host speed: a fixed
pure-Python loop is timed before and after each measured piece of work
(a serving leg, a VM program, a cold repro child; ``common.HostSpeed``),
and the work's seconds are multiplied by the loop's reference time over
its mean time there.  The host's speed drifts by 10-20% over tens of
seconds and by up to 2x over tens of minutes, and the workloads drift
with the loop, so scaling keeps runs of the same code comparable; the
detail line also gives the unscaled figures.

``--trace 1`` makes a separate traced run and reports every per-layer
metric: self times of the public functions of each layer (span minus
child spans), work counts, and ``<workload>.trace_overhead_pct``.
Layers a workload does not exercise read 0.  The spans themselves are
written to ``.perfbench-work/<workload>.spans.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the environment fingerprint, the workload's own figures and
each metric with its unit.  The exit code is 0 only when every output
checked was correct.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC, WORK, fingerprint, use_source_tree  # noqa: E402

WORKLOADS = ("repro_full", "serve_replay", "vm_tiers")

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "slow_leg_s": "s",
    "fast_leg_s": "s",
}

#: Accounted share of the traced wall clock a workload's layer self
#: times must reach (threads of the serving legs finish a little apart).
MIN_ACCOUNTED_PCT = 95.0
MAX_ACCOUNTED_PCT = 100.5


def per_layer_names() -> list[str]:
    """Every per-layer metric, in a fixed order across workloads."""
    names: list[str] = []
    for workload in WORKLOADS:
        names.extend(importlib.import_module(workload).PER_LAYER)
    return names


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_mips"):
        return "MIPS"
    if name.endswith(("_ratio", "_fraction")):
        return "ratio"
    return "count"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no repro package under {SRC}; run from the root "
            "of a full checkout\n"
        )
        return 2
    # Byte-compile once up front so no measured run pays for it.
    if not compileall.compile_dir(str(SRC), quiet=1):
        sys.stderr.write("perfbench: src/ does not compile\n")
        return 2
    use_source_tree()

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        module = importlib.import_module(args.workload)
        outcome = module.run(args.seconds, args.seed, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = int(outcome["failed"])
    attempted = max(1, int(outcome["attempted"]))
    if args.trace:
        layers = outcome.get("layers", {})
        metrics = {
            name: {"value": float(layers.get(name, 0.0)), "unit": _unit(name)}
            for name in per_layer_names()
        }
        for label, pct in outcome.get("accounted", {}).items():
            if not MIN_ACCOUNTED_PCT <= pct <= MAX_ACCOUNTED_PCT:
                sys.stderr.write(
                    f"perfbench: {label} layer self times account for "
                    f"{pct:.2f}% of the traced wall clock\n"
                )
                failed += 1
    else:
        measured = outcome.get("metrics", {})
        metrics = {
            name: {"value": float(measured[name][0]), "unit": unit}
            for name, unit in E2E_UNITS.items()
            if name in measured
        }
        if len(metrics) != len(E2E_UNITS):
            failed = max(failed, 1)
    correct = failed == 0

    print(
        "# fingerprint "
        + json.dumps(
            fingerprint(
                workload=args.workload,
                seed=args.seed,
                seconds=args.seconds,
                trace=args.trace,
                flow_scale=importlib.import_module("repro_full").FLOW_SCALE,
            ),
            sort_keys=True,
        )
    )
    print("# detail " + json.dumps(outcome.get("detail", {}), sort_keys=True))
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# attempted {attempted} failed {failed}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
