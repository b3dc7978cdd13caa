"""Workload ``vm_tiers``: the seven ISA programs on every mini-Dynamo tier.

Each pass runs every program of ``repro.isa.programs`` on the ``interp``,
``fragments`` and ``compiled`` tiers of :class:`DynamoVM` (the compiled
tier several times, its runs being short), each run on a fresh VM, so
fragment recording, ``compile_fragment`` and superblock linking are part
of every measured run.  Inputs come from each program's
``make_memory(seed=…)`` at half the demo size, a fresh seed per pass
derived from ``--seed``; ``stackvm`` takes bytecode rather than a seed
and always runs its demo program.

Correctness: every run's output must equal the program's own
``reference``, and a program's ``state_digest`` must be identical on all
three tiers.

Speed is reported per program and tier in MIPS (instructions executed
over run seconds) and summarised as the geometric mean over programs.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from pathlib import Path

from common import HostSpeed, geomean, median, self_peak_rss_mb
from tracing import Probe, Tracer, calls, self_time

TIERS = ("interp", "fragments", "compiled")
#: Share of each program's demo input size.
SCALE = 0.5
#: Compiled-tier runs per program per pass.
COMPILED_REPEATS = 5
DELAY = 20
MAX_STEPS = 200_000_000
SETUP_REPEATS = 15
MIN_PASSES = 3

PROGRAMS = (
    "rle",
    "stackvm",
    "propagate",
    "sort",
    "matmul",
    "hashtable",
    "lexer",
)

PER_LAYER = (
    *(f"vm.{p}.{t}_mips" for p in PROGRAMS for t in TIERS),
    *(f"vm.{t}_mips" for t in TIERS),
    *(f"vm.{t}.run_s" for t in TIERS),
    "vm.compile_s",
    "vm.compile_calls",
    "vm.other_s",
    "vm.fragments_compiled",
    "vm.link_patches",
    "vm.flushes",
    "vm.cached_fraction",
    "vm_tiers.accounted_pct",
    "vm_tiers.trace_overhead_pct",
)


def build(seed: int) -> dict:
    """Assembled programs, seeded input images and their references."""
    from repro.isa.programs import ALL_PROGRAMS, _DEMO_SIZES

    suite = {}
    for name in PROGRAMS:
        module = ALL_PROGRAMS[name]
        size = max(1, int(_DEMO_SIZES[name] * SCALE))
        if name == "stackvm":
            bytecode = module.sum_program(size)
            memory = module.make_memory(bytecode)
            reference_input = bytecode
        else:
            knob = {
                "propagate": "sweeps",
                "matmul": "k",
                "hashtable": "num_ops",
            }.get(name, "size")
            memory = module.make_memory(seed=seed, **{knob: size})
            reference_input = memory
        suite[name] = (module.build(), memory, reference_input)
    return suite


def image_seed(seed: int, index: int) -> int:
    """Input seed of pass ``index``: every pass runs its own inputs.

    Some inputs make NET pick a poor trace for one program (its
    compiled-tier speed drops several-fold); the per-program median
    over passes keeps one such input from moving the run's figure.
    """
    return seed * 1000 + index


def _run_once(program, memory, tier, tracer):
    from repro.dynamo import DynamoVM

    with tracer.span(f"vm.{tier}") if tracer else nullcontext():
        vm = DynamoVM(program, delay=DELAY, tier=tier)
        vm.load_memory(memory)
        started = time.perf_counter()
        result = vm.run(max_steps=MAX_STEPS)
        seconds = time.perf_counter() - started
        digest = vm.state_digest()
    stats = result.stats
    return {
        "seconds": seconds,
        "instructions": stats.interpreted_instructions
        + stats.fragment_instructions,
        "output": result.output,
        "digest": digest,
        "stats": stats,
    }


def run_pass(suite, references, order, tracer=None) -> dict:
    """Every program on every tier once (compiled several times)."""
    samples = {(p, t): [] for p in PROGRAMS for t in TIERS}
    scaled = {(p, t): [] for p in PROGRAMS for t in TIERS}
    attempted = failed = 0
    counters = {
        "fragments_compiled": 0,
        "link_patches": 0,
        "flushes": 0,
        "fragment_instructions": 0,
        "instructions": 0,
    }
    first_span = len(tracer.spans) if tracer else 0
    # Untraced passes probe the host speed around every program.
    host = HostSpeed() if tracer is None else None
    to_reference = {}
    wall = 0.0
    checks = []
    for name in PROGRAMS:
        program, memory, _ = suite[name]
        started = time.perf_counter()
        for tier in order:
            repeats = COMPILED_REPEATS if tier == "compiled" else 1
            for _ in range(repeats):
                checks.append((name, tier, _run_once(program, memory, tier, tracer)))
        elapsed = time.perf_counter() - started
        wall += elapsed
        to_reference[name] = host.scale(elapsed) / elapsed if host else 1.0

    digests: dict[str, set] = {}
    for name, tier, run in checks:
        attempted += 1
        if run["output"] != references[name]:
            failed += 1
        digests.setdefault(name, set()).add(run["digest"])
        mips = run["instructions"] / run["seconds"] / 1e6
        samples[(name, tier)].append(mips)
        scaled[(name, tier)].append(mips / to_reference[name])
        if tier == "compiled":
            stats = run["stats"]
            counters["fragments_compiled"] += stats.fragments_compiled
            counters["link_patches"] += stats.link_patches
            counters["flushes"] += stats.flushes
            counters["fragment_instructions"] += stats.fragment_instructions
            counters["instructions"] += run["instructions"]
    failed += sum(len(found) != 1 for found in digests.values())
    record = {
        "wall": wall,
        "mips": {key: median(values) for key, values in samples.items()},
        "scaled_mips": {key: median(values) for key, values in scaled.items()},
        "attempted": attempted,
        "failed": failed,
        "counters": counters,
    }
    if tracer is not None:
        roots = [
            index
            for tier in TIERS
            for index in tracer.roots(f"vm.{tier}")
            if index >= first_span
        ]
        record["layers"] = _layers(tracer, roots, wall)
    return record


def _layers(tracer: Tracer, roots: list[int], wall: float) -> dict:
    layers = {}
    mapped = 0.0
    for tier in TIERS:
        tier_roots = [i for i in roots if tracer.spans[i][0] == f"vm.{tier}"]
        table = tracer.summarize(tier_roots)
        layers[f"vm.{tier}.run_s"] = self_time(table, "vm.run")
        if tier == "compiled":
            layers["vm.compile_s"] = self_time(table, "vm.compile")
            layers["vm.compile_calls"] = calls(table, "vm.compile")
        mapped += sum(row["self_s"] for row in table.values())
    table = tracer.summarize(roots)
    layers["vm.other_s"] = sum(
        self_time(table, f"vm.{tier}") for tier in TIERS
    )
    layers["vm_tiers.accounted_pct"] = 100.0 * mapped / wall
    return layers


def _probes():
    from repro.dynamo import compiler
    from repro.dynamo.vm import DynamoVM

    return [
        Probe("vm.run", DynamoVM, "run"),
        Probe("vm.compile", compiler, "compile_fragment"),
    ]


def run(seconds: float, seed: int, trace: bool, work: Path) -> dict:
    from repro.isa.programs import ALL_PROGRAMS

    setups = []
    host = HostSpeed()
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        build(image_seed(seed, 0))
        setups.append(host.scale(time.perf_counter() - started))

    tracer = Tracer() if trace else None
    plain, traced = [], []
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        suite = build(image_seed(seed, passes))
        references = {
            name: ALL_PROGRAMS[name].reference(suite[name][2])
            for name in PROGRAMS
        }
        order = TIERS[passes % 3 :] + TIERS[: passes % 3]
        plain.append(run_pass(suite, references, order))
        if tracer is not None:
            with tracer.installed(_probes()):
                traced.append(run_pass(suite, references, order, tracer))
        passes += 1

    records = plain + traced
    mips = {
        key: median(r["mips"][key] for r in plain) for key in plain[0]["mips"]
    }
    tier_mips = {
        tier: geomean(mips[(p, tier)] for p in PROGRAMS) for tier in TIERS
    }
    scaled = {
        tier: geomean(
            median(r["scaled_mips"][(p, tier)] for r in plain)
            for p in PROGRAMS
        )
        for tier in TIERS
    }
    out = {
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "detail": {
            "scale": SCALE,
            "passes": passes,
            **{f"vm.{t}_mips": v for t, v in tier_mips.items()},
            **{f"vm.{t}_mips_at_reference": v for t, v in scaled.items()},
        },
    }
    if not trace:
        out["metrics"] = {
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (self_peak_rss_mb(), "MB"),
            "slow_leg_s": (1.0 / scaled["fragments"], "s"),
            "fast_leg_s": (1.0 / scaled["compiled"], "s"),
        }
        return out
    layers = {f"vm.{p}.{t}_mips": mips[(p, t)] for p in PROGRAMS for t in TIERS}
    layers.update({f"vm.{t}_mips": v for t, v in tier_mips.items()})
    for name in traced[0]["layers"]:
        layers[name] = median(r["layers"][name] for r in traced)
    counters = plain[0]["counters"]
    layers["vm.fragments_compiled"] = counters["fragments_compiled"]
    layers["vm.link_patches"] = counters["link_patches"]
    layers["vm.flushes"] = counters["flushes"]
    layers["vm.cached_fraction"] = (
        counters["fragment_instructions"] / counters["instructions"]
    )
    layers["vm_tiers.trace_overhead_pct"] = 100.0 * (
        sum(r["wall"] for r in traced) / sum(r["wall"] for r in plain) - 1
    )
    tracer.dump(work.parent / "vm_tiers.spans.json")
    out["layers"] = layers
    out["accounted"] = {"vm": layers["vm_tiers.accounted_pct"]}
    return out
