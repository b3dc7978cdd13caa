"""Workload surrogates for the paper's benchmark suite.

``load_benchmark(name)`` returns one of the nine calibrated surrogates
(compress, gcc, go, ijpeg, li, m88ksim, perl, vortex, deltablue); see
:mod:`repro.workloads.spec` for the calibration story and
:mod:`repro.workloads.phased` for the §6.1 phase-change workloads.
"""

from repro.workloads.base import Workload, load_benchmark
from repro.workloads.generator import Phase, WorkloadConfig, WorkloadGenerator
from repro.workloads.pathmodel import PathLayout, zipf_probabilities
from repro.workloads.regions import (
    LoopRegion,
    NestedRegion,
    RegionSpec,
    build_region,
)
from repro.workloads.spec import (
    BENCHMARK_ORDER,
    BENCHMARKS,
    DYNAMO_BENCHMARKS,
    BenchmarkSpec,
    Group,
    benchmark_spec,
)

__all__ = [
    "BENCHMARKS",
    "BENCHMARK_ORDER",
    "DYNAMO_BENCHMARKS",
    "BenchmarkSpec",
    "Group",
    "LoopRegion",
    "NestedRegion",
    "PathLayout",
    "Phase",
    "RegionSpec",
    "Workload",
    "WorkloadConfig",
    "WorkloadGenerator",
    "benchmark_spec",
    "build_region",
    "load_benchmark",
    "zipf_probabilities",
]
