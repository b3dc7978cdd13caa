"""Execution traces: branch events, paths, extraction and recording.

The pipeline is::

    Program  --walker/ISA-->  EventBatch stream (numpy columns)
             --PathExtractor-->  path ids (one per occurrence)
             --record_path_trace-->  PathTrace (ids + PathTable)

:class:`EventBatch` is the only form a branch stream takes; every
producer emits it and every consumer reads its columns.

Workload surrogates may synthesize a :class:`PathTrace` directly from a
stochastic path model; everything downstream is agnostic to the origin.
"""

from repro.trace.batch import EventBatch, EventBatchBuilder
from repro.trace.columnar import find_cuts
from repro.trace.events import HALT_DST
from repro.trace.extractor import PathExtractor, PathStream
from repro.trace.io import load_trace, save_trace
from repro.trace.path import Path, PathSignature, PathTable
from repro.trace.recorder import PathTrace, record_path_trace
from repro.trace.stats import TraceSummary, summarize
from repro.trace.walker import (
    BlockRandomOracle,
    BranchOracle,
    CFGWalker,
    RandomOracle,
    ScriptedOracle,
    TripCountOracle,
)

__all__ = [
    "HALT_DST",
    "BlockRandomOracle",
    "BranchOracle",
    "CFGWalker",
    "EventBatch",
    "EventBatchBuilder",
    "Path",
    "PathExtractor",
    "PathSignature",
    "PathStream",
    "PathTable",
    "PathTrace",
    "RandomOracle",
    "ScriptedOracle",
    "TraceSummary",
    "TripCountOracle",
    "find_cuts",
    "load_trace",
    "save_trace",
    "record_path_trace",
    "summarize",
]
