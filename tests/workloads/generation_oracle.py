"""Scalar reference implementation of surrogate trace generation.

The production generator (:mod:`repro.workloads.generator`) builds a
workload's whole path space as columns in one vectorized pass and draws
each loop visit's tails with an inverse-CDF lookup.  This module keeps
the original one-path-at-a-time construction as an oracle: every path
is a :class:`~repro.trace.path.Path` built and interned on its own, and
every visit draws its tails with ``Generator.choice``.  The property
suite checks that both produce the same trace, path for path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.trace.path import Path, PathSignature, PathTable
from repro.trace.recorder import PathTrace
from repro.workloads.generator import Phase, WorkloadConfig
from repro.workloads.pathmodel import zipf_probabilities
from repro.workloads.regions import RegionSpec

_BLOCK_SPACING = 4
_CHOICE_BATCH = 4096


@dataclass(frozen=True)
class RegionGeometry:
    """Uid/address ranges reserved for one region's blocks."""

    head_uid: int
    head_address: int
    first_tail_uid: int
    first_tail_address: int


class PathFactory:
    """Allocates uids/addresses and builds interned synthetic paths."""

    def __init__(self) -> None:
        self.table = PathTable()
        self._next_uid = 0
        self._next_address = 0

    def allocate_region(self, num_tail_blocks: int) -> RegionGeometry:
        if num_tail_blocks < 0:
            raise WorkloadError("num_tail_blocks must be non-negative")
        geometry = RegionGeometry(
            head_uid=self._next_uid,
            head_address=self._next_address,
            first_tail_uid=self._next_uid + 1,
            first_tail_address=self._next_address + _BLOCK_SPACING,
        )
        self._next_uid += 1 + num_tail_blocks
        self._next_address += (1 + num_tail_blocks) * _BLOCK_SPACING
        return geometry

    def make_tail_path(
        self,
        geometry: RegionGeometry,
        variant: int,
        num_blocks: int,
        instructions_per_block: int = 3,
    ) -> int:
        if num_blocks < 1:
            raise WorkloadError("a path needs at least one block")
        cond_branches = max(num_blocks - 1, 1)
        bit_count = max(cond_branches, variant.bit_length(), 1)
        signature = PathSignature(
            start_address=geometry.head_address,
            history=variant,
            bit_count=bit_count,
            indirect_targets=(),
        )
        blocks = [geometry.head_uid]
        for offset in range(num_blocks - 1):
            blocks.append(
                geometry.first_tail_uid
                + (variant + offset) % max(num_blocks * 2, 1)
            )
        path = Path(
            signature=signature,
            blocks=tuple(blocks),
            start_uid=geometry.head_uid,
            num_instructions=num_blocks * instructions_per_block,
            num_cond_branches=cond_branches,
            num_indirect_branches=0,
            ends_with_backward_branch=True,
        )
        return self.table.intern(path)

    def make_exit_path(
        self,
        geometry: RegionGeometry,
        num_blocks: int = 2,
        instructions_per_block: int = 3,
    ) -> int:
        signature = PathSignature(
            start_address=geometry.head_address,
            history=(1 << 62) - 1,
            bit_count=62,
            indirect_targets=(),
        )
        blocks = [geometry.head_uid]
        for offset in range(num_blocks - 1):
            blocks.append(geometry.first_tail_uid + offset)
        path = Path(
            signature=signature,
            blocks=tuple(blocks),
            start_uid=geometry.head_uid,
            num_instructions=num_blocks * instructions_per_block,
            num_cond_branches=1,
            num_indirect_branches=0,
            ends_with_backward_branch=True,
        )
        return self.table.intern(path)


class LoopRegion:
    """A single loop with ``J`` tail variants, built path by path."""

    def __init__(self, spec: RegionSpec, factory: PathFactory, seed: int):
        self.spec = spec
        self._rng = np.random.default_rng(seed)
        block_counts = self._rng.integers(
            spec.blocks_min, spec.blocks_max + 1, size=spec.num_tails
        )
        geometry = factory.allocate_region(
            num_tail_blocks=2 * int(block_counts.max())
        )
        self.tail_ids = np.array(
            [
                factory.make_tail_path(
                    geometry,
                    variant=j,
                    num_blocks=int(block_counts[j]),
                    instructions_per_block=spec.instr_per_block,
                )
                for j in range(spec.num_tails)
            ],
            dtype=np.int64,
        )
        self.exit_id = factory.make_exit_path(
            geometry, instructions_per_block=spec.instr_per_block
        )
        self.tail_probs = zipf_probabilities(spec.num_tails, spec.tail_skew)
        self._visited = False

    def emit(self) -> np.ndarray:
        spec = self.spec
        iterations = 1 + self._rng.poisson(max(spec.iters_mean - 1.0, 0.0))
        sampled = self._rng.choice(
            self.tail_ids, size=int(iterations), p=self.tail_probs
        )
        parts = [sampled]
        if not self._visited:
            self._visited = True
            parts.insert(0, self.tail_ids.copy())
        parts.append(np.array([self.exit_id], dtype=np.int64))
        return np.concatenate(parts)


class NestedRegion:
    """``D`` perfectly nested loops, built path by path."""

    def __init__(self, spec: RegionSpec, factory: PathFactory, seed: int):
        self.spec = spec
        self._rng = np.random.default_rng(seed)
        self._descend_ids: list[int] = []
        for _ in range(spec.depth - 1):
            geometry = factory.allocate_region(num_tail_blocks=8)
            self._descend_ids.append(
                factory.make_tail_path(
                    geometry,
                    variant=1,
                    num_blocks=3,
                    instructions_per_block=spec.instr_per_block,
                )
            )
        inner_blocks = int(
            self._rng.integers(spec.blocks_min, spec.blocks_max + 1)
        )
        geometry = factory.allocate_region(num_tail_blocks=2 * inner_blocks)
        self.inner_tail_id = factory.make_tail_path(
            geometry,
            variant=1,
            num_blocks=inner_blocks,
            instructions_per_block=spec.instr_per_block,
        )
        self.inner_exit_id = factory.make_exit_path(
            geometry, instructions_per_block=spec.instr_per_block
        )

    def emit(self) -> np.ndarray:
        spec = self.spec
        outer = 1 + self._rng.poisson(max(spec.outer_iters_mean - 1.0, 0.0))
        chunks: list[np.ndarray] = []
        descend = np.array(self._descend_ids, dtype=np.int64)
        for _ in range(int(outer)):
            inner = 1 + self._rng.poisson(max(spec.iters_mean - 1.0, 0.0))
            chunks.append(descend)
            chunks.append(
                np.full(int(inner), self.inner_tail_id, dtype=np.int64)
            )
            chunks.append(np.array([self.inner_exit_id], dtype=np.int64))
        return np.concatenate(chunks)


def build_region(spec: RegionSpec, factory: PathFactory, seed: int):
    if spec.kind == "nest":
        return NestedRegion(spec, factory, seed)
    return LoopRegion(spec, factory, seed)


def _phase_weights(base: np.ndarray, phase: Phase) -> np.ndarray:
    if phase.weights is None:
        weights = base.copy()
    else:
        weights = np.zeros(len(base), dtype=np.float64)
        for index, weight in phase.weights.items():
            weights[index] = weight
    total = weights.sum()
    if total <= 0:
        raise WorkloadError("phase weights sum to zero")
    return weights / total


def _run_phase(rng, regions, weights, chunks, emitted, goal) -> int:
    indices = np.array([], dtype=np.int64)
    cursor = 0
    while emitted < goal:
        if cursor >= len(indices):
            indices = rng.choice(len(regions), size=_CHOICE_BATCH, p=weights)
            cursor = 0
        chunk = regions[indices[cursor]].emit()
        cursor += 1
        chunks.append(chunk)
        emitted += len(chunk)
    return emitted


def generate(config: WorkloadConfig) -> PathTrace:
    """The trace ``WorkloadGenerator(config).generate()`` must produce."""
    rng = np.random.default_rng(config.seed)
    factory = PathFactory()
    regions = [
        build_region(spec, factory, seed=config.seed * 1_000_003 + index)
        for index, spec in enumerate(config.regions)
    ]
    chunks: list[np.ndarray] = []
    emitted = 0
    if config.coverage_pass:
        order = sorted(
            range(len(regions)), key=lambda i: -config.regions[i].weight
        )
        for index in order:
            chunk = regions[index].emit()
            chunks.append(chunk)
            emitted += len(chunk)
    phases = config.phases or [Phase(fraction=1.0)]
    base = np.array([spec.weight for spec in config.regions], dtype=np.float64)
    for phase in phases:
        budget = int(round(phase.fraction * config.target_flow))
        goal = min(emitted + budget, config.target_flow)
        emitted = _run_phase(
            rng, regions, _phase_weights(base, phase), chunks, emitted, goal
        )
    emitted = _run_phase(
        rng,
        regions,
        _phase_weights(base, phases[-1]),
        chunks,
        emitted,
        config.target_flow,
    )
    ids = np.concatenate(chunks)[: config.target_flow]
    return PathTrace(factory.table, ids, name=config.name)
