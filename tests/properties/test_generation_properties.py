"""Property: the columnar surrogate generator equals the scalar oracle.

``WorkloadGenerator`` registers every region's loops first and builds
the whole path space as table columns in one vectorized pass, and it
draws each loop visit's tails by an inverse-CDF lookup instead of
``Generator.choice``.  ``tests/workloads/generation_oracle.py`` keeps
the path-by-path construction and the ``choice`` draws.  On any small
workload — loops and nests, uniform and skewed tails, zero-weight
regions, phased schedules, with or without the coverage pass — both
must give the same occurrence sequence, the same paths, the same
per-path arrays and the same trace digest.  A numpy release that
changed how ``Generator.choice`` samples would fail here.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.engine.cache import trace_digest
from repro.workloads import Phase, RegionSpec, WorkloadConfig
from repro.workloads.generator import WorkloadGenerator
from tests.workloads.generation_oracle import generate as oracle_generate

PER_PATH_ARRAYS = (
    "start_uids",
    "instructions_per_path",
    "cond_branches_per_path",
    "indirect_branches_per_path",
    "blocks_per_path",
    "ends_backward_per_path",
)


@st.composite
def region_specs(draw, weight=None) -> RegionSpec:
    blocks_min = draw(st.integers(1, 6))
    return RegionSpec(
        kind=draw(st.sampled_from(["loop", "nest"])),
        num_tails=draw(st.integers(1, 64)),
        tail_skew=draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))),
        iters_mean=draw(st.floats(1.0, 30.0)),
        weight=(
            weight
            if weight is not None
            else draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
        ),
        depth=draw(st.integers(2, 5)),
        outer_iters_mean=draw(st.floats(1.0, 5.0)),
        blocks_min=blocks_min,
        blocks_max=blocks_min + draw(st.integers(0, 8)),
        instr_per_block=draw(st.integers(1, 6)),
    )


@st.composite
def configs(draw) -> WorkloadConfig:
    # The first region always has weight, so no schedule sums to zero.
    regions = [draw(region_specs(weight=1.0))] + draw(
        st.lists(region_specs(), max_size=5)
    )
    phases: list[Phase] = []
    if draw(st.booleans()):
        shares = draw(st.lists(st.integers(1, 10), min_size=1, max_size=3))
        for share in shares:
            weights = {0: draw(st.floats(0.1, 2.0))}
            for index in range(1, len(regions)):
                if draw(st.booleans()):
                    weights[index] = draw(
                        st.one_of(st.just(0.0), st.floats(0.0, 2.0))
                    )
            phases.append(
                Phase(fraction=share / sum(shares), weights=weights)
            )
    return WorkloadConfig(
        name="generated",
        seed=draw(st.integers(0, 2**31 - 1)),
        target_flow=draw(st.integers(1, 3000)),
        regions=regions,
        phases=phases,
        coverage_pass=draw(st.booleans()),
    )


WIDE_UNIFORM = WorkloadConfig(
    name="wide",
    seed=7,
    target_flow=2000,
    regions=[
        RegionSpec(kind="loop", num_tails=64, tail_skew=0.0),
        RegionSpec(kind="nest", depth=5, weight=0.0),
        RegionSpec(kind="loop", num_tails=1, tail_skew=2.0, blocks_min=1),
    ],
)
PHASED = WorkloadConfig(
    name="phased",
    seed=3,
    target_flow=1500,
    regions=[RegionSpec(num_tails=3), RegionSpec(num_tails=5, weight=0.0)],
    phases=[
        Phase(fraction=0.5, weights={0: 1.0}),
        Phase(fraction=0.5, weights={0: 0.2, 1: 1.0}),
    ],
    coverage_pass=False,
)


@given(config=configs())
@example(config=WIDE_UNIFORM)
@example(config=PHASED)
@settings(max_examples=150, deadline=None)
def test_generator_matches_scalar_oracle(config):
    actual = WorkloadGenerator(config).generate()
    expected = oracle_generate(config)
    assert actual.path_ids.dtype == expected.path_ids.dtype
    assert np.array_equal(actual.path_ids, expected.path_ids)
    assert len(actual.table) == len(expected.table)
    for path_id in range(len(expected.table)):
        assert actual.table.path(path_id) == expected.table.path(path_id)
    for name in PER_PATH_ARRAYS:
        got = getattr(actual, name)()
        want = getattr(expected, name)()
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert trace_digest(actual) == trace_digest(expected)
