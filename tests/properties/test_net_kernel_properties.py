"""Property: the per-trace NET kernel equals the per-τ oracle.

``NETPredictor`` computes a trace's counted head arrivals once
(``PathTrace.head_arrivals``) and reduces every (τ, model) cell to a
mask over them.  ``tests/prediction/net_oracle.py`` keeps the direct
per-τ simulation.  On any generated trace, delay (0 included), counting
mode and model, every field of the two outcomes must agree, values and
dtypes alike.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.prediction import NETPredictor
from repro.trace.path import Path, PathSignature, PathTable
from repro.trace.recorder import PathTrace
from tests.prediction.net_oracle import reference_outcome


def _trace(heads: list[tuple[int, bool, int]], ids: list[int]) -> PathTrace:
    """Paths from ``(head, ends_backward, tail_length)`` triples."""
    table = PathTable()
    for index, (head, ends_backward, tail_length) in enumerate(heads):
        tail = tuple(range(1000 + 10 * index, 1000 + 10 * index + tail_length))
        table.intern(
            Path(
                signature=PathSignature.from_bits(
                    index * 4, format(index, "04b")
                ),
                blocks=(head, *tail),
                start_uid=head,
                num_instructions=3 * (1 + tail_length),
                num_cond_branches=1,
                num_indirect_branches=0,
                ends_with_backward_branch=ends_backward,
            )
        )
    return PathTrace(table, ids, name="generated")


@st.composite
def traces(draw) -> PathTrace:
    # Few distinct heads, so heads are shared by several tails.
    heads = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0, 10, 20, 30]),
                st.booleans(),
                st.integers(0, 3),
            ),
            max_size=8,
        )
    )
    if not heads:
        return _trace(heads, [])
    # Seeded rather than drawn element by element: drawn lists stay
    # short, and long runs are what push heads past small delays.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    length = draw(st.integers(0, 200))
    return _trace(heads, rng.integers(0, len(heads), size=length))


EMPTY = _trace([], [])
NO_HOT_HEAD = _trace([(0, True, 1), (10, False, 2)], [0, 1, 0, 1])
# Head 0 turns hot at τ=1 on occurrence 2; occurrence 3 re-enters it
# without a backward branch, so its running count is still τ+1.
UNCOUNTED_AFTER_HOT = _trace([(0, True, 1), (0, False, 1)], [0, 0, 1, 0, 0])


def assert_outcomes_identical(actual, expected) -> None:
    for field in dataclasses.fields(expected):
        got = getattr(actual, field.name)
        want = getattr(expected, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, field.name
            assert np.array_equal(got, want), field.name
        else:
            assert type(got) is type(want), field.name
            assert got == want, field.name


@given(
    trace=traces(),
    delay=st.one_of(st.integers(0, 8), st.integers(0, 250)),
    backward_only=st.booleans(),
    retire_heads=st.booleans(),
)
@example(trace=EMPTY, delay=0, backward_only=True, retire_heads=False)
@example(trace=EMPTY, delay=0, backward_only=False, retire_heads=True)
@example(trace=NO_HOT_HEAD, delay=3, backward_only=True, retire_heads=False)
@example(trace=NO_HOT_HEAD, delay=3, backward_only=False, retire_heads=True)
@example(
    trace=UNCOUNTED_AFTER_HOT, delay=1, backward_only=True, retire_heads=True
)
@settings(max_examples=300, deadline=None)
def test_kernel_matches_per_delay_oracle(
    trace, delay, backward_only, retire_heads
):
    actual = NETPredictor(delay, backward_only, retire_heads).run(trace)
    expected = reference_outcome(trace, delay, backward_only, retire_heads)
    assert_outcomes_identical(actual, expected)


def test_head_arrivals_are_computed_once_per_trace():
    trace = _trace([(0, True, 1), (10, True, 2)], [0, 1, 0, 0, 1, 0])
    NETPredictor(1).run(trace)
    running, per_head = trace.head_arrivals(True)
    NETPredictor(2).run(trace)
    # Later delays reuse the cached arrays rather than rebuilding them.
    assert trace.head_arrivals(True)[0] is running
    assert trace.head_arrivals(True)[1] is per_head
    # The first occurrence is not a backward arrival; the rest are.
    assert list(running) == [0, 1, 1, 2, 2, 3]
    assert list(per_head) == [3, 2]
