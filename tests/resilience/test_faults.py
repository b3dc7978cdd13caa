"""Fault plans: deterministic, validated, and inert when not matched."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.resilience import FaultPlan, FaultSpec, plan


def test_spec_fires_on_its_step_only():
    spec = FaultSpec(kind="crash", batch=2)
    assert spec.fires(2)
    assert not spec.fires(1)
    assert not spec.fires(3)


def test_empty_plan_is_inert():
    assert FaultPlan().specs == ()
    assert plan() == FaultPlan()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "meteor", "batch": 0},
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(ExperimentError):
        FaultSpec(**kwargs)
