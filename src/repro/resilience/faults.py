"""Deterministic fault plans for the serving chaos harness.

Real server failures — a kill, a torn write, a lost acknowledgement —
are timing-dependent and miserable to reproduce in tests.  This module
replaces them with a *plan*: a description of exactly which schedule
step misbehaves in exactly which way.  :mod:`repro.serving.chaos` reads
each spec's ``kind`` and asks :meth:`FaultSpec.fires` whether it
applies to the current load step; the kinds' serving meanings (kill,
torn WAL tail, lost ack, rolling restart) are documented there.

Every decision is a pure function of the step, so a faulted run is as
reproducible as a healthy one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExperimentError

#: The misbehaviors a :class:`FaultSpec` can name.
FAULT_KINDS = ("crash", "hang", "corrupt", "interrupt")


@dataclass(frozen=True)
class FaultSpec:
    """One planned misbehavior of kind ``kind`` at step ``batch``."""

    kind: str
    batch: int

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ExperimentError(
                f"unknown fault kind {self.kind!r}; known: "
                + ", ".join(FAULT_KINDS)
            )

    def fires(self, step: int) -> bool:
        """Whether this fault triggers at ``step``."""
        return step == self.batch


@dataclass(frozen=True)
class FaultPlan:
    """A set of :class:`FaultSpec`; an empty plan injects nothing."""

    specs: tuple[FaultSpec, ...] = ()


def plan(*specs: FaultSpec) -> FaultPlan:
    """Bundle fault specs into a :class:`FaultPlan`."""
    return FaultPlan(specs=tuple(specs))
