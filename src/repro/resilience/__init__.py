"""``repro.resilience`` — the pieces long-running work shares for
failing well:

* :mod:`repro.resilience.policy` — :class:`RetryPolicy`: bounded
  retries with exponential backoff and deterministic jitter, used by
  :class:`~repro.serving.transport.ServingClient` to reconnect.
* :mod:`repro.resilience.faults` — :class:`FaultPlan`/:class:`FaultSpec`:
  the deterministic fault plans the serving chaos harness injects,
  keyed by load step.
* :mod:`repro.resilience.signals` — :func:`interrupt_guard`: cooperative
  SIGINT/SIGTERM shutdown, shared by the sweep executor and
  ``repro serve``.

The sweep executor itself does not retry: its work is pure and
deterministic, so a failing batch fails fast.  See
``docs/resilience.md`` for the failure-mode tour.
"""

from repro.resilience.faults import FAULT_KINDS, FaultPlan, FaultSpec, plan
from repro.resilience.policy import DEFAULT_POLICY, RetryPolicy
from repro.resilience.signals import InterruptFlag, interrupt_guard

__all__ = [
    "DEFAULT_POLICY",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InterruptFlag",
    "RetryPolicy",
    "interrupt_guard",
    "plan",
]
