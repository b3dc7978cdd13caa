"""Branch events: the raw unit of an execution trace.

A program execution is viewed as the sequence of its control transfers.
Each transfer is one row of an :class:`~repro.trace.batch.EventBatch`:
the source and destination block, the edge kind the path extractor
needs (taken/fall-through/jump/indirect/call/return) and whether the
transfer is *backward* in the address space.  Fall-through "transfers"
of conditional branches are explicit events (they carry the 0 history
bit); straight-line execution inside a block produces no events.  A
halting program ends its stream with one event whose destination is
:data:`HALT_DST`.
"""

from __future__ import annotations

#: Sentinel destination uid used by HALT events.
HALT_DST = -1
