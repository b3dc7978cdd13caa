"""Pinned trace digests of the nine surrogates and the phased workload.

``trace_digest`` keys every sweep-cache entry and build-graph node that
depends on a trace.  The hex values below were recorded with the
path-by-path generator that preceded the columnar one, at the flow
scale the benchmark repro runs.  Equal digests mean the columnar
generator reproduces those traces byte for byte, so caches built by
either stay valid without a ``GENERATOR_VERSION`` or ``CODE_VERSION``
bump.  A change that moves one of these is a change to the workloads
and needs that bump.
"""

from __future__ import annotations

import pytest

from repro.experiments.engine.cache import trace_digest
from repro.experiments.phases import phases_config
from repro.workloads import BENCHMARK_ORDER, Workload, load_benchmark

FLOW_SCALE = 0.05

PINNED = {
    "compress": "c2060c058f0b0ab1fa42863126280c8271275105dfed70732a3e8820c030720d",
    "gcc": "220eb39510d71a12c9b4cc00bc7a8e25a90f7404e59f5885558ed172d2a24d6e",
    "go": "586df696f11272cece67e984a80a31c81f85dda164039a96a442893166f51512",
    "ijpeg": "0f84cbe385149668f36517e7cc79740842979cab186b89600f8b4f563b46c2f7",
    "li": "a5a56f2befe53db458271a54fcfa5ad0b5bd2b423955d1c4a853bd261584394e",
    "m88ksim": "f5b9e288b486fc6930b98766c78bea65ce935d5afc75f1daaa68bc5adf7d9bbc",
    "perl": "f9889ad95c794ff87e2f8cc28f1347b2375177726858a78bd3e9fdb3a26ba304",
    "vortex": "b4ac3ff0cce5e51491ee6b2387d92ca430a016ef58d27bead3201d0034411847",
    "deltablue": "e94b1a808faf93dc353821af430cd8bd2c28910c9430a05a58d438b217360317",
}

#: The ``phases`` target's phased trace at the same scale.
PINNED_PHASES = (
    "725291a22c329aa1968e12e3d7a17b0cdceb0e783af75dfd72a839acbee981f6"
)


def test_pins_cover_every_benchmark():
    assert set(PINNED) == set(BENCHMARK_ORDER)


@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_surrogate_digest_is_pinned(name):
    trace = load_benchmark(name, flow_scale=FLOW_SCALE).trace()
    assert trace_digest(trace) == PINNED[name]


def test_phased_digest_is_pinned():
    trace = Workload(phases_config(FLOW_SCALE)).trace()
    assert trace_digest(trace) == PINNED_PHASES
