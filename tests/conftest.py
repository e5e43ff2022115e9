"""Shared fixtures: pin and observe the crossbar MVM route.

The CIM layers have no route knob.  Inside the exact-integer route
they ask :func:`repro.tensor.bitpack.packed_route_beneficial` on every
call, so a test forces a route by patching that policy, and proves the
packed kernel ran by spying on :meth:`XnorCrossbar.mvm_packed`.
"""

import pytest

from repro.cim import XnorCrossbar
from repro.tensor import bitpack


@pytest.fixture
def force_route(monkeypatch):
    """``force_route(True)`` sends every exact-integer crossbar MVM to
    the packed kernel, ``force_route(False)`` to the float32 GEMM."""
    def force(packed):
        monkeypatch.setattr(bitpack, "packed_route_beneficial",
                            lambda batch, k, n_cols: packed)
    return force


@pytest.fixture
def packed_calls(monkeypatch):
    """The crossbar of every ``XnorCrossbar.mvm_packed`` call, in order."""
    calls = []
    real = XnorCrossbar.mvm_packed

    def spy(bar, *args, **kwargs):
        calls.append(bar)
        return real(bar, *args, **kwargs)

    monkeypatch.setattr(XnorCrossbar, "mvm_packed", spy)
    return calls
