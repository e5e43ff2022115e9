"""Shared fixtures: pin and observe the crossbar MVM route.

The CIM layers have no route knob.  Each :class:`CrossbarGrid` takes
the analog reference unless its arrays are exact, and inside the
exact-integer route it asks
:func:`repro.tensor.bitpack.packed_route_beneficial` on every call.
A test forces a route by clearing a grid's ``exact`` flag or by
patching that policy, and proves the route ran by spying on
:meth:`XnorCrossbar.mvm_cols` (analog) or
:meth:`XnorCrossbar.mvm_packed` (packed).
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
def force_analog():
    """``force_analog(layer)`` sends every crossbar grid of a CIM layer
    down the analog reference chain."""
    def force(layer):
        for grid in layer.grids:
            grid.exact = False
        return layer
    return force


def _spy(monkeypatch, name):
    calls = []
    real = getattr(XnorCrossbar, name)

    def spy(bar, *args, **kwargs):
        calls.append(bar)
        return real(bar, *args, **kwargs)

    monkeypatch.setattr(XnorCrossbar, name, spy)
    return calls


@pytest.fixture
def packed_calls(monkeypatch):
    """The crossbar of every ``XnorCrossbar.mvm_packed`` call, in order."""
    return _spy(monkeypatch, "mvm_packed")


@pytest.fixture
def analog_calls(monkeypatch):
    """The crossbar of every ``XnorCrossbar.mvm_cols`` call, in order."""
    return _spy(monkeypatch, "mvm_cols")
