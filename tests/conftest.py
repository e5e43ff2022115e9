"""Shared fixtures: pin and observe the crossbar MVM route.

The CIM layers have no route knob.  Each :class:`CrossbarGrid` takes
the analog reference unless its arrays are exact, and inside the
exact-integer route it asks
:func:`repro.tensor.bitpack.packed_route_beneficial` on every call.
A test forces a route by clearing a grid's ``exact`` flag or by
patching that policy, and proves the route ran by spying on
:meth:`XnorCrossbar.mvm_cols` (analog) or
:meth:`XnorCrossbar.mvm_packed` (packed).

The batched MC engine runs a channel-wise dropout gate and the conv
it feeds as one gated conv on exact grids
(:meth:`CrossbarGrid.mvm_gated`, spied by ``gated_calls``, which sees
one call per grid per engine call); ``force_stacked(engine)`` sends
that pair down the stacked path instead.  Both batched engines
(``BayesianCim`` and ``SpinBayesNetwork``) also run each ``FrozenNorm
→ DigitalSign (→ DigitalMaxPool)`` run as one threshold compare
(:meth:`SignFold.forward`, spied by ``sign_fold_calls``);
``force_stages(engine)`` runs the three arithmetic stages instead.
"""

import pytest

from repro.cim import XnorCrossbar
from repro.cim.layers import CrossbarGrid, SignFold
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


@pytest.fixture
def force_stacked():
    """``force_stacked(engine)`` runs a deployed ``BayesianCim``'s
    gate→conv pair as a gate stage and a stacked conv, as on analog
    grids, while the grids stay exact."""
    def force(engine):
        engine._gated_pair = None
        return engine
    return force


@pytest.fixture
def force_stages():
    """``force_stages(engine)`` runs a deployed ``BayesianCim``'s or
    ``SpinBayesNetwork``'s norm→sign(→pool) runs as their arithmetic
    stages, as the sequential oracle does, instead of as sign folds."""
    def force(engine):
        engine._steps = list(enumerate(engine.network.stages))
        return engine
    return force


def _spy(monkeypatch, name, owner=XnorCrossbar):
    calls = []
    real = getattr(owner, name)

    def spy(target, *args, **kwargs):
        calls.append(target)
        return real(target, *args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.fixture
def packed_calls(monkeypatch):
    """The crossbar of every ``XnorCrossbar.mvm_packed`` call, in order."""
    return _spy(monkeypatch, "mvm_packed")


@pytest.fixture
def analog_calls(monkeypatch):
    """The crossbar of every ``XnorCrossbar.mvm_cols`` call, in order."""
    return _spy(monkeypatch, "mvm_cols")


@pytest.fixture
def gated_calls(monkeypatch):
    """The grid of every ``CrossbarGrid.mvm_gated`` call, in order."""
    return _spy(monkeypatch, "mvm_gated", CrossbarGrid)


@pytest.fixture
def sign_fold_calls(monkeypatch):
    """The fold of every ``SignFold.forward`` call, in order."""
    return _spy(monkeypatch, "forward", SignFold)
