"""SignFold ≡ FrozenNorm → DigitalSign (→ DigitalMaxPool), bit for bit.

The batched MC engine folds each normalize→sign readout into one
per-feature compare on thresholds that :meth:`FrozenNorm.sign_thresholds`
derives from the norm's own arithmetic.  These properties pin the fold
to the three arithmetic stages on every kind of float64 input (the
thresholds and their neighbouring floats, signed zeros, infinities,
NaN, subnormals and the largest floats) over norms in both orders,
with and without γ and β, γ of either sign and parameters from 1e-8 to
1e8, and check that the norms the argument does not cover keep their
arithmetic.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cim import OpLedger
from repro.cim.layers import (
    DigitalMaxPool,
    DigitalSign,
    FrozenNorm,
    SignFold,
    sign_thresholds_of,
)

SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan,
                     5e-324, -5e-324, 1e308, -1e308])


def _values(draw, n, positive=False, zero=False):
    """``n`` magnitudes 10^[-8, 8], signed unless ``positive``, some of
    them zero when ``zero`` (the untrained μ and β)."""
    exps = draw(st.lists(st.floats(-8.0, 8.0), min_size=n, max_size=n))
    out = 10.0 ** np.array(exps)
    if not positive:
        out *= draw(st.lists(st.sampled_from([-1.0, 1.0]),
                             min_size=n, max_size=n))
    if zero:
        out *= draw(st.lists(st.sampled_from([0.0, 1.0, 1.0]),
                             min_size=n, max_size=n))
    return out


@st.composite
def norms(draw, spatial=False):
    n = draw(st.integers(1, 6))
    gamma = _values(draw, n) if draw(st.booleans()) else None
    beta = _values(draw, n, zero=True) if draw(st.booleans()) else None
    norm = FrozenNorm(_values(draw, n, zero=True), np.zeros(n), gamma, beta,
                      0.0, spatial, draw(st.booleans()), OpLedger())
    norm.std = _values(draw, n, positive=True)
    return norm


def _inputs(norm, seed):
    """``(R, F)`` rows: random values at several scales, every
    threshold with its two neighbouring floats, and the specials."""
    rng = np.random.default_rng(seed)
    width = norm.mean.size
    rows = [rng.standard_normal((8, width))
            * 10.0 ** rng.uniform(-9, 9, (8, width)),
            np.repeat(SPECIALS[:, None], width, axis=1)]
    for bound in norm.sign_thresholds():
        if bound is None:
            continue
        at = np.where(np.isfinite(bound), bound, 0.0)
        rows += [np.nextafter(at, -np.inf)[None], at[None],
                 np.nextafter(at, np.inf)[None]]
    return np.concatenate(rows)


def _run(stages, x):
    ledger = stages[0].ledger
    ledger.reset()
    with np.errstate(all="ignore"):
        for stage in stages:
            x = stage(x)
    return x, ledger.as_dict()


def _assert_fold_matches(norm, x, pool=None):
    ledger = norm.ledger
    stages = [norm, DigitalSign(ledger)] + ([] if pool is None else [pool])
    want, want_ops = _run(stages, x)
    got, got_ops = _run([SignFold(norm, pool)], x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert got_ops == want_ops


@given(norms(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_fold_equals_norm_then_sign(norm, seed):
    assert norm.sign_foldable()
    _assert_fold_matches(norm, _inputs(norm, seed))


@given(norms(spatial=True), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_fold_equals_norm_sign_then_pool(norm, seed):
    x = _inputs(norm, seed)
    rows = len(x) // 4 * 4
    # Four probe rows per 2×2 window, so a window mixes thresholds,
    # neighbours and specials.
    images = x[:rows].reshape(rows // 4, 4, -1).transpose(0, 2, 1)
    images = images.reshape(rows // 4, -1, 2, 2)
    _assert_fold_matches(norm, images, DigitalMaxPool(2, norm.ledger))
    # An odd spatial size: the pool drops the last row and column.
    odd = np.concatenate([images, images[:, :, :1]], axis=2)
    odd = np.concatenate([odd, odd[:, :, :, :1]], axis=3)
    _assert_fold_matches(norm, odd, DigitalMaxPool(2, norm.ledger))


@given(st.lists(norms(), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_one_search_serves_many_norms(group):
    merged = sign_thresholds_of(group)
    for norm, bounds in zip(group, merged):
        want = norm.sign_thresholds()
        assert len(bounds) == len(want) == 2
        for got, exp in zip(bounds, want):
            assert (got is None) == (exp is None)
            if got is not None:
                assert np.array_equal(got, exp, equal_nan=True)


def _norm(**params):
    n = 3
    values = dict(mean=np.zeros(n), std=np.ones(n), gamma=np.ones(n),
                  beta=np.zeros(n))
    values.update(params)
    norm = FrozenNorm(values["mean"], np.zeros(n), values["gamma"],
                      values["beta"], 0.0, False, False, OpLedger())
    norm.std = values["std"]
    return norm


@pytest.mark.parametrize("params", [
    dict(gamma=np.array([1.0, 0.0, 2.0])),
    dict(gamma=np.array([1.0, -0.0, 2.0])),
    dict(std=np.array([1.0, 0.0, 2.0])),
    dict(std=np.array([1.0, -1.0, 2.0])),
    dict(mean=np.array([0.0, np.nan, 0.0])),
    dict(std=np.array([1.0, np.inf, 1.0])),
    dict(gamma=np.array([1.0, -np.inf, 1.0])),
    dict(beta=np.array([0.0, 0.0, np.inf])),
    dict(gamma=np.ones(1)),
], ids=["gamma0", "gamma-0", "std0", "std<0", "mean-nan", "std-inf",
        "gamma-inf", "beta-inf", "broadcast-gamma"])
def test_uncovered_norms_keep_their_arithmetic(params):
    norm = _norm(**params)
    assert not norm.sign_foldable()
    assert norm.sign_thresholds() is None


def test_a_norm_driven_per_pass_keeps_its_arithmetic():
    norm = _norm()
    assert norm.sign_foldable()
    norm.gamma_multiplier = 0.0
    assert not norm.sign_foldable()
    norm.gamma_multiplier = np.ones(4)
    assert not norm.sign_foldable()


def test_thresholds_of_an_untrained_norm():
    # μ = β = 0, γ = 1: the sign reads +1 from ±0 on, and the smallest
    # negative subnormal still normalizes below zero.
    lo, hi = _norm().sign_thresholds()
    assert hi is None
    assert np.array_equal(lo, np.zeros(3))


def test_thresholds_at_either_end():
    # With σ = 1e300 every finite x normalizes below |β| = 1e9: the
    # sign reads β's sign on all of them, and only ∓inf reads the other.
    lo, hi = _norm(beta=np.array([1e9, -1e9, 0.0]),
                   std=np.array([1e300, 1e300, 1.0])).sign_thresholds()
    assert hi is None
    assert lo[0] == -np.finfo(np.float64).max
    assert lo[1] == np.inf
    assert lo[2] == 0.0
    # A falling feature reads +1 up to its threshold.
    lo, hi = _norm(gamma=np.array([-1.0, 1.0, -2.0])).sign_thresholds()
    assert np.isnan(lo[[0, 2]]).all() and np.isnan(hi[1])
    assert lo[1] == 0.0 and hi[0] == 0.0 and hi[2] == 0.0
