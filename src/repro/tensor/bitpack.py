"""Bit-packed XNOR/popcount MVM kernels.

The paper's CIM fabric computes a binary MVM as XNOR + popcount in
the analog domain; this module is its digital shadow.  Sign tensors
are packed 64 weights per ``uint64`` lane, an MVM becomes
``bitwise_xor`` + popcount over the packed words, and the ±1 dot
product is recovered from the mismatch count:

    dot[b, c] = n_active[b] - 2 * popcount((sign_x ^ sign_w) & active_x)

Ternary activations {−1, 0, +1} (zeros are dropout-gated wordlines)
carry TWO bitplanes — a *sign* plane (bit = value > 0) and an
*active* plane (bit = value != 0); ±1 weights carry one sign plane.
Lane layout: bit ``i`` of word ``w`` is element ``w·64 + i`` of the
packed axis (``np.packbits(..., bitorder="little")`` bytes viewed as
native ``uint64`` — both operands go through the same byte path, so
the layout cancels out of the XOR/popcount regardless of host
endianness).  The last lane of a K-not-divisible-by-64 axis is
zero-padded; those tail bits never reach a popcount because every
XOR word is ANDed with the activations' active plane, whose own tail
is zero — the active plane doubles as the tail mask.

Popcount backends: NumPy >= 2 ships :func:`numpy.bitwise_count`; on
older NumPy a vectorized 16-bit lookup table (four table gathers +
one reduce per word) fills in.  Tests force the LUT via
:func:`force_popcount_backend` so both backends stay covered even on
new NumPy; the ``REPRO_POPCOUNT_BACKEND`` environment variable does
the same for a whole process (the CI NumPy-floor leg).

Performance regime (single core, vs the exact-integer float32 GEMM
route that OpenBLAS runs at compute-bound peak): the packed kernel
moves 64× less weight traffic but has no register blocking, so it
*loses* on compute-bound shapes (large batch) and wins 4–13× on
memory-bound GEMV shapes — a small batch of rows against a wide
packed matrix, exactly the latency-path serving slice.
:func:`packed_route_beneficial` encodes that boundary; a crossbar grid
(:class:`repro.cim.layers.CrossbarGrid`) consults it on every
exact-integer MVM.
"""

from __future__ import annotations

import contextlib
import os
from typing import Optional

import numpy as np

LANE = 64                       # packed weights per uint64 word

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")
_backend_override: Optional[str] = None
_lut16: Optional[np.ndarray] = None


def available_backends() -> tuple:
    """Popcount backends usable on this NumPy, preferred first."""
    if _HAS_BITWISE_COUNT:
        return ("bitwise_count", "lut16")
    return ("lut16",)


def popcount_backend() -> str:
    """The backend :func:`packed_mvm` will use right now."""
    if _backend_override is not None:
        return _backend_override
    return "bitwise_count" if _HAS_BITWISE_COUNT else "lut16"


def set_popcount_backend(name: Optional[str]) -> None:
    """Pin the popcount backend (``None`` restores auto-selection)."""
    global _backend_override
    if name is not None:
        if name not in ("bitwise_count", "lut16"):
            raise ValueError(f"unknown popcount backend {name!r}")
        if name == "bitwise_count" and not _HAS_BITWISE_COUNT:
            raise ValueError(
                "numpy.bitwise_count is unavailable on this NumPy")
    _backend_override = name


@contextlib.contextmanager
def force_popcount_backend(name: str):
    """Scoped :func:`set_popcount_backend` — how the test suite runs
    every kernel property against the LUT fallback on NumPy >= 2."""
    previous = _backend_override
    set_popcount_backend(name)
    try:
        yield
    finally:
        set_popcount_backend(previous)


def _lut() -> np.ndarray:
    """Lazily built 65536-entry per-halfword popcount table."""
    global _lut16
    if _lut16 is None:
        table = np.arange(1 << 16, dtype=np.uint16)
        _lut16 = np.unpackbits(
            table.view(np.uint8).reshape(-1, 2), axis=1
        ).sum(axis=1).astype(np.uint8)
    return _lut16


def popcount_into(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-element popcount of C-contiguous uint64 ``words`` → uint8
    ``out`` of the same shape, on the selected backend."""
    if popcount_backend() == "bitwise_count":
        return np.bitwise_count(words, out=out)
    halves = _lut()[words.view(np.uint16)]
    return np.sum(halves.reshape(out.shape + (4,)), axis=-1,
                  dtype=np.uint8, out=out)


# ----------------------------------------------------------------------
# Packing: {0, 1} bit matrices -> word-major (W, B) uint64 planes.

def _pack_axis_last(bits: np.ndarray) -> np.ndarray:
    """(..., K) bits → (..., W) uint64 words, W = ceil(K / 64)."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    pad = (-packed.shape[-1]) % 8
    if pad:
        packed = np.concatenate(
            [packed, np.zeros(packed.shape[:-1] + (pad,), np.uint8)],
            axis=-1)
    return np.ascontiguousarray(packed).view(np.uint64)


def _pack_axis0(bits: np.ndarray) -> np.ndarray:
    """(K, B) bits → (W, B) uint64 word-major planes.

    Packs down the K axis without transposing the (often large) source
    matrix: byte-pack along axis 0, then regroup runs of 8 bytes into
    native uint64 words — the same byte order :func:`_pack_axis_last`
    produces, so both layouts interoperate.
    """
    packed = np.packbits(bits, axis=0, bitorder="little")
    pad = (-packed.shape[0]) % 8
    if pad:
        packed = np.concatenate(
            [packed, np.zeros((pad,) + packed.shape[1:], np.uint8)],
            axis=0)
    n_words, b = packed.shape[0] // 8, packed.shape[1]
    grouped = np.ascontiguousarray(
        packed.reshape(n_words, 8, b).transpose(0, 2, 1))
    return grouped.view(np.uint64)[..., 0]


def _unpack_axis0(words: np.ndarray, k: int) -> np.ndarray:
    """(W, B) uint64 planes → (k, B) {0, 1} uint8 bits (pack inverse)."""
    n_words, b = words.shape
    by = np.ascontiguousarray(words)[:, :, None].view(np.uint8)
    by = np.ascontiguousarray(by.transpose(0, 2, 1)).reshape(8 * n_words, b)
    return np.unpackbits(by, axis=0, bitorder="little")[:k]


class PackedPlanes:
    """Word-major bitplanes of a ternary activation batch.

    ``sign_t`` / ``active_t`` are ``(W, B)`` uint64 — word index major
    so the MVM's word loop reads one contiguous row per iteration;
    ``n_active`` is the per-sample asserted-wordline count (what the
    crossbar ledger books per MVM).
    """

    __slots__ = ("sign_t", "active_t", "n_active", "k")

    def __init__(self, sign_t: np.ndarray, active_t: np.ndarray,
                 n_active: np.ndarray, k: int):
        self.sign_t = sign_t
        self.active_t = active_t
        self.n_active = n_active
        self.k = k

    @property
    def n_words(self) -> int:
        return self.sign_t.shape[0]

    @property
    def batch(self) -> int:
        return self.sign_t.shape[1]


class PackedWeights:
    """±1 weight matrix packed to word-major ``(W, n_cols)`` sign words
    (bit = weight > 0); ``k`` is the logical row count, tail bits of
    the last word are zero."""

    __slots__ = ("sign_t", "k")

    def __init__(self, sign_t: np.ndarray, k: int):
        self.sign_t = sign_t
        self.k = k

    @property
    def n_words(self) -> int:
        return self.sign_t.shape[0]

    @property
    def n_cols(self) -> int:
        return self.sign_t.shape[1]


def pack_ternary_rows(x: np.ndarray) -> PackedPlanes:
    """Pack a row-major ``(B, K)`` {−1, 0, +1} batch into planes."""
    x = np.asarray(x)
    sign = _pack_axis_last(x > 0)
    active = _pack_axis_last(x != 0)
    n_active = np.count_nonzero(x, axis=-1).astype(np.int64)
    return PackedPlanes(np.ascontiguousarray(sign.T),
                        np.ascontiguousarray(active.T),
                        n_active, x.shape[-1])


def pack_weights(weights: np.ndarray) -> PackedWeights:
    """Pack a ``(K, n_cols)`` ±1 weight matrix (rows=inputs)."""
    w = np.asarray(weights)
    return PackedWeights(_pack_axis0(w > 0), w.shape[0])


def unpack_ternary(planes: PackedPlanes) -> np.ndarray:
    """Inverse of the activation pack: ``(B, k)`` float64 ternary."""
    sign = _unpack_axis0(planes.sign_t, planes.k).astype(np.float64)
    active = _unpack_axis0(planes.active_t, planes.k).astype(np.float64)
    return ((2.0 * sign - 1.0) * active).T


def unpack_weights(packed: PackedWeights) -> np.ndarray:
    """Inverse of :func:`pack_weights`: ``(k, n_cols)`` float64 ±1."""
    bits = _unpack_axis0(packed.sign_t, packed.k)
    return np.where(bits > 0, 1.0, -1.0)


# ----------------------------------------------------------------------
# The kernel.

def packed_mvm(planes: PackedPlanes, weights: PackedWeights,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """XNOR-popcount MVM on packed planes: exact ±1 dot products.

    ``dot[b, c] = n_active[b] − 2·popcount((sign_x ^ sign_w) &
    active_x)`` — the popcount counts *mismatches* among asserted
    wordlines, identical to the decoded integer MAC of an ideal
    :class:`~repro.cim.crossbar.XnorCrossbar` (2·matches − n_active).

    Word loop over word-major operands: each iteration broadcasts one
    ``(B,)`` activation word row against one ``(C,)`` weight word row
    into a reused ``(B, C)`` buffer, popcounts it, and accumulates in
    uint16 (uint32 past K = 65535).  Returns ``(B, C)`` int64 dots;
    ``out`` assigns into an existing ``(B, C)`` array instead, of any
    layout and any float/int dtype that holds |dot| <= K exactly (a
    crossbar grid passes the transposed view of its column-major
    float32 partial sums).
    """
    if planes.k != weights.k:
        raise ValueError(
            f"packed operand depth mismatch: {planes.k} != {weights.k}")
    xs, xa, ws = planes.sign_t, planes.active_t, weights.sign_t
    shape = (planes.batch, weights.n_cols)
    acc = np.zeros(shape, np.uint32 if planes.k > 0xFFFF else np.uint16)
    tmp = np.empty(shape, np.uint64)
    cnt = np.empty(shape, np.uint8)
    for wd in range(planes.n_words):
        np.bitwise_xor(xs[wd][:, None], ws[wd][None, :], out=tmp)
        np.bitwise_and(tmp, xa[wd][:, None], out=tmp)
        popcount_into(tmp, cnt)
        acc += cnt
    dots = planes.n_active[:, None] - 2 * acc.astype(np.int64)
    if out is None:
        return dots
    out[...] = dots
    return out


def packed_route_beneficial(batch: int, k: int, n_cols: int) -> bool:
    """Route policy of a crossbar grid's exact-integer route.

    Called per row chunk and call: True picks the packed kernel, False
    the float32 GEMM.  The packed kernel wins only in the memory-bound
    regime: a small row batch against a wide weight matrix, where the
    float32 route is bottlenecked on weight traffic the packed operand
    shrinks 64× (measured 4–13× at batch <= 8, K·C >= 1M; 0.2–0.6× on
    large-batch compute-bound GEMMs).  A crossbar packs its weights
    once, on its first packed MVM, and keeps them until it is
    reprogrammed.  Tests force a route by patching this function.
    """
    return batch <= 8 and k >= 256 and k * n_cols >= (1 << 19)


_env_backend = os.environ.get("REPRO_POPCOUNT_BACKEND")
if _env_backend:
    set_popcount_backend(_env_backend)
