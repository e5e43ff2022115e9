"""ADC and sense-amplifier models (the Fig. 2 periphery).

The Scale-Dropout inference architecture (Fig. 2) reads crossbar
columns through sense amplifiers and an ADC, accumulates partial sums,
multiplies by the scale from SRAM, applies batch norm and the sign
activation.  This module models the two readout primitives:

* :class:`ADC` — uniform mid-rise quantizer with configurable bit
  width over a calibrated input range; each conversion is booked.
* :class:`SenseAmplifier` — 1-bit comparator against a reference, used
  for reading MTJ states (dropout bit readout) and for sign
  activations taken directly in the analog domain.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cim.ledger import OpLedger


class ADC:
    """Uniform quantizer with ``bits`` resolution over [lo, hi]."""

    def __init__(self, bits: int = 6, lo: float = -1.0, hi: float = 1.0,
                 ledger: Optional[OpLedger] = None):
        if bits < 1:
            raise ValueError("ADC needs at least 1 bit")
        self.bits = bits
        self.ledger = ledger if ledger is not None else OpLedger()
        self.calibrate(lo, hi)

    @property
    def n_codes(self) -> int:
        return 2 ** self.bits

    def calibrate(self, lo: float, hi: float) -> None:
        """Retarget the conversion range (per-layer calibration)."""
        if hi <= lo:
            raise ValueError("hi must exceed lo")
        self.lo, self.hi = lo, hi
        # Precomputed once: convert() sits on the per-MVM hot path of
        # the batched MC engine.
        self._step = (hi - lo) / (self.n_codes - 1)

    def convert(self, values: np.ndarray) -> np.ndarray:
        """Quantize ``values``; books one conversion per element.

        Shape-agnostic: any leading axes (batch, stacked MC samples)
        pass through unchanged, each element booking one conversion —
        so a batched (T·N, cols) call costs exactly T sequential
        (N, cols) calls.
        """
        values = np.asarray(values, dtype=np.float64)
        codes = np.rint((np.clip(values, self.lo, self.hi) - self.lo)
                        / self._step)
        self.ledger.add("adc_conversion", values.size)
        return self.lo + codes * self._step

    def quantization_rmse(self, values: np.ndarray) -> float:
        """RMS quantization error on a sample batch (no ledger booking)."""
        values = np.asarray(values, dtype=np.float64)
        codes = np.rint((np.clip(values, self.lo, self.hi) - self.lo)
                        / self._step)
        quantized = self.lo + codes * self._step
        return float(np.sqrt(np.mean((quantized - values) ** 2)))


class PopcountADC(ADC):
    """ADC with reference levels aligned to integer MAC counts.

    In an XNOR/popcount crossbar the column current takes discrete
    values (one step per matching row), so the natural flash/SAR
    reference ladder sits *on* those integer steps.  With enough bits
    every count gets its own code (exact readout); with fewer bits
    adjacent counts share codes (quantization), the step growing as
    ``ceil((2·rows) / (2^bits − 1))`` counts per code.

    :meth:`convert` clips into one array of the input's dtype
    (float32 stays float32, anything else becomes float64), fresh
    unless the caller passes ``out`` (which may be the input itself),
    and divides, rounds and rescales it in place, with scalars of that
    dtype; in-place IEEE operations round exactly as out-of-place
    ones.  Float32 partial sums come from the exact-integer routes of
    :class:`~repro.cim.layers.CrossbarGrid`, under both
    :class:`~repro.cim.layers.CimLinear` and
    :class:`~repro.cim.layers.CimConv2d`: every partial sum ``v`` is
    an integer far below 2^24, exact in float32, and so is any integer
    step.  A quotient ``v / step`` is either a tie ``k + 1/2``
    (possible only for an even step), which float32 holds exactly, or
    at least ``1 / (2·step)`` from one, further than float32 rounding
    can move it.  ``rint`` then picks the same integer (ties to even)
    in both dtypes, so the float32 result equals the float64 one
    exactly, at half the memory traffic.
    """

    def __init__(self, bits: int, rows: int,
                 ledger: Optional[OpLedger] = None):
        super().__init__(bits=bits, lo=-float(rows), hi=float(rows),
                         ledger=ledger)
        span = 2 * rows
        self.step = max(1, int(np.ceil(span / (self.n_codes - 1))))

    def convert(self, values: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
        values = np.asarray(values)
        if values.dtype != np.float32:
            values = values.astype(np.float64, copy=False)
        self.ledger.add("adc_conversion", values.size)
        t = values.dtype.type
        out = np.clip(values, t(self.lo), t(self.hi),
                      out=np.empty_like(values) if out is None else out)
        np.divide(out, t(self.step), out=out)
        np.rint(out, out=out)
        np.multiply(out, t(self.step), out=out)
        return out


class SenseAmplifier:
    """1-bit comparator: output = value > reference.

    Models both the MTJ state readout in the SpinDrop module ("the
    MTJ's state was read using a sense amplifier to verify the
    occurrence of the switch") and analog sign activations.
    """

    def __init__(self, reference: float = 0.0, offset_sigma: float = 0.0,
                 rng: Optional[np.random.Generator] = None,
                 ledger: Optional[OpLedger] = None):
        self.reference = reference
        self.offset_sigma = offset_sigma
        self.rng = rng or np.random.default_rng()
        self.ledger = ledger if ledger is not None else OpLedger()

    def compare(self, values: np.ndarray) -> np.ndarray:
        """Binary readout (+1 / −1) with optional input-referred offset."""
        values = np.asarray(values, dtype=np.float64)
        ref = self.reference
        if self.offset_sigma > 0.0:
            ref = ref + self.rng.normal(0.0, self.offset_sigma, size=values.shape)
        self.ledger.add("sa_read", values.size)
        return np.where(values > ref, 1.0, -1.0)
