"""Spintronic random number generation (the SpinDrop module).

Sec. III-A.1 describes the bitstream generator: "The process involved
generating a bitstream by alternating SET and RESET operations.
Following a 'SET' write operation, the MTJ's state was read using a
sense amplifier to verify the occurrence of the switch, effectively
indicating the dropout signal. Post-read operation, the MTJ was
'RESET' to the P-state."

:class:`SpintronicRNG` models a *bank* of such modules.  Each module
owns one MTJ whose thermal-stability realization is drawn from the
variability model, so the realized Bernoulli probability differs from
the programmed one device-to-device.  Every generated bit costs one
SET attempt, one read, and one RESET — the counts are tracked so the
energy model can price dropout subsystems exactly (this is where the
9× / 94.11× / >100× RNG-energy claims come from).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.devices.mtj import (
    MTJParams,
    current_for_probability,
    switching_probability,
)
from repro.devices.variability import DeviceVariability


class SpintronicRNG:
    """Bank of MTJ-based Bernoulli generators.

    Parameters
    ----------
    n_modules:
        Number of physical dropout modules in the bank.  A layer that
        needs more bits per pass than modules re-uses modules
        sequentially (extra latency, same hardware) — exactly the
        trade-off the paper discusses for SpinDrop vs Scale-Drop.
    p:
        Target (programmed) switching probability per SET attempt.
    variability:
        Device variability model; ``None`` yields ideal modules.
    """

    def __init__(self, n_modules: int, p: float = 0.5,
                 mtj_params: Optional[MTJParams] = None,
                 variability: Optional[DeviceVariability] = None,
                 rng: Optional[np.random.Generator] = None):
        if n_modules < 1:
            raise ValueError("need at least one module")
        if not 0.0 < p < 1.0:
            raise ValueError("probability must be in (0, 1)")
        self.n_modules = n_modules
        self.target_p = p
        self.mtj_params = mtj_params or MTJParams()
        self.variability = variability
        self.rng = rng or np.random.default_rng()

        # Per-module Δ realizations -> per-module effective probability.
        if variability is not None:
            self._deltas = variability.sample_deltas(
                self.mtj_params.delta, (n_modules,))
        else:
            self._deltas = np.full(n_modules, self.mtj_params.delta)
        self._current = current_for_probability(p, self.mtj_params)
        self.effective_p = np.asarray(switching_probability(
            self._current, self.mtj_params, delta=self._deltas))

        # Operation ledger for the energy model.
        self.set_ops = 0
        self.read_ops = 0
        self.reset_ops = 0

    # ------------------------------------------------------------------
    def generate(self, n_bits: int) -> np.ndarray:
        """Generate ``n_bits`` Bernoulli bits (1 = switched = "drop").

        Bits are produced round-robin across the module bank; each bit
        is one SET→read→RESET cycle on its module.
        """
        bits = (self.rng.random(n_bits)
                < self.bit_probabilities(n_bits)).astype(np.float64)
        self.book_cycles(n_bits)
        return bits

    def bit_probabilities(self, n_bits: int) -> np.ndarray:
        """Switching probability of each of ``n_bits`` round-robin bits:
        bit ``i`` is drawn on module ``i % n_modules``."""
        if n_bits == 1:
            # Single-bit draws (arbiter stages, scale masks) hit module
            # 0: same probability, without the index arithmetic.
            return self.effective_p[:1]
        return self.effective_p[np.arange(n_bits) % self.n_modules]

    def book_cycles(self, n_bits: int) -> None:
        """Book ``n_bits`` SET→read→RESET cycles on the bank's counters.

        The one place the counters move: :meth:`generate` and the
        engines that draw a bank's bits in bulk off its stream
        (:meth:`repro.bayesian.deploy.BayesianCim._draw_sample_banks`,
        the SpinBayes arbiter draw) all book through it.
        """
        self.set_ops += n_bits
        self.read_ops += n_bits
        self.reset_ops += n_bits

    def generate_mask(self, shape: tuple) -> np.ndarray:
        """Generate a drop mask of the given shape (1 = drop)."""
        n = int(np.prod(shape))
        return self.generate(n).reshape(shape)

    def cycles_per_mask(self, mask_bits: int) -> int:
        """Sequential module re-use rounds needed for one mask."""
        return int(np.ceil(mask_bits / self.n_modules))

    # ------------------------------------------------------------------
    def calibrate(self, n_samples: int = 2000, tolerance: float = 0.02,
                  max_iters: int = 20) -> float:
        """Closed-loop current trim toward the target probability.

        Mirrors the hardware calibration loop: measure the empirical
        switch rate of the bank, nudge the write current, repeat.
        Returns the final empirical probability.  Calibration
        compensates the *mean* shift from variability but cannot remove
        the device-to-device spread (that residual spread is the
        Gaussian dropout-rate model of SpinScaleDrop).
        """
        current = self._current
        empirical = float(self.effective_p.mean())
        for _ in range(max_iters):
            probs = np.asarray(switching_probability(
                current, self.mtj_params, delta=self._deltas))
            idx = self.rng.integers(0, self.n_modules, size=n_samples)
            empirical = float((self.rng.random(n_samples) < probs[idx]).mean())
            error = empirical - self.target_p
            if abs(error) <= tolerance:
                self._current = current
                self.effective_p = probs
                return empirical
            # Gradient-free proportional trim in log-current space.
            current *= 1.0 - 0.5 * error
        self._current = current
        self.effective_p = np.asarray(switching_probability(
            current, self.mtj_params, delta=self._deltas))
        return empirical

    def fitted_probability(self) -> tuple[float, float]:
        """Gaussian (mu, sigma) of the per-module effective probability."""
        return float(self.effective_p.mean()), float(self.effective_p.std())

    def reset_counters(self) -> None:
        self.set_ops = self.read_ops = self.reset_ops = 0

    @property
    def total_ops(self) -> int:
        return self.set_ops + self.read_ops + self.reset_ops

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Capture the bank's device realization and cycle counters.

        The shared ``rng`` generator is *not* part of this state — it
        may be shared across many banks, so its bit-generator state is
        captured once by whoever owns the sharing topology (the
        deployment snapshot).
        """
        return {
            "n_modules": self.n_modules,
            "target_p": self.target_p,
            "deltas": self._deltas,
            "current": float(self._current),
            "effective_p": self.effective_p,
            "set_ops": self.set_ops,
            "read_ops": self.read_ops,
            "reset_ops": self.reset_ops,
        }

    def load_state(self, state: dict) -> None:
        """Install a captured device realization (no variability draws)."""
        self.n_modules = int(state["n_modules"])
        self.target_p = float(state["target_p"])
        self._deltas = np.asarray(state["deltas"], dtype=np.float64)
        self._current = float(state["current"])
        self.effective_p = np.asarray(state["effective_p"],
                                      dtype=np.float64)
        self.set_ops = int(state["set_ops"])
        self.read_ops = int(state["read_ops"])
        self.reset_ops = int(state["reset_ops"])
