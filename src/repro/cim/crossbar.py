"""Analog SOT-MRAM crossbar array model.

The crossbar computes a matrix-vector product in one shot: input
voltages drive the rows (wordlines), each cell's conductance
multiplies its row voltage, and Kirchhoff current summation on every
column (bitline) yields the dot products (Sec. II-A: SOT-MRAM's
"tunable resistances ... hold significant promise, especially in
Matrix-Vector Multiplication operations within crossbar arrays").

Two cell organizations are modelled:

* :class:`XnorCrossbar` — binary weights in complementary 1T-1MTJ
  pairs ("each trained weight is stored in a unit represented by two
  1T-1MTJ cells", Sec. III-A.1), inputs are ±1, the column current
  encodes the XNOR-popcount MAC.
* :class:`AnalogCrossbar` — multi-level cells storing quantized real
  values (SpinBayes / Bayesian-scale crossbars), inputs are analog
  row voltages.

Both apply device-to-device conductance variability at programming
time, optional stuck-at defects, cycle-to-cycle read noise, and a
first-order IR-drop attenuation; both book their operations on an
:class:`~repro.cim.ledger.OpLedger`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cim.ledger import OpLedger
from repro.devices.defects import DefectModel
from repro.devices.mtj import MTJParams
from repro.devices.variability import DeviceVariability
from repro.tensor import bitpack


def split_leading_axes(x: np.ndarray, feature_ndim: int):
    """Flatten every axis before the last ``feature_ndim`` into one batch.

    The sample-axis plumbing shared by crossbars and CIM layers: a
    stacked Monte-Carlo tensor (e.g. ``(T, N, features…)``) becomes a
    flat ``(T·N, features…)`` batch.  Returns ``(lead, flat)`` where
    ``lead`` is ``None`` when ``x`` already had a single batch axis.
    """
    if x.ndim == feature_ndim + 1:
        return None, x
    lead = x.shape[:-feature_ndim]
    return lead, x.reshape((-1,) + x.shape[-feature_ndim:])


def merge_leading_axes(lead, out: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_leading_axes` on the produced output."""
    if lead is None:
        return out
    return out.reshape(lead + out.shape[1:])


class XnorCrossbar:
    """Binary-weight crossbar with complementary bit-cell pairs.

    Each logical weight w ∈ {−1, +1} occupies two cells: the *direct*
    cell (read when the input bit is +1) and the *complement* cell
    (read when the input bit is −1).  A cell in the P state contributes
    g_p to the column current, AP contributes g_ap; the XNOR truth
    table falls out of programming direct=w, complement=−w.

    The decoded MAC for column j is ``2·matches − n_active``, exactly
    the popcount arithmetic of a digital XNOR BNN, but the *analog*
    current is what the ADC sees — so variability, defects, IR drop
    and read noise all land on the result before decoding.
    """

    def __init__(self, n_rows: int, n_cols: int,
                 mtj_params: Optional[MTJParams] = None,
                 variability: Optional[DeviceVariability] = None,
                 defects: Optional[DefectModel] = None,
                 wire_resistance: float = 0.0,
                 rng: Optional[np.random.Generator] = None,
                 ledger: Optional[OpLedger] = None):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.params = mtj_params or MTJParams()
        self.variability = variability
        self.rng = rng or np.random.default_rng()
        self.ledger = ledger if ledger is not None else OpLedger()
        self.wire_resistance = wire_resistance
        self._defects = defects
        self._weights: Optional[np.ndarray] = None
        self._g_direct: Optional[np.ndarray] = None
        self._g_complement: Optional[np.ndarray] = None
        self._w_signed_t: Optional[np.ndarray] = None
        self._w_packed_t: Optional[bitpack.PackedWeights] = None

    @property
    def is_ideal(self) -> bool:
        """True when the analog chain is deterministic and lossless.

        No conductance variability (which also rules out read noise)
        and no IR drop means the decoded MAC equals the exact integer
        XNOR popcount up to float64 rounding noise (~1e-13) — the
        precondition for the exact-integer fast route in the CIM conv
        layers.  Programming defects are fine: they change *which* ±1
        matrix is stored, not the exactness of its readout.
        """
        return self.variability is None and self.wire_resistance <= 0.0

    # ------------------------------------------------------------------
    def program(self, weights: np.ndarray) -> None:
        """Program a ±1 weight matrix (rows=inputs, cols=outputs)."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.n_rows, self.n_cols):
            raise ValueError(
                f"weight shape {weights.shape} != ({self.n_rows}, {self.n_cols})")
        if not np.all(np.isin(weights, (-1.0, 1.0))):
            raise ValueError("XnorCrossbar stores ±1 weights only")

        stored = weights
        if self._defects is not None:
            stored = self._defects.apply_to_binary_weights(stored)
        self._weights = stored

        g_p, g_ap = self.params.g_p, self.params.g_ap
        g_direct = np.where(stored > 0, g_p, g_ap)
        g_complement = np.where(stored > 0, g_ap, g_p)
        if self.variability is not None:
            g_direct = self.variability.perturb_conductances(g_direct)
            g_complement = self.variability.perturb_conductances(g_complement)
        self._g_direct = g_direct
        self._g_complement = g_complement
        self._invalidate_operand_caches()
        # Two MTJ writes per logical weight (direct + complement cell).
        self.ledger.add("mtj_write", 2 * weights.size)

    def _invalidate_operand_caches(self) -> None:
        """Drop every operand derived from the stored matrix.

        MUST be called by anything that changes conductance state
        (programming, state install, post-deployment fault injection):
        the float32 signed operand and the packed sign planes are both
        pure functions of ``_weights``, and a stale cached copy would
        silently serve the *pre-mutation* matrix on the fast routes.
        """
        self._w_signed_t = None
        self._w_packed_t = None

    @property
    def programmed_weights(self) -> np.ndarray:
        if self._weights is None:
            raise RuntimeError("crossbar not programmed")
        return self._weights

    def signed_weights_t(self) -> np.ndarray:
        """Cached float32 (n_cols, n_rows) ±1 operand of the stored
        weights — what an ideal readout decodes to, transposed for the
        column-major GEMMs of the exact-integer conv route.  Derived
        from the *post-defect* stored matrix, so stuck cells are
        reflected exactly."""
        if self._w_signed_t is None:
            w = np.where(self.programmed_weights > 0,
                         np.float32(1.0), np.float32(-1.0))
            self._w_signed_t = np.ascontiguousarray(w.T)
        return self._w_signed_t

    def packed_weights_t(self) -> bitpack.PackedWeights:
        """Cached bit-packed sign planes of the stored weights —
        ``(ceil(n_rows/64), n_cols)`` uint64, the operand of
        :meth:`mvm_packed`.  Packed once per programming (or installed
        verbatim from a snapshot) and invalidated alongside the float
        operand whenever conductance state changes."""
        if self._w_packed_t is None:
            self._w_packed_t = bitpack.pack_weights(self.programmed_weights)
        return self._w_packed_t

    def mvm_packed(self, planes: "bitpack.PackedPlanes",
                   out: Optional[np.ndarray] = None) -> np.ndarray:
        """Exact-integer XNOR MVM on pre-packed wordline planes.

        The bit-packed twin of :meth:`mvm_prepared`: ``planes`` holds
        the packed sign/active bitplanes of a ``(B, n_rows)`` drive
        batch (see :func:`repro.tensor.bitpack.pack_ternary_rows`), and
        the popcount kernel returns the decoded ``(B, n_cols)`` integer
        MAC directly, or writes it into ``out`` (a
        :class:`~repro.cim.layers.CrossbarGrid` passes the transposed
        view of its column-major partial sums).  Valid only on an ideal
        array, where that integer is exactly what the analog chain
        would decode (the precondition of the grid's exact-integer
        routes).  Ledger bookings match the analog entry points: one
        :meth:`book_mvm` of the summed asserted-wordline count.
        """
        if not self.is_ideal:
            raise RuntimeError(
                "packed XNOR route requires an ideal array "
                "(no variability, no wire resistance)")
        mac = bitpack.packed_mvm(planes, self.packed_weights_t(), out=out)
        self.book_mvm(int(planes.n_active.sum()))
        return mac

    def inject_defects(self, defects: DefectModel) -> None:
        """Corrupt the already-programmed array in place.

        Post-deployment fault injection (retention failures over a
        deployment lifetime, the self-healing experiments' mutation):
        the stored ±1 matrix is re-drawn through the defect model and
        the affected cells' conductances are pinned to their nominal
        stuck values; unaffected cells keep their programmed
        (variability-perturbed) conductances.  Invalidate-on-mutate:
        the cached fast-route operands are dropped so the float32 and
        packed routes re-derive the *post-fault* matrix.
        """
        if self._weights is None:
            raise RuntimeError("crossbar not programmed")
        corrupted = defects.apply_to_binary_weights(self._weights)
        flipped = corrupted != self._weights
        g_p, g_ap = self.params.g_p, self.params.g_ap
        self._weights = corrupted
        self._g_direct = np.where(
            flipped, np.where(corrupted > 0, g_p, g_ap), self._g_direct)
        self._g_complement = np.where(
            flipped, np.where(corrupted > 0, g_ap, g_p), self._g_complement)
        self._invalidate_operand_caches()

    def book_mvm(self, total_active: int) -> None:
        """Book one batched MVM's ledger entries.

        ``total_active`` is the number of asserted wordline pairs
        summed over the batch — exactly what :meth:`matvec` books, so
        fast routes that bypass the analog simulation keep ledger
        totals identical.
        """
        self.ledger.add("crossbar_cell_access", total_active * self.n_cols)
        self.ledger.add("dac_drive", total_active)

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The programmed analog state (post-defect, post-variability).

        Everything :meth:`program` produced, with the stochastic draws
        already baked in — installing it via :meth:`load_state` skips
        re-programming entirely, so no RNG is consumed and no
        ``mtj_write`` is booked.
        """
        if self._weights is None:
            raise RuntimeError("crossbar not programmed")
        state = {
            "weights": self._weights,
            "g_direct": self._g_direct,
            "g_complement": self._g_complement,
        }
        if self._w_packed_t is not None:
            # Packed sign planes ride along — but only when the packed
            # route materialized them — so a snapshot restore installs
            # the fast-route operand instead of re-packing, while
            # float-route deployments don't pay for an operand they
            # never use (the planes would cost load time per array).
            state["w_packed_t"] = self._w_packed_t.sign_t
        return state

    def load_state(self, state: dict) -> None:
        """Install captured conductance state without re-programming."""
        weights = np.asarray(state["weights"], dtype=np.float64)
        if weights.shape != (self.n_rows, self.n_cols):
            raise ValueError(
                f"state shape {weights.shape} != ({self.n_rows}, {self.n_cols})")
        self._weights = weights
        self._g_direct = np.asarray(state["g_direct"], dtype=np.float64)
        self._g_complement = np.asarray(state["g_complement"],
                                        dtype=np.float64)
        self._invalidate_operand_caches()
        packed = state.get("w_packed_t")
        if packed is not None:
            planes = np.ascontiguousarray(packed, dtype=np.uint64)
            expected = ((self.n_rows + bitpack.LANE - 1) // bitpack.LANE,
                        self.n_cols)
            if planes.shape != expected:
                raise ValueError(
                    f"packed plane shape {planes.shape} != {expected}")
            self._w_packed_t = bitpack.PackedWeights(planes, self.n_rows)

    # ------------------------------------------------------------------
    def _ir_drop_factor(self, n_active: np.ndarray) -> np.ndarray:
        """First-order IR-drop attenuation.

        Column current is attenuated proportionally to the total
        conductance load on the line; the linear model
        ``1 / (1 + R_wire · n_active · g_p)`` captures the worst-case
        trend without solving the full resistive mesh.
        """
        if self.wire_resistance <= 0.0:
            return np.ones_like(n_active, dtype=np.float64)
        load = self.wire_resistance * n_active * self.params.g_p
        return 1.0 / (1.0 + load)

    def matvec(self, inputs: np.ndarray,
               row_mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Batched XNOR MAC: inputs (..., n_rows) in {−1, 0, +1} → (..., n_cols).

        Any leading axes are treated as one flat batch of MVMs — in
        particular a stacked Monte-Carlo tensor ``(T, N, n_rows)``
        evaluates all T passes in a single ndarray operation; the
        ledger counts are identical to T separate calls because every
        booking is per asserted wordline.

        A zero input means the wordline pair is *not asserted* — the
        row contributes no current, which is exactly how neuron dropout
        reaches the crossbar (a dropped neuron's activation is zero, so
        its wordline never fires).  ``row_mask`` of {0,1} additionally
        gates rows — the Fig.-1 mechanism where the dropout module
        drives the WL decoder directly (Spatial-SpinDrop feature-map
        gating).  Shape ``(n_rows,)`` gates layer-wide; a mask with the
        same leading axes as ``inputs`` gates per sample (e.g. a
        different wordline mask per stacked MC pass).

        Returns the *decoded integer MAC* (2·matches − n_active, per
        sample), already corrected for the analog chain; amplitude
        quantization is applied by the ADC stage, not here.
        """
        if self._g_direct is None:
            raise RuntimeError("crossbar not programmed")
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim == 1:
            inputs = inputs[None, :]
        lead, inputs = split_leading_axes(inputs, 1)
        if inputs.shape[1] != self.n_rows:
            raise ValueError(f"input width {inputs.shape[1]} != {self.n_rows}")
        if not np.all((inputs == 0.0) | (np.abs(inputs) == 1.0)):
            raise ValueError("XnorCrossbar inputs must be in {-1, 0, +1}")

        if row_mask is None:
            gate = np.ones(self.n_rows)
        else:
            gate = np.asarray(row_mask, dtype=np.float64)
            if gate.ndim > 2:
                gate = gate.reshape(-1, gate.shape[-1])
            if gate.shape != (self.n_rows,) and \
                    gate.shape != (inputs.shape[0], self.n_rows):
                raise ValueError(
                    "row_mask must have shape (n_rows,) or match the "
                    "flattened input batch: "
                    f"got {np.shape(row_mask)} for inputs {inputs.shape}")
            gate = (gate > 0).astype(np.float64)

        pos = (inputs > 0).astype(np.float64) * gate     # rows driven "true"
        neg = (inputs < 0).astype(np.float64) * gate     # rows driven "false"
        n_active = (pos + neg).sum(axis=1, keepdims=True)  # per sample
        return merge_leading_axes(lead, self.mvm_prepared(pos, neg, n_active))

    def _analog_mac(self, pos: np.ndarray, neg: np.ndarray,
                    n_active: np.ndarray, transposed: bool) -> np.ndarray:
        """The analog physics shared by every MVM entry point.

        Read noise, current summation, IR-drop attenuation, decode and
        ledger bookings live only here so the row-major and
        column-major routes can never drift apart.  ``n_active`` must
        broadcast against the current matrix ((B, 1) row-major,
        (1, B) column-major).
        """
        v = self.params.read_voltage
        g_direct = self._g_direct
        g_complement = self._g_complement
        if self.variability is not None:
            g_direct = self.variability.read_noise(g_direct)
            g_complement = self.variability.read_noise(g_complement)

        if transposed:
            current = v * (g_direct.T @ pos + g_complement.T @ neg)
        else:
            current = v * (pos @ g_direct + neg @ g_complement)
        current = current * self._ir_drop_factor(n_active)

        # Decode matches from analog current using nominal conductances:
        # I = V (m g_p + (n_active - m) g_ap)  =>  m.
        g_p, g_ap = self.params.g_p, self.params.g_ap
        matches = (current / v - n_active * g_ap) / (g_p - g_ap)
        mac = 2.0 * matches - n_active
        self.book_mvm(int(n_active.sum()))
        return mac

    def mvm_prepared(self, pos: np.ndarray, neg: np.ndarray,
                     n_active: np.ndarray) -> np.ndarray:
        """Analog MVM on pre-computed drive masks: (B, n_rows) → (B, n_cols).

        The engine of :meth:`matvec`, the single-array reference:
        ``pos``/``neg`` are the already-gated {0, 1} wordline drive
        masks and ``n_active`` their per-sample row count ``(B, 1)``.
        """
        return self._analog_mac(pos, neg, n_active, transposed=False)

    def mvm_cols(self, pos_t: np.ndarray, neg_t: np.ndarray,
                 n_active: np.ndarray) -> np.ndarray:
        """Column-major analog MVM: (n_rows, B) drives → (n_cols, B) MAC.

        The transposed twin of :meth:`mvm_prepared` and the analog
        route of :class:`~repro.cim.layers.CrossbarGrid`, whose drives
        are column-major: an im2col patch slab (channel-first
        ``(rows, L·N)``) or a linear layer's transposed input batch,
        consumed without a transpose copy.  ``n_active`` has shape
        ``(B,)``; physics, decode and ledger bookings are identical.
        """
        return self._analog_mac(pos_t, neg_t, n_active[None, :],
                                transposed=True)


class AnalogCrossbar:
    """Multi-level-cell crossbar for quantized analog weights.

    Used by the SpinBayes posterior crossbars and the Bayesian-scale
    crossbar of subset-parameter inference.  Weights are quantized to
    ``n_levels`` conductance steps between g_ap (most negative value)
    and g_p·n_parallel (most positive); inputs are analog row voltages.
    """

    def __init__(self, n_rows: int, n_cols: int, n_levels: int = 16,
                 mtj_params: Optional[MTJParams] = None,
                 variability: Optional[DeviceVariability] = None,
                 defects: Optional[DefectModel] = None,
                 rng: Optional[np.random.Generator] = None,
                 ledger: Optional[OpLedger] = None):
        if n_levels < 2:
            raise ValueError("need at least two conductance levels")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.n_levels = n_levels
        self.params = mtj_params or MTJParams()
        self.variability = variability
        self.rng = rng or np.random.default_rng()
        self.ledger = ledger if ledger is not None else OpLedger()
        self._defects = defects
        self._g: Optional[np.ndarray] = None
        self._v_min = 0.0
        self._v_max = 1.0

    def program(self, values: np.ndarray,
                v_min: Optional[float] = None,
                v_max: Optional[float] = None) -> None:
        """Quantize real ``values`` onto the conductance grid and store."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.n_rows, self.n_cols):
            raise ValueError(
                f"value shape {values.shape} != ({self.n_rows}, {self.n_cols})")
        self._v_min = float(values.min()) if v_min is None else v_min
        self._v_max = float(values.max()) if v_max is None else v_max
        if self._v_max <= self._v_min:
            self._v_max = self._v_min + 1e-9

        span = self._v_max - self._v_min
        levels = np.rint(
            (np.clip(values, self._v_min, self._v_max) - self._v_min)
            / span * (self.n_levels - 1))
        g_lo, g_hi = self.params.g_ap, self.params.g_p
        g = g_lo + levels / (self.n_levels - 1) * (g_hi - g_lo)
        if self.variability is not None:
            g = self.variability.perturb_conductances(g)
        if self._defects is not None:
            g = self._defects.apply_to_conductances(g, g_hi, g_lo)
        # C order, whatever the layout of ``values`` (SpinBayes programs
        # a transpose): the decoded operand's layout picks the BLAS
        # kernel, so a live array and one restored from a snapshot must
        # share it to read bit-identical MACs.
        self._g = np.ascontiguousarray(g)
        # Each multi-level cell programs ceil(log2(levels)) junction writes.
        writes_per_cell = max(1, int(np.ceil(np.log2(self.n_levels))))
        self.ledger.add("mtj_write", values.size * writes_per_cell)

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The programmed analog state (quantization + noise baked in)."""
        if self._g is None:
            raise RuntimeError("crossbar not programmed")
        return {"g": self._g, "v_min": self._v_min, "v_max": self._v_max}

    def load_state(self, state: dict) -> None:
        """Install captured conductance state without re-programming."""
        g = np.asarray(state["g"], dtype=np.float64)
        if g.shape != (self.n_rows, self.n_cols):
            raise ValueError(
                f"state shape {g.shape} != ({self.n_rows}, {self.n_cols})")
        self._g = np.ascontiguousarray(g)
        self._v_min = float(state["v_min"])
        self._v_max = float(state["v_max"])

    def stored_values(self) -> np.ndarray:
        """Decode current conductances back to the value scale."""
        if self._g is None:
            raise RuntimeError("crossbar not programmed")
        g_lo, g_hi = self.params.g_ap, self.params.g_p
        frac = (self._g - g_lo) / (g_hi - g_lo)
        return self._v_min + np.clip(frac, 0.0, 1.0) * (self._v_max - self._v_min)

    def _decode(self, g: np.ndarray) -> np.ndarray:
        """Conductances → value-scale MVM operand.

        The offset term (g_lo) is removed by the reference column in
        hardware; the generous clip keeps noise-perturbed conductances
        on the decode line instead of saturating them.
        """
        g_lo, g_hi = self.params.g_ap, self.params.g_p
        return (self._v_min
                + np.clip((g - g_lo) / (g_hi - g_lo), -0.5, 1.5)
                * (self._v_max - self._v_min))

    def mvm_values(self) -> np.ndarray:
        """The noise-free MVM operand: decoded (n_rows, n_cols) values.

        Exactly the matrix :meth:`matvec` multiplies by when no read
        noise is configured — exposed so batched engines can reuse
        crossbar operands without re-decoding conductances per call.
        """
        if self._g is None:
            raise RuntimeError("crossbar not programmed")
        return self._decode(self._g)

    def matvec(self, inputs: np.ndarray) -> np.ndarray:
        """Analog MVM: (..., n_rows) voltages → (..., n_cols) decoded values.

        Leading axes (e.g. a stacked MC sample axis) are flattened into
        one batch of MVMs and restored on the output.
        """
        if self._g is None:
            raise RuntimeError("crossbar not programmed")
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim == 1:
            inputs = inputs[None, :]
        lead, inputs = split_leading_axes(inputs, 1)
        g = self._g
        if self.variability is not None:
            g = self.variability.read_noise(g)
        values = self._decode(g)
        out = inputs @ values
        batch = inputs.shape[0]
        self.ledger.add("crossbar_cell_access", self.n_rows * self.n_cols * batch)
        self.ledger.add("dac_drive", self.n_rows * batch)
        return merge_leading_axes(lead, out)
