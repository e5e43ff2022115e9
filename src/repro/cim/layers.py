"""Deployed CIM layers: inference-only, numpy-level, fully accounted.

After training (with :mod:`repro.nn`), a model is *deployed*: binary
weights are programmed into XNOR crossbars (with variability and
defects applied at programming time), scales/batch-norm constants are
frozen into digital periphery, and inference runs through the analog
chain: wordline drive → current summation → ADC → digital
accumulate/scale/normalize → sign.  This mirrors the Fig. 2
architecture one-to-one.

All layers book operations on a shared :class:`OpLedger`, which the
energy model prices to regenerate Table I.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence

import numpy as np

from repro.cim.adc import PopcountADC
from repro.cim.crossbar import (
    AnalogCrossbar,
    XnorCrossbar,
    merge_leading_axes,
    split_leading_axes,
)
from repro.cim.ledger import OpLedger
from repro.cim.mapping import (
    ConvShape,
    MappingPlan,
    MappingStrategy,
    _chunk,
    plan_conv_mapping,
)
from repro.devices.arbiter import SpintronicArbiter
from repro.devices.defects import DefectModel
from repro.devices.mtj import MTJParams
from repro.devices.variability import DeviceVariability
from repro.tensor import bitpack
from repro.tensor.functional import _gather_padded_patches


class CimConfig:
    """Deployment configuration shared by all layers of a network."""

    def __init__(self,
                 mtj_params: Optional[MTJParams] = None,
                 variability: Optional[DeviceVariability] = None,
                 defects: Optional[DefectModel] = None,
                 adc_bits: int = 6,
                 max_rows: int = 128,
                 max_cols: int = 128,
                 wire_resistance: float = 0.0,
                 mapping_strategy: MappingStrategy = MappingStrategy.UNFOLDED_COLUMN,
                 seed: Optional[int] = None):
        self.mtj_params = mtj_params or MTJParams()
        self.variability = variability
        self.defects = defects
        self.adc_bits = adc_bits
        self.max_rows = max_rows
        self.max_cols = max_cols
        self.wire_resistance = wire_resistance
        self.mapping_strategy = mapping_strategy
        self.rng = np.random.default_rng(seed)


class CimLayer:
    """Base class: every deployed stage shares the network ledger."""

    def __init__(self, ledger: OpLedger):
        self.ledger = ledger

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class CrossbarGrid:
    """A ±1 ``(K, C)`` matrix tiled onto XNOR crossbars (Figs. 1–2).

    The matrix is cut into ``row_chunks`` × ``col_chunks`` tiles, one
    :class:`XnorCrossbar` each (``bars[i][j]``, programmed in that
    order, which fixes the order of the programming RNG draws).  Each
    row chunk's partial MAC is read through its own
    :class:`PopcountADC` (``adcs[i]``) and accumulated digitally.
    ``program=False`` builds the arrays without programming them (no
    RNG draws, no ``mtj_write``) so :meth:`load_state` can install
    captured conductance state verbatim — the snapshot restore path.

    :meth:`mvm` picks one of three routes per row chunk and call:

    * the *analog* reference (:meth:`XnorCrossbar.mvm_cols`): current
      summation, IR drop, read noise and decode;
    * when ``exact`` (every array ideal, see
      :attr:`XnorCrossbar.is_ideal`), the *exact-integer* routes.  An
      ideal array's decoded MAC is a small integer (|MAC| <= rows <<
      2^24) that float32 represents exactly, and they book the same
      ledger entries as the analog chain.
      :func:`repro.tensor.bitpack.packed_route_beneficial` chooses
      between the bit-packed XNOR kernel
      (:meth:`XnorCrossbar.mvm_packed`, which wins only on a few rows
      against a wide tile) and a float32 GEMM.  Both yield the same
      integer partial sums, which :class:`PopcountADC` quantizes in
      float32 with the float64 result.

    The analog chain decodes an ideal array's MAC with ~1e-13 of
    float64 noise that depends on the GEMM's shape.  With an odd ADC
    step ``rint(mac / step)`` never lands on a rounding tie, so that
    noise never shows; with an even step an odd MAC ties exactly, and
    the noise would decide the rounding differently for a pass run
    alone and for passes stacked into one GEMM.  So an ideal array
    takes the exact route whatever its step: ties round half to even
    and the stacked engine matches the sequential one bit for bit.

    An exact grid also serves *channel-gated* drives, where MC pass
    ``p`` asserts only the wordline groups of the input channels that
    ``keep[p]`` keeps (Spatial-SpinDrop in front of a conv).
    :meth:`mvm_gated` computes every channel's partial MAC once from
    the pass-invariant drive, forms each pass's partial sum as
    ``Σ_c keep[p, c] · partial_c`` and reads it through the same ADCs
    and ledger bookings as :meth:`mvm`.  The regrouped sum holds the
    same integers as the GEMM on the gated drive, so the result is
    bit-identical.
    """

    def __init__(self, weights: np.ndarray, row_chunks, col_chunks,
                 config: CimConfig, ledger: OpLedger, program: bool = True):
        if program and not np.all(np.isin(weights, (-1.0, 1.0))):
            raise ValueError("crossbar grids store ±1 weights only")
        self.row_chunks = list(row_chunks)
        self.col_chunks = list(col_chunks)
        self.bars: List[List[XnorCrossbar]] = []
        self.adcs: List[PopcountADC] = []
        for r0, r1 in self.row_chunks:
            row = []
            for c0, c1 in self.col_chunks:
                bar = XnorCrossbar(
                    r1 - r0, c1 - c0,
                    mtj_params=config.mtj_params,
                    variability=config.variability,
                    defects=config.defects,
                    wire_resistance=config.wire_resistance,
                    rng=config.rng, ledger=ledger)
                if program:
                    bar.program(weights[r0:r1, c0:c1])
                row.append(bar)
            self.bars.append(row)
            self.adcs.append(PopcountADC(config.adc_bits, r1 - r0,
                                         ledger=ledger))
        self.exact = all(bar.is_ideal for row in self.bars for bar in row)

    @property
    def dtype(self) -> np.dtype:
        """The drive dtype :meth:`mvm` expects: float32 on the exact
        routes, float64 on the analog one."""
        return np.dtype(np.float32 if self.exact else np.float64)

    def mvm(self, drive: np.ndarray, out: np.ndarray) -> None:
        """Add the ADC-read MAC of a ``(K, B)`` drive to ``out`` ``(C, B)``.

        ``drive`` is column-major {−1, 0, +1} of dtype :attr:`dtype`
        holding no −0.0 (``np.sign`` maps −0.0 to +0.0); a zero leaves
        its wordline pair undriven, which is how dropout reaches the
        array.  The float32 route counts asserted wordlines on the
        ``int32`` view of the drive, whose bits are all zero only for
        +0.0.
        """
        n_cols, batch = out.shape
        partial = np.empty((n_cols, batch), dtype=drive.dtype)
        for (r0, r1), bars, adc in zip(self.row_chunks, self.bars,
                                       self.adcs):
            chunk = drive[r0:r1]
            if not self.exact:
                pos = (chunk > 0).astype(np.float64)
                neg = (chunk < 0).astype(np.float64)
                n_active = (pos + neg).sum(axis=0)
                for bar, (c0, c1) in zip(bars, self.col_chunks):
                    partial[c0:c1] = bar.mvm_cols(pos, neg, n_active)
            elif bitpack.packed_route_beneficial(batch, r1 - r0, n_cols):
                # The policy only packs a few rows: pack them row-major.
                planes = bitpack.pack_ternary_rows(chunk.T)
                for bar, (c0, c1) in zip(bars, self.col_chunks):
                    bar.mvm_packed(planes, out=partial[c0:c1].T)
            else:
                total_active = int(np.count_nonzero(chunk.view(np.int32)))
                for bar, (c0, c1) in zip(bars, self.col_chunks):
                    np.matmul(bar.signed_weights_t(), chunk,
                              out=partial[c0:c1])
                    bar.book_mvm(total_active)
            out += adc.convert(partial)

    def mvm_gated(self, drive: np.ndarray, width: int, keep: np.ndarray,
                  out: np.ndarray) -> None:
        """Add each pass's ADC-read MAC of a channel-gated drive to ``out``.

        ``drive`` is a float32 ``(…, K, B)`` stack of pass-invariant
        drives (as for :meth:`mvm`, leading axes optional) whose rows
        are channel-major, ``width`` rows per input channel; ``keep`` is
        a float32 ``(P, channels)`` bank of 0/1, row ``p`` the channels
        pass ``p`` drives; ``out`` is ``(P, …, C, B)``.  A row chunk
        need not hold whole channels (``max_rows`` need not be a
        multiple of ``width``), so each chunk is cut into channel
        segments, whose partial MACs on the chunk's arrays are computed
        once and contracted right away.  Pass ``p``'s partial sum
        ``Σ_c keep[p, c] · partial_c`` holds the integers the float32
        route of :meth:`mvm` computes on the gated drive: every term is
        an integer and every sum is bounded by the chunk's row count,
        far below 2^24, so the regrouping rounds nothing.  Each array
        books the asserted wordlines of every pass,
        ``Σ_p Σ_c keep[p, c] · active_c``, as :meth:`mvm` would.
        """
        if not self.exact:
            raise ValueError("channel-gated MVMs need an exact grid")
        n_cols, lead = self.col_chunks[-1][1], drive.shape[:-2]
        row_axis = drive.ndim - 2
        active_rows = np.count_nonzero(
            drive.view(np.int32),
            axis=tuple(a for a in range(drive.ndim) if a != row_axis))
        passes = keep.shape[0]
        kept = np.count_nonzero(keep, axis=0)
        for (r0, r1), bars, adc in zip(self.row_chunks, self.bars,
                                       self.adcs):
            c0, c1 = r0 // width, -(-r1 // width)
            part = np.empty((c1 - c0,) + lead + (n_cols, drive.shape[-1]),
                            dtype=np.float32)
            active = np.empty(c1 - c0, dtype=np.int64)
            for k, channel in enumerate(range(c0, c1)):
                s0 = max(r0, channel * width)
                s1 = min(r1, (channel + 1) * width)
                active[k] = active_rows[s0:s1].sum()
                for bar, (j0, j1) in zip(bars, self.col_chunks):
                    np.matmul(bar.signed_weights_t()[:, s0 - r0:s1 - r0],
                              drive[..., s0:s1, :],
                              out=part[k, ..., j0:j1, :])
            psum = np.matmul(keep[:, c0:c1], part.reshape(c1 - c0, -1))
            total_active = int(kept[c0:c1] @ active)
            for bar in bars:
                bar.book_mvm(total_active)
            psum = psum.reshape((passes,) + part.shape[1:])
            out += adc.convert(psum, out=psum)

    def state_dict(self, first: int) -> dict:
        """Every array's state as ``xb{f}_{j}_{key}``, ``f`` counting
        row chunks from ``first``."""
        return {f"xb{f}_{j}_{key}": value
                for f, row in enumerate(self.bars, first)
                for j, bar in enumerate(row)
                for key, value in bar.state_dict().items()}

    def load_state(self, arrays, first: int) -> None:
        """Install state saved by :meth:`state_dict` (no programming)."""
        for f, row in enumerate(self.bars, first):
            for j, bar in enumerate(row):
                key = f"xb{f}_{j}_"
                bar.load_state({
                    "weights": arrays[key + "weights"],
                    "g_direct": arrays[key + "g_direct"],
                    "g_complement": arrays[key + "g_complement"],
                    "w_packed_t": arrays.get(key + "w_packed_t"),
                })


class _GridLayer(CimLayer):
    """What :class:`CimLinear` and :class:`CimConv2d` share: crossbar
    grids (``grids``), the digital scale/bias epilogue and the snapshot
    layout.  The grids of one layer share one plan, so row chunk ``i``
    of grid ``g`` is saved as ``xb{g·n_row_chunks + i}_…``."""

    grids: List[CrossbarGrid]

    def __init__(self, scale: Optional[np.ndarray],
                 bias: Optional[np.ndarray], ledger: OpLedger):
        super().__init__(ledger)
        self.scale = None if scale is None else np.asarray(scale, dtype=np.float64)
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float64)

    @property
    def n_crossbars(self) -> int:
        return sum(len(row) for grid in self.grids for row in grid.bars)

    @property
    def exact(self) -> bool:
        """Whether every grid takes the exact-integer routes."""
        return all(grid.exact for grid in self.grids)

    def _state_arrays(self) -> dict:
        arrays = {}
        if self.scale is not None:
            arrays["scale"] = self.scale
        if self.bias is not None:
            arrays["bias"] = self.bias
        for g, grid in enumerate(self.grids):
            arrays.update(grid.state_dict(g * len(grid.bars)))
        return arrays

    def _load_grids(self, arrays) -> None:
        for g, grid in enumerate(self.grids):
            grid.load_state(arrays, g * len(grid.bars))

    def _scale_bias(self, out: np.ndarray) -> None:
        """The digital epilogue, in place on the ``(…, C, B)``
        accumulator."""
        if self.scale is not None:
            out *= self.scale[:, None]
            self.ledger.add("digital_mac", out.size)
        if self.bias is not None:
            out += self.bias[:, None]
            self.ledger.add("digital_op", out.size)


class CimLinear(_GridLayer):
    """Binary linear layer: one :class:`CrossbarGrid` and the scale/bias
    epilogue.

    The logical (in_features × out_features) weight matrix is tiled
    onto physical arrays of at most (max_rows × max_cols); the grid
    picks the crossbar route.  A zero input (a neuron dropped
    upstream) leaves its wordline undriven.
    """

    def __init__(self, binary_weights: np.ndarray,
                 scale: Optional[np.ndarray],
                 bias: Optional[np.ndarray],
                 config: CimConfig, ledger: OpLedger,
                 program: bool = True):
        super().__init__(scale, bias, ledger)
        weights = np.asarray(binary_weights, dtype=np.float64)  # (out, in)
        self.out_features, self.in_features = weights.shape
        self.grid = CrossbarGrid(
            weights.T, _chunk(self.in_features, config.max_rows),
            _chunk(self.out_features, config.max_cols), config, ledger,
            program)
        self.grids = [self.grid]

    # ------------------------------------------------------------------
    def state_dict(self):
        """(meta, arrays) split of the programmed layer state."""
        meta = {
            "type": "cim_linear",
            "out_features": self.out_features,
            "in_features": self.in_features,
        }
        return meta, self._state_arrays()

    @classmethod
    def from_state(cls, meta, arrays, config: CimConfig,
                   ledger: OpLedger) -> "CimLinear":
        """Rebuild the layer around captured crossbar state (no
        programming: no RNG consumption, no ``mtj_write``)."""
        weights = np.empty((meta["out_features"], meta["in_features"]))
        self = cls(weights, arrays.get("scale"), arrays.get("bias"),
                   config, ledger, program=False)
        self._load_grids(arrays)
        return self

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        lead, x = split_leading_axes(x, 1)   # e.g. (T, N, F) sample axis
        # Binarize before the cast: a denormal that underflows to 0.0
        # in float32 must still drive its wordline.
        drive = np.sign(x).astype(self.grid.dtype, copy=False).T
        out = np.zeros((self.out_features, x.shape[0]))
        self.grid.mvm(drive, out)
        self._scale_bias(out)
        # A contiguous copy: a transposed view would change the
        # reduction order of the stages downstream (the softmax).
        return merge_leading_axes(lead, np.ascontiguousarray(out.T))


class CimConv2d(_GridLayer):
    """Binary convolution on crossbars under a Fig.-1 mapping plan.

    The im2col gather, one :class:`CrossbarGrid` per channel group and
    the scale/bias epilogue.  Im2col makes the analog MAC the same
    XNOR popcount as :class:`CimLinear`; the mapping plan sets each
    grid's row chunking (and therefore the partial-sum count, ADC
    conversions, and where the spatial-dropout modules sit).
    ``dilation`` only changes the im2col geometry feeding the
    wordlines, and a dropped (zeroed) input feature map leaves its
    whole wordline group undriven.

    The gather copies strided slices into the per-thread scratch
    arenas of :mod:`repro.tensor.functional`, in the dtype of the
    grids' route, so a warm engine (batched MC, serving flushes)
    reuses its patch slab and builds no index plan.

    ``forward(x, keep=bank)`` runs a channel-wise :class:`DropoutGate`
    and this conv as one *gated conv* on exact grids: ``x`` holds the
    N pass-invariant images, ``bank`` one keep row per MC pass, and
    the patches are gathered once from the N images instead of from
    P·N gated copies; each channel's partial MACs are computed once
    per call (see :meth:`CrossbarGrid.mvm_gated`).
    """

    def __init__(self, binary_weights: np.ndarray,
                 scale: Optional[np.ndarray],
                 bias: Optional[np.ndarray],
                 stride: int, padding: int,
                 config: CimConfig, ledger: OpLedger,
                 dilation: int = 1, groups: int = 1,
                 program: bool = True):
        super().__init__(scale, bias, ledger)
        weights = np.asarray(binary_weights, dtype=np.float64)
        self.c_out, c_in_pg, self.kh, self.kw = weights.shape
        if self.kh != self.kw:
            raise ValueError("only square kernels supported")
        if groups < 1 or dilation < 1:
            raise ValueError("groups and dilation must be >= 1")
        if self.c_out % groups:
            raise ValueError(f"out_channels {self.c_out} not divisible "
                             f"by groups {groups}")
        self.c_in = c_in_pg * groups
        self.stride = stride
        self.padding = padding
        self.dilation = dilation
        self.groups = groups

        self.plan: MappingPlan = plan_conv_mapping(
            ConvShape(self.c_in, self.c_out, self.kh, groups=groups),
            config.mapping_strategy,
            max_rows=config.max_rows, max_cols=config.max_cols)
        # Grid g holds group g's unfolded (K²·C_in/g, C_out/g) matrix.
        self.grids = [
            CrossbarGrid(w.T, self.plan.row_chunks, self.plan.col_chunks,
                         config, ledger, program)
            for w in weights.reshape(groups, self.c_out // groups, -1)]

    # ------------------------------------------------------------------
    def state_dict(self):
        """(meta, arrays) split of the programmed layer state."""
        meta = {
            "type": "cim_conv2d",
            "c_out": self.c_out,
            "c_in": self.c_in,
            "kh": self.kh,
            "stride": self.stride,
            "padding": self.padding,
            "dilation": self.dilation,
            "groups": self.groups,
        }
        return meta, self._state_arrays()

    @classmethod
    def from_state(cls, meta, arrays, config: CimConfig,
                   ledger: OpLedger) -> "CimConv2d":
        """Rebuild the layer around captured crossbar state."""
        groups = meta["groups"]
        weights = np.empty((meta["c_out"], meta["c_in"] // groups,
                            meta["kh"], meta["kh"]))
        self = cls(weights, arrays.get("scale"), arrays.get("bias"),
                   meta["stride"], meta["padding"], config, ledger,
                   dilation=meta["dilation"], groups=groups,
                   program=False)
        self._load_grids(arrays)
        return self

    def _patches(self, x: np.ndarray):
        """Per-group ``(C_in/g·K², L·N)`` drives of ``(N, C, H, W)``
        images, and the output ``(out_h, out_w)``."""
        # Binarize in float64 (a denormal that underflows to 0.0 in
        # float32 must still drive its wordline) before the gather
        # casts to the route dtype, which one layer's grids share.
        gather_buf, out_h, out_w = _gather_padded_patches(
            np.sign(x), self.kh, self.kh, self.stride, self.padding,
            self.dilation, self.grids[0].dtype, tag="cim_conv")
        # im2col rows are channel-major, so each group's wordlines are
        # one contiguous block of the (C_in·K², L·N) patch slab.
        patches = gather_buf.reshape(
            self.groups, self.c_in // self.groups * self.kh ** 2,
            out_h * out_w * x.shape[0])
        return patches, (out_h, out_w)

    def forward(self, x, keep: Optional[np.ndarray] = None) -> np.ndarray:
        """The conv of ``x``: ``(N, C, H, W)``, or with leading sample axes.

        With ``keep``, a ``(P, C_in)`` bank of keep masks, one row per
        MC pass, ``x`` holds the ``(N, C, H, W)`` images a channel-wise
        :class:`DropoutGate` gates, and the result stacks the P passes
        pass-major, ``(P·N, C_out, H', W')``: bit for bit the gate's and
        this conv's stacked forward on ``x`` repeated P times, with the
        same ledger bookings except the gate's own.  The grids must be
        :attr:`exact` and the images finite (``0·NaN`` still drives a
        wordline in the stacked forward).
        """
        x = np.asarray(x, dtype=np.float64)
        if keep is not None:
            return self._forward_gated(x, np.asarray(keep))
        lead, x = split_leading_axes(x, 3)   # (T, N, C, H, W) sample axis
        n = x.shape[0]
        patches, (out_h, out_w) = self._patches(x)
        length = out_h * out_w
        out = np.zeros((self.groups, self.c_out // self.groups, length * n))
        for grid, drive, out_g in zip(self.grids, patches, out):
            grid.mvm(drive, out_g)
        out = out.reshape(self.c_out, length * n)
        self._scale_bias(out)
        out = np.ascontiguousarray(
            out.reshape(self.c_out, length, n).transpose(2, 0, 1)
        ).reshape(n, self.c_out, out_h, out_w)
        return merge_leading_axes(lead, out)

    def _forward_gated(self, x: np.ndarray, keep: np.ndarray) -> np.ndarray:
        if not self.exact:
            raise ValueError("a gated conv needs exact crossbar grids")
        if x.ndim != 4:
            raise ValueError("a gated conv expects (N, C, H, W) images")
        if keep.ndim != 2 or keep.shape[1] != self.c_in:
            raise ValueError(f"keep bank of shape {keep.shape} does not "
                             f"gate {self.c_in} input channels")
        n = x.shape[0]
        patches, (out_h, out_w) = self._patches(x)
        # One (C_in/g·K², L) drive per image, so that the partial MACs,
        # and with them the output, come out image-major.
        drives = np.ascontiguousarray(patches.reshape(
            self.groups, -1, out_h * out_w, n).transpose(0, 3, 1, 2))
        passes = keep.shape[0]
        keep = (keep > 0).astype(np.float32).reshape(passes, self.groups, -1)
        out = np.zeros((passes, n, self.groups, self.c_out // self.groups,
                        out_h * out_w))
        for g, (grid, drive) in enumerate(zip(self.grids, drives)):
            grid.mvm_gated(drive, self.kh ** 2, keep[:, g], out[:, :, g])
        out = out.reshape(passes, n, self.c_out, out_h * out_w)
        self._scale_bias(out)
        return out.reshape(passes * n, self.c_out, out_h, out_w)


def has_read_noise(variability: Optional[DeviceVariability]) -> bool:
    """Whether crossbars under ``variability`` draw fresh read noise on
    every readout, so that no two MC passes read the same array."""
    return variability is not None and variability.params.sigma_read > 0.0


class SpinBayesMvm(CimLayer):
    """One Fig.-3 layer: N analog crossbars and a stochastic arbiter.

    Each :class:`~repro.cim.crossbar.AnalogCrossbar` holds one quantized
    posterior realization of the layer's weights.  A single pass asks
    the arbiter for a one-hot selection (``component=`` pins one
    instead) and reads the chosen crossbar.  The batched MC engine
    installs ``selections``, one component per pass of the flattened
    ``(T·N, …)`` batch, the way a :class:`DropoutGate` takes a mask
    bank; :meth:`forward` then reads every pass's crossbar in one call
    (:meth:`forward_banked`).  The engine hands the first arbiter
    layer the N rows every pass shares instead (:meth:`forward_banked`
    on shared rows).
    """

    def __init__(self, components: List[np.ndarray],
                 bias: Optional[np.ndarray], n_levels: int,
                 config: CimConfig, ledger: OpLedger,
                 binarize_input: bool = False):
        if not components:
            raise ValueError("need at least one component")
        super().__init__(ledger)
        self.n_components = len(components)
        self.out_features = components[0].shape[0]
        self.bias = bias
        self.intended = [c.copy() for c in components]
        self.binarize_input = binarize_input
        v_min = float(min(c.min() for c in components))
        v_max = float(max(c.max() for c in components))
        self.crossbars: List[AnalogCrossbar] = []
        for weights in components:
            in_features = weights.shape[1]
            out_features = weights.shape[0]
            bar = AnalogCrossbar(
                in_features, out_features, n_levels=n_levels,
                mtj_params=config.mtj_params,
                variability=config.variability,
                defects=config.defects,
                rng=config.rng, ledger=ledger)
            bar.program(weights.T, v_min=v_min, v_max=v_max)
            self.crossbars.append(bar)
        if self.n_components > 1:
            self.arbiter = SpintronicArbiter(
                self.n_components, mtj_params=config.mtj_params,
                variability=config.variability, rng=config.rng)
        else:
            self.arbiter = None
        self.last_selected = 0
        self.selections: Optional[np.ndarray] = None
        self._values_stack: Optional[np.ndarray] = None

    @property
    def n_crossbars(self) -> int:
        return self.n_components

    # ------------------------------------------------------------------
    def state_dict(self):
        """Capture the layer as ``(meta, arrays)`` — the snapshot format.

        Everything stochastic (quantization noise, arbiter device
        realization) is already baked into the captured arrays, so
        :meth:`from_state` rebuilds the layer without consuming any RNG
        or booking ``mtj_write``.  The arbiter's *shared* software
        generator (``config.rng``) is not part of this state; the
        deployment snapshot owns the sharing topology.
        """
        meta = {
            "type": "spinbayes_mvm",
            "n_components": self.n_components,
            "out_features": self.out_features,
            "in_features": self.crossbars[0].n_rows,
            "n_levels": self.crossbars[0].n_levels,
            "binarize_input": self.binarize_input,
            "last_selected": self.last_selected,
            "v_min": [bar._v_min for bar in self.crossbars],
            "v_max": [bar._v_max for bar in self.crossbars],
        }
        arrays = {
            "g": np.stack([bar.state_dict()["g"] for bar in self.crossbars]),
            "intended": np.stack(self.intended),
        }
        if self.bias is not None:
            arrays["bias"] = self.bias
        if self.arbiter is not None:
            arb = self.arbiter.state_dict()
            bank = arb["stage_rng"]
            meta["arbiter"] = {
                "selections": arb["selections"],
                "stage_rng": {k: bank[k] for k in
                              ("n_modules", "target_p", "current",
                               "set_ops", "read_ops", "reset_ops")},
            }
            arrays["arbiter_weights"] = arb["weights"]
            arrays["arbiter_deltas"] = bank["deltas"]
            arrays["arbiter_effective_p"] = bank["effective_p"]
        return meta, arrays

    @classmethod
    def from_state(cls, meta: dict, arrays: dict, config: CimConfig,
                   ledger: OpLedger) -> "SpinBayesMvm":
        """Rebuild from captured state: no programming, no RNG draws."""
        self = cls.__new__(cls)
        CimLayer.__init__(self, ledger)
        self.n_components = int(meta["n_components"])
        self.out_features = int(meta["out_features"])
        self.bias = arrays.get("bias")
        self.intended = [np.asarray(c) for c in arrays["intended"]]
        self.binarize_input = bool(meta["binarize_input"])
        in_features = int(meta["in_features"])
        n_levels = int(meta["n_levels"])
        self.crossbars = []
        for k in range(self.n_components):
            bar = AnalogCrossbar(
                in_features, self.out_features, n_levels=n_levels,
                mtj_params=config.mtj_params,
                variability=config.variability,
                defects=config.defects,
                rng=config.rng, ledger=ledger)
            bar.load_state({"g": arrays["g"][k],
                            "v_min": meta["v_min"][k],
                            "v_max": meta["v_max"][k]})
            self.crossbars.append(bar)
        if self.n_components > 1:
            # variability=None skips the constructor's delta draws; the
            # captured realization is installed right after.
            self.arbiter = SpintronicArbiter(
                self.n_components, mtj_params=config.mtj_params,
                variability=None, rng=config.rng)
            arb_meta = meta["arbiter"]
            bank = dict(arb_meta["stage_rng"])
            bank["deltas"] = arrays["arbiter_deltas"]
            bank["effective_p"] = arrays["arbiter_effective_p"]
            self.arbiter.load_state({
                "weights": arrays["arbiter_weights"],
                "selections": arb_meta["selections"],
                "stage_rng": bank,
            })
            self.arbiter._stage_rng.variability = config.variability
        else:
            self.arbiter = None
        self.last_selected = int(meta["last_selected"])
        self.selections = None
        self._values_stack = None
        return self

    def _component_values(self) -> np.ndarray:
        """Cached (n_components, in, out) stack of decoded MVM operands."""
        if self._values_stack is None:
            self._values_stack = np.stack(
                [bar.mvm_values() for bar in self.crossbars])
        return self._values_stack

    def forward(self, x: np.ndarray, component: Optional[int] = None
                ) -> np.ndarray:
        """One pass on the arbiter's pick (or ``component``), or every
        pass of the installed ``selections`` bank."""
        if self.selections is not None:
            return self.forward_banked(
                x, self.selections, x.shape[0] // self.selections.size)
        if component is None:
            if self.arbiter is not None:
                component = self.arbiter.select()
                self.ledger.add("rng_cycle", self.arbiter.cycles_per_selection)
            else:
                component = 0
        self.last_selected = component
        if self.binarize_input:
            x = np.sign(x)
        out = self.crossbars[component].matvec(x)
        self.ledger.add("adc_conversion", out.size)
        if self.bias is not None:
            out = out + self.bias
            self.ledger.add("digital_op", out.size)
        return out

    def forward_banked(self, x: np.ndarray, selections: np.ndarray,
                       rows_per_pass: int) -> np.ndarray:
        """Stacked forward over P pre-drawn component selections, one
        per pass; returns the (P·N, C) pass-major readouts.

        ``x`` is either the (P·N, F) pass-major stack or the N rows
        every pass reads (``rows_per_pass`` of them: the first arbiter
        layer's pass-invariant input); any other row count raises.

        Without read noise the decoded MVM operand of every component
        is deterministic and cached, so each product is one plain
        ``(N, F) @ (F, C)`` against a component's pre-decoded matrix —
        the *same shapes and operand values* the sequential loop feeds
        BLAS, hence bit-for-bit equal output (stacking passes into
        taller matmuls is faster still, but GEMM summation order — and
        therefore the last ulp — depends on the row count, and the
        downstream sign activation amplifies that ulp into a different
        network output).  Shared rows are binarized once and multiplied
        once per distinct selected component, with the bias added once
        per product; every pass then copies its component's block.
        A stack takes one product per pass.  Cell accesses, DAC drives,
        ADC conversions and bias ops are booked for all P·N rows
        either way, as the hardware's P readouts cost them.  With read
        noise each pass must re-draw the conductance fluctuation, so
        the layer falls back to one :meth:`AnalogCrossbar.matvec` call
        per pass, in pass order: the noise stream is consumed
        draw-for-draw as P :meth:`forward` calls consume it, and passes
        that select one component still read it through fresh noise.
        The arbiter's RNG cycles are booked at selection-draw time by
        the network.
        """
        selections = np.asarray(selections, dtype=np.int64)
        n_passes = selections.size
        shared = x.shape[0] == rows_per_pass
        if not shared and x.shape[0] != n_passes * rows_per_pass:
            raise ValueError(
                f"stacked batch {x.shape[0]} is neither {rows_per_pass} "
                f"shared rows nor {n_passes} passes x {rows_per_pass} rows")
        if self.binarize_input:
            x = np.sign(x)
        rows = n_passes * rows_per_pass
        blocks = None        # pass → product block, when passes share one
        if has_read_noise(self.crossbars[0].variability):
            out3 = np.empty((n_passes, rows_per_pass, self.out_features))
            for t, component in enumerate(selections):
                drive = x if shared else \
                    x[t * rows_per_pass:(t + 1) * rows_per_pass]
                out3[t] = self.crossbars[component].matvec(drive)
        else:
            values = self._component_values()
            in_features = values.shape[1]
            if shared:
                picked, blocks = np.unique(selections, return_inverse=True)
                drives = [x] * picked.size
            else:
                picked = selections
                drives = x.reshape(n_passes, rows_per_pass, in_features)
            out3 = np.empty((picked.size, rows_per_pass, self.out_features))
            for i, component in enumerate(picked):
                np.matmul(drives[i], values[component], out=out3[i])
            self.ledger.add("crossbar_cell_access",
                            in_features * self.out_features * rows)
            self.ledger.add("dac_drive", in_features * rows)
        self.last_selected = int(selections[-1])
        self.ledger.add("adc_conversion", rows * self.out_features)
        if self.bias is not None:
            out3 += self.bias
            self.ledger.add("digital_op", rows * self.out_features)
        if blocks is not None:
            out3 = out3[blocks]
        return out3.reshape(rows, self.out_features)


_SIGN_BIT = np.uint64(1 << 63)
_ALL_BITS = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
_SHIFT = np.uint64(63)
_ONE = np.uint64(1)


def _float_keys(x: np.ndarray) -> np.ndarray:
    """Order-preserving uint64 keys of float64 values: neighbouring
    non-NaN floats get neighbouring keys, −0.0 the one below +0.0, and
    ``key(−x) == ~key(x)``.  :func:`_key_floats` inverts it."""
    bits = np.asarray(x, dtype=np.float64).view(np.uint64)
    return bits ^ ((bits >> _SHIFT) * _ALL_BITS | _SIGN_BIT)


def _key_floats(keys: np.ndarray) -> np.ndarray:
    return (keys ^ (((keys >> _SHIFT) ^ _ONE) * _ALL_BITS | _SIGN_BIT)
            ).view(np.float64)


_KEY_MIN, _KEY_MAX = _float_keys(np.array([-np.inf, np.inf]))
# Key offsets a threshold search probes in one evaluation: doubling
# distances from the root (2^0 … 2^62), then evenly spaced steps.
_LADDER = _ONE << np.arange(63, dtype=np.uint64)
_DOWN_UP = np.array([[-np.inf], [np.inf]])
_SPREAD = np.arange(1, 64, dtype=np.uint64)


class FrozenNorm(CimLayer):
    """Batch/inverted normalization frozen to running statistics.

    Deployment form of both BatchNorm and InvertedNorm: a per-feature
    affine ``(x · g + b − mu) / sigma`` (inverted order) or
    ``(x − mu) / sigma · g + b`` (standard order), computed digitally.
    Affine-dropout masks are applied by the Bayesian wrapper through
    ``gamma_multiplier`` / ``beta_multiplier`` — scalars for one MC
    pass, or 1-D arrays of per-row values (one entry per sample of a
    flattened ``(T·N, …)`` batch) in the batched MC engine.

    A :class:`DigitalSign` behind a norm reads one bit per feature, and
    that bit is a threshold compare on the norm's input:
    :meth:`sign_thresholds` derives the thresholds from this norm's own
    arithmetic, and the batched MC engines run the pair as one
    :class:`SignFold`.  :meth:`forward` stays the arithmetic, which the
    sequential loops and :meth:`CimNetwork.forward` run.
    """

    def __init__(self, mean: np.ndarray, var: np.ndarray,
                 gamma: Optional[np.ndarray], beta: Optional[np.ndarray],
                 eps: float, spatial: bool, inverted: bool,
                 ledger: OpLedger):
        super().__init__(ledger)
        self.mean = np.asarray(mean, dtype=np.float64)
        self.std = np.sqrt(np.asarray(var, dtype=np.float64) + eps)
        self.gamma = None if gamma is None else np.asarray(gamma, np.float64)
        self.beta = None if beta is None else np.asarray(beta, np.float64)
        self.spatial = spatial
        self.inverted = inverted
        self.gamma_multiplier: float | np.ndarray = 1.0
        self.beta_multiplier: float | np.ndarray = 1.0

    def state_dict(self):
        meta = {"type": "frozen_norm", "spatial": self.spatial,
                "inverted": self.inverted}
        arrays = {"mean": self.mean, "std": self.std}
        if self.gamma is not None:
            arrays["gamma"] = self.gamma
        if self.beta is not None:
            arrays["beta"] = self.beta
        return meta, arrays

    @classmethod
    def from_state(cls, meta, arrays, config: CimConfig,
                   ledger: OpLedger) -> "FrozenNorm":
        self = cls(arrays["mean"], np.zeros_like(arrays["mean"]),
                   arrays.get("gamma"), arrays.get("beta"), 0.0,
                   meta["spatial"], meta["inverted"], ledger)
        # Install the captured std verbatim — sqrt(var + eps) need not
        # round-trip bit-exactly through var = std².
        self.std = np.asarray(arrays["std"], dtype=np.float64)
        return self

    def _shape(self, x: np.ndarray) -> tuple:
        return (1, -1, 1, 1) if x.ndim == 4 else (1, -1)

    @staticmethod
    def _per_row(multiplier, x: np.ndarray):
        """Align a per-row multiplier bank against the batch axis."""
        if isinstance(multiplier, float) or np.ndim(multiplier) == 0:
            return multiplier
        return np.asarray(multiplier, dtype=np.float64).reshape(
            (-1,) + (1,) * (x.ndim - 1))

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self._normalize(x)
        self.ledger.add("digital_mac", x.size)
        return out

    def _normalize(self, x: np.ndarray) -> np.ndarray:
        """The normalized ``x``, unbooked: the one place the order of
        the per-element operations lives, shared by :meth:`forward` and
        :meth:`sign_thresholds`."""
        shape = self._shape(x)
        mean = self.mean.reshape(shape)
        std = self.std.reshape(shape)
        gamma = None if self.gamma is None else self.gamma.reshape(shape)
        beta = None if self.beta is None else self.beta.reshape(shape)
        if gamma is not None:
            # Affine-dropout semantics: dropped gamma -> identity (1),
            # dropped beta -> zero.
            gm = self._per_row(self.gamma_multiplier, x)
            gamma = gamma * gm + (1.0 - gm)
        if beta is not None:
            beta = beta * self._per_row(self.beta_multiplier, x)
        # Only the first operation allocates; the rest update that
        # array in place.  The input is never written: it may be the
        # caller's array or the prefix broadcast across MC passes.
        if self.inverted:
            if gamma is not None:
                out = x * gamma
                if beta is not None:
                    out += beta
                out -= mean
            elif beta is not None:
                out = x + beta
                out -= mean
            else:
                out = x - mean
            out /= std
        else:
            out = x - mean
            out /= std
            if gamma is not None:
                out *= gamma
            if beta is not None:
                out += beta
        return out

    def sign_foldable(self) -> bool:
        """Whether :meth:`sign_thresholds` exists: μ, σ and any γ and β
        of one shape, every one finite, every σ positive, no γ zero, and
        the γ/β multipliers at 1 (as on a norm no affine dropout
        drives)."""
        params = [p for p in (self.mean, self.std, self.gamma, self.beta)
                  if p is not None]
        return bool(isinstance(self.gamma_multiplier, float)
                    and isinstance(self.beta_multiplier, float)
                    and self.gamma_multiplier == 1.0 == self.beta_multiplier
                    and len({p.shape for p in params}) == 1
                    and np.isfinite(np.concatenate(
                        [p.ravel() for p in params])).all()
                    and (self.std > 0).all()
                    and (self.gamma is None or self.gamma.all()))

    def sign_thresholds(self):
        """Per-feature thresholds of ``DigitalSign`` on this norm's output.

        Returns ``(lo, hi)``: on a feature with γ > 0 (or no γ) the sign
        reads +1 exactly where ``x >= lo``, on one with γ < 0 exactly
        where ``x <= hi``; the other array holds NaN on that feature, a
        bound no ``x`` meets, and is None when no feature uses it.  A
        NaN ``x`` reads −1 either way, as ``NaN >= 0`` is false.  (A
        feature that read +1 on every non-NaN ``x`` would get a ``∓inf``
        bound, one that read −1 on all a NaN one; with finite parameters
        ±inf normalize to ±inf, so neither occurs.)

        Why it is exact: each step of :meth:`_normalize` is one
        correctly rounded IEEE operation with a constant, and rounding
        is monotone, so each step is non-decreasing in ``x`` except a
        multiplication by γ < 0, which reverses the order.  On the
        ordered non-NaN float64 values, ±inf included, the output is
        therefore monotone per feature, and ``>= 0`` holds on an upper
        (γ > 0) or lower (γ < 0) set of them, cut at one float.  −0.0
        and +0.0 compare equal and normalize to equal reals, so the cut
        never separates them.

        Returns None where that argument fails, and the norm must keep
        its arithmetic: a γ of zero (the output is constant for finite
        ``x`` and NaN at ±inf), a σ that is not positive, or a
        non-finite μ, σ, γ or β; and on a norm whose γ/β multipliers
        are not 1, which an affine dropout drives per pass.

        The search evaluates :meth:`_normalize` itself.  One evaluation,
        all features at once, reads the analytic root, ``μ − β·σ/γ`` (or
        ``(μ − β)/γ`` in inverted order), and the two floats either side
        of it, which settles most features; :meth:`_search` finds the
        rest.
        """
        return sign_thresholds_of([self])[0] if self.sign_foldable() else None

    def _sign_cut(self):
        """Per feature, the cut float, and which features have γ < 0
        (None if none does), for a norm :meth:`sign_foldable` accepts
        whose parameters are flat."""
        mean, std = self.mean, self.std
        gamma = 1.0 if self.gamma is None else self.gamma
        beta = 0.0 if self.beta is None else self.beta
        with np.errstate(all="ignore"):
            root = ((mean - beta) / gamma if self.inverted
                    else mean - beta * std / gamma)
            # The root and two floats either side of it, ascending.
            probe = np.empty((5,) + root.shape)
            probe[2] = root
            np.nextafter(root, _DOWN_UP, out=probe[1::2])
            np.nextafter(probe[1::2], _DOWN_UP, out=probe[0::4])
            plus = self._normalize(probe) >= 0
        falling = None if self.gamma is None else self.gamma < 0
        if falling is not None and not falling.any():
            falling = None
        # Reads are monotone down a column, so the window holds the cut
        # where its ends differ: the first +1 probe of a rising feature,
        # the last of a falling one.
        cut = np.where(plus, probe, np.inf).min(axis=0)
        if falling is not None:
            cut = np.where(falling,
                           np.where(plus, probe, -np.inf).max(axis=0), cut)
        open_ = np.flatnonzero(plus[0] == plus[-1])
        if open_.size:
            # The rest search on this norm cut down to those features:
            # the same arithmetic on fewer columns.
            sub = copy.copy(self)
            for name in ("mean", "std", "gamma", "beta"):
                if getattr(self, name) is not None:
                    setattr(sub, name, getattr(self, name)[open_])
            cut[open_] = sub._search(
                root[open_], plus[2, open_],
                np.zeros(open_.size, bool) if falling is None
                else falling[open_])
        return cut, falling

    def _search(self, root, plus, falling):
        """The cut of each feature from its root and the root's read.

        Runs on order-preserving integer keys of the floats, flipped on
        falling features so that every feature reads −1 below its cut
        key and +1 from it on.  A bracket starts between the root and
        the end it reads towards, takes one evaluation of a ladder of
        doubling distances from the root, then narrows 64-fold per
        evaluation until it holds adjacent keys."""
        # XOR with all ones maps key(x) to key(−x).
        flip = falling * _ALL_BITS
        start = _float_keys(root) ^ flip
        # Below −inf every feature reads −1, above +inf +1: the virtual
        # keys _KEY_MIN − 1 and _KEY_MAX + 1 close either end.
        lo = np.where(plus, _KEY_MIN - _ONE, start)
        hi = np.where(plus, start, _KEY_MAX + _ONE)
        span = hi - lo
        ladder = np.minimum(_LADDER[:, None], span - _ONE)
        probes = np.where(plus, hi - ladder[::-1], lo + ladder)
        while True:
            with np.errstate(all="ignore"):
                reads = self._normalize(_key_floats(probes ^ flip)) >= 0
            # Monotone down a column: its count of −1s indexes its
            # first +1.
            first = np.count_nonzero(~reads, axis=0)
            cols = np.arange(first.size)
            last = len(probes) - 1
            lo = np.where(first > 0, probes[first - 1, cols], lo)
            hi = np.where(first <= last,
                          probes[np.minimum(first, last), cols], hi)
            span = hi - lo
            if span.max() <= _ONE:
                break
            step = np.maximum(span >> np.uint64(6), _ONE)
            probes = lo + np.minimum(step * _SPREAD[:, None], span - _ONE)
        return np.where(hi > _KEY_MAX, np.nan, _key_floats(hi ^ flip))


def sign_thresholds_of(norms: Sequence[FrozenNorm]) -> list:
    """:meth:`FrozenNorm.sign_thresholds` of norms that
    :meth:`FrozenNorm.sign_foldable` accepts, in order.

    Norms of one arithmetic form (order, and whether γ and β are
    present) are searched as one norm over their concatenated
    features: the same per-feature arithmetic, evaluated in one pass.
    """
    forms: dict = {}
    for norm in norms:
        form = (norm.inverted, norm.gamma is None, norm.beta is None)
        forms.setdefault(form, []).append(norm)
    found = {}
    for group in forms.values():
        merged = copy.copy(group[0])
        for name in ("mean", "std", "gamma", "beta"):
            if getattr(merged, name) is not None:
                setattr(merged, name, np.concatenate(
                    [getattr(norm, name).ravel() for norm in group]))
        cuts, falling = merged._sign_cut()
        end = 0
        for norm in group:
            start, end = end, end + norm.mean.size
            cut = cuts[start:end]
            fall = None if falling is None else falling[start:end]
            if fall is None or not fall.any():
                found[id(norm)] = (cut, None)
            elif fall.all():
                found[id(norm)] = (None, cut)
            else:
                found[id(norm)] = (np.where(fall, np.nan, cut),
                                   np.where(fall, cut, np.nan))
    return [found[id(norm)] for norm in norms]


class DropoutGate(CimLayer):
    """Dropout mask stage between CIM layers.

    A dropped neuron/feature-map outputs zero, which the next
    crossbar's wordline decoder interprets as "do not assert this row"
    (see :meth:`XnorCrossbar.matvec`), so masking here *is* the
    hardware gating of Fig. 1.  Pure zeroing — no inverted-dropout
    rescale — matching the training-side semantics.

    ``mask`` is set per pass by the Bayesian wrapper: shape (F,) for
    neuron masks, (C,) for channel masks (broadcast over H, W);
    ``None`` = deterministic pass-through.  The batched MC engine
    instead installs a 2-D mask *bank* — one row per sample of the
    flattened ``(T·N, …)`` batch — so all T per-pass masks apply in a
    single stacked multiply.  When a channel-wise gate feeds a
    :class:`CimConv2d` on exact grids, the engine skips this stage:
    the conv reads the gate's T-row per-pass bank as its ``keep``
    argument (a gated conv), and the engine books the gate's digital
    ops.
    """

    def __init__(self, p: float, channelwise: bool, ledger: OpLedger):
        super().__init__(ledger)
        self.p = p
        self.channelwise = channelwise
        self.mask: Optional[np.ndarray] = None

    def state_dict(self):
        return ({"type": "dropout_gate", "p": self.p,
                 "channelwise": self.channelwise}, {})

    @classmethod
    def from_state(cls, meta, arrays, config: CimConfig,
                   ledger: OpLedger) -> "DropoutGate":
        return cls(meta["p"], meta["channelwise"], ledger)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.mask is None:
            return x
        keep = (np.asarray(self.mask, dtype=np.float64) > 0).astype(np.float64)
        if self.channelwise and x.ndim != 4:
            raise ValueError("channelwise DropoutGate expects NCHW")
        if keep.ndim == 1:
            # One gating op per (sample, masked unit), as in hardware.
            self.ledger.add("digital_op", x.shape[0] * keep.size)
            if self.channelwise:
                return x * keep.reshape(1, -1, 1, 1)
            return x * keep
        if keep.shape[0] != x.shape[0]:
            raise ValueError(
                f"mask bank rows {keep.shape[0]} != batch {x.shape[0]}")
        self.ledger.add("digital_op", keep.size)
        if self.channelwise:
            return x * keep[:, :, None, None]
        return x * keep


class DigitalScale(CimLayer):
    """Scale-vector multiply from SRAM (the Fig. 2 scale path).

    Deployment form of ScaleDropout / BayesianScale: the scale vector
    is fetched from the 32-bit scale SRAM and multiplied into the
    accumulated MAC digitally.  ``multiplier`` is the per-pass
    stochastic modulation (scalar for Scale-Dropout, vector for a
    Bayesian-scale posterior sample) set by the Bayesian wrapper; the
    batched MC engine installs a 2-D bank instead — ``(rows, 1)`` for
    Scale-Dropout, ``(rows, F)`` for posterior samples, one row per
    sample of the flattened ``(T·N, …)`` batch.

    ``passes_per_call`` declares how many MC passes one forward call
    represents (T in the batched engine's stacked call, 1 under read
    noise and in the sequential loop), so the SRAM re-read each
    hardware pass performs stays booked identically whether the passes
    run sequentially or stacked.
    """

    def __init__(self, scale: np.ndarray, spatial: bool, ledger: OpLedger):
        super().__init__(ledger)
        self.scale = np.asarray(scale, dtype=np.float64)
        self.spatial = spatial
        self.multiplier: float | np.ndarray = 1.0
        self.passes_per_call: int = 1

    def state_dict(self):
        return ({"type": "digital_scale", "spatial": self.spatial},
                {"scale": self.scale})

    @classmethod
    def from_state(cls, meta, arrays, config: CimConfig,
                   ledger: OpLedger) -> "DigitalScale":
        return cls(arrays["scale"], meta["spatial"], ledger)

    def forward(self, x: np.ndarray) -> np.ndarray:
        effective = self.scale * self.multiplier
        self.ledger.add("sram_read", self.scale.size * self.passes_per_call)
        self.ledger.add("digital_mac", x.size)
        if effective.ndim > 1:        # per-row multiplier bank
            if effective.shape[0] != x.shape[0]:
                raise ValueError(
                    f"multiplier bank rows {effective.shape[0]} != "
                    f"batch {x.shape[0]}")
            if self.spatial:
                return x * effective[:, :, None, None]
            return x * effective
        if self.spatial:
            return x * effective.reshape(1, -1, 1, 1)
        return x * effective


class DigitalSign(CimLayer):
    """Sign activation taken by sense amplifiers (1-bit readout).

    ``x >= 0`` reads +1, anything else (NaN included) −1.  Behind a
    :class:`FrozenNorm`, the batched MC engines fold the pair (and a
    :class:`DigitalMaxPool` after it) into one :class:`SignFold`.
    """

    def state_dict(self):
        return {"type": "digital_sign"}, {}

    @classmethod
    def from_state(cls, meta, arrays, config: CimConfig,
                   ledger: OpLedger) -> "DigitalSign":
        return cls(ledger)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self.ledger.add("sa_read", x.size)
        # 2·[x >= 0] − 1 in place on the fresh cast: the values of
        # np.where(x >= 0, 1.0, -1.0), NaN -> −1 and −0.0 -> +1
        # included, at a quarter of its cost.
        out = np.greater_equal(x, 0).astype(np.float64)
        out *= 2.0
        out -= 1.0
        return out


class DigitalReLU(CimLayer):
    def state_dict(self):
        return {"type": "digital_relu"}, {}

    @classmethod
    def from_state(cls, meta, arrays, config: CimConfig,
                   ledger: OpLedger) -> "DigitalReLU":
        return cls(ledger)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self.ledger.add("digital_op", x.size)
        return np.maximum(x, 0.0)


class DigitalMaxPool(CimLayer):
    """Max over each ``kernel``×``kernel`` window of ``(N, C, H, W)``
    (a remainder row or column is dropped).  On the ±1 output of a
    :class:`DigitalSign` a window's max is +1 exactly when one of its
    values is, which is how a :class:`SignFold` pools its bits."""

    def __init__(self, kernel: int, ledger: OpLedger):
        super().__init__(ledger)
        self.kernel = kernel

    def state_dict(self):
        return {"type": "digital_maxpool", "kernel": self.kernel}, {}

    @classmethod
    def from_state(cls, meta, arrays, config: CimConfig,
                   ledger: OpLedger) -> "DigitalMaxPool":
        return cls(meta["kernel"], ledger)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = _pool_windows(x, self.kernel, np.maximum)
        self.ledger.add("digital_op", x.size)
        return out


def _pool_windows(x: np.ndarray, k: int, combine) -> np.ndarray:
    """Reduce each k×k window of ``(N, C, H, W)`` with ``combine``.

    Pairwise over the k² strided window slices: an order of magnitude
    faster than a multi-axis reduce over the 6-D window view on
    pass-stacked batches, and exact for an order-independent
    ``combine`` (``np.maximum`` on floats, ``np.logical_or`` on bits).
    """
    if x.ndim != 4:
        raise ValueError("DigitalMaxPool expects (N, C, H, W)")
    h2, w2 = x.shape[2] // k, x.shape[3] // k
    out: Optional[np.ndarray] = None
    for u in range(k):
        for v in range(k):
            s = x[:, :, u:h2 * k:k, v:w2 * k:k]
            out = s.copy() if out is None else combine(out, s, out=out)
    return out


class SignFold(CimLayer):
    """A ``FrozenNorm → DigitalSign (→ DigitalMaxPool)`` run as one
    per-feature compare: the readout a binary layer's periphery takes
    as one comparator per output channel.

    ``bits = x >= lo`` (``x <= hi`` on features whose γ < 0), with the
    thresholds of :meth:`FrozenNorm.sign_thresholds`, derived at the
    first call; a pool ORs the bits of each window, since a max over
    ±1 values is +1 exactly when one of them is; and the ±1 float64
    output is built once, at the pooled size.  Bit for bit the three
    stages' output, with what they book, each on its own input:
    ``digital_mac``, ``sa_read`` and ``digital_op``.  Only a norm that
    :meth:`FrozenNorm.sign_foldable` accepts folds; :func:`plan_steps`
    picks the runs of a batched MC engine, whose folds derive their
    thresholds in one search (:func:`sign_thresholds_of`, through
    ``group``).
    """

    def __init__(self, norm: FrozenNorm,
                 pool: Optional[DigitalMaxPool] = None):
        super().__init__(norm.ledger)
        self.norm = norm
        self.pool = pool
        self.n_stages = 2 if pool is None else 3
        self.thresholds: Optional[tuple] = None
        # The folds whose thresholds one search derives, at the first
        # call of any of them.
        self.group: List[SignFold] = [self]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.thresholds is None:
            bounds = sign_thresholds_of([fold.norm for fold in self.group])
            for fold, thresholds in zip(self.group, bounds):
                fold.thresholds = thresholds
        lo, hi = self.thresholds
        # Broadcast exactly as the norm broadcasts its parameters.
        shape = self.norm._shape(x)
        if lo is None:
            bits = np.less_equal(x, hi.reshape(shape))
        else:
            bits = np.greater_equal(x, lo.reshape(shape))
            if hi is not None:
                bits |= np.less_equal(x, hi.reshape(shape))
        self.ledger.add("digital_mac", x.size)
        self.ledger.add("sa_read", bits.size)
        if self.pool is not None:
            size = bits.size
            bits = _pool_windows(bits, self.pool.kernel, np.logical_or)
            self.ledger.add("digital_op", size)
        out = bits.astype(np.float64)
        out *= 2.0
        out -= 1.0
        return out


def plan_steps(stages: Sequence[CimLayer], bound=()) -> list:
    """The stages as a batched MC engine runs them: ``(index of the
    first stage, callable)`` pairs.

    Each :class:`FrozenNorm` that :meth:`FrozenNorm.sign_foldable`
    accepts, that no per-pass binding drives (``bound`` holds the ids
    of the stages one does) and that a :class:`DigitalSign` follows
    runs with that sign, and a :class:`DigitalMaxPool` right after it,
    as one :class:`SignFold`; every other stage runs as itself.  All
    the folds share one threshold search, at the first call of any of
    them.  Both deployed engines plan at build and snapshot restore.
    """
    steps: list = []
    idx = 0
    while idx < len(stages):
        step, run = stages[idx], stages[idx + 1:idx + 3]
        if (isinstance(step, FrozenNorm) and run
                and isinstance(run[0], DigitalSign)
                and id(step) not in bound and step.sign_foldable()):
            step = SignFold(
                step, run[-1] if isinstance(run[-1], DigitalMaxPool) else None)
        steps.append((idx, step))
        idx += getattr(step, "n_stages", 1)
    folds = [step for _, step in steps if isinstance(step, SignFold)]
    for fold in folds:
        fold.group = folds
    return steps


class DigitalFlatten(CimLayer):
    def state_dict(self):
        return {"type": "digital_flatten"}, {}

    @classmethod
    def from_state(cls, meta, arrays, config: CimConfig,
                   ledger: OpLedger) -> "DigitalFlatten":
        return cls(ledger)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)


class CimNetwork:
    """A deployed network: an ordered list of CIM stages + one ledger.

    The Bayesian wrappers drive stochastic behaviour by setting stage
    attributes (:attr:`DropoutGate.mask`, :attr:`DigitalScale.multiplier`
    and the :class:`FrozenNorm` multipliers) between forward passes.
    """

    def __init__(self, stages: Sequence[CimLayer], ledger: OpLedger,
                 config: CimConfig):
        self.stages = list(stages)
        self.ledger = ledger
        self.config = config

    def forward(self, x: np.ndarray) -> np.ndarray:
        for stage in self.stages:
            x = stage(x)
        return x

    __call__ = forward

    def mvm_layers(self) -> List[CimLayer]:
        """The analog (crossbar-backed) stages, in order."""
        return [s for s in self.stages
                if isinstance(s, (CimLinear, CimConv2d, SpinBayesMvm))]

    @property
    def n_crossbars(self) -> int:
        return sum(stage.n_crossbars for stage in self.mvm_layers())
