"""Compiled-deployment snapshots: a deployment as a *value*.

Compiling a model onto the CIM fabric is stochastic — programming
draws conductance variability and defect realizations, dropout banks
draw per-module Δ spreads — and stateful: every generator's stream
position matters for the bit-exact batched/sequential equivalence the
test suite pins.  A :class:`DeploymentSnapshot` captures the whole
post-compile state:

* every stage of the deployed :class:`~repro.cim.layers.CimNetwork`,
  through one stage registry (``stage_state`` / ``stage_from_state``
  of :mod:`repro.cim.compile`): crossbar conductances, decoded
  operands, the bit-packed weight planes of a crossbar that has packed
  them, scale/bias/norm constants, and a SpinBayes layer's N crossbars
  and arbiter.  ``BayesianCim`` and ``SpinBayesNetwork`` store and
  rebuild their networks the same way;
* the dropout/arbiter device realizations (Δ draws, effective
  probabilities, cycle counters),
* the full RNG *sharing topology* — which objects share which
  ``numpy`` generator, plus every generator's bit-level stream state,
* the deployment config (MTJ parameters, variability, defects, ADC
  resolution, mapping strategy) and the op-ledger totals.

Restoring (:meth:`DeploymentSnapshot.build`) rebuilds the engine
without re-programming anything: no RNG is consumed, no ``mtj_write``
is booked, and the first ``mc_forward_batched`` call continues the
captured streams exactly — bit-identical outputs and ledger totals to
the engine the snapshot was taken from, in the same or a fresh
interpreter.

On disk a snapshot is a directory artifact: a canonical-JSON
``manifest.json`` (which indexes every array by dtype/shape/offset)
plus one packed ``arrays.bin`` blob, sealed by a SHA-256 content hash
and an integer ``format_version``.  The generic
:func:`write_artifact` / :func:`read_artifact` pair is shared with the
experiment sweeps' trained-model cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import zlib
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.cim.compile import stage_from_state, stage_state
from repro.cim.layers import CimConfig, CimNetwork
from repro.cim.ledger import OpLedger
from repro.cim.mapping import MappingStrategy
from repro.devices.defects import DefectModel, DefectRates
from repro.devices.mtj import MTJParams, SwitchingType
from repro.devices.rng import SpintronicRNG
from repro.devices.variability import DeviceVariability, VariabilityParams

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.bin"

# Array offsets inside the packed blob are padded to this boundary so
# every zero-copy view is aligned for any numpy dtype.
_ALIGN = 64

_BANK_SCALARS = ("n_modules", "target_p", "current",
                 "set_ops", "read_ops", "reset_ops")


class SnapshotError(RuntimeError):
    """A snapshot artifact is missing, corrupted, or incompatible."""


# ----------------------------------------------------------------------
# Generic artifact layer: canonical-JSON manifest indexing one packed
# array blob, content-hashed.
# ----------------------------------------------------------------------
def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _encode_array(arr: np.ndarray) -> np.ndarray:
    """Canonical storage form: C-contiguous, with ternary float64
    arrays (every deployed ±1 weight matrix — a third of a snapshot's
    bytes) narrowed losslessly to int8.  ``x·x == |x|`` exactly
    characterizes {-1, 0, 1}, and int8 → float64 restores the exact
    same values, so the round trip is bit-identical."""
    if arr.ndim and not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    if (arr.dtype == np.float64 and arr.ndim
            and bool((arr * arr == np.abs(arr)).all())):
        return arr.astype(np.int8)
    return arr


def _stored_bytes(stored: np.ndarray):
    """The bytes an encoded array occupies in the blob (no copy unless
    0-d)."""
    return stored.data if stored.ndim else stored.tobytes()


def _index_entry(arr: np.ndarray, stored: np.ndarray) -> dict:
    """An array's dtype/shape plus a CRC-32 checksum of its stored
    bytes (``stored`` is :func:`_encode_array` of ``arr``).  At load
    the checksums are verified straight against the blob slices.  The
    manifest's SHA-256 content hash covers the index, so any byte flip
    or metadata edit changes the verification outcome.  CRC-32 runs at
    several GB/s in one C pass — hashing every byte with SHA-256 made
    artifact loads slower than the compile they replace."""
    entry = {
        "dtype": np.lib.format.dtype_to_descr(arr.dtype),
        "shape": list(arr.shape),
        "crc32": zlib.crc32(_stored_bytes(stored)),
    }
    if stored.dtype != arr.dtype:
        entry["store"] = np.lib.format.dtype_to_descr(stored.dtype)
    return entry


def _array_index(arrays: Dict[str, np.ndarray]) -> Dict[str, dict]:
    """The ``arrays`` index of a manifest, in sorted key order."""
    return {key: _index_entry(arrays[key], _encode_array(arrays[key]))
            for key in sorted(arrays)}


def _manifest_hash(manifest: dict) -> str:
    """SHA-256 over the canonical manifest minus its own hash."""
    return hashlib.sha256(_canonical_json(
        {k: v for k, v in manifest.items() if k != "content_hash"}
    ).encode("utf-8")).hexdigest()


def _seal(manifest: dict, index: Dict[str, dict]) -> dict:
    """A copy of ``manifest`` carrying the array ``index``, the
    ``format_version`` and the ``content_hash`` over both."""
    sealed = dict(manifest, arrays=index, format_version=FORMAT_VERSION)
    sealed["content_hash"] = _manifest_hash(sealed)
    return sealed


def _blob_offset(pos: int) -> int:
    return pos + (-pos % _ALIGN)


def write_artifact(path: str, manifest: dict,
                   arrays: Dict[str, np.ndarray]) -> str:
    """Persist a (manifest, arrays) pair as a sealed directory artifact.

    The arrays are written, C-order and ``_ALIGN``-padded in sorted key
    order, one after the other into one ``arrays.bin`` blob, each
    encoded and indexed once on its way; the manifest gains an
    ``arrays`` index (dtype/shape/CRC-32 per key — offsets are implied
    by the packing rule), ``format_version``, and ``content_hash``.
    ``manifest`` must carry a ``kind`` tag.  Returns the content hash.
    """
    if "kind" not in manifest:
        raise ValueError("artifact manifest needs a 'kind' tag")
    os.makedirs(path, exist_ok=True)
    index = {}
    with open(os.path.join(path, ARRAYS_NAME), "wb") as fh:
        pos = 0
        for key in sorted(arrays):
            stored = _encode_array(arrays[key])
            index[key] = _index_entry(arrays[key], stored)
            pad = -pos % _ALIGN
            fh.write(b"\x00" * pad)
            fh.write(_stored_bytes(stored))
            pos += pad + stored.nbytes
    manifest = _seal(manifest, index)
    with open(os.path.join(path, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        fh.write(_canonical_json(manifest))
    return manifest["content_hash"]


def read_artifact(path: str, kind: Optional[str] = None
                  ) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Load and verify a directory artifact written by :func:`write_artifact`.

    The returned arrays are read-only zero-copy views into the blob —
    one file read, one CRC pass per array, no per-array copies; this
    is what keeps snapshot load on the serving replica spin-up path
    fast.  Raises :class:`SnapshotError` with a specific message for
    every failure mode: missing files, unparseable manifest,
    format-version mismatch, wrong ``kind``, undecodable blob, or a
    content hash that no longer matches the stored bytes.
    """
    manifest_path = os.path.join(path, MANIFEST_NAME)
    arrays_path = os.path.join(path, ARRAYS_NAME)
    if not os.path.isfile(manifest_path) or not os.path.isfile(arrays_path):
        raise SnapshotError(
            f"no artifact at {path!r}: expected {MANIFEST_NAME} and "
            f"{ARRAYS_NAME}")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SnapshotError(
            f"corrupted artifact manifest at {manifest_path!r}: {exc}"
        ) from exc
    if not isinstance(manifest, dict):
        raise SnapshotError(
            f"corrupted artifact manifest at {manifest_path!r}: "
            "not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"artifact format version {version!r} is not supported "
            f"(this build reads version {FORMAT_VERSION})")
    if kind is not None and manifest.get("kind") != kind:
        raise SnapshotError(
            f"artifact kind {manifest.get('kind')!r} != expected {kind!r}")
    index = manifest.get("arrays")
    if not isinstance(index, dict):
        raise SnapshotError(
            f"corrupted artifact manifest at {manifest_path!r}: "
            "missing the array index")
    try:
        with open(arrays_path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise SnapshotError(
            f"corrupted artifact arrays at {arrays_path!r}: {exc}") from exc
    arrays: Dict[str, np.ndarray] = {}
    bytes_ok = True
    pos = 0
    try:
        for key in sorted(index):
            entry = index[key]
            dtype = np.dtype(entry["dtype"])
            stored = np.dtype(entry.get("store", entry["dtype"]))
            shape = tuple(int(dim) for dim in entry["shape"])
            count = 1
            for dim in shape:
                count *= dim
            pos = _blob_offset(pos)
            arr = np.frombuffer(
                blob, dtype=stored, count=count, offset=pos).reshape(shape)
            bytes_ok = bytes_ok and zlib.crc32(
                _stored_bytes(arr)) == entry["crc32"]
            arrays[key] = arr if stored == dtype else arr.astype(dtype)
            pos += count * stored.itemsize
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(
            f"corrupted artifact arrays at {arrays_path!r}: {exc}") from exc
    if pos != len(blob):
        raise SnapshotError(
            f"corrupted artifact arrays at {arrays_path!r}: blob holds "
            f"{len(blob)} bytes but the index accounts for {pos}")
    # Two-part seal: the SHA-256 covers the manifest including the
    # array index; each array's stored bytes are checked against the
    # index's CRC-32 — together any byte or metadata change trips one
    # of them.
    if manifest.get("content_hash") != _manifest_hash(manifest) \
            or not bytes_ok:
        raise SnapshotError(
            f"artifact content hash mismatch at {path!r}: the artifact "
            "was modified or truncated after it was written")
    return manifest, arrays


def _sub_arrays(arrays: Dict[str, np.ndarray], prefix: str
                ) -> Dict[str, np.ndarray]:
    n = len(prefix)
    return {key[n:]: value for key, value in arrays.items()
            if key.startswith(prefix)}


# ----------------------------------------------------------------------
# RNG sharing topology
# ----------------------------------------------------------------------
class _RngRegistry:
    """Identity-groups every generator seen during capture.

    Two objects holding the *same* generator (e.g. every dropout bank
    sharing the engine's ``_rng``, or every SpinBayes arbiter sharing
    ``config.rng`` — a hard requirement of the fast selection draw) get
    the same ref, so the restore rebuilds one generator per group and
    the sharing topology survives the round trip.
    """

    def __init__(self):
        self._refs: Dict[int, str] = {}
        self.states: Dict[str, dict] = {}

    def ref(self, gen: Optional[np.random.Generator]) -> Optional[str]:
        if gen is None:
            return None
        key = id(gen)
        if key not in self._refs:
            name = f"rng{len(self._refs)}"
            self._refs[key] = name
            self.states[name] = gen.bit_generator.state
        return self._refs[key]


def _resolve_rngs(states: Dict[str, dict]
                  ) -> Dict[str, np.random.Generator]:
    resolved = {}
    for name, state in states.items():
        gen = np.random.default_rng()
        gen.bit_generator.state = state
        resolved[name] = gen
    return resolved


# ----------------------------------------------------------------------
# Config (de)serialization
# ----------------------------------------------------------------------
def _config_state(config: CimConfig,
                  rng_ref: Callable[[Optional[np.random.Generator]],
                                    Optional[str]]) -> dict:
    mtj = dataclasses.asdict(config.mtj_params)
    mtj["switching_type"] = config.mtj_params.switching_type.value
    variability = None
    if config.variability is not None:
        variability = {
            "params": dataclasses.asdict(config.variability.params),
            "temperature": config.variability.temperature,
            "rng": rng_ref(config.variability.rng),
        }
    defects = None
    if config.defects is not None:
        defects = {
            "rates": dataclasses.asdict(config.defects.rates),
            "rng": rng_ref(config.defects.rng),
        }
    return {
        "mtj_params": mtj,
        "variability": variability,
        "defects": defects,
        "adc_bits": config.adc_bits,
        "max_rows": config.max_rows,
        "max_cols": config.max_cols,
        "wire_resistance": config.wire_resistance,
        "mapping_strategy": config.mapping_strategy.value,
        "rng": rng_ref(config.rng),
    }


def _build_config(state: dict,
                  resolved: Dict[str, np.random.Generator]) -> CimConfig:
    mtj_state = dict(state["mtj_params"])
    mtj_state["switching_type"] = SwitchingType(mtj_state["switching_type"])
    variability = None
    if state["variability"] is not None:
        v = state["variability"]
        variability = DeviceVariability(
            VariabilityParams(**v["params"]),
            rng=resolved[v["rng"]], temperature=v["temperature"])
    defects = None
    if state["defects"] is not None:
        d = state["defects"]
        defects = DefectModel(DefectRates(**d["rates"]),
                              rng=resolved[d["rng"]])
    config = CimConfig(
        mtj_params=MTJParams(**mtj_state),
        variability=variability,
        defects=defects,
        adc_bits=state["adc_bits"],
        max_rows=state["max_rows"],
        max_cols=state["max_cols"],
        wire_resistance=state["wire_resistance"],
        mapping_strategy=MappingStrategy(state["mapping_strategy"]))
    config.rng = resolved[state["rng"]]
    return config


def _rebuild_bank(entry: dict, b_prefix: str,
                  arrays: Dict[str, np.ndarray], config: CimConfig,
                  resolved: Dict[str, np.random.Generator]) -> SpintronicRNG:
    """Rebuild one dropout bank; variability=None skips the
    constructor's Δ draws, then the captured realization is installed."""
    bank_meta = entry["bank"]
    bank = SpintronicRNG(
        bank_meta["n_modules"], p=bank_meta["target_p"],
        mtj_params=config.mtj_params, variability=None,
        rng=resolved[entry["bank_rng"]])
    state = dict(bank_meta)
    state["deltas"] = arrays[f"{b_prefix}deltas"]
    state["effective_p"] = arrays[f"{b_prefix}effective_p"]
    bank.load_state(state)
    return bank


class _ScaleSource:
    """Stand-in for a ScaleDropout source: only ``drop_scale`` is read
    at draw time."""

    def __init__(self, drop_scale: float):
        self.drop_scale = drop_scale


# ----------------------------------------------------------------------
# The deployed network, shared by both engines
# ----------------------------------------------------------------------
def _capture_stages(network: CimNetwork, rngs: _RngRegistry,
                    arrays: Dict[str, np.ndarray]) -> list:
    """Every stage's manifest entry; its arrays go to ``s{idx}.*``."""
    stages_meta = []
    for idx, stage in enumerate(network.stages):
        meta, stage_arrays = stage_state(stage)
        if "arbiter" in meta:
            # A SpinBayes arbiter draws from config.rng, as the fast
            # selection draw requires; from_state wires it to the
            # restored config.rng.  The ref stays in the manifest, whose
            # bytes the snapshot digests pin.
            meta["arbiter"]["rng"] = rngs.ref(stage.arbiter._stage_rng.rng)
        stages_meta.append(meta)
        for key, value in stage_arrays.items():
            arrays[f"s{idx}.{key}"] = value
    return stages_meta


def _build_network(manifest: dict, arrays: Dict[str, np.ndarray]
                   ) -> Tuple[CimNetwork, Dict[str, np.random.Generator]]:
    """The captured network on a fresh config and ledger, and the
    resolved generators."""
    resolved = _resolve_rngs(manifest["rngs"])
    config = _build_config(manifest["config"], resolved)
    ledger = OpLedger()
    ledger.counts.update(manifest["ledger"])
    stages = [stage_from_state(meta, _sub_arrays(arrays, f"s{idx}."),
                               config, ledger)
              for idx, meta in enumerate(manifest["stages"])]
    return CimNetwork(stages, ledger, config), resolved


# ----------------------------------------------------------------------
# BayesianCim capture / rebuild
# ----------------------------------------------------------------------
def _capture_bayesian_cim(engine) -> Tuple[dict, Dict[str, np.ndarray]]:
    rngs = _RngRegistry()
    arrays: Dict[str, np.ndarray] = {}
    stages_meta = _capture_stages(engine.network, rngs, arrays)
    stage_index = {id(s): i for i, s in enumerate(engine.network.stages)}
    bindings_meta = []
    for b_idx, binding in enumerate(engine.bindings):
        entry = {
            "kind": binding.kind,
            "p": binding.p,
            "target": stage_index[id(binding.target)],
            "software_rng": rngs.ref(binding.software_rng),
        }
        if binding.rng_bank is not None:
            bank = binding.rng_bank.state_dict()
            entry["bank"] = {k: bank[k] for k in _BANK_SCALARS}
            entry["bank_rng"] = rngs.ref(binding.rng_bank.rng)
            arrays[f"b{b_idx}.deltas"] = bank["deltas"]
            arrays[f"b{b_idx}.effective_p"] = bank["effective_p"]
        if binding.kind == "scale":
            entry["drop_scale"] = float(binding.source.drop_scale)
        elif binding.kind == "vi":
            source = binding.source
            entry["source"] = {
                "n_features": source.n_features,
                "spatial": source.spatial,
                "rng": rngs.ref(source.rng),
            }
            arrays[f"b{b_idx}.mu"] = source.mu.data
            arrays[f"b{b_idx}.log_sigma"] = source.log_sigma.data
        bindings_meta.append(entry)
    manifest = {
        "kind": "deployment",
        "engine": "bayesian_cim",
        "config": _config_state(engine.config, rngs.ref),
        "engine_rng": rngs.ref(engine._rng),
        "stages": stages_meta,
        "bindings": bindings_meta,
        "ledger": {k: int(v) for k, v in engine.ledger.as_dict().items()},
        "rngs": rngs.states,
    }
    return manifest, arrays


def _build_bayesian_cim(manifest: dict, arrays: Dict[str, np.ndarray]):
    from repro.bayesian.deploy import BayesianCim, _MaskBinding
    from repro.bayesian.subset_vi import BayesianScale

    network, resolved = _build_network(manifest, arrays)
    config, stages = network.config, network.stages
    bindings = []
    for b_idx, entry in enumerate(manifest["bindings"]):
        bank = None
        if "bank" in entry:
            bank = _rebuild_bank(entry, f"b{b_idx}.", arrays, config,
                                 resolved)
        source = None
        if entry["kind"] == "scale":
            source = _ScaleSource(entry["drop_scale"])
        elif entry["kind"] == "vi":
            src_meta = entry["source"]
            source = BayesianScale(src_meta["n_features"],
                                   spatial=src_meta["spatial"],
                                   rng=resolved[src_meta["rng"]])
            source.mu.data = np.asarray(arrays[f"b{b_idx}.mu"],
                                        dtype=np.float64)
            source.log_sigma.data = np.asarray(
                arrays[f"b{b_idx}.log_sigma"], dtype=np.float64)
        bindings.append(_MaskBinding(
            kind=entry["kind"], p=entry["p"], rng_bank=bank,
            target=stages[entry["target"]], source=source,
            software_rng=resolved[entry["software_rng"]]))
    return BayesianCim.from_parts(network, bindings,
                                  resolved[manifest["engine_rng"]])


# ----------------------------------------------------------------------
# SpinBayesNetwork capture / rebuild
# ----------------------------------------------------------------------
def _capture_spinbayes(engine) -> Tuple[dict, Dict[str, np.ndarray]]:
    rngs = _RngRegistry()
    arrays: Dict[str, np.ndarray] = {}
    stages_meta = _capture_stages(engine.network, rngs, arrays)
    manifest = {
        "kind": "deployment",
        "engine": "spinbayes",
        "config": _config_state(engine.config, rngs.ref),
        "n_components": engine.n_components,
        "n_levels": engine.n_levels,
        "stages": stages_meta,
        "ledger": {k: int(v) for k, v in engine.ledger.as_dict().items()},
        "rngs": rngs.states,
    }
    return manifest, arrays


def _build_spinbayes(manifest: dict, arrays: Dict[str, np.ndarray]):
    from repro.bayesian.spinbayes import SpinBayesNetwork

    network, _ = _build_network(manifest, arrays)
    return SpinBayesNetwork(network, manifest["n_components"],
                            manifest["n_levels"])


# ----------------------------------------------------------------------
# Public value type
# ----------------------------------------------------------------------
class DeploymentSnapshot:
    """A compiled deployment as an immutable value.

    ``capture`` freezes a live engine, ``save``/``load`` round-trip it
    through the sealed directory artifact, and ``build`` rehydrates a
    fresh engine that is bit-identical to the captured one — outputs
    *and* ledger totals.  One snapshot can be built any number of
    times; every build gets independent generators initialized to the
    captured stream positions, so N replicas built from one snapshot
    produce identical prediction streams.
    """

    def __init__(self, manifest: dict, arrays: Dict[str, np.ndarray]):
        self.manifest = manifest
        self.arrays = arrays

    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, engine) -> "DeploymentSnapshot":
        """Freeze a live :class:`~repro.bayesian.deploy.BayesianCim` or
        :class:`~repro.bayesian.spinbayes.SpinBayesNetwork`."""
        from repro.bayesian.deploy import BayesianCim
        from repro.bayesian.spinbayes import SpinBayesNetwork

        if isinstance(engine, BayesianCim):
            manifest, arrays = _capture_bayesian_cim(engine)
        elif isinstance(engine, SpinBayesNetwork):
            manifest, arrays = _capture_spinbayes(engine)
        else:
            raise TypeError(
                f"cannot snapshot {type(engine).__name__}; expected "
                "BayesianCim or SpinBayesNetwork")
        return cls(_seal(manifest, _array_index(arrays)), arrays)

    @property
    def engine_kind(self) -> str:
        return self.manifest["engine"]

    @property
    def content_hash(self) -> str:
        return self.manifest["content_hash"]

    # ------------------------------------------------------------------
    def save(self, path: str) -> str:
        """Write the sealed artifact directory; returns the content hash."""
        return write_artifact(path, self.manifest, self.arrays)

    @classmethod
    def load(cls, path: str) -> "DeploymentSnapshot":
        """Load and verify a saved snapshot (see :func:`read_artifact`)."""
        manifest, arrays = read_artifact(path, kind="deployment")
        return cls(manifest, arrays)

    # ------------------------------------------------------------------
    def build(self):
        """Rehydrate a fresh engine from the captured state."""
        if self.engine_kind == "bayesian_cim":
            return _build_bayesian_cim(self.manifest, self.arrays)
        if self.engine_kind == "spinbayes":
            return _build_spinbayes(self.manifest, self.arrays)
        raise SnapshotError(
            f"unknown engine kind {self.engine_kind!r} in snapshot")


def snapshot_engine_factory(path: str) -> Callable[[], object]:
    """An engine factory backed by a saved snapshot.

    Loads and verifies the artifact once; every call rehydrates a fresh,
    independent engine — the cheap replica spin-up path the autoscaler
    and model registry use instead of recompiling.
    """
    snapshot = DeploymentSnapshot.load(path)
    return snapshot.build
