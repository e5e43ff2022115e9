"""Declarative scenario-sweep engine over the batched MC engines.

The paper's central claim is robustness of Bayesian-CIM inference under
device defects, variability, corruption and distribution shift.  The
one-off table1/claims harnesses each probe a single slice of that
space; this module turns the slices into a declarative **scenario
matrix**

    model family × corruption × device defect × variability × OOD set

expanded into seeded, deterministic runs.  Every run evaluates one
trained model family through its batched engine
(:meth:`BayesianCim.mc_forward_batched`,
:meth:`SpinBayesNetwork.mc_forward_batched`, or
:func:`mc_segment`) under the scenario's deployment and data
conditions and reports accuracy, NLL, ECE, Brier, OOD-AUROC and ledger
energy totals.

Determinism contract: a scenario's metrics depend only on its own key
(and the preset), never on which other scenarios ran before it.
Model training is cached per (family, preset) with a fixed training
seed; the deployment (crossbar programming, defect maps, variability
draws, MC masks) is rebuilt fresh for every scenario from the
scenario's stable seed — the SHA-256 of its canonical name — so
re-running any subset of the matrix reproduces identical numbers.
``repro-experiments sweep --matrix smoke`` twice writes byte-identical
``runs.jsonl`` files; the CI quality gate leans on this.

Matrix names: ``smoke`` (the PR-gate matrix banked in
``BENCH_scenarios.json``), ``full`` (the nightly matrix), ``tiny``
(micro settings for the test suite).  See ``docs/experiments.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import nn
from repro.bayesian import (
    BayesianCim,
    SpinBayesNetwork,
    make_bayesian_segmenter,
    make_scaledrop_mlp,
    make_spindrop_mlp,
    make_subset_vi_mlp,
    mc_segment,
    segmentation_loss,
)
from repro.cim import CimConfig
from repro.data import CORRUPTIONS, batches, corrupt, ood, segmentation_scenes
from repro.devices import (
    DefectModel,
    DefectRates,
    DeviceVariability,
    VariabilityParams,
)
from repro.energy import price_ledger
from repro.experiments.common import TrainConfig, digits_dataset, train_classifier
from repro.tensor import Tensor
from repro.uncertainty import (
    auroc,
    brier_score,
    expected_calibration_error,
    nll,
)

MLP_FAMILIES = ("spindrop", "scaledrop", "subset_vi", "spinbayes")
FAMILIES = MLP_FAMILIES + ("segmenter",)
OOD_SETS = ("letters", "uniform_noise", "random_rotation",
            "amplitude_shift", "ood_objects")
# Serving routes a scenario's engine calls can take: None = direct
# in-process calls; "procpool" = through a one-worker process-backed
# replica pool booted from a snapshot of the deployed engine (the
# worker continues the captured RNG streams, so metrics are identical
# to the in-process route by construction — what the axis verifies).
SERVING_MODES = (None, "procpool")


# ----------------------------------------------------------------------
# Scenario and matrix expansion
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Scenario:
    """One point of the sweep matrix (identity = canonical name).

    ``markers`` tag scenarios for filtering (``smoke``, ``full``,
    ``conv`` …) and are NOT part of the identity: two blocks producing
    the same scenario key are deduplicated with their markers merged.
    """

    family: str
    corruption: Optional[str] = None
    severity: int = 3
    defect_rate: float = 0.0
    variability: float = 0.0
    ood: Optional[str] = None
    serving: Optional[str] = None
    markers: Tuple[str, ...] = ()

    @property
    def name(self) -> str:
        """Canonical, order-stable scenario key.

        The ``serving`` axis only appears when set, so every scenario
        banked before the axis existed keeps its exact name (and the
        byte-reproducibility of ``BENCH_scenarios.json``).
        """
        base = self.base_name
        if self.serving is not None:
            base += f"/serving={self.serving}"
        return base

    @property
    def base_name(self) -> str:
        """The name without the serving route — the *physics* identity."""
        corr = f"{self.corruption}@{self.severity}" if self.corruption else "clean"
        ood_part = self.ood or "none"
        return (f"{self.family}/{corr}/d{self.defect_rate:g}"
                f"/v{self.variability:g}/{ood_part}")

    @property
    def seed(self) -> int:
        """Stable per-scenario seed (first 4 bytes of SHA-256 of the
        *base* name).  The serving route is deliberately excluded: it
        changes how engine calls are transported, never the deployment
        realization, so a scenario and its ``serving="procpool"`` twin
        deploy identical hardware and must report identical metrics —
        the differential the procpool matrix checks.
        """
        digest = hashlib.sha256(self.base_name.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big")

    def key(self) -> dict:
        """JSON-ready identity record (markers sorted for stability).

        ``serving`` is emitted only when set — banked records predating
        the axis stay byte-identical.
        """
        out = {
            "name": self.name,
            "family": self.family,
            "corruption": self.corruption,
            "severity": self.severity,
            "defect_rate": self.defect_rate,
            "variability": self.variability,
            "ood": self.ood,
            "markers": sorted(self.markers),
        }
        if self.serving is not None:
            out["serving"] = self.serving
        return out


def _normalize(scenario: Scenario) -> Scenario:
    """Collapse fields that cannot affect the scenario's metrics.

    No corruption → severity 0; the software segmenter has no CIM
    deployment, so defect/variability collapse to 0 (axis values that
    only differ there become duplicates and are removed by dedup).
    The segmenter likewise collapses ``serving`` to None: its software
    model has no snapshot artifact to boot a worker from, so the
    default in-process route is the only one it can take.
    """
    severity = scenario.severity if scenario.corruption else 0
    defect, var = scenario.defect_rate, scenario.variability
    serving = scenario.serving
    if scenario.family == "segmenter":
        defect, var = 0.0, 0.0
        serving = None
    return dataclasses.replace(scenario, severity=severity,
                               defect_rate=float(defect),
                               variability=float(var), serving=serving)


def _validate(scenario: Scenario) -> None:
    if scenario.family not in FAMILIES:
        raise ValueError(f"unknown model family {scenario.family!r}; "
                         f"choose from {sorted(FAMILIES)}")
    if scenario.corruption is not None:
        if scenario.corruption not in CORRUPTIONS:
            raise ValueError(f"unknown corruption {scenario.corruption!r}")
        if not 1 <= scenario.severity <= 5:
            raise ValueError("corruption severity must be in 1..5")
    if scenario.ood is not None and scenario.ood not in OOD_SETS:
        raise ValueError(f"unknown OOD set {scenario.ood!r}; "
                         f"choose from {sorted(OOD_SETS)}")
    if scenario.serving not in SERVING_MODES:
        raise ValueError(f"unknown serving mode {scenario.serving!r}; "
                         f"choose from {sorted(m for m in SERVING_MODES if m)}")
    if scenario.family == "segmenter":
        if scenario.ood not in (None, "ood_objects"):
            raise ValueError("segmenter scenarios support only the "
                             "'ood_objects' OOD set")
    elif scenario.ood == "ood_objects":
        raise ValueError("'ood_objects' is a segmentation-only OOD set")


@dataclasses.dataclass(frozen=True)
class MatrixBlock:
    """One product block of axis values; a matrix is a union of blocks."""

    families: Tuple[str, ...]
    corruptions: Tuple[Optional[Tuple[str, int]], ...] = (None,)
    defect_rates: Tuple[float, ...] = (0.0,)
    variabilities: Tuple[float, ...] = (0.0,)
    ood_sets: Tuple[Optional[str], ...] = (None,)
    servings: Tuple[Optional[str], ...] = (None,)
    markers: Tuple[str, ...] = ()

    def scenarios(self) -> List[Scenario]:
        out = []
        for family, corr, defect, var, ood_set, serving in itertools.product(
                self.families, self.corruptions, self.defect_rates,
                self.variabilities, self.ood_sets, self.servings):
            name, severity = corr if corr is not None else (None, 0)
            out.append(Scenario(
                family=family, corruption=name, severity=severity,
                defect_rate=defect, variability=var, ood=ood_set,
                serving=serving, markers=self.markers))
        return out


@dataclasses.dataclass(frozen=True)
class MatrixSpec:
    """A named matrix: blocks to expand plus the run preset to use."""

    blocks: Tuple[MatrixBlock, ...]
    preset: str


def expand_matrix(spec: MatrixSpec,
                  markers: Optional[Sequence[str]] = None) -> List[Scenario]:
    """Expand a matrix spec into normalized, deduplicated scenarios.

    Dedup is by canonical name; duplicates merge their marker sets.
    ``markers`` (if given) keeps only scenarios carrying at least one
    of the requested markers.  Order is the blocks' expansion order
    (deterministic), first occurrence wins.
    """
    by_name: Dict[str, Scenario] = {}
    for block in spec.blocks:
        for scenario in block.scenarios():
            scenario = _normalize(scenario)
            _validate(scenario)
            prior = by_name.get(scenario.name)
            if prior is not None:
                merged = tuple(sorted(set(prior.markers) | set(scenario.markers)))
                by_name[scenario.name] = dataclasses.replace(
                    prior, markers=merged)
            else:
                by_name[scenario.name] = scenario
    scenarios = list(by_name.values())
    if markers:
        wanted = set(markers)
        scenarios = [s for s in scenarios if wanted & set(s.markers)]
    return scenarios


# ----------------------------------------------------------------------
# Presets (training budget + evaluation sizes per matrix tier)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SweepPreset:
    """Per-tier budgets; the training seed is fixed so every scenario
    of a family stresses the SAME trained model."""

    name: str
    n_train: int
    hidden: Tuple[int, ...]
    epochs: int
    mc_samples: int
    n_eval: int
    n_ood: int
    spin_components: int
    spin_levels: int
    seg_scenes: int
    seg_epochs: int
    seg_eval_scenes: int
    seg_samples: int
    train_seed: int = 0


PRESETS: Dict[str, SweepPreset] = {
    "tiny": SweepPreset("tiny", n_train=300, hidden=(24,), epochs=2,
                        mc_samples=4, n_eval=64, n_ood=64,
                        spin_components=2, spin_levels=8,
                        seg_scenes=32, seg_epochs=1, seg_eval_scenes=16,
                        seg_samples=4),
    "smoke": SweepPreset("smoke", n_train=1200, hidden=(64, 32), epochs=8,
                         mc_samples=8, n_eval=200, n_ood=200,
                         spin_components=4, spin_levels=16,
                         seg_scenes=160, seg_epochs=3, seg_eval_scenes=48,
                         seg_samples=6),
    "full": SweepPreset("full", n_train=4000, hidden=(128, 64), epochs=20,
                        mc_samples=20, n_eval=500, n_ood=500,
                        spin_components=8, spin_levels=16,
                        seg_scenes=400, seg_epochs=8, seg_eval_scenes=120,
                        seg_samples=10),
}


MATRICES: Dict[str, MatrixSpec] = {
    # Test-suite fixture: two scenarios, micro budgets.
    "tiny": MatrixSpec(preset="tiny", blocks=(
        MatrixBlock(families=("spindrop",),
                    corruptions=(None, ("gaussian_noise", 3)),
                    ood_sets=("letters",),
                    markers=("tiny",)),
    )),
    # PR-gate matrix: banked in BENCH_scenarios.json, run on every PR.
    "smoke": MatrixSpec(preset="smoke", blocks=(
        MatrixBlock(families=("spindrop", "spinbayes"),
                    corruptions=(None, ("gaussian_noise", 3)),
                    defect_rates=(0.0, 0.02),
                    ood_sets=("letters",),
                    markers=("smoke",)),
        MatrixBlock(families=("spindrop",),
                    variabilities=(0.05,),
                    ood_sets=("uniform_noise",),
                    markers=("smoke",)),
        MatrixBlock(families=("segmenter",),
                    corruptions=(None, ("gaussian_noise", 3)),
                    ood_sets=("ood_objects",),
                    markers=("smoke", "segmentation")),
    )),
    # Serving-route differential: the same scenario evaluated directly
    # and through a one-worker process-backed replica pool (snapshot
    # boot + shared-memory transport); the two runs must agree bit for
    # bit on every metric.
    "procpool": MatrixSpec(preset="tiny", blocks=(
        MatrixBlock(families=("spindrop",),
                    corruptions=(None, ("gaussian_noise", 3)),
                    ood_sets=("letters",),
                    servings=(None, "procpool"),
                    markers=("procpool",)),
    )),
    # Nightly matrix: every family crossed with the robustness axes.
    "full": MatrixSpec(preset="full", blocks=(
        MatrixBlock(families=MLP_FAMILIES,
                    corruptions=(None, ("gaussian_noise", 3),
                                 ("salt_and_pepper", 3), ("box_blur", 3),
                                 ("contrast", 3), ("rotation", 2)),
                    defect_rates=(0.0, 0.02, 0.05),
                    variabilities=(0.0, 0.05),
                    ood_sets=("letters", "uniform_noise"),
                    markers=("full",)),
        MatrixBlock(families=MLP_FAMILIES,
                    ood_sets=("random_rotation", "amplitude_shift"),
                    markers=("full",)),
        MatrixBlock(families=("segmenter",),
                    corruptions=(None, ("gaussian_noise", 3),
                                 ("salt_and_pepper", 3)),
                    ood_sets=("ood_objects",),
                    markers=("full", "segmentation")),
    )),
}


# ----------------------------------------------------------------------
# Model training cache (per family × preset; fixed training seed)
# ----------------------------------------------------------------------
def preset_hash(preset: SweepPreset) -> str:
    """SHA-256 of the preset's canonical JSON — the cache-validity key.

    Any preset field change (budgets, seeds, architecture) changes the
    hash, so a stale disk entry is detected rather than silently
    served (or, worse, silently retrained over).
    """
    payload = json.dumps(dataclasses.asdict(preset), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ModelCache:
    """Trains each model family once per preset and memoizes it.

    With ``cache_dir`` set, trained parameters also persist to disk as
    versioned, content-hashed artifacts (the same
    :func:`repro.cim.snapshot.write_artifact` substrate deployment
    snapshots use, ``kind="trained_model"``), keyed
    ``<family>-<preset name>`` with the full :func:`preset_hash` in
    the manifest.  A later sweep — same interpreter or not — restores
    the trained weights and skips retraining entirely; the scenario's
    CIM deployment is still rebuilt from the scenario seed, preserving
    the determinism contract.  An entry whose stored preset hash no
    longer matches (the preset definition changed underneath it) is
    *invalidated with a log line* and retrained, never silently
    reused; ``hits`` / ``misses`` / ``invalidations`` counters surface
    in the sweep report.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 log: Optional[Callable[[str], None]] = None) -> None:
        self._models: Dict[Tuple[str, str], object] = {}
        self.cache_dir = cache_dir
        self._log = log if log is not None else (lambda message: None)
        self.hits = 0             # disk restores (retraining skipped)
        self.misses = 0           # trained fresh
        self.invalidations = 0    # stale/unreadable entries discarded

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "invalidations": self.invalidations}

    def get(self, family: str, preset: SweepPreset):
        key = (family, preset.name)
        if key in self._models:
            return self._models[key]
        model = self._load_disk(family, preset)
        if model is None:
            self.misses += 1
            model = _train_family(family, preset)
            self._store_disk(family, preset, model)
        else:
            self.hits += 1
        self._models[key] = model
        return model

    # ------------------------------------------------------------------
    def _entry_path(self, family: str, preset: SweepPreset) -> str:
        return os.path.join(self.cache_dir, f"{family}-{preset.name}")

    def _invalidate(self, family: str, preset: SweepPreset,
                    reason: str) -> None:
        self.invalidations += 1
        self._log(f"cache-invalidate {family}/{preset.name}: {reason}; "
                  f"retraining")

    def _load_disk(self, family: str, preset: SweepPreset):
        if self.cache_dir is None:
            return None
        path = self._entry_path(family, preset)
        if not os.path.exists(os.path.join(path, "manifest.json")):
            return None
        from repro.cim.snapshot import SnapshotError, read_artifact
        try:
            manifest, arrays = read_artifact(path, kind="trained_model")
        except SnapshotError as exc:
            self._invalidate(family, preset, f"unreadable entry ({exc})")
            return None
        expected = preset_hash(preset)
        stored = manifest.get("preset_hash")
        if stored != expected:
            self._invalidate(
                family, preset,
                f"preset hash changed ({str(stored)[:12]} -> "
                f"{expected[:12]})")
            return None
        model = _build_family(family, preset)
        expected_keys = set(model.state_dict())
        if set(arrays) != expected_keys:
            self._invalidate(family, preset, "state keys mismatch")
            return None
        try:
            # Full module state: trained parameters AND buffers
            # (batch-norm running statistics), so the restored model
            # is bit-identical to the one that was trained.
            model.load_state_dict(dict(arrays))
        except (KeyError, ValueError) as exc:
            self._invalidate(family, preset, f"state mismatch ({exc})")
            return None
        model.eval()
        return model

    def _store_disk(self, family: str, preset: SweepPreset,
                    model) -> None:
        if self.cache_dir is None:
            return
        from repro.cim.snapshot import write_artifact
        manifest = {
            "kind": "trained_model",
            "family": family,
            "preset": preset.name,
            "preset_hash": preset_hash(preset),
        }
        write_artifact(self._entry_path(family, preset), manifest,
                       model.state_dict())


def _train_config(preset: SweepPreset) -> TrainConfig:
    return TrainConfig(epochs=preset.epochs, lr=1e-2, batch_size=64,
                       mc_samples=preset.mc_samples,
                       seed=preset.train_seed)


def _build_family(family: str, preset: SweepPreset):
    """Untrained architecture for one family — the shape the disk
    cache restores trained parameters into."""
    if family == "segmenter":
        return make_bayesian_segmenter(width=8, p=0.15,
                                       seed=preset.train_seed)
    data = digits_dataset(n_samples=preset.n_train, seed=preset.train_seed)
    if family == "spindrop":
        return make_spindrop_mlp(data.n_features, preset.hidden,
                                 data.n_classes, p=0.1,
                                 seed=preset.train_seed)
    if family == "scaledrop":
        return make_scaledrop_mlp(data.n_features, preset.hidden,
                                  data.n_classes, seed=preset.train_seed)
    if family in ("subset_vi", "spinbayes"):
        return make_subset_vi_mlp(data.n_features, preset.hidden,
                                  data.n_classes, seed=preset.train_seed)
    raise ValueError(f"unknown model family {family!r}")


def _train_family(family: str, preset: SweepPreset):
    """Train the software model behind one family (spinbayes reuses
    the subset-VI teacher, matching the paper's distillation)."""
    if family == "segmenter":
        return _train_segmenter(preset)
    model = _build_family(family, preset)
    data = digits_dataset(n_samples=preset.n_train, seed=preset.train_seed)
    config = _train_config(preset)
    if family == "spindrop":
        return train_classifier(model, data, config)
    if family == "scaledrop":
        return train_classifier(model, data, config,
                                scale_reg_strength=1e-3)
    return train_classifier(model, data, config, loss_kind="elbo")


def _train_segmenter(preset: SweepPreset) -> nn.Sequential:
    x_train, m_train = segmentation_scenes(preset.seg_scenes,
                                           seed=preset.train_seed)
    model = make_bayesian_segmenter(width=8, p=0.15, seed=preset.train_seed)
    opt = nn.Adam(model.parameters(), lr=1e-2)
    sched = nn.CosineLR(opt, preset.seg_epochs)
    for epoch in range(preset.seg_epochs):
        model.train()
        for xb, yb in batches(x_train, m_train, 32,
                              seed=preset.train_seed + epoch):
            loss = segmentation_loss(model(Tensor(xb)), yb)
            opt.zero_grad()
            loss.backward()
            opt.step()
            nn.clip_latent_weights(model)
        sched.step()
    model.eval()
    return model


# ----------------------------------------------------------------------
# Scenario execution
# ----------------------------------------------------------------------
def _deploy_config(scenario: Scenario, seed: int) -> CimConfig:
    """Deployment realization drawn entirely from the scenario seed."""
    defects = None
    if scenario.defect_rate > 0.0:
        half = scenario.defect_rate / 2.0
        defects = DefectModel(
            DefectRates(stuck_at_p=half, stuck_at_ap=half),
            rng=np.random.default_rng(seed + 1))
    variability = None
    if scenario.variability > 0.0:
        v = scenario.variability
        variability = DeviceVariability(
            VariabilityParams(sigma_r=v, sigma_delta=v, sigma_read=v / 3.0),
            rng=np.random.default_rng(seed + 2))
    return CimConfig(defects=defects, variability=variability,
                     adc_bits=6, seed=seed + 3)


def _ood_inputs(scenario: Scenario, preset: SweepPreset,
                x_eval: np.ndarray, image_size: int,
                n_features: int) -> np.ndarray:
    seed = scenario.seed + 5
    n = min(preset.n_ood, len(x_eval))
    if scenario.ood == "letters":
        return ood.letters(preset.n_ood, size=image_size, seed=seed)
    if scenario.ood == "uniform_noise":
        return ood.uniform_noise(preset.n_ood, n_features, seed=seed)
    if scenario.ood == "random_rotation":
        return ood.random_rotation(x_eval[:n], seed=seed)
    if scenario.ood == "amplitude_shift":
        return ood.amplitude_shift(x_eval[:n])
    raise ValueError(f"unknown OOD set {scenario.ood!r}")


def _classifier_metrics(scenario: Scenario, preset: SweepPreset,
                        model) -> Dict[str, Optional[float]]:
    """Deploy one MLP family and evaluate it under the scenario."""
    seed = scenario.seed
    data = digits_dataset(n_samples=preset.n_train, seed=preset.train_seed)
    x_eval = np.array(data.x_test[:preset.n_eval])
    y_eval = data.y_test[:preset.n_eval]
    if scenario.corruption:
        x_eval = corrupt(x_eval, scenario.corruption,
                         severity=scenario.severity,
                         rng=np.random.default_rng(seed + 4))

    config = _deploy_config(scenario, seed)
    if scenario.family == "spinbayes":
        engine = SpinBayesNetwork.from_subset_vi(
            model, n_components=preset.spin_components,
            n_levels=preset.spin_levels, config=config, seed=seed + 6)
    else:
        engine = BayesianCim(model, config, seed=seed + 6)

    engine.ledger.reset()
    if scenario.serving == "procpool":
        return _procpool_classifier_metrics(scenario, preset, engine,
                                            x_eval, y_eval, data)
    result = engine.mc_forward_batched(x_eval, n_samples=preset.mc_samples)
    joules, _ = price_ledger(engine.ledger)
    metrics = {
        "accuracy": float((result.predictions == y_eval).mean()),
        "nll": nll(result.probs, y_eval),
        "ece": expected_calibration_error(result.probs, y_eval),
        "brier": brier_score(result.probs, y_eval),
        "energy_j_per_image": joules / len(x_eval),
        "ops_total": int(engine.ledger.total()),
        "ood_auroc": None,
    }
    if scenario.ood:
        x_ood = _ood_inputs(scenario, preset, x_eval,
                            data.image_size, data.n_features)
        ood_result = engine.mc_forward_batched(
            x_ood, n_samples=preset.mc_samples)
        metrics["ood_auroc"] = auroc(result.predictive_entropy,
                                     ood_result.predictive_entropy)
    return metrics


def _procpool_classifier_metrics(scenario: Scenario, preset: SweepPreset,
                                 engine, x_eval: np.ndarray,
                                 y_eval: np.ndarray,
                                 data) -> Dict[str, Optional[float]]:
    """The ``serving="procpool"`` route of :func:`_classifier_metrics`.

    The freshly deployed engine is snapshotted and served through a
    one-worker :class:`~repro.serving.procpool.ProcReplicaPool`: the
    single worker rehydrates the snapshot in its own interpreter and
    continues the captured RNG streams, so every metric — including
    the op-ledger energy totals read back over the pool's ledger RPC —
    is bit-identical to the in-process route.  (One worker, because
    multi-replica sharding gives each replica its own mask draws; the
    equivalence claim is per-engine.)
    """
    import shutil
    import tempfile

    from repro.cim.ledger import OpLedger
    from repro.cim.snapshot import DeploymentSnapshot
    from repro.serving.procpool import ProcReplicaPool

    tempdir = tempfile.mkdtemp(prefix="repro-sweep-procpool-")
    try:
        path = os.path.join(tempdir, "snapshot")
        DeploymentSnapshot.capture(engine).save(path)
        with ProcReplicaPool.from_snapshot(path, workers=1) as pool:
            replica = pool.replicas[0]
            result = replica.mc_forward_batched(
                x_eval, n_samples=preset.mc_samples)
            # Ledger state is read before the OOD call, matching the
            # in-process route's pricing point.
            ledger = OpLedger()
            ledger.counts.update(replica.ledger_totals() or {})
            joules, _ = price_ledger(ledger)
            metrics = {
                "accuracy": float((result.predictions == y_eval).mean()),
                "nll": nll(result.probs, y_eval),
                "ece": expected_calibration_error(result.probs, y_eval),
                "brier": brier_score(result.probs, y_eval),
                "energy_j_per_image": joules / len(x_eval),
                "ops_total": int(ledger.total()),
                "ood_auroc": None,
            }
            if scenario.ood:
                x_ood = _ood_inputs(scenario, preset, x_eval,
                                    data.image_size, data.n_features)
                ood_result = replica.mc_forward_batched(
                    x_ood, n_samples=preset.mc_samples)
                metrics["ood_auroc"] = auroc(
                    result.predictive_entropy,
                    ood_result.predictive_entropy)
    finally:
        shutil.rmtree(tempdir, ignore_errors=True)
    return metrics


def _object_entropy(result, masks: np.ndarray) -> np.ndarray:
    """Per-scene mean predictive entropy over object (mask>0) pixels."""
    n, h, w = masks.shape
    entropy = result.predictive_entropy.reshape(n, h * w)
    flat_obj = masks.reshape(n, h * w) > 0
    counts = np.maximum(flat_obj.sum(axis=1), 1)
    return (entropy * flat_obj).sum(axis=1) / counts


def _segmenter_metrics(scenario: Scenario, preset: SweepPreset,
                       model) -> Dict[str, Optional[float]]:
    """Per-pixel metrics through the pass-stacked segmentation engine."""
    seed = scenario.seed
    x_eval, m_eval = segmentation_scenes(preset.seg_eval_scenes,
                                         seed=preset.train_seed + 1)
    if scenario.corruption:
        x_eval = corrupt(x_eval, scenario.corruption,
                         severity=scenario.severity,
                         rng=np.random.default_rng(seed + 4))
    result = mc_segment(model, x_eval, n_samples=preset.seg_samples)
    labels = m_eval.reshape(-1)
    metrics = {
        "accuracy": float((result.predictions == labels).mean()),
        "nll": nll(result.probs, labels),
        "ece": expected_calibration_error(result.probs, labels),
        "brier": brier_score(result.probs, labels),
        "energy_j_per_image": None,     # software engine: no op ledger
        "ops_total": None,
        "ood_auroc": None,
    }
    if scenario.ood == "ood_objects":
        x_ood, m_ood = segmentation_scenes(preset.seg_eval_scenes,
                                           seed=preset.train_seed + 2,
                                           ood_objects=True)
        ood_result = mc_segment(model, x_ood,
                                n_samples=preset.seg_samples)
        # Per-image mean entropy over OBJECT pixels (background pixels
        # are trivially certain for both groups and would swamp the
        # score) — the §III-B.2 object-uncertainty protocol.
        metrics["ood_auroc"] = auroc(
            _object_entropy(result, m_eval),
            _object_entropy(ood_result, m_ood))
    return metrics


def run_scenario(scenario: Scenario, preset: SweepPreset,
                 cache: Optional[ModelCache] = None) -> dict:
    """Execute one scenario; returns the (deterministic) run record."""
    cache = cache or ModelCache()
    model = cache.get(scenario.family, preset)
    if scenario.family == "segmenter":
        metrics = _segmenter_metrics(scenario, preset, model)
    else:
        metrics = _classifier_metrics(scenario, preset, model)
    return {
        "scenario": scenario.key(),
        "seed": scenario.seed,
        "preset": preset.name,
        "n_samples": (preset.seg_samples if scenario.family == "segmenter"
                      else preset.mc_samples),
        "metrics": metrics,
    }


def run_sweep(matrix: str, store=None,
              markers: Optional[Sequence[str]] = None,
              progress: Optional[Callable[[str], None]] = None,
              cache: Optional[ModelCache] = None,
              cache_dir: Optional[str] = None) -> List[dict]:
    """Expand and run a named matrix; optionally persist to a store.

    Run records (scenario key + metrics) are fully deterministic;
    wall-clock timings go to the store's meta sidecar so the results
    file stays byte-reproducible.  ``cache`` (or a fresh
    :class:`ModelCache` over ``cache_dir``) supplies the trained
    models; with a cache directory, repeated sweeps restore trained
    weights from disk instead of retraining, and the hit/miss/
    invalidation counts are reported through ``progress`` and the
    store's meta sidecar.
    """
    if matrix not in MATRICES:
        raise KeyError(f"unknown matrix {matrix!r}; "
                       f"choose from {sorted(MATRICES)}")
    spec = MATRICES[matrix]
    preset = PRESETS[spec.preset]
    scenarios = expand_matrix(spec, markers=markers)
    if cache is None:
        cache = ModelCache(cache_dir=cache_dir, log=progress)
    records = []
    for i, scenario in enumerate(scenarios):
        t0 = time.perf_counter()
        record = run_scenario(scenario, preset, cache)
        wall_s = time.perf_counter() - t0
        records.append(record)
        if store is not None:
            store.append(record)
            store.append_meta({"name": scenario.name, "wall_s": wall_s})
        if progress is not None:
            m = record["metrics"]
            aur = (f"{m['ood_auroc']:.3f}" if m["ood_auroc"] is not None
                   else "-")
            progress(f"[{i + 1}/{len(scenarios)}] {scenario.name}: "
                     f"acc={m['accuracy']:.3f} ece={m['ece']:.3f} "
                     f"nll={m['nll']:.3f} auroc={aur} ({wall_s:.1f}s)")
    stats = cache.stats()
    if progress is not None:
        progress(f"model cache: {stats['hits']} hit(s), "
                 f"{stats['misses']} miss(es), "
                 f"{stats['invalidations']} invalidation(s)")
    if store is not None:
        store.append_meta({"model_cache": stats})
        store.write_summary(matrix=matrix)
    return records
