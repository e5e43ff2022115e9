"""The six NeuSpin Bayesian methods plus baselines.

Dropout family: SpinDrop (per-neuron), Spatial-SpinDrop (per feature
map), SpinScaleDrop (scalar per layer), Affine Dropout with inverted
normalization (two scalars per layer).  VI family: Bayesian subset-
parameter inference (Gaussian scale posterior), SpinBayes (N quantized
crossbars + arbiter).  Baselines: deterministic nets (in repro.nn) and
deep ensembles.
"""

from repro.bayesian.base import (
    PredictiveResult,
    StochasticModule,
    deterministic_predict,
    mc_predict,
    mc_predict_batched,
    mc_predict_fn,
    set_mc_mode,
)
from repro.bayesian.spindrop import (
    SpinDropout,
    count_dropout_modules,
    make_binary_mlp,
    make_spindrop_mlp,
)
from repro.bayesian.spatial import SpatialSpinDropout, make_spatial_spindrop_cnn
from repro.bayesian.scale_dropout import (
    ScaleDropout,
    adaptive_dropout_probability,
    make_scaledrop_mlp,
    scale_parameters,
)
from repro.bayesian.affine import (
    AffineDropout,
    make_affine_mlp,
    make_affine_regressor,
)
from repro.bayesian.subset_vi import (
    BayesianScale,
    bayesian_parameter_count,
    conventional_vi_footprint_bits,
    deterministic_parameter_count,
    elbo_loss,
    make_subset_vi_mlp,
    memory_footprint_bits,
)
from repro.bayesian.dropconnect import DropConnectLinear, make_dropconnect_mlp
from repro.bayesian.spinbayes import SpinBayesNetwork
from repro.bayesian.segmentation import (
    SegmenterEngine,
    Upsample2d,
    make_bayesian_segmenter,
    mc_segment,
    pixel_maps,
    segmentation_loss,
)
from repro.bayesian.deploy import BayesianCim
from repro.bayesian.ensemble import DeepEnsemble

__all__ = [
    "PredictiveResult",
    "StochasticModule",
    "mc_predict",
    "mc_predict_batched",
    "mc_predict_fn",
    "deterministic_predict",
    "set_mc_mode",
    "SpinDropout",
    "make_spindrop_mlp",
    "make_binary_mlp",
    "count_dropout_modules",
    "SpatialSpinDropout",
    "make_spatial_spindrop_cnn",
    "ScaleDropout",
    "adaptive_dropout_probability",
    "make_scaledrop_mlp",
    "scale_parameters",
    "AffineDropout",
    "make_affine_mlp",
    "make_affine_regressor",
    "BayesianScale",
    "make_subset_vi_mlp",
    "elbo_loss",
    "bayesian_parameter_count",
    "deterministic_parameter_count",
    "memory_footprint_bits",
    "conventional_vi_footprint_bits",
    "SpinBayesNetwork",
    "DropConnectLinear",
    "make_dropconnect_mlp",
    "BayesianCim",
    "Upsample2d",
    "SegmenterEngine",
    "make_bayesian_segmenter",
    "segmentation_loss",
    "mc_segment",
    "pixel_maps",
    "DeepEnsemble",
]
