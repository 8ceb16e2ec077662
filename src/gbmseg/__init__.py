"""gbmseg: fusion and evaluation toolkit for brain tumor segmentations.

Covers the non-neural stages of a multi-model segmentation pipeline:
NIfTI-1 volume I/O, brain-box preprocessing and seeded augmentation,
label/region algebra, ensemble fusion (probability averaging, majority
vote, per-region mean and binary STAPLE), enhancing-tumor post-processing, and
DSC/HD95 evaluation with aggregate reporting and method ranking.
"""

from .errors import (
    BadAngle,
    BadLabel,
    BadThreshold,
    DegenerateInput,
    DimensionError,
    DimensionMismatch,
    EmptyInput,
    GbmsegError,
    GeometryMismatch,
    IoFailure,
    NoBrainVoxels,
    NoMatchedCases,
    NotNifti,
    RegionMismatch,
    TooFewRaters,
    TooManyRaters,
    TruncatedFile,
    UnreadableVolume,
    UnsupportedDatatype,
    ZeroVariance,
)
from .fusion import (
    RaterPerformance,
    StapleConfig,
    StapleResult,
    average_probabilities,
    ensemble_pipeline,
    majority_vote,
    mean_regions,
    staple_binary,
    staple_regions,
)
from .harness import (
    AggregateReport,
    MethodSummary,
    SummaryStats,
    aggregate,
    evaluate_dataset,
    pair_cases,
    rank_all,
    rank_methods,
    read_metrics_csv,
    render_aggregate_table,
    summarize_method,
    write_metrics_csv,
)
from .metrics import (
    CaseMetrics,
    EmptyMaskPolicy,
    LossConfig,
    dice,
    evaluate_case,
    hd95,
    soft_dice_ce,
    surface_voxels,
)
from .nifti_io import NiftiHeader, read_volume, validate_header, write_volume
from .postprocess import PostprocessConfig, et_threshold_relabel
from .preprocess import (
    AugmentSpec,
    BoundingBox,
    apply_augmentation,
    brain_bounding_box,
    crop_and_fit,
    flip3d,
    gamma_transform,
    rotate3d,
    sample_augmentation,
    zscore_normalize,
)
from .volume import (
    BRATS_LABELS,
    REGIONS,
    LabelVolume,
    ProbabilityVolume,
    Region,
    RegionMask,
    VoxelGrid,
    binarize,
    compose_regions,
    count_label,
    decompose_regions,
    same_geometry,
)

__version__ = "0.1.0"
