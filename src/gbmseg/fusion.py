"""Ensemble fusion of multiple models' segmentations.

Four fusion routes are provided: voxel-wise probability averaging (used
within one model's cross-validation folds), plain majority voting, the
per-region mean of hard masks, and binary STAPLE — an
expectation-maximization estimate of the latent true mask together with
each rater's sensitivity/specificity.  Multi-label fusion runs the mean or
STAPLE independently per evaluated region and recombines the consensus
masks through the deterministic label priority.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import (
    DegenerateInput,
    EmptyInput,
    RegionMismatch,
    TooFewRaters,
    TooManyRaters,
)
from .postprocess import PostprocessConfig, et_threshold_relabel
from .volume import (
    BRATS_LABELS,
    REGIONS,
    LabelVolume,
    ProbabilityVolume,
    RegionMask,
    binarize,
    compose_regions,
    decompose_regions,
    require_same_geometry,
)

FOLD_PROBABILITY_THRESHOLD = 0.5
MAX_STAPLE_RATERS = 64

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RaterPerformance:
    """Estimated true-positive and true-negative rates of one rater."""

    sensitivity: float
    specificity: float


@dataclass(frozen=True)
class StapleConfig:
    """Convergence and conditioning controls for the EM fusion.

    ``prior`` selects the stationary foreground prior of the E-step:
    ``"prevalence"`` (default) is the scalar mean fraction of positive
    rater decisions; ``"voxelwise"`` is the per-voxel mean of the rater
    decisions; a float in (0, 1) fixes an explicit scalar.  The scalar
    prevalence is the default because a persistent per-voxel prior lets
    isolated votes on rare structures reinforce themselves until the
    consensus collapses to the union of all raters.

    ``clamp`` keeps the performance estimates strictly inside (0, 1) so
    the E-step never takes log(0) and unanimity cannot freeze the
    iteration.
    """

    max_iter: int = 50
    tol: float = 1e-6
    prior: float | str = "prevalence"
    clamp: float = 1e-6

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if not 0 < self.clamp < 0.5:
            raise ValueError("clamp must lie in (0, 0.5)")
        if isinstance(self.prior, str):
            if self.prior not in ("prevalence", "voxelwise"):
                raise ValueError(f"unknown prior mode {self.prior!r}")
        elif not 0 < self.prior < 1:
            raise ValueError("scalar prior must lie in (0, 1)")


@dataclass(frozen=True)
class StapleResult:
    """EM output: consensus weights, per-rater performance, and the
    log-likelihood trace (non-decreasing, one entry per iteration).

    ``final_delta`` is the mean absolute weight change of the last
    iteration; ``converged`` is whether it fell below ``tol`` (False means
    EM stopped at ``max_iter``)."""

    weights: ProbabilityVolume
    performances: tuple[RaterPerformance, ...]
    iterations: int
    loglik_trace: tuple[float, ...]
    consensus: RegionMask
    converged: bool
    final_delta: float


def _require_same_region(volumes) -> None:
    regions = {v.region for v in volumes}
    if len(regions) > 1:
        raise RegionMismatch(f"mixed region tags: {sorted(r.value for r in regions)}")


def average_probabilities(probs: list[ProbabilityVolume]) -> ProbabilityVolume:
    """Voxel-wise arithmetic mean of probability volumes for one region."""
    if not probs:
        raise EmptyInput("no probability volumes to average")
    require_same_geometry(*probs)
    _require_same_region(probs)
    mean = np.mean([p.prob for p in probs], axis=0)
    return ProbabilityVolume(mean, probs[0].region, probs[0].spacing, probs[0].affine)


def majority_vote(raters: list[LabelVolume]) -> LabelVolume:
    """Per-voxel plurality label; ties go to the smallest label value."""
    if not raters:
        raise EmptyInput("no raters to vote")
    require_same_geometry(*raters)
    counts = np.zeros((len(BRATS_LABELS),) + raters[0].dims, dtype=np.int32)
    for rater in raters:
        for idx, label in enumerate(BRATS_LABELS):
            counts[idx] += rater.labels == label
    # argmax returns the first maximum; BRATS_LABELS is ascending, so ties
    # resolve to the smallest label.
    winner = np.asarray(BRATS_LABELS, dtype=np.uint8)[counts.argmax(axis=0)]
    return LabelVolume(winner, raters[0].spacing, raters[0].affine)


def mean_regions(raters: list[LabelVolume]) -> LabelVolume:
    """Fuse label volumes by the per-region mean of the raters' masks.

    A region keeps a voxel where k of the R raters mark it and 2·k >= R.
    This equals thresholding the float mean of the 0/1 masks at 0.5,
    because k/R is correctly rounded.  The three masks are recombined
    through the ET > TC > WT label priority.
    """
    if not raters:
        raise EmptyInput("no raters to fuse")
    require_same_geometry(*raters)
    per_rater = [compose_regions(r) for r in raters]
    needed = (len(raters) + 1) // 2  # smallest k with 2·k >= R
    consensus: list[RegionMask] = []
    for region_idx in range(len(REGIONS)):
        first = per_rater[0][region_idx]
        marked = np.zeros(first.dims, dtype=np.min_scalar_type(len(raters)))
        for triple in per_rater:
            marked += triple[region_idx].member
        consensus.append(RegionMask(marked >= needed, first.region, first.spacing, first.affine))
    return decompose_regions(*consensus)


def _ordered_sum(terms: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum along ``axis`` after sorting along it.

    The result depends only on the multiset of terms.  Permuting the
    raters permutes both the per-rater terms of a pattern and the order of
    the pattern codes, so every STAPLE sum taken this way is bit-for-bit
    independent of rater order.
    """
    return np.sort(terms, axis=axis).sum(axis=axis)


def staple_binary(raters: list[RegionMask], cfg: StapleConfig = StapleConfig()) -> StapleResult:
    """Binary STAPLE: EM over the raters' hard decisions.

    E-step: posterior weight of each voxel being foreground, from the
    prior and the current per-rater (sensitivity, specificity).
    M-step: each rater's sensitivity becomes the weight mass it marked
    positive over the total weight mass; specificity analogously on the
    complement.  Iteration stops when the mean absolute weight change
    drops below ``cfg.tol`` or after ``cfg.max_iter`` rounds; stopping at
    ``max_iter`` without converging is logged as a warning.

    Pattern form: under every prior mode a voxel's weight depends only on
    its R-bit decision pattern (bit j set when rater j marks it), so each
    voxel's decisions are packed into one integer code and EM runs over
    the P present patterns, every sum weighted by the pattern's voxel
    count.  Per iteration the work and memory are O(R·P) with
    P <= min(2^R, N); the only length-N arrays are the code volume, the
    final gather index and the returned weights.  Codes are at most 64
    bits wide, so R > 64 raises :class:`TooManyRaters`.  An E-step that
    weighs every voxel exactly 1 (or 0) leaves the M-step nothing to divide
    by and raises :class:`DegenerateInput`.
    """
    n_raters = len(raters)
    if n_raters < 2:
        raise TooFewRaters(f"STAPLE needs >= 2 raters, got {n_raters}")
    if n_raters > MAX_STAPLE_RATERS:
        raise TooManyRaters(f"STAPLE supports at most {MAX_STAPLE_RATERS} raters, got {n_raters}")
    require_same_geometry(*raters)
    _require_same_region(raters)

    all_marked = (1 << n_raters) - 1
    code_type = np.min_scalar_type(all_marked)
    codes = np.zeros(raters[0].dims, dtype=code_type)
    for j, rater in enumerate(raters):
        codes |= rater.member.astype(code_type) << code_type.type(j)
    patterns, counts = np.unique(codes, return_counts=True)
    if len(patterns) == 1 and int(patterns[0]) in (0, all_marked):
        raise DegenerateInput("every rater marks every voxel identically")
    shifts = np.arange(n_raters, dtype=code_type)[:, None]
    marks = (patterns[None, :] >> shifts) & 1 == 1  # (R, P)
    n_voxels = codes.size

    positives = marks.sum(axis=0)
    if cfg.prior == "prevalence":
        prior = np.full(len(patterns), float(counts @ positives) / (n_raters * n_voxels))
    elif cfg.prior == "voxelwise":
        prior = positives / n_raters
    else:
        prior = np.full(len(patterns), float(cfg.prior))
    with np.errstate(divide="ignore"):  # prior of exactly 0/1 is meaningful
        log_prior = np.log(prior)
        log_not_prior = np.log1p(-prior)

    lo, hi = cfg.clamp, 1.0 - cfg.clamp
    sens = np.full(n_raters, hi)
    spec = np.full(n_raters, hi)

    weights = prior
    trace: list[float] = []
    iterations = 0
    delta = np.inf
    for _ in range(cfg.max_iter):
        iterations += 1
        # E-step, in log space: log a_p (foreground) vs log b_p (background)
        log_a = log_prior + _ordered_sum(
            np.where(marks, np.log(sens)[:, None], np.log1p(-sens)[:, None]), axis=0)
        log_b = log_not_prior + _ordered_sum(
            np.where(marks, np.log1p(-spec)[:, None], np.log(spec)[:, None]), axis=0)
        new_weights = expit(log_a - log_b)
        trace.append(float(_ordered_sum(counts * np.logaddexp(log_a, log_b))))

        # M-step; clamping is the constrained maximizer because the
        # objective is concave in each rate separately.
        fg_mass = counts * new_weights
        bg_mass = counts * (1.0 - new_weights)
        fg_total, bg_total = _ordered_sum(fg_mass), _ordered_sum(bg_mass)
        if fg_total == 0.0 or bg_total == 0.0:
            raise DegenerateInput(
                f"STAPLE on {raters[0].region.value}: every weight is exactly {int(bg_total == 0.0)}")
        sens = np.clip(_ordered_sum(np.where(marks, fg_mass, 0.0)) / fg_total, lo, hi)
        spec = np.clip(_ordered_sum(np.where(marks, 0.0, bg_mass)) / bg_total, lo, hi)

        delta = float(_ordered_sum(counts * np.abs(new_weights - weights))) / n_voxels
        weights = new_weights
        if delta < cfg.tol:
            break
    converged = delta < cfg.tol
    if not converged:
        logger.warning(
            "STAPLE on %s stopped at max_iter=%d without converging "
            "(mean weight change %.3g, tol %.3g)",
            raters[0].region.value, cfg.max_iter, delta, cfg.tol,
        )

    first = raters[0]
    weight_volume = ProbabilityVolume(
        weights[np.searchsorted(patterns, codes)], first.region, first.spacing, first.affine
    )
    return StapleResult(
        weights=weight_volume,
        performances=tuple(RaterPerformance(float(p), float(q)) for p, q in zip(sens, spec)),
        iterations=iterations,
        loglik_trace=tuple(trace),
        consensus=binarize(weight_volume, 0.5),
        converged=converged,
        final_delta=delta,
    )


def staple_regions(methods: list[LabelVolume], cfg: StapleConfig = StapleConfig()) -> LabelVolume:
    """Fuse label volumes by running binary STAPLE per evaluated region.

    Regions all raters predict empty stay empty, and regions on which all
    raters agree exactly are passed through (both are EM fixed points), so
    STAPLE only runs where there is disagreement.  The three consensus
    masks are recombined through the ET > TC > WT label priority.
    """
    if len(methods) < 2:
        raise TooFewRaters(f"need >= 2 method predictions, got {len(methods)}")
    require_same_geometry(*methods)
    per_method = [compose_regions(m) for m in methods]

    consensus: list[RegionMask] = []
    for region_idx, region in enumerate(REGIONS):
        masks = [triple[region_idx] for triple in per_method]
        reference = masks[0]
        if all(np.array_equal(m.member, reference.member) for m in masks[1:]):
            consensus.append(reference)
        else:
            consensus.append(staple_binary(masks, cfg).consensus)
    return decompose_regions(*consensus)


def ensemble_pipeline(
    per_method_fold_probs: list[list[tuple[ProbabilityVolume, ProbabilityVolume, ProbabilityVolume]]],
    cfg: StapleConfig = StapleConfig(),
    post: PostprocessConfig = PostprocessConfig(),
) -> LabelVolume:
    """Full fusion pipeline across methods and cross-validation folds.

    Per method: fold probabilities are averaged per region, thresholded at
    0.5, and collapsed to one label volume.  Across methods: per-region
    STAPLE, label recombination, then the ET voxel-count post-processing.

    Input layout: one entry per method, each a list of per-fold
    (ET, TC, WT) probability triples sharing geometry.
    """
    if len(per_method_fold_probs) < 2:
        raise TooFewRaters(f"need >= 2 methods, got {len(per_method_fold_probs)}")
    method_labels: list[LabelVolume] = []
    for method_idx, folds in enumerate(per_method_fold_probs):
        if not folds:
            raise EmptyInput(f"method {method_idx} has no folds")
        masks = []
        for region_idx, region in enumerate(REGIONS):
            fold_probs = [fold[region_idx] for fold in folds]
            for p in fold_probs:
                if p.region is not region:
                    raise RegionMismatch(
                        f"method {method_idx}: expected {region.value} at slot "
                        f"{region_idx}, got {p.region.value}"
                    )
            averaged = average_probabilities(fold_probs)
            masks.append(binarize(averaged, FOLD_PROBABILITY_THRESHOLD))
        method_labels.append(decompose_regions(*masks))
    fused = staple_regions(method_labels, cfg)
    return et_threshold_relabel(fused, post)
