"""Ensemble fusion of multiple models' segmentations.

Four fusion routes are provided: voxel-wise probability averaging (used
within one model's cross-validation folds), plain majority voting, the
per-region mean of hard masks, and binary STAPLE — an
expectation-maximization estimate of the latent true mask together with
each rater's sensitivity/specificity.

Voting, the mean and STAPLE over label volumes share one design.  Each
voxel's R labels pack into one joint code, two bits a rater (0, 1, 2, 4
become 0, 1, 2, 3), and the codes are counted once.  The rule gives each
present code, decoded to its R labels, one label (the mean and STAPLE
decide each region by ``volume.region_members`` and recombine by
``volume.priority_labels``), and one gather writes the fused grid.  A
joint code is at most a ``uint16``, so these rules take R <= 8.  Binary
STAPLE packs one bit a rater alike, and its E-step takes the logistic of
one log-odds value per pattern, one at a time with the C library's
``exp``, bit for bit as ``scipy.special.expit`` does but without loading
SciPy.

Codes are packed only inside the union box: the tightest box holding every
voxel that some input marks nonzero.  Outside it every input says 0, so
those voxels add to code 0 and take its answer, and every output stays
bit-identical to the full-grid computation.  Arrays over the raters'
payload take its memory order (Fortran, as read from disk), so no pass
over them, and no write of the fused volume, transposes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInput,
    EmptyInput,
    RegionMismatch,
    TooFewRaters,
    TooManyRaters,
)
from .postprocess import DEFAULT_ET_THRESHOLD, et_threshold_relabel
from .volume import (
    BRATS_LABELS,
    REGIONS,
    LabelVolume,
    ProbabilityVolume,
    Region,
    RegionMask,
    binarize,
    decompose_regions,
    priority_labels,
    region_members,
    require_same_geometry,
    union_box,
)

# A decision pattern takes one bit per rater and a joint label code two, and
# each is at most a uint16: staple_binary fuses up to 16 masks, and voting,
# the mean and staple_regions up to 8 label volumes (a table of 4^8 codes).
MAX_STAPLE_RATERS = 16
MAX_LABEL_RATERS = MAX_STAPLE_RATERS // 2
# STAPLE keeps each rater's sensitivity and specificity inside
# [STAPLE_CLAMP, 1 - STAPLE_CLAMP], so the E-step never takes log(0) and
# unanimity cannot freeze the iteration.
STAPLE_CLAMP = 1e-6

_LABEL_OF_BITS = np.array(BRATS_LABELS, dtype=np.uint8)  # indexed by a rater's 2-bit code

# Joint codes are built, counted and gathered this many voxels at a time, so
# no temporary is box-sized: a whole-box bincount would cast every code to
# intp, 8 bytes a voxel.
_CODE_CHUNK = 1 << 14

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RaterPerformance:
    """Estimated true-positive and true-negative rates of one rater."""

    sensitivity: float
    specificity: float


@dataclass(frozen=True)
class StapleConfig:
    """Convergence controls for the EM fusion."""

    max_iter: int = 50
    tol: float = 1e-6

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.tol > 0:  # NaN too: no weight change falls below it
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class StapleResult:
    """EM output: one foreground weight per decision pattern present,
    per-rater performance, and the log-likelihood trace (non-decreasing,
    one entry per iteration).  Bit j of a pattern code is set when rater j
    marks the voxel; ``patterns`` ascends in the code dtype, and a voxel of
    code c weighs ``weights[searchsorted(patterns, c)]``.  ``final_delta``
    is the mean absolute weight change of the last iteration; ``converged``
    is whether it fell below ``tol`` (False means EM stopped at ``max_iter``)."""

    patterns: np.ndarray
    weights: np.ndarray
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


def _logistic(v: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:  # e^-v > DBL_MAX: the C library's exp gives inf, and 1/(1+inf) = 0
        return 0.0


def _expit(x: np.ndarray) -> np.ndarray:
    """The logistic 1 / (1 + e^-x) of a 1-D array, element by element with
    libm's ``exp``, which makes it equal to ``scipy.special.expit`` bit for
    bit.  NumPy's vectorized ``exp`` is not libm's and differs in the last
    bits."""
    return np.array([_logistic(v) for v in x.tolist()], dtype=np.float64)


def _ordered_sum(terms: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum along ``axis`` after sorting along it.

    The result depends only on the multiset of terms.  Permuting the
    raters permutes both the per-rater terms of a pattern and the order of
    the pattern codes, so every STAPLE sum taken this way is bit-for-bit
    independent of rater order.
    """
    return np.sort(terms, axis=axis).sum(axis=axis)


def _staple_em(patterns: np.ndarray, counts: np.ndarray, n_raters: int, n_voxels: int,
               region: Region, cfg: StapleConfig):
    """EM over a (pattern, count) table: bit j of a pattern is set when rater
    j marks the voxel, ``patterns`` ascends, and ``counts`` (int64) sums to
    ``n_voxels``.  Returns each pattern's foreground weight, the raters'
    sensitivities and specificities, the log-likelihood trace and the last
    mean weight change; stopping at ``max_iter`` is logged, naming ``region``."""
    shifts = np.arange(n_raters, dtype=patterns.dtype)[:, None]
    marks = (patterns[None, :] >> shifts) & 1 == 1  # (R, P)

    prior = float(counts @ marks.sum(axis=0)) / (n_raters * n_voxels)
    if not 0.0 < prior < 1.0:
        raise DegenerateInput("every rater marks every voxel identically")
    log_prior = np.log(prior)
    log_not_prior = np.log1p(-prior)

    lo, hi = STAPLE_CLAMP, 1.0 - STAPLE_CLAMP
    sens = np.full(n_raters, hi)
    spec = np.full(n_raters, hi)

    weights = prior
    trace: list[float] = []
    delta = np.inf
    for _ in range(cfg.max_iter):
        # E-step, in log space: log a_p (foreground) vs log b_p (background)
        log_a = log_prior + _ordered_sum(
            np.where(marks, np.log(sens)[:, None], np.log1p(-sens)[:, None]), axis=0)
        log_b = log_not_prior + _ordered_sum(
            np.where(marks, np.log1p(-spec)[:, None], np.log(spec)[:, None]), axis=0)
        new_weights = _expit(log_a - log_b)
        trace.append(float(_ordered_sum(counts * np.logaddexp(log_a, log_b))))

        # M-step; clamping is the constrained maximizer because the
        # objective is concave in each rate separately.
        fg_mass = counts * new_weights
        bg_mass = counts * (1.0 - new_weights)
        fg_total, bg_total = _ordered_sum(fg_mass), _ordered_sum(bg_mass)
        if fg_total == 0.0 or bg_total == 0.0:
            raise DegenerateInput(
                f"STAPLE on {region.value}: every weight is exactly {int(bg_total == 0.0)}")
        sens = np.clip(_ordered_sum(np.where(marks, fg_mass, 0.0)) / fg_total, lo, hi)
        spec = np.clip(_ordered_sum(np.where(marks, 0.0, bg_mass)) / bg_total, lo, hi)

        delta = float(_ordered_sum(counts * np.abs(new_weights - weights))) / n_voxels
        weights = new_weights
        if delta < cfg.tol:
            break
    if not delta < cfg.tol:
        logger.warning(
            "STAPLE on %s stopped at max_iter=%d without converging "
            "(mean weight change %.3g, tol %.3g)",
            region.value, cfg.max_iter, delta, cfg.tol,
        )
    return weights, sens, spec, trace, delta


def staple_binary(raters: list[RegionMask], cfg: StapleConfig = StapleConfig()) -> StapleResult:
    """Binary STAPLE: EM over the raters' hard decisions.

    E-step: posterior weight of each voxel being foreground, from the
    prior and the current per-rater (sensitivity, specificity).  The prior
    is the prevalence, the mean fraction of positive rater decisions, the
    same for every voxel: a per-voxel prior would let isolated votes on
    rare structures reinforce themselves until the consensus collapses to
    the union of all raters.
    M-step: each rater's sensitivity becomes the weight mass it marked
    positive over the total weight mass; specificity analogously on the
    complement.  Iteration stops when the mean absolute weight change
    drops below ``cfg.tol`` or after ``cfg.max_iter`` rounds; stopping at
    ``max_iter`` without converging is logged as a warning.

    Pattern form: a voxel's weight depends only on its R-bit decision
    pattern (see :class:`StapleResult`), so EM runs over the P present
    patterns, every sum weighted by its voxel count: O(R·P) work and memory
    per iteration, P <= min(2^R, N).  Codes are packed only inside the
    raters' union box and counted, a chunk at a time, in a table indexed by
    code; voxels outside the box have pattern 0, so they add to entry 0 and
    take its decision.  N stays the whole grid, and EM sees the same (pattern,
    count) multiset as over every voxel: results are bit-identical.  Only
    the boolean consensus has the grid's size.  A grid with no voxels raises
    :class:`EmptyInput`.  Codes are at most 16 bits wide, so R > 16 raises
    :class:`TooManyRaters`.  A prevalence of 0 or 1, or an E-step weighing
    every voxel exactly 1 (or 0), leaves the M-step nothing to divide by:
    :class:`DegenerateInput`.
    """
    n_raters = len(raters)
    if n_raters < 2:
        raise TooFewRaters(f"STAPLE needs >= 2 raters, got {n_raters}")
    if n_raters > MAX_STAPLE_RATERS:
        raise TooManyRaters(f"STAPLE supports at most {MAX_STAPLE_RATERS} raters, got {n_raters}")
    require_same_geometry(*raters)
    _require_same_region(raters)
    n_voxels = raters[0].member.size
    if n_voxels == 0:
        raise EmptyInput("STAPLE on a grid with no voxels")

    box = union_box([r.member for r in raters])
    codes, counts = _joint_codes([r.member[box] for r in raters], width=1)
    counts[0] += n_voxels - codes.size  # the voxels outside the box all have pattern 0
    patterns = np.flatnonzero(counts).astype(codes.dtype)
    first = raters[0]
    weights, sens, spec, trace, delta = _staple_em(
        patterns, counts[patterns], n_raters, n_voxels, first.region, cfg)

    decision = np.zeros(counts.size, dtype=bool)
    decision[patterns] = weights >= 0.5
    # outside the box is pattern 0, whose weight can be >= 0.5 too
    member = np.full_like(first.member, decision[0])
    _gather(decision, codes, member[box])
    return StapleResult(
        patterns=patterns,
        weights=weights,
        performances=tuple(RaterPerformance(float(p), float(q)) for p, q in zip(sens, spec)),
        iterations=len(trace),
        loglik_trace=tuple(trace),
        consensus=RegionMask(member, first.region, first.spacing, first.affine),
        converged=delta < cfg.tol,
        final_delta=delta,
    )


def _chunks(operands: list[np.ndarray]) -> np.nditer:
    """A walk over equal-shaped arrays, the last one written, in their
    memory order, ``_CODE_CHUNK`` voxels at a time."""
    return np.nditer(operands, flags=["external_loop", "buffered", "zerosize_ok"],
                     op_flags=[["readonly"]] * (len(operands) - 1) + [["writeonly"]],
                     buffersize=_CODE_CHUNK, order="K")


def _joint_codes(inside: list[np.ndarray], width: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Each voxel's joint code over the raters' arrays, and the int64 count
    of each code.  Rater j's value v fills ``width`` bits from bit width·j as
    v - (v >> 2): label 0, 1, 2 or 4 as 0, 1, 2 or 3, a mask bit as itself."""
    code_type = np.min_scalar_type((1 << width * len(inside)) - 1)
    shifts = [code_type.type(width * j) for j in range(len(inside))]
    two = np.uint8(2)
    codes = np.empty_like(inside[0], dtype=code_type)
    counts = np.zeros(1 << width * len(inside), dtype=np.int64)
    with _chunks([*inside, codes]) as walk:
        for *values, code in walk:
            code[...] = 0
            for value, shift in zip(values, shifts):
                code |= (value - (value >> two)).astype(code_type, copy=False) << shift
            counts += np.bincount(code, minlength=counts.size)
    return codes, counts


def _gather(table: np.ndarray, codes: np.ndarray, out: np.ndarray) -> None:
    """``out[...] = table[codes]``, a chunk at a time, with no box-sized
    temporary."""
    with _chunks([codes, out]) as walk:
        for code, value in walk:
            value[...] = table[code]


def _fuse_labels(raters: list[LabelVolume], label_of) -> LabelVolume:
    """Fuse label volumes by a rule that gives each joint code one label:
    ``label_of(labels, counts)`` gets the present codes as an (R, P) array
    of BraTS labels and their voxel counts.  R > 8 raises
    :class:`TooManyRaters`."""
    n_raters = len(raters)
    if n_raters == 0:
        raise EmptyInput("no label volumes to fuse")
    if n_raters > MAX_LABEL_RATERS:
        raise TooManyRaters(f"fusion takes at most {MAX_LABEL_RATERS} label volumes, got {n_raters}")
    require_same_geometry(*raters)
    first = raters[0]
    box = union_box([r.labels for r in raters])
    codes, counts = _joint_codes([r.labels[box] for r in raters])
    counts[0] += first.labels.size - codes.size  # outside the box every rater says 0
    present = np.flatnonzero(counts)
    two_bits = (present[None, :] >> 2 * np.arange(n_raters)[:, None]) & 3
    table = np.zeros(counts.size, dtype=np.uint8)
    table[present] = label_of(_LABEL_OF_BITS[two_bits], counts[present])
    fused = np.full_like(first.labels, table[0])
    _gather(table, codes, fused[box])
    return LabelVolume(fused, first.spacing, first.affine)


def majority_vote(raters: list[LabelVolume]) -> LabelVolume:
    """Per-voxel plurality label; ties go to the smallest label value."""

    def plurality(labels, _counts):
        votes = [np.count_nonzero(labels == v, axis=0) for v in BRATS_LABELS]
        # argmax takes the first of tied counts: the smallest label
        return _LABEL_OF_BITS[np.argmax(votes, axis=0)]

    return _fuse_labels(raters, plurality)


def mean_regions(raters: list[LabelVolume]) -> LabelVolume:
    """Fuse label volumes by the per-region mean of the raters' masks.

    A region keeps a voxel where k of the R raters mark it and 2·k >= R.
    This equals thresholding the float mean of the 0/1 masks at 0.5,
    because k/R is correctly rounded.  The three decisions are recombined
    through the ET > TC > WT label priority.
    """

    def half_marked(labels, _counts):
        needed = (len(labels) + 1) // 2  # smallest k with 2·k >= R
        return priority_labels(*(m.sum(axis=0) >= needed for m in region_members(labels)))

    return _fuse_labels(raters, half_marked)


def staple_regions(methods: list[LabelVolume], cfg: StapleConfig = StapleConfig()) -> LabelVolume:
    """Fuse label volumes by running binary STAPLE per evaluated region.

    A region's (pattern, count) table sums the counts of the joint codes,
    so its EM sees what :func:`staple_binary` sees on the region's masks and
    decides bit for bit alike.  A region whose present patterns are all 0 or
    all ones is passed through (every rater agrees; both are EM fixed
    points), so STAPLE only runs where there is disagreement.  Each joint
    code then takes one label by the ET > TC > WT priority.  R < 2 raises
    :class:`TooFewRaters`; the warning for a region that stops at
    ``max_iter``, and a :class:`DegenerateInput`, name the region.
    """
    if len(methods) < 2:
        raise TooFewRaters(f"need >= 2 method predictions, got {len(methods)}")

    def per_region(labels, counts):
        n_raters = len(labels)
        shifts = np.arange(n_raters)[:, None]
        all_marked = (1 << n_raters) - 1
        chosen = []
        for region, marked in zip(REGIONS, region_members(labels)):
            region_codes = (marked << shifts).sum(axis=0)
            region_counts = np.zeros(all_marked + 1, dtype=np.int64)
            np.add.at(region_counts, region_codes, counts)
            patterns = np.flatnonzero(region_counts)
            decision = np.zeros(all_marked + 1, dtype=bool)
            if np.isin(patterns, (0, all_marked)).all():  # every rater agrees
                decision[patterns] = patterns != 0
            else:
                weights = _staple_em(patterns, region_counts[patterns], n_raters,
                                     int(counts.sum()), region, cfg)[0]
                decision[patterns] = weights >= 0.5
            chosen.append(decision[region_codes])
        return priority_labels(*chosen)

    return _fuse_labels(methods, per_region)


def ensemble_pipeline(
    per_method_fold_probs: list[list[tuple[ProbabilityVolume, ProbabilityVolume, ProbabilityVolume]]],
    cfg: StapleConfig = StapleConfig(),
    et_threshold: int = DEFAULT_ET_THRESHOLD,
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
        if any(len(fold) != len(REGIONS) for fold in folds):
            raise RegionMismatch(f"method {method_idx}: every fold must be an (ET, TC, WT) triple")
        # average_probabilities rejects a slot whose folds disagree on the
        # region, and decompose_regions a slot order other than ET, TC, WT.
        masks = [binarize(average_probabilities(list(slot))) for slot in zip(*folds)]
        method_labels.append(decompose_regions(*masks))
    fused = staple_regions(method_labels, cfg)
    return et_threshold_relabel(fused, et_threshold)
