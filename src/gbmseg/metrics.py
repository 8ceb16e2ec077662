"""Evaluation functionals: Dice overlap, 95th-percentile Hausdorff
distance over mask surfaces, and the combined soft-Dice / cross-entropy
score used to train the region-based models.

Conventions:

* Empty masks follow the challenge convention: both empty scores DSC 100
  and HD95 0; exactly one empty scores DSC 0 and HD95 373.1287 mm.
* Dice is reported as a percentage in [0, 100].
* Surfaces are mask voxels with at least one 6-connected neighbor outside
  the mask; grid-boundary voxels count their out-of-grid sides as outside.
* HD95 is the linearly interpolated 95th percentile of the combined
  bidirectional surface-distance multiset, in mm.  It is computed on the
  bounding box of the union of the two masks, so its cost scales with the
  tumour, not the grid.  The crop is exact: every surface voxel, and so
  every voxel a distance is measured to, lies inside the box; outside the
  box no voxel belongs to either mask, so counting out-of-box neighbours
  as outside changes no surface voxel; and the distance transform
  compares only index differences, which a crop does not change.
  Distances are read from SciPy's feature transform at surface voxels
  only, with no float64 distance map over the box: about 16 bytes per
  box voxel at peak.
* SciPy's ``ndimage`` is imported inside ``_surface`` and
  ``_surface_distances``, the two functions that call it, so importing
  this module (as the CLI does for every command) loads none of SciPy;
  ``gbmseg fuse`` never does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import (
    LabelVolume,
    ProbabilityVolume,
    Region,
    RegionMask,
    compose_regions,
    require_same_geometry,
    union_box,
)

# The 3x3x3 cross: the centre voxel and its six face neighbours.
_SIX_CONNECTED = np.abs(np.indices((3, 3, 3)) - 1).sum(axis=0) <= 1

LOG_CLAMP = 1e-12

# The challenge convention for empty masks: a correctly predicted absence
# is a perfect result, and a missed or spurious region costs a fixed HD95.
BOTH_EMPTY_DSC = 100.0
BOTH_EMPTY_HD95 = 0.0
ONE_EMPTY_HD95_PENALTY = 373.1287

# Smoothing term of the soft Dice in soft_dice_ce.
SOFT_DICE_EPSILON = 1e-5


@dataclass(frozen=True)
class CaseMetrics:
    """Per-case DSC (percent) and HD95 (mm) for the three regions."""

    case_id: str
    dsc_et: float
    dsc_tc: float
    dsc_wt: float
    hd95_et: float
    hd95_tc: float
    hd95_wt: float

    def dsc(self, region: Region) -> float:
        return getattr(self, f"dsc_{region.value.lower()}")

    def hd95(self, region: Region) -> float:
        return getattr(self, f"hd95_{region.value.lower()}")


def dice(a: RegionMask, b: RegionMask) -> float:
    """Dice similarity 100 * 2|A∩B| / (|A|+|B|), in percent."""
    require_same_geometry(a, b)
    na = int(np.count_nonzero(a.member))
    nb = int(np.count_nonzero(b.member))
    if na == 0 and nb == 0:
        return BOTH_EMPTY_DSC
    if na == 0 or nb == 0:
        return 0.0
    inter = int(np.count_nonzero(a.member & b.member))
    return 100.0 * 2.0 * inter / (na + nb)


def _surface(member: np.ndarray) -> np.ndarray:
    """Boolean mask of member voxels with a 6-connected neighbor outside."""
    from scipy import ndimage

    eroded = ndimage.binary_erosion(member, structure=_SIX_CONNECTED, border_value=0)
    return member & ~eroded


def surface_voxels(m: RegionMask) -> np.ndarray:
    """Surface voxel coordinates as an (n, 3) index array.

    Rows are unique and lexicographically ordered, so the array is a
    deterministic encoding of the surface voxel set.
    """
    return np.argwhere(_surface(m.member))


def hd95(a: RegionMask, b: RegionMask) -> float:
    """95th-percentile symmetric surface distance in mm.

    Each surface voxel of one mask contributes its Euclidean distance (in
    mm, via the shared spacing) to the nearest surface voxel of the other
    mask; the statistic is the linearly interpolated 95th percentile of
    the combined multiset from both directions.
    """
    require_same_geometry(a, b)
    na = int(np.count_nonzero(a.member))
    nb = int(np.count_nonzero(b.member))
    if na == 0 and nb == 0:
        return BOTH_EMPTY_HD95
    if na == 0 or nb == 0:
        return ONE_EMPTY_HD95_PENALTY
    # Exact on the union box; see the module docstring.
    box = union_box([a.member, b.member])
    surf_a = _surface(a.member[box])
    surf_b = _surface(b.member[box])
    spacing = np.asarray(a.spacing, dtype=np.float64)
    distances = np.concatenate([
        _surface_distances(surf_a, surf_b, spacing),
        _surface_distances(surf_b, surf_a, spacing),
    ])
    return float(np.percentile(distances, 95))


def _surface_distances(
    surf_from: np.ndarray, surf_to: np.ndarray, spacing: np.ndarray
) -> np.ndarray:
    """Distance in mm from each ``surf_from`` voxel, in C order, to the
    nearest ``surf_to`` voxel.

    The feature transform of the complement names that nearest voxel at
    every voxel; the distance is taken only where it is read, with the
    arithmetic ``distance_transform_edt`` applies to the whole grid, so the
    values are bit-identical to its distance map's.
    """
    from scipy import ndimage

    nearest = ndimage.distance_transform_edt(
        ~surf_to, sampling=spacing, return_distances=False, return_indices=True)
    at = np.nonzero(surf_from)
    offset = (nearest[(slice(None),) + at] - at).astype(np.float64)
    offset *= spacing[:, None]
    np.multiply(offset, offset, offset)
    return np.sqrt(np.add.reduce(offset, axis=0))


def soft_dice_ce(p: ProbabilityVolume, y: RegionMask, form: str = "literal") -> float:
    """Combined soft-Dice and cross-entropy score of a prediction.

    ``form="literal"`` evaluates the published expression as printed
    (Dice similarity plus cross-entropy); ``form="conventional"`` returns
    the standard minimization objective (1 - Dice) + CE.  Probabilities are
    clamped to [1e-12, 1 - 1e-12] before the logarithm.
    """
    if form not in ("literal", "conventional"):
        raise ValueError(f"form must be literal or conventional, got {form!r}")
    require_same_geometry(p, y)
    pv = p.prob
    yv = y.member.astype(np.float64)
    inter = float((yv * pv).sum())
    sum_y = float(yv.sum())
    sum_p = float(pv.sum())
    dice_term = (2.0 * inter + SOFT_DICE_EPSILON) / (sum_y + sum_p + SOFT_DICE_EPSILON)
    clamped = np.clip(pv, LOG_CLAMP, 1.0 - LOG_CLAMP)
    cross_entropy = float(-(yv * np.log(clamped)).sum())
    if form == "literal":
        return dice_term + cross_entropy
    return (1.0 - dice_term) + cross_entropy


def evaluate_case(pred: LabelVolume, gt: LabelVolume, case_id: str = "") -> CaseMetrics:
    """Per-region DSC and HD95 of a predicted label volume against truth."""
    require_same_geometry(pred, gt)
    pred_masks = compose_regions(pred)
    gt_masks = compose_regions(gt)
    values: dict[str, float] = {}
    for pm, gm, region in zip(pred_masks, gt_masks, (r.value.lower() for r in Region)):
        values[f"dsc_{region}"] = dice(pm, gm)
        values[f"hd95_{region}"] = hd95(pm, gm)
    return CaseMetrics(case_id=case_id, **values)
