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
  as outside changes no surface voxel; and distances depend only on index
  differences, which a crop does not change.  Each surface is listed
  once, as coordinates, and both directions read the two lists.  In each
  direction, a search of the cube reaching ``_REACH`` voxels along each
  axis from every surface voxel, in increasing distance, finds the
  nearest voxel of the other surface when it lies in the cube.  The
  voxels it leaves, far ones among them, take the minimum over all pairs
  with the other surface.  When those pairs number more than
  ``_PAIR_BUDGET``, SciPy's feature transform of the box names the
  nearest voxels instead, read at the leftovers alone, with no float64
  distance map over the box: about 16 bytes per box voxel at peak.
  Every route takes the distance with the same float arithmetic, so they
  give bit-identical values.
* ``evaluate_case`` crops once, to the union box of the two label
  volumes, and composes and scores its six region masks there, so it
  builds no full-grid mask.  The crop is exact: outside that box both
  volumes are 0, so each Dice count is the full grid's, and each region's
  own box lies inside it.  ``hd95`` keeps its own crop to that region box,
  for direct callers and for regions smaller than the case.
* Only that feature transform needs SciPy, and ``_surface_distances``
  imports ``scipy.ndimage`` when it first runs it.  Importing this module
  (as the CLI does for every command) loads none of SciPy; ``gbmseg
  fuse`` never does, and ``gbmseg evaluate`` does only when, in some
  direction, the surface voxels the cube search leaves, times the other
  surface's voxels, exceed ``_PAIR_BUDGET`` pairs, as when noise spreads
  over the grid.
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

# Cube half-side, in voxels, of HD95's nearest-voxel search.  Every surface
# voxel costs one lookup per offset tried until it settles; one the cube
# leaves tries them all, then costs a pass over the other surface.  At 2,
# one direction of the benchmark's ensemble_local workload left voxels to
# the costlier routes; at 3, none did, nor any direction of a correctly
# paired cohort_small case.
_REACH = 3

# Most (voxel, surface voxel) pairs HD95 compares one by one in a
# direction before it runs SciPy's feature transform instead.  On one core
# 2**22 pairs take 0.04 s: a third of the transform of a 96x96x62 box, and
# about an eighth of importing scipy.ndimage.
_PAIR_BUDGET = 1 << 22

# Pairs compared at once by that search: under 1 MB of temporaries, and
# faster than blocks 4 times larger or smaller.
_PAIR_BLOCK = 1 << 14

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
    inner = (slice(1, -1),) * 3
    interior = member[inner].copy(order="K")
    for axis in range(3):
        for low, high in ((None, -2), (2, None)):
            neighbor = list(inner)
            neighbor[axis] = slice(low, high)
            interior &= member[tuple(neighbor)]
    # a voxel on a grid face has a side out of the grid, so it stays surface
    surface = member.copy(order="K")
    surface[inner] &= ~interior
    return surface


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
    at_a, at_b = _listed(surf_a), _listed(surf_b)
    spacing = np.asarray(a.spacing, dtype=np.float64)
    distances = np.concatenate([
        _surface_distances(at_a, surf_b, at_b, spacing),
        _surface_distances(at_b, surf_a, at_a, spacing),
    ])
    return float(np.percentile(distances, 95))


def _listed(surface: np.ndarray) -> tuple[np.ndarray, ...]:
    """A surface's voxel coordinates, listed in its memory order (Fortran
    for volumes read from disk); HD95 takes a multiset, so no value changes."""
    if surface.flags.f_contiguous:
        return np.nonzero(surface.T)[::-1]
    return np.nonzero(surface)


def _surface_distances(at: tuple[np.ndarray, ...], surf_to: np.ndarray,
                       to: tuple[np.ndarray, ...], spacing: np.ndarray) -> np.ndarray:
    """Distance in mm from each surface voxel ``at`` to the nearest voxel
    of the other surface, given both as the mask ``surf_to`` and as its
    coordinates ``to``.

    ``_cube_search`` settles every voxel whose nearest lies in its cube.
    The voxels it leaves take the minimum over all pairs with ``to``, or,
    when those pairs number more than ``_PAIR_BUDGET``, the feature
    transform read at them alone.  Every route takes the squared distance
    with ``_squared_mm``, the arithmetic ``distance_transform_edt`` applies
    to the whole grid, so the values are bit-identical to its distance
    map's.
    """
    squared, left = _cube_search(at, surf_to, spacing)
    if left.size:
        rest = tuple(a[left] for a in at)
        if left.size * to[0].size > _PAIR_BUDGET:
            squared[left] = _transform_search(rest, surf_to, spacing)
        else:
            squared[left] = _pair_search(rest, to, spacing)
    return np.sqrt(squared)


def _squared_mm(offset: np.ndarray, spacing: np.ndarray) -> np.ndarray:
    """Squared length in mm of each column of a (3, n) int voxel offset."""
    offset = offset.astype(np.float64)
    offset *= spacing[:, None]
    np.multiply(offset, offset, offset)
    return np.add.reduce(offset, axis=0)


def _cube_search(at: tuple[np.ndarray, ...], surf_to: np.ndarray,
                 spacing: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared mm from each voxel ``at`` to its nearest ``surf_to`` voxel,
    and the indices into ``at`` of the voxels it left unsettled: those with
    no ``surf_to`` voxel in the ball searched.

    The offsets of the cube of side ``2 * _REACH + 1`` are tried in
    increasing squared mm, and a voxel's first hit is its nearest.  Only
    offsets up to ``((_REACH + 1) * min(spacing))**2`` are tried: a voxel
    outside the cube lies at least that far along one axis, and since
    rounding is monotone, its squared mm as ``_squared_mm`` computes it is
    no smaller, so no voxel outside the cube is nearer than a hit.  An
    unsettled voxel's entry is left unset.
    """
    side = 2 * _REACH + 1
    cube = np.indices((side, side, side)).reshape(3, -1) - _REACH
    squared = _squared_mm(cube, spacing)
    edge = (_REACH + 1) * spacing.min()
    order = np.argsort(squared)
    order = order[squared[order] <= edge * edge]
    # _REACH empty voxels a side keep every searched index in the grid.  The
    # padding keeps the surface's layout (Fortran when read from disk), as a
    # transposing copy costs more than most searches, so strides index it.
    padded = np.pad(surf_to, _REACH)
    lookup = padded.ravel(order="K")
    steps = np.array(padded.strides)  # in bytes, and a bool is one byte
    delta = steps @ cube
    flat = steps @ (np.array(at) + _REACH)
    index = np.arange(flat.size)
    found = np.empty(flat.size)
    for j in order:
        if not index.size:
            break
        hit = lookup[flat + delta[j]]
        found[index[hit]] = squared[j]
        flat, index = flat[~hit], index[~hit]
    return found, index


def _pair_search(at: tuple[np.ndarray, ...], to: tuple[np.ndarray, ...],
                 spacing: np.ndarray) -> np.ndarray:
    """Squared mm from each voxel ``at`` to its nearest voxel ``to``: the
    minimum over all pairs, taken in blocks of at most ``_PAIR_BLOCK``
    pairs, so memory stays bounded however many voxels either side has."""
    source = np.array(at)
    target = np.array(to)
    cols = min(target.shape[1], _PAIR_BLOCK)
    rows = _PAIR_BLOCK // cols
    found = np.full(source.shape[1], np.inf)
    for i in range(0, source.shape[1], rows):
        best = found[i:i + rows]
        for k in range(0, target.shape[1], cols):
            offset = target[:, None, k:k + cols] - source[:, i:i + rows, None]
            squared = _squared_mm(offset.reshape(3, -1), spacing)
            np.minimum(best, squared.reshape(offset.shape[1:]).min(axis=1), out=best)
    return found


def _transform_search(at: tuple[np.ndarray, ...], surf_to: np.ndarray,
                      spacing: np.ndarray) -> np.ndarray:
    """Squared mm from each voxel ``at`` to its nearest ``surf_to`` voxel,
    as SciPy's feature transform of the box names it."""
    from scipy import ndimage

    nearest = ndimage.distance_transform_edt(
        ~surf_to, sampling=spacing, return_distances=False, return_indices=True)
    return _squared_mm(nearest[(slice(None),) + at] - at, spacing)


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
    """Per-region DSC and HD95 of a predicted label volume against truth,
    scored on the union box of the two label volumes (see the module
    docstring)."""
    require_same_geometry(pred, gt)
    box = union_box([pred.labels, gt.labels])
    # the crops keep the grid's affine: no score reads it, and both share it
    pred_masks = compose_regions(LabelVolume(pred.labels[box], pred.spacing, pred.affine))
    gt_masks = compose_regions(LabelVolume(gt.labels[box], gt.spacing, gt.affine))
    values: dict[str, float] = {}
    for pm, gm, region in zip(pred_masks, gt_masks, (r.value.lower() for r in Region)):
        values[f"dsc_{region}"] = dice(pm, gm)
        values[f"hd95_{region}"] = hd95(pm, gm)
    return CaseMetrics(case_id=case_id, **values)
