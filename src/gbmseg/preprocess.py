"""Cropping, target-size fitting, z-score normalization, and the seeded
augmentation transforms (rotation, 3D flipping, gamma).

All operations are pure: geometry is only changed where documented
(crop_and_fit translates the affine; augmentations leave geometry alone
because they act in augmentation space, not scanner space).
SciPy is imported inside ``rotate3d``, its only caller, so importing this
module (as the CLI does for every command) loads none of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadAngle, GeometryMismatch, NoBrainVoxels, NonFiniteIntensity, ZeroVariance
from .volume import VoxelGrid, require_same_geometry, union_box

DEFAULT_TARGET_DIMS = (192, 224, 160)

GAMMA_RANGE = (0.7, 1.5)
ROTATION_RANGE_DEG = (0.0, 30.0)

# rotation about axis k happens in the plane spanned by the other two axes
_ROTATION_PLANES = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


@dataclass(frozen=True)
class AugmentSpec:
    """One sampled augmentation: rotate, flip, gamma — in that order."""

    rotation_axis: int
    rotation_deg: float
    flip_axes: tuple[int, ...]
    gamma: float
    seed: int

    def __post_init__(self):
        if self.rotation_axis not in _ROTATION_PLANES:
            raise ValueError(f"rotation_axis must be 0, 1 or 2, got {self.rotation_axis}")
        if not ROTATION_RANGE_DEG[0] <= self.rotation_deg <= ROTATION_RANGE_DEG[1]:
            raise BadAngle(f"rotation_deg {self.rotation_deg} outside {ROTATION_RANGE_DEG}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")


def brain_bounding_box(modalities: list[VoxelGrid]) -> tuple[slice, slice, slice]:
    """Tightest box containing every voxel nonzero in any modality, as
    ``volume.union_box`` gives it: one slice per axis."""
    if not modalities:
        raise NoBrainVoxels("no modalities given")
    require_same_geometry(*modalities)
    box = union_box([grid.values for grid in modalities])
    if box == (slice(0, 0),) * 3:
        raise NoBrainVoxels("every voxel is zero in all modalities")
    return box


def _require_finite(grid: VoxelGrid) -> None:
    """Raise NonFiniteIntensity naming how many voxels are NaN or infinite."""
    bad = grid.values.size - np.count_nonzero(np.isfinite(grid.values))
    if bad:
        raise NonFiniteIntensity(f"{bad} non-finite intensity voxel(s) (NaN or inf)")


def crop_and_fit(grid: VoxelGrid, box: tuple[slice, slice, slice],
                 target_dims: tuple[int, int, int]) -> VoxelGrid:
    """Center the box contents inside a grid of exactly ``target_dims``.

    Per axis the target window starts ``int((target - size) / 2)`` voxels
    before the box: a smaller box is zero-padded and a larger one
    center-cropped, and truncation toward zero puts an odd remainder on the
    high side in both cases.  The affine is translated so every retained
    voxel keeps its world coordinates.  The box is one slice per axis; an
    empty one, an open end, a step or a slice leaving the grid raises
    GeometryMismatch.
    """
    if len(box) != 3 or any(s.step not in (None, 1) or None in (s.start, s.stop)
                            or not 0 <= s.start < s.stop <= d for s, d in zip(box, grid.dims)):
        raise GeometryMismatch(f"box {box} is not a non-empty box inside grid dims {grid.dims}")
    out = np.zeros(tuple(target_dims), dtype=grid.values.dtype)
    origin = [s.start - int((t - (s.stop - s.start)) / 2) for s, t in zip(box, target_dims)]
    src = tuple(slice(max(s.start, o), min(s.stop, o + t))
                for s, o, t in zip(box, origin, target_dims))
    out[tuple(slice(s.start - o, s.stop - o) for s, o in zip(src, origin))] = grid.values[src]
    affine = grid.affine.copy()
    affine[:3, 3] = grid.affine[:3, 3] + grid.affine[:3, :3] @ np.asarray(origin, dtype=np.float64)
    return VoxelGrid(out, grid.spacing, affine)


def zscore_normalize(grid: VoxelGrid) -> VoxelGrid:
    """Standardize brain intensities to zero mean and unit variance.

    Statistics are computed over nonzero voxels only (the brain, in
    skull-stripped data) using the population standard deviation; the zero
    background stays exactly zero.  A NaN or infinite voxel raises
    NonFiniteIntensity, since it would make every brain voxel NaN.
    """
    _require_finite(grid)
    values = grid.values.astype(np.float64)
    brain = values != 0
    inside = values[brain]  # gathered once: over a Fortran-ordered grid it is a strided walk
    if inside.size == 0:
        raise NoBrainVoxels("cannot normalize an all-zero volume")
    mean = inside.mean()
    std = inside.std()  # population (ddof=0)
    if std == 0.0:
        raise ZeroVariance(f"all brain voxels equal {inside[0]}")
    out = np.zeros_like(values)
    out[brain] = (inside - mean) / std
    return VoxelGrid(out, grid.spacing, grid.affine)


def flip3d(grid: VoxelGrid, axes: tuple[int, ...]) -> VoxelGrid:
    """Mirror values along each listed axis; geometry metadata unchanged."""
    axes = tuple(axes)
    if any(a not in (0, 1, 2) for a in axes):
        raise ValueError(f"axes must be drawn from {{0,1,2}}, got {axes}")
    values = np.flip(grid.values, axis=axes) if axes else grid.values
    return VoxelGrid(values.copy(), grid.spacing, grid.affine)


def rotate3d(
    grid: VoxelGrid,
    axis: int,
    degrees: float,
    interpolation: str = "trilinear",
) -> VoxelGrid:
    """Rotate about the grid center around one axis.

    ``trilinear`` is for intensity payloads; ``nearest`` is mandatory for
    label or mask payloads so no new values are invented.  Samples falling
    outside the source grid become 0.
    """
    if not ROTATION_RANGE_DEG[0] <= degrees <= ROTATION_RANGE_DEG[1]:
        raise BadAngle(f"degrees {degrees} outside {ROTATION_RANGE_DEG}")
    if interpolation not in ("trilinear", "nearest"):
        raise ValueError(f"unknown interpolation {interpolation!r}")
    if axis not in _ROTATION_PLANES:
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
    if degrees == 0.0:
        return VoxelGrid(grid.values.copy(), grid.spacing, grid.affine)
    order = 1 if interpolation == "trilinear" else 0
    values = grid.values
    if order == 1 and not np.issubdtype(values.dtype, np.floating):
        values = values.astype(np.float64)
    from scipy import ndimage

    rotated = ndimage.rotate(
        values,
        angle=degrees,
        axes=_ROTATION_PLANES[axis],
        reshape=False,
        order=order,
        mode="constant",
        cval=0.0,
        prefilter=False,
    )
    return VoxelGrid(rotated, grid.spacing, grid.affine)


def gamma_transform(grid: VoxelGrid, gamma: float) -> VoxelGrid:
    """Power-law intensity transform within the grid's own min/max range.

    Values are min-max normalized to [0, 1], raised to ``gamma``, then
    rescaled to the original range; the endpoints are preserved exactly
    and ordering is monotone.  Constant grids pass through unchanged.  A
    NaN or infinite voxel raises NonFiniteIntensity.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    _require_finite(grid)
    values = grid.values.astype(np.float64)
    vmin, vmax = float(values.min()), float(values.max())
    if vmin == vmax:
        return VoxelGrid(grid.values.copy(), grid.spacing, grid.affine)
    norm = (values - vmin) / (vmax - vmin)
    out = norm**gamma * (vmax - vmin) + vmin
    # pin the endpoints: (vmax - vmin) + vmin need not round back to vmax
    out[values == vmin] = vmin
    out[values == vmax] = vmax
    return VoxelGrid(out, grid.spacing, grid.affine)


def sample_augmentation(seed: int) -> AugmentSpec:
    """Deterministically draw one augmentation from a 64-bit seed.

    Draw order is fixed (axis, angle, three flip coin-tosses, gamma):
    rotation angle uniform in [0, 30] degrees, each flip axis included
    independently with probability 1/2, gamma uniform in [0.7, 1.5].
    """
    rng = np.random.default_rng(seed)
    axis = int(rng.integers(3))
    degrees = float(rng.uniform(*ROTATION_RANGE_DEG))
    flips = tuple(a for a in range(3) if rng.random() < 0.5)
    gamma = float(rng.uniform(*GAMMA_RANGE))
    return AugmentSpec(axis, degrees, flips, gamma, seed=int(seed))


def apply_augmentation(grid: VoxelGrid, spec: AugmentSpec, payload: str = "intensity") -> VoxelGrid:
    """Apply a sampled augmentation: rotate, then flip, then gamma.

    ``payload="labels"`` switches to nearest-neighbor rotation and skips
    the gamma transform (label values are not intensities).
    """
    if payload not in ("intensity", "labels"):
        raise ValueError(f"unknown payload {payload!r}")
    if payload == "intensity":
        _require_finite(grid)  # before trilinear rotation spreads a NaN to its neighbours
    interp = "trilinear" if payload == "intensity" else "nearest"
    out = rotate3d(grid, spec.rotation_axis, spec.rotation_deg, interp)
    out = flip3d(out, spec.flip_axes)
    if payload == "intensity":
        out = gamma_transform(out, spec.gamma)
    return out
