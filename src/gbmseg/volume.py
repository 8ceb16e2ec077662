"""Core voxel-grid value types and the BraTS label/region algebra.

Geometry convention used throughout the toolkit: a volume is a 3D grid of
``dims`` voxels indexed ``[i, j, k]``, with physical ``spacing`` in mm per
axis and a 4x4 ``affine`` mapping homogeneous voxel indices to world
coordinates in mm.  The canonical linear (flattened) voxel order is
Fortran order — the first axis varies fastest — matching the on-disk
NIfTI data layout.

Value types are frozen dataclasses; treat the wrapped arrays as immutable.
The region rule is written once, here: :func:`region_members` maps BraTS
labels to ET/TC/WT and :func:`priority_labels` maps them back, ET > TC > WT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

import numpy as np

from .errors import BadLabel, GeometryMismatch, RegionMismatch

BRATS_LABELS = (0, 1, 2, 4)

# labels are checked _LABEL_CHECK_BYTES of payload at a time, so the iterator's
# buffer and the check's booleans stay small whatever the dtype or memory layout
_LABEL_CHECK_BYTES = 1 << 16

_GEOMETRY_ATOL = 1e-5


class Region(Enum):
    """The three evaluated tumor sub-regions."""

    ET = "ET"  # enhancing tumor: label 4
    TC = "TC"  # tumor core: labels 1 and 4
    WT = "WT"  # whole tumor: labels 1, 2 and 4


REGIONS = (Region.ET, Region.TC, Region.WT)


def checked_geometry(spacing, affine=None) -> tuple[tuple[float, float, float], np.ndarray]:
    """Validate one volume's geometry, or raise ValueError.  Spacing must be
    three finite positive reals; the affine, by default diag(spacing, 1), a
    finite 4x4 matrix with |det| >= 1e-12."""
    s = tuple(float(x) for x in spacing)
    if len(s) != 3 or not all(math.isfinite(x) and x > 0 for x in s):
        raise ValueError(f"spacing must be 3 finite positive reals, got {spacing!r}")
    out = np.diag(s + (1.0,)) if affine is None else np.asarray(affine, dtype=np.float64)
    if out.shape != (4, 4) or not np.isfinite(out).all() or abs(np.linalg.det(out)) < 1e-12:
        raise ValueError("affine must be a finite invertible 4x4 matrix")
    return s, out


class _Volume:
    """A 3D payload (the field named by ``_payload``, passed through the
    subclass's ``_checked`` rule) plus its spacing and affine."""

    _payload: ClassVar[str]

    @staticmethod
    def _checked(payload: np.ndarray) -> np.ndarray:
        return payload

    def __post_init__(self):
        payload = np.asarray(getattr(self, self._payload))
        if payload.ndim != 3:
            raise ValueError(f"{self._payload} must be a 3D array, got ndim={payload.ndim}")
        payload = self._checked(payload)
        spacing, affine = checked_geometry(self.spacing, self.affine)
        object.__setattr__(self, self._payload, payload)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "affine", affine)

    @property
    def dims(self) -> tuple[int, int, int]:
        return getattr(self, self._payload).shape


@dataclass(frozen=True, eq=False)
class VoxelGrid(_Volume):
    """A 3D scalar grid with physical spacing and a voxel-to-world affine."""

    values: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    affine: np.ndarray | None = None
    _payload: ClassVar[str] = "values"


@dataclass(frozen=True, eq=False)
class LabelVolume(_Volume):
    """Per-voxel BraTS labels; only the values 0, 1, 2 and 4 may appear."""

    labels: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    affine: np.ndarray | None = None
    _payload: ClassVar[str] = "labels"

    @staticmethod
    def _checked(labels: np.ndarray) -> np.ndarray:
        # Check before the cast: uint8 would wrap 256 round to 0.
        for chunk in np.nditer(labels, flags=["external_loop", "buffered", "refs_ok", "zerosize_ok"],
                               buffersize=_LABEL_CHECK_BYTES // labels.itemsize, order="K"):
            valid = chunk == BRATS_LABELS[0]
            for label in BRATS_LABELS[1:]:
                valid |= chunk == label  # in place: one chunk temporary at a time
            if not valid.all():
                bad = sorted(set(np.unique(labels).tolist()) - set(BRATS_LABELS))
                raise BadLabel(f"labels outside {{0,1,2,4}}: {bad}")
        return labels.astype(np.uint8, copy=False)

    @classmethod
    def from_grid(cls, grid: VoxelGrid) -> "LabelVolume":
        """Reinterpret a scalar grid (e.g. freshly read from disk) as labels."""
        return cls(grid.values, grid.spacing, grid.affine)

    def to_grid(self) -> VoxelGrid:
        return VoxelGrid(self.labels, self.spacing, self.affine)


@dataclass(frozen=True, eq=False)
class RegionMask(_Volume):
    """Binary membership for one evaluated region."""

    member: np.ndarray
    region: Region
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    affine: np.ndarray | None = None
    _payload: ClassVar[str] = "member"

    @staticmethod
    def _checked(member: np.ndarray) -> np.ndarray:
        return member.astype(bool, copy=False)


@dataclass(frozen=True, eq=False)
class ProbabilityVolume(_Volume):
    """Per-voxel probability of membership in one evaluated region."""

    prob: np.ndarray
    region: Region
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    affine: np.ndarray | None = None
    _payload: ClassVar[str] = "prob"

    @staticmethod
    def _checked(prob: np.ndarray) -> np.ndarray:
        prob = prob.astype(np.float64, copy=False)
        # min/max propagate NaN, and NaN fails both comparisons
        if prob.size and not (prob.min() >= 0.0 and prob.max() <= 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        return prob


def geometry_difference(a, b) -> str:
    """The first of dims, spacing and affine (within 1e-5) in which two
    volumes differ, with the values; "" when they share all three.

    Spacing is compared on its own: a volume read from disk takes it from
    pixdim and its affine from the sform, and the two may disagree."""
    if a.dims != b.dims:
        return f"dims {a.dims} vs {b.dims}"
    if not np.allclose(a.spacing, b.spacing, atol=_GEOMETRY_ATOL):
        return f"spacing {a.spacing} vs {b.spacing}"
    if not np.allclose(a.affine, b.affine, atol=_GEOMETRY_ATOL):
        return f"affine entries differ by up to {np.abs(a.affine - b.affine).max():.3g}"
    return ""


def require_same_geometry(*volumes) -> None:
    for other in volumes[1:]:
        difference = geometry_difference(volumes[0], other)
        if difference:
            raise GeometryMismatch(f"geometry differs: {difference}")


def union_box(arrays: list[np.ndarray]) -> tuple[slice, slice, slice]:
    """Slices of the tightest box holding every voxel that some 3D array
    marks nonzero (NaN counts, -0.0 does not, as with ``!= 0``); the empty
    box ``(slice(0, 0),) * 3`` when none does."""
    union = arrays[0].astype(bool, order="K")  # keeps the payload's layout: a C copy of F data is slow
    for array in arrays[1:]:
        np.logical_or(union, array, out=union)
    box = []
    for axis in range(3):
        hit = np.any(union, axis=tuple(a for a in range(3) if a != axis))
        idx = np.flatnonzero(hit)
        if idx.size == 0:
            return (slice(0, 0),) * 3
        box.append(slice(int(idx[0]), int(idx[-1]) + 1))
    return tuple(box)


def region_members(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whether each BraTS label of an array of any shape lies in ET, TC
    and WT, in ``REGIONS`` order: ET is label 4, TC is labels 1 and 4, WT
    is labels 1, 2 and 4, so ET ⊆ TC ⊆ WT."""
    et = labels == 4
    tc = et | (labels == 1)
    wt = tc | (labels == 2)
    return et, tc, wt


def priority_labels(et: np.ndarray, tc: np.ndarray, wt: np.ndarray) -> np.ndarray:
    """``uint8`` BraTS labels of ET/TC/WT memberships, nested or not, by
    priority: 4 inside ET, else 1 inside TC, else 2 inside WT, else 0, in
    ``wt``'s shape and memory order."""
    lab = np.zeros_like(wt, dtype=np.uint8)
    lab[wt] = 2
    lab[tc] = 1
    lab[et] = 4  # assigned last, so the priority holds
    return lab


def compose_regions(labels: LabelVolume) -> tuple[RegionMask, RegionMask, RegionMask]:
    """The ET/TC/WT masks of a label volume, by :func:`region_members`."""
    return tuple(RegionMask(member, region, labels.spacing, labels.affine)
                 for member, region in zip(region_members(labels.labels), REGIONS))


def decompose_regions(et: RegionMask, tc: RegionMask, wt: RegionMask) -> LabelVolume:
    """Map ET/TC/WT masks back to BraTS labels by :func:`priority_labels`."""
    for mask, expected in zip((et, tc, wt), REGIONS):
        if mask.region is not expected:
            raise RegionMismatch(
                f"expected {expected.value} mask, got {mask.region.value}"
            )
    require_same_geometry(et, tc, wt)
    return LabelVolume(priority_labels(et.member, tc.member, wt.member), et.spacing, et.affine)


def binarize(prob: ProbabilityVolume) -> RegionMask:
    """Threshold a probability volume at 0.5 into a hard mask (membership at >=)."""
    return RegionMask(prob.prob >= 0.5, prob.region, prob.spacing, prob.affine)


def count_label(labels: LabelVolume, label: int) -> int:
    """Number of voxels carrying the given BraTS label."""
    if label not in BRATS_LABELS:
        raise BadLabel(f"label must be one of {{0,1,2,4}}, got {label}")
    return int(np.count_nonzero(labels.labels == label))
